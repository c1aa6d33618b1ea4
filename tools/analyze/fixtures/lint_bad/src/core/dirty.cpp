#include <cstdio>
#include <cstdlib>
namespace fx {
int noisy() {
  printf("scores ready\n");
  return rand();
}
void guarded(int v) { srsr::check(v > 0, "v must be positive"); }
}
