#pragma once
#include <cstddef>
#define SRSR_CHECK(cond, ...) ((void)(cond))
namespace fx {
double checked_entry(double alpha, std::size_t n);
inline double scale_by(double x, double factor) { return x * factor; }
struct Scaler {
  double factor = 2.0;
  // The call statement in this inline body is not a declaration.
  double apply(double x) const { return scale_by(x, factor); }
};
}
