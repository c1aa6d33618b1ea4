#include "obs/span.hpp"

#include <chrono>
#include <memory>
#include <mutex>

namespace srsr::obs {

namespace detail {
std::atomic<bool> g_tracing_enabled{false};
}  // namespace detail

namespace {

constexpr std::size_t kRingCapacity = 8192;

u64 now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Global id allocator. Span ids and trace ids share one sequence —
/// uniqueness is all that matters, and one relaxed fetch_add is the
/// cheapest way to get it across threads.
std::atomic<u64> g_next_id{1};

u64 next_id() { return g_next_id.fetch_add(1, std::memory_order_relaxed); }

/// Per-thread ring of finished spans. Written only by its owner thread
/// (relaxed stores); collect_spans() reads the write cursor with
/// acquire and copies — a snapshot, per the header contract.
struct ThreadRing {
  std::vector<SpanRecord> slots{std::vector<SpanRecord>(kRingCapacity)};
  std::atomic<u64> written{0};  // total spans pushed (monotonic)
  u32 thread_index = 0;

  void push(const SpanRecord& rec) {
    const u64 n = written.load(std::memory_order_relaxed);
    slots[n % kRingCapacity] = rec;
    // Publishes the slot write above. pairs-with: span-ring-cursor
    written.store(n + 1, std::memory_order_release);
  }
};

/// Registry of all thread rings. Rings are leaked deliberately: a
/// detached thread's spans must stay collectable after the thread
/// exits. The registry itself is never destroyed either, so the rings
/// stay reachable through it at exit (a destroyed `rings` vector would
/// turn every ring into a leak report under LeakSanitizer).
struct RingRegistry {
  std::mutex mutex;
  std::vector<ThreadRing*> rings;

  static RingRegistry& instance() {
    static auto* const reg = new RingRegistry;
    return *reg;
  }

  ThreadRing* make_ring() {
    auto* ring = new ThreadRing;
    const std::lock_guard<std::mutex> lock(mutex);
    ring->thread_index = static_cast<u32>(rings.size());
    rings.push_back(ring);
    return ring;
  }
};

ThreadRing& local_ring() {
  thread_local ThreadRing* ring = RingRegistry::instance().make_ring();
  return *ring;
}

/// The calling thread's open-span cursor (rule 1 of the header).
thread_local SpanContext t_current{};

}  // namespace

void set_tracing_enabled(bool on) {
  detail::g_tracing_enabled.store(on, std::memory_order_relaxed);
}

SpanContext current_span_context() { return t_current; }

const SpanContext Span::kInherit{};

Span::Span(const char* name, const SpanContext& parent, bool explicit_parent)
    : name_(name) {
  if (!tracing_enabled()) return;  // the one guard on the disabled path
  active_ = true;
  const SpanContext effective = explicit_parent ? parent : t_current;
  ctx_.trace_id = effective.valid() ? effective.trace_id : next_id();
  ctx_.span_id = next_id();
  parent_id_ = effective.valid() ? effective.span_id : 0;
  saved_ = t_current;
  t_current = ctx_;
  installed_ = true;
  start_ns_ = now_ns();
}

void Span::finish() {
  if (!active_) return;
  active_ = false;
  const u64 end = now_ns();
  if (installed_) {
    t_current = saved_;
    installed_ = false;
  }
  ThreadRing& ring = local_ring();
  SpanRecord rec;
  rec.trace_id = ctx_.trace_id;
  rec.span_id = ctx_.span_id;
  rec.parent_id = parent_id_;
  rec.name = name_;
  rec.start_ns = start_ns_;
  rec.duration_ns = end - start_ns_;
  rec.thread_index = ring.thread_index;
  ring.push(rec);
}

std::vector<SpanRecord> collect_spans() {
  auto& reg = RingRegistry::instance();
  std::vector<ThreadRing*> rings;
  {
    const std::lock_guard<std::mutex> lock(reg.mutex);
    rings = reg.rings;
  }
  std::vector<SpanRecord> out;
  for (ThreadRing* ring : rings) {
    // pairs-with: span-ring-cursor
    const u64 written = ring->written.load(std::memory_order_acquire);
    const u64 kept = written < kRingCapacity ? written : kRingCapacity;
    out.reserve(out.size() + kept);
    for (u64 i = written - kept; i < written; ++i)
      out.push_back(ring->slots[i % kRingCapacity]);
  }
  return out;
}

void clear_spans() {
  auto& reg = RingRegistry::instance();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (ThreadRing* ring : reg.rings) {
    // Owner threads may push concurrently; resetting the cursor from
    // here is a benign snapshot-level race, same as collect_spans().
    // pairs-with: span-ring-cursor
    ring->written.store(0, std::memory_order_release);
  }
}

std::size_t span_ring_capacity() { return kRingCapacity; }

}  // namespace srsr::obs
