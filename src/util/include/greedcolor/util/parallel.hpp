// Thin OpenMP helpers shared by kernels, benches, and tests.
#pragma once

#include <atomic>

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace gcol {

inline int max_threads() {
#if defined(_OPENMP)
  return omp_get_max_threads();
#else
  return 1;
#endif
}

inline int current_thread() {
#if defined(_OPENMP)
  return omp_get_thread_num();
#else
  return 0;
#endif
}

inline int hardware_threads() {
#if defined(_OPENMP)
  return omp_get_num_procs();
#else
  return 1;
#endif
}

/// RAII scope that pins omp_set_num_threads to `n` and restores the
/// previous value on destruction. Kernels take an explicit thread count
/// so a sweep over t ∈ {1,2,4,8,16} never leaks state between runs.
class ThreadCountScope {
 public:
  explicit ThreadCountScope(int n) {
#if defined(_OPENMP)
    previous_ = omp_get_max_threads();
    if (n > 0) omp_set_num_threads(n);
#else
    (void)n;
#endif
  }

  ~ThreadCountScope() {
#if defined(_OPENMP)
    omp_set_num_threads(previous_);
#endif
  }

  ThreadCountScope(const ThreadCountScope&) = delete;
  ThreadCountScope& operator=(const ThreadCountScope&) = delete;

 private:
#if defined(_OPENMP)
  int previous_ = 1;
#endif
};

/// The value a parallel region's threads fold their partial results
/// into: an OpenMP `reduction` whose fork and join ThreadSanitizer can
/// see. libgomp forks and joins its team on futexes tsan cannot see, so
/// the team's reads of what the caller wrote just before the region,
/// and the caller's next access after it (freeing what the team read,
/// say), would report as races. Construct it right before the region (a
/// release store); each thread starts from get() (an acquire load: the
/// fork edge) and ends with fold() (a release CAS), and get() after the
/// region is the acquire load that pairs with every fold (the join
/// edge). CounterSlots::publish is the kernels' form of the join.
template <class T>
class TeamFold {
 public:
  explicit TeamFold(T init) { value_.store(init, std::memory_order_release); }

  [[nodiscard]] T get() const {
    return value_.load(std::memory_order_acquire);
  }

  /// value = op(value, partial), e.g. op = std::ranges::min. Must be the
  /// thread's last action in the region.
  template <class Op>
  void fold(T partial, Op op) {
    T seen = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(seen, op(seen, partial),
                                         std::memory_order_release,
                                         std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<T> value_;
};

}  // namespace gcol
