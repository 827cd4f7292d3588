// The one worker pool of the library: every parallel phase (engine
// shards and cohort wrap-up, allocator score phase, policy-sweep cells,
// availability timelines, batched host generation, the multi-core bench
// harness) runs its independent jobs through parallel_for.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

namespace resmodel::util {

/// The pool width a `threads` request resolves to: threads itself when
/// positive, else hardware_concurrency() (at least 1).
inline int worker_count(int threads) noexcept {
  if (threads > 0) return threads;
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// Runs fn(job) for every job in [0, count) on
/// min(worker_count(threads), count) workers. The calling thread is
/// worker 0 and only the extra workers are spawned. Jobs are claimed in
/// ascending order off one atomic counter, so any worker may run any
/// job: callers that need thread-count-invariant output make each job
/// depend only on its index. The first worker exception (in worker
/// order) is rethrown on the calling thread after the pool joins; the
/// worker that threw starves the rest, so no new job starts after it.
template <typename Fn>
void parallel_for(std::size_t count, int threads, Fn&& fn) {
  if (count == 0) return;
  const int n_workers = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(worker_count(threads)), count));
  if (n_workers == 1) {
    for (std::size_t job = 0; job < count; ++job) fn(job);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(n_workers));
  const auto worker = [&](int w) noexcept {
    try {
      for (std::size_t job; (job = next.fetch_add(1)) < count;) fn(job);
    } catch (...) {
      errors[static_cast<std::size_t>(w)] = std::current_exception();
      // Starve the remaining workers so the pool winds down promptly.
      next.store(count);
    }
  };
  {
    std::vector<std::jthread> pool;
    pool.reserve(static_cast<std::size_t>(n_workers - 1));
    for (int w = 1; w < n_workers; ++w) pool.emplace_back(worker, w);
    worker(0);
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace resmodel::util
