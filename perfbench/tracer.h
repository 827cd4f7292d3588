// In-memory span recorder for the benchmark's traced run.
//
// Spans are taken around calls into the library's public functions (the
// program itself carries no instrumentation). Each span has a name, an
// optional detail tag, a start and an end on one steady clock, its parent
// span (0 = top level), the recording thread and the run id shared by
// every span of one traced pass. Counters sit beside the spans so that
// ratios are measured where the work happens. Nothing is written until
// write_json() runs at the end of the pass.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "store/io.h"

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(std::string run_id);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Seconds since the tracer was created.
  double now() const;

  std::uint32_t open(std::string name, std::string detail,
                     std::uint32_t parent);
  void close(std::uint32_t id);

  void add(const std::string& counter, double value);
  void set(const std::string& counter, double value);

  /// Writes {"run_id", "spans": [...with self_s...], "counters"} to `path`.
  void write_json(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::string name;
    std::string detail;
    double start = 0.0;
    double end = -1.0;
    std::uint32_t thread = 0;
  };

  std::string run_id_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;  // guards spans_, counters_, threads_
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
  std::map<std::thread::id, std::uint32_t> threads_;
};

/// RAII span. By default it nests under the calling thread's innermost
/// open span; pass `parent` explicitly for work handed to other threads.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, std::string detail = {});
  Scope(Tracer& tracer, std::string name, std::string detail,
        std::uint32_t parent);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint32_t id() const noexcept { return id_; }
  /// Seconds since the span opened.
  double elapsed() const;

 private:
  Tracer& tracer_;
  std::uint32_t id_;
  std::uint32_t saved_;
  double start_;
};

/// store::FileSystem decorator that times every append, fsync, close and
/// rename of the real file system and counts the bytes appended
/// (counters store.append_s, store.fsync_s, store.close_s,
/// store.rename_s, store.bytes).
class TimingFileSystem final : public resmodel::store::FileSystem {
 public:
  explicit TimingFileSystem(Tracer& tracer) : tracer_(tracer) {}

  TimingFileSystem(const TimingFileSystem&) = delete;
  TimingFileSystem& operator=(const TimingFileSystem&) = delete;

  std::unique_ptr<resmodel::store::WritableFile> create(const std::string& path) override;
  void rename(const std::string& from, const std::string& to) override;
  void remove(const std::string& path) noexcept override;

  /// Bytes appended through this file system so far.
  std::uint64_t bytes_appended() const noexcept { return bytes_; }

 private:
  friend class TimingFile;
  Tracer& tracer_;
  std::uint64_t bytes_ = 0;
};

/// Runs fn(job) for jobs [0, count) on min(threads, count) workers, the
/// calling thread included, spawning the helpers per call exactly like
/// the engine's pool does. The first worker exception is rethrown after
/// the pool joins.
template <typename Fn>
void parallel_for(std::size_t count, int threads, Fn&& fn) {
  if (count == 0) return;
  std::size_t workers = threads > 0 ? static_cast<std::size_t>(threads)
                                    : std::thread::hardware_concurrency();
  workers = std::max<std::size_t>(1, std::min(workers, count));
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(workers);
  const auto worker = [&](std::size_t w) noexcept {
    try {
      for (std::size_t job; (job = next.fetch_add(1)) < count;) fn(job);
    } catch (...) {
      errors[w] = std::current_exception();
      next.store(count);
    }
  };
  {
    std::vector<std::jthread> pool;
    pool.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(worker, w);
    worker(0);
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// Resident set size of this process right now, in bytes.
std::uint64_t current_rss_bytes();

}  // namespace perfbench
