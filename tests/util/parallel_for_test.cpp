#include "util/parallel_for.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace resmodel::util {
namespace {

TEST(ParallelFor, EveryJobRunsExactlyOnceOnAtMostCountThreads) {
  for (const std::size_t count : {std::size_t{0}, std::size_t{1},
                                  std::size_t{1000}}) {
    for (const int threads : {0, 1, 3, 64}) {
      std::vector<std::atomic<int>> runs(count);
      std::mutex mutex;
      std::set<std::thread::id> ids;
      parallel_for(count, threads, [&](std::size_t job) {
        runs[job].fetch_add(1);
        const std::lock_guard<std::mutex> lock(mutex);
        ids.insert(std::this_thread::get_id());
      });
      for (std::size_t job = 0; job < count; ++job) {
        EXPECT_EQ(runs[job].load(), 1)
            << "job " << job << " count " << count << " threads " << threads;
      }
      EXPECT_LE(ids.size(), count) << "threads " << threads;
      EXPECT_LE(ids.size(), static_cast<std::size_t>(worker_count(threads)));
    }
  }
}

TEST(ParallelFor, OneWorkerRunsEverythingOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const auto& [count, threads] :
       {std::pair<std::size_t, int>{50, 1}, {1, 64}}) {
    std::vector<std::size_t> order;
    parallel_for(count, threads, [&](std::size_t job) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(job);
    });
    ASSERT_EQ(order.size(), count);
    for (std::size_t job = 0; job < count; ++job) EXPECT_EQ(order[job], job);
  }
}

TEST(ParallelFor, WorkerCountResolvesNonPositiveToHardware) {
  EXPECT_EQ(worker_count(5), 5);
  EXPECT_GE(worker_count(0), 1);
  EXPECT_EQ(worker_count(-3), worker_count(0));
}

TEST(ParallelFor, ExceptionFromSpawnedWorkerReachesCaller) {
  // Two jobs on two workers. A job on the calling thread (worker 0)
  // blocks until a spawned worker has taken the other job, so the throw
  // always comes from a non-zero worker.
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mutex;
  std::condition_variable cv;
  bool spawned_started = false;
  std::atomic<int> jobs_started{0};
  const auto body = [&](std::size_t) {
    jobs_started.fetch_add(1);
    if (std::this_thread::get_id() == caller) {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait_for(lock, std::chrono::seconds(30),
                  [&] { return spawned_started; });
      return;
    }
    {
      const std::lock_guard<std::mutex> lock(mutex);
      spawned_started = true;
    }
    cv.notify_all();
    throw std::runtime_error("worker failure");
  };
  try {
    parallel_for(2, 2, body);
    FAIL() << "the worker exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "worker failure");
  }
  EXPECT_TRUE(spawned_started);
  EXPECT_LE(jobs_started.load(), 2);
}

TEST(ParallelFor, ExceptionStarvesRemainingJobs) {
  // Job 0 (claimed first) throws at once; every other job takes a
  // millisecond, so the pool stops long before it could run them all.
  constexpr std::size_t kJobs = 2000;
  std::atomic<std::size_t> jobs_started{0};
  EXPECT_THROW(parallel_for(kJobs, 3,
                            [&](std::size_t job) {
                              jobs_started.fetch_add(1);
                              if (job == 0) throw std::invalid_argument("job 0");
                              std::this_thread::sleep_for(
                                  std::chrono::milliseconds(1));
                            }),
               std::invalid_argument);
  EXPECT_LT(jobs_started.load(), kJobs);
}

}  // namespace
}  // namespace resmodel::util
