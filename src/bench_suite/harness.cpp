#include "bench_suite/harness.h"

#include <algorithm>
#include <vector>

#include "util/parallel_for.h"

namespace resmodel::bench_suite {

MultiCoreScore run_on_all_cores(
    const std::function<BenchmarkScore(double)>& benchmark, double seconds,
    int threads) {
  const int n = util::worker_count(threads);
  std::vector<BenchmarkScore> scores(static_cast<std::size_t>(n));
  // One job per worker, so all n benchmarks run at once.
  util::parallel_for(scores.size(), n, [&](std::size_t i) {
    scores[i] = benchmark(seconds);
  });

  MultiCoreScore result;
  result.threads = n;
  result.min_mips = scores.front().mips;
  result.max_mips = scores.front().mips;
  double sum = 0.0;
  for (const BenchmarkScore& s : scores) {
    sum += s.mips;
    result.min_mips = std::min(result.min_mips, s.mips);
    result.max_mips = std::max(result.max_mips, s.mips);
  }
  result.average_mips = sum / n;
  return result;
}

}  // namespace resmodel::bench_suite
