#include "core/host_generator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "model/cholesky_gaussian.h"
#include "stats/distributions.h"
#include "stats/special_functions.h"
#include "util/parallel_for.h"

namespace resmodel::core {

namespace {
// Benchmarks are strictly positive physical quantities; a normal marginal
// with a large variance can stray below zero, so clamp to a floor around
// the slowest plausible volunteer host (an early Pentium, ~25 MIPS).
// The paper's Figure 12 shows the same effect absorbed into the CDF tail.
constexpr double kMinMips = 25.0;

// Chunk size of the deterministic parallel engines. Each chunk gets its own
// (seed, chunk)-derived stream, so results are thread-count invariant.
constexpr std::size_t kChunk = 4096;

std::uint64_t chunk_seed(std::uint64_t seed, std::size_t chunk) noexcept {
  return seed ^ (0x9e3779b97f4a7c15ULL * (chunk + 1));
}
}  // namespace

// Everything about a target date the per-host loop would otherwise
// recompute: the two discrete pmfs, the benchmark moments and the
// moment-matched disk log-normal.
struct HostGenerator::DateContext {
  double t;
  std::vector<double> cores_pmf;
  std::vector<double> memory_pmf;
  double whetstone_mean, whetstone_sd;
  double dhrystone_mean, dhrystone_sd;
  stats::LogNormalDist disk;
};

HostGenerator::HostGenerator(ModelParams params)
    : HostGenerator(std::move(params), nullptr) {}

HostGenerator::HostGenerator(
    ModelParams params,
    std::shared_ptr<const model::CorrelationModel> correlation)
    : params_(std::move(params)), correlation_(std::move(correlation)) {
  params_.validate();
  if (!correlation_) {
    correlation_ = std::make_shared<model::CholeskyGaussian>(
        params_.resource_correlation);
  }
  if (correlation_->dimension() != model::kTripleDim) {
    throw std::invalid_argument(
        "HostGenerator: correlation model must have dimension 3 "
        "({mem/core, Whetstone, Dhrystone})");
  }
}

GeneratedHost HostGenerator::generate(util::ModelDate date,
                                      util::Rng& rng) const {
  const double t = date.t();
  GeneratedHost host;

  // 1. Core count: discrete pmf from the chained ratios.
  host.n_cores = static_cast<int>(params_.cores.quantile(t, rng.uniform()));

  // 2. Correlated standard-normal triple.
  double vc[model::kTripleDim];
  correlation_->sample_normals(t, rng, vc);

  // 3. Per-core memory: normal -> uniform -> discrete quantile.
  const double u = stats::normal_cdf(vc[kMemPerCore]);
  host.memory_per_core_mb = params_.memory_per_core_mb.quantile(t, u);
  host.memory_mb = host.memory_per_core_mb * host.n_cores;

  // 4. Benchmarks: renormalize to the predicted mean/variance.
  host.whetstone_mips =
      std::max(kMinMips, params_.whetstone.mean(t) +
                             vc[kWhetstone] * params_.whetstone.stddev(t));
  host.dhrystone_mips =
      std::max(kMinMips, params_.dhrystone.mean(t) +
                             vc[kDhrystone] * params_.dhrystone.stddev(t));

  // 5. Disk: independent log-normal with the predicted moments.
  const auto disk = stats::LogNormalDist::from_moments(
      params_.disk_gb.mean(t), params_.disk_gb.variance(t));
  host.disk_avail_gb = disk.sample(rng);

  return host;
}

std::vector<GeneratedHost> HostGenerator::generate_many(
    util::ModelDate date, std::size_t count, util::Rng& rng) const {
  std::vector<GeneratedHost> hosts;
  hosts.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    hosts.push_back(generate(date, rng));
  }
  return hosts;
}

std::vector<GeneratedHost> HostGenerator::generate_many_parallel(
    util::ModelDate date, std::size_t count, std::uint64_t seed,
    int threads) const {
  return generate_batch_parallel(date, count, seed, threads).to_hosts();
}

HostGenerator::DateContext HostGenerator::date_context(
    util::ModelDate date) const {
  const double t = date.t();
  return DateContext{
      t,
      params_.cores.pmf(t),
      params_.memory_per_core_mb.pmf(t),
      params_.whetstone.mean(t),
      params_.whetstone.stddev(t),
      params_.dhrystone.mean(t),
      params_.dhrystone.stddev(t),
      stats::LogNormalDist::from_moments(params_.disk_gb.mean(t),
                                         params_.disk_gb.variance(t)),
  };
}

void HostGenerator::fill_range(GeneratedHostBatch& batch, std::size_t begin,
                               std::size_t end, const DateContext& ctx,
                               util::Rng& rng) const {
  const model::CorrelationModel& correlation = *correlation_;
  for (std::size_t i = begin; i < end; ++i) {
    const int cores = static_cast<int>(
        params_.cores.quantile_from_pmf(ctx.cores_pmf, rng.uniform()));

    double vc[model::kTripleDim];
    correlation.sample_normals(ctx.t, rng, vc);

    const double u = stats::normal_cdf(vc[kMemPerCore]);
    const double per_core =
        params_.memory_per_core_mb.quantile_from_pmf(ctx.memory_pmf, u);

    batch.n_cores[i] = cores;
    batch.memory_per_core_mb[i] = per_core;
    batch.memory_mb[i] = per_core * cores;
    batch.whetstone_mips[i] = std::max(
        kMinMips, ctx.whetstone_mean + vc[kWhetstone] * ctx.whetstone_sd);
    batch.dhrystone_mips[i] = std::max(
        kMinMips, ctx.dhrystone_mean + vc[kDhrystone] * ctx.dhrystone_sd);
    batch.disk_avail_gb[i] = ctx.disk.sample(rng);
  }
}

GeneratedHostBatch HostGenerator::generate_batch(util::ModelDate date,
                                                 std::size_t count,
                                                 util::Rng& rng) const {
  GeneratedHostBatch batch;
  batch.resize(count);
  const DateContext ctx = date_context(date);
  fill_range(batch, 0, count, ctx, rng);
  return batch;
}

GeneratedHostBatch HostGenerator::generate_batch_parallel(
    util::ModelDate date, std::size_t count, std::uint64_t seed,
    int threads) const {
  GeneratedHostBatch batch;
  batch.resize(count);
  const DateContext ctx = date_context(date);
  const std::size_t chunk_count = (count + kChunk - 1) / kChunk;
  util::parallel_for(chunk_count, threads, [&](std::size_t chunk) {
    // Chunk-local stream: depends only on (seed, chunk index), so the
    // result is independent of which thread runs which chunk.
    util::Rng rng(chunk_seed(seed, chunk));
    const std::size_t begin = chunk * kChunk;
    const std::size_t end = std::min(count, begin + kChunk);
    fill_range(batch, begin, end, ctx, rng);
  });
  return batch;
}

void GeneratedHostBatch::resize(std::size_t n) {
  n_cores.resize(n);
  memory_per_core_mb.resize(n);
  memory_mb.resize(n);
  whetstone_mips.resize(n);
  dhrystone_mips.resize(n);
  disk_avail_gb.resize(n);
}

GeneratedHost GeneratedHostBatch::host(std::size_t i) const noexcept {
  return GeneratedHost{n_cores[i],        memory_per_core_mb[i],
                       memory_mb[i],      whetstone_mips[i],
                       dhrystone_mips[i], disk_avail_gb[i]};
}

std::vector<GeneratedHost> GeneratedHostBatch::to_hosts() const {
  std::vector<GeneratedHost> hosts;
  hosts.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) hosts.push_back(host(i));
  return hosts;
}

GeneratedColumns columns_of(const std::vector<GeneratedHost>& hosts) {
  GeneratedColumns cols;
  cols.cores.reserve(hosts.size());
  cols.memory_mb.reserve(hosts.size());
  cols.memory_per_core_mb.reserve(hosts.size());
  cols.whetstone_mips.reserve(hosts.size());
  cols.dhrystone_mips.reserve(hosts.size());
  cols.disk_avail_gb.reserve(hosts.size());
  for (const GeneratedHost& h : hosts) {
    cols.cores.push_back(static_cast<double>(h.n_cores));
    cols.memory_mb.push_back(h.memory_mb);
    cols.memory_per_core_mb.push_back(h.memory_per_core_mb);
    cols.whetstone_mips.push_back(h.whetstone_mips);
    cols.dhrystone_mips.push_back(h.dhrystone_mips);
    cols.disk_avail_gb.push_back(h.disk_avail_gb);
  }
  return cols;
}

GeneratedColumns columns_of(const GeneratedHostBatch& batch) {
  GeneratedColumns cols;
  cols.cores.assign(batch.n_cores.begin(), batch.n_cores.end());
  cols.memory_mb = batch.memory_mb;
  cols.memory_per_core_mb = batch.memory_per_core_mb;
  cols.whetstone_mips = batch.whetstone_mips;
  cols.dhrystone_mips = batch.dhrystone_mips;
  cols.disk_avail_gb = batch.disk_avail_gb;
  return cols;
}

}  // namespace resmodel::core
