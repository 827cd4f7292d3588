// Performance microbenchmarks (google-benchmark) plus the copula ablation
// called out in DESIGN.md: correlated vs independent sampling, showing why
// the Cholesky step is cheap enough to be the default.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>

#include "backend/backend.h"
#include "churn/churn_scheduler.h"
#include "engine/checkpoint.h"
#include "churn/interval_timeline.h"
#include "core/fit_pipeline.h"
#include "core/host_generator.h"
#include "engine/service_engine.h"
#include "model/empirical_rank_copula.h"
#include "model/factory.h"
#include "sim/allocator.h"
#include "sim/bag_of_tasks.h"
#include "sim/baseline_models.h"
#include "sim/schedule_state.h"
#include "stats/correlation.h"
#include "stats/fitting.h"
#include "stats/kstest.h"
#include "stats/matrix.h"
#include "store/adapters.h"
#include "store/snapshot.h"
#include "synth/population.h"
#include "util/checksum.h"
#include "util/rng.h"

namespace {

using namespace resmodel;

void BM_HostGeneration(benchmark::State& state) {
  const core::HostGenerator generator(core::paper_params());
  util::Rng rng(1);
  const auto date = util::ModelDate::from_ymd(2010, 9, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.generate(date, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HostGeneration);

// The acceptance pair for the SoA engine: per-host generate() in a loop
// vs generate_batch for the same host count. The batch path hoists every
// date-dependent table (pmfs, moments, the disk log-normal) out of the
// loop and fills contiguous columns; at 1M hosts it must be >= 2x faster.
void BM_HostGenerationLoopAoS(benchmark::State& state) {
  const core::HostGenerator generator(core::paper_params());
  util::Rng rng(2);
  const auto date = util::ModelDate::from_ymd(2010, 9, 1);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.generate_many(date, n, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HostGenerationLoopAoS)
    ->Arg(1000)->Arg(10000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_HostGenerationBatchSoA(benchmark::State& state) {
  const core::HostGenerator generator(core::paper_params());
  util::Rng rng(2);
  const auto date = util::ModelDate::from_ymd(2010, 9, 1);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.generate_batch(date, n, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HostGenerationBatchSoA)
    ->Arg(1000)->Arg(10000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_HostGenerationBatchParallel(benchmark::State& state) {
  const core::HostGenerator generator(core::paper_params());
  const auto date = util::ModelDate::from_ymd(2010, 9, 1);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.generate_batch_parallel(date, n, 2, 0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HostGenerationBatchParallel)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

// One triple draw through each pluggable dependence structure.
void BM_CorrelationModelSample(benchmark::State& state) {
  const core::ModelParams params = core::paper_params();
  std::unique_ptr<model::CorrelationModel> m;
  switch (state.range(0)) {
    case 0:
      m = model::make_correlation_model(model::CorrelationKind::kCholesky,
                                        params.resource_correlation);
      state.SetLabel("cholesky");
      break;
    case 1:
      m = model::make_correlation_model(model::CorrelationKind::kIndependent,
                                        params.resource_correlation);
      state.SetLabel("independent");
      break;
    default: {
      const core::HostGenerator generator(params);
      util::Rng fit_rng(10);
      const auto batch = generator.generate_batch(
          util::ModelDate::from_ymd(2010, 1, 1), 4000, fit_rng);
      const std::vector<std::vector<double>> cols = {
          batch.memory_per_core_mb, batch.whetstone_mips,
          batch.dhrystone_mips};
      m = std::make_unique<model::EmpiricalRankCopula>(
          model::EmpiricalRankCopula::fit(cols));
      state.SetLabel("empirical");
      break;
    }
  }
  util::Rng rng(11);
  double z[3];
  for (auto _ : state) {
    m->sample_normals(4.0, rng, z);
    benchmark::DoNotOptimize(z);
  }
}
BENCHMARK(BM_CorrelationModelSample)->Arg(0)->Arg(1)->Arg(2);

void BM_Cholesky3x3(benchmark::State& state) {
  const stats::Matrix r = stats::Matrix::from_rows({
      {1.0, 0.250, 0.306},
      {0.250, 1.0, 0.639},
      {0.306, 0.639, 1.0},
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::cholesky(r));
  }
}
BENCHMARK(BM_Cholesky3x3);

// Ablation: correlated triple vs three independent normals. The copula
// costs only the L*z multiply; this quantifies it.
void BM_CorrelatedTriple(benchmark::State& state) {
  const auto lower = stats::cholesky(stats::Matrix::from_rows({
      {1.0, 0.250, 0.306},
      {0.250, 1.0, 0.639},
      {0.306, 0.639, 1.0},
  }));
  util::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::correlated_normals(rng, *lower));
  }
}
BENCHMARK(BM_CorrelatedTriple);

void BM_IndependentTriple(benchmark::State& state) {
  util::Rng rng(4);
  for (auto _ : state) {
    double v[3] = {rng.normal(), rng.normal(), rng.normal()};
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_IndependentTriple);

void BM_KsTestSubsampled(benchmark::State& state) {
  const stats::NormalDist dist(2056.0, 1046.0);
  util::Rng rng(5);
  std::vector<double> xs(static_cast<std::size_t>(state.range(0)));
  for (double& x : xs) x = dist.sample(rng);
  for (auto _ : state) {
    util::Rng sub_rng(6);
    benchmark::DoNotOptimize(
        stats::subsampled_ks_p_value(xs, dist, 100, 50, sub_rng));
  }
}
BENCHMARK(BM_KsTestSubsampled)->Arg(10000)->Arg(100000);

void BM_WeibullMle(benchmark::State& state) {
  const stats::WeibullDist truth(0.58, 135.0);
  util::Rng rng(7);
  std::vector<double> xs(static_cast<std::size_t>(state.range(0)));
  for (double& x : xs) x = truth.sample(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::fit_weibull(xs));
  }
}
BENCHMARK(BM_WeibullMle)->Arg(10000);

void BM_PopulationGeneration(benchmark::State& state) {
  synth::PopulationConfig config;
  config.target_active_hosts = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::generate_population(config));
  }
}
BENCHMARK(BM_PopulationGeneration)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_FitPipeline(benchmark::State& state) {
  synth::PopulationConfig config;
  config.target_active_hosts = 2000;
  const trace::TraceStore store = synth::generate_population(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::fit_model(store));
  }
  state.counters["hosts"] = static_cast<double>(store.size());
}
BENCHMARK(BM_FitPipeline)->Unit(benchmark::kMillisecond);

// The acceptance pair for the SoA allocator: the retained pre-SoA
// implementation (per-pair std::pow + comparator index sort) against the
// columnar log-domain path. Both consume the same generated host set; at
// 100k hosts the SoA path must be >= 5x faster in the same Release run.
void BM_RoundRobinAllocationAoS(benchmark::State& state) {
  const core::HostGenerator generator(core::paper_params());
  util::Rng rng(8);
  const std::vector<sim::HostResources> hosts =
      sim::to_host_resources(generator.generate_batch(
          util::ModelDate::from_ymd(2010, 1, 1),
          static_cast<std::size_t>(state.range(0)), rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::allocate_round_robin_reference(sim::paper_applications(), hosts));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RoundRobinAllocationAoS)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_RoundRobinAllocation(benchmark::State& state) {
  const core::HostGenerator generator(core::paper_params());
  util::Rng rng(8);
  const sim::HostResourcesSoA hosts =
      sim::HostResourcesSoA::from_batch(generator.generate_batch(
          util::ModelDate::from_ymd(2010, 1, 1),
          static_cast<std::size_t>(state.range(0)), rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::allocate_round_robin(sim::paper_applications(), hosts));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RoundRobinAllocation)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Arg(1000000)->Unit(benchmark::kMillisecond);

// --- Bag-of-tasks policy kernels (Release CI perf smoke runs these). ---

sim::HostResourcesSoA scheduling_hosts(std::size_t n) {
  const core::HostGenerator generator(core::paper_params());
  util::Rng rng(12);
  return sim::HostResourcesSoA::from_batch(generator.generate_batch(
      util::ModelDate::from_ymd(2010, 1, 1), n, rng));
}

// The acceptance pair for the blocked-MCT rewrite: the retained scalar
// kDynamicEct scan vs the blocked + lower-bound-pruned kernel over the
// columnar ScheduleState, identical hosts and workload (and bit-identical
// results — tests/sim/ enforces that). At 100k hosts / 100k tasks the
// blocked path must be >= 3x faster in the same Release run.
void BM_BagOfTasksEctReference(benchmark::State& state) {
  const sim::HostResourcesSoA hosts =
      scheduling_hosts(static_cast<std::size_t>(state.range(0)));
  sim::BagOfTasksConfig config;
  config.task_count = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    util::Rng rng(99);
    benchmark::DoNotOptimize(sim::run_bag_of_tasks_reference(
        hosts, config, sim::SchedulingPolicy::kDynamicEct, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_BagOfTasksEctReference)
    ->Args({10000, 10000})->Args({100000, 100000})
    ->Unit(benchmark::kMillisecond);

void BM_BagOfTasksEctBlocked(benchmark::State& state) {
  const sim::HostResourcesSoA hosts =
      scheduling_hosts(static_cast<std::size_t>(state.range(0)));
  sim::BagOfTasksConfig config;
  config.task_count = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    util::Rng rng(99);
    benchmark::DoNotOptimize(sim::run_bag_of_tasks(
        hosts, config, sim::SchedulingPolicy::kDynamicEct, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_BagOfTasksEctBlocked)
    ->Args({10000, 10000})->Args({100000, 100000})
    ->Unit(benchmark::kMillisecond);

// The churn acceptance pair: the derate ECT (scalar availability, same
// interval realizations drawn and averaged away) vs the interval-aware
// churn ECT that walks the ON/OFF structure. Both include availability
// realization in the timed region — the delta is the timeline compile
// plus the pruned interval walks, and at 100k hosts / 100k tasks the
// churn path must stay within 3x of the derate path in the same Release
// run.
void BM_BagOfTasksEctDerate(benchmark::State& state) {
  const sim::HostResourcesSoA hosts =
      scheduling_hosts(static_cast<std::size_t>(state.range(0)));
  sim::BagOfTasksConfig config;
  config.task_count = static_cast<std::size_t>(state.range(1));
  config.model_availability = true;
  for (auto _ : state) {
    util::Rng rng(99);
    benchmark::DoNotOptimize(sim::run_bag_of_tasks(
        hosts, config, sim::SchedulingPolicy::kDynamicEct, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_BagOfTasksEctDerate)
    ->Args({10000, 10000})->Args({100000, 100000})
    ->Unit(benchmark::kMillisecond);

void BM_BagOfTasksChurn(benchmark::State& state) {
  const sim::HostResourcesSoA hosts =
      scheduling_hosts(static_cast<std::size_t>(state.range(0)));
  sim::BagOfTasksConfig config;
  config.task_count = static_cast<std::size_t>(state.range(1));
  const sim::SchedulingPolicy policy =
      state.range(2) == 0   ? sim::SchedulingPolicy::kChurnEctCheckpoint
      : state.range(2) == 1 ? sim::SchedulingPolicy::kChurnEctRestart
                            : sim::SchedulingPolicy::kChurnEctAbandon;
  state.SetLabel(state.range(2) == 0   ? "checkpoint"
                 : state.range(2) == 1 ? "restart"
                                       : "abandon");
  for (auto _ : state) {
    util::Rng rng(99);
    benchmark::DoNotOptimize(sim::run_bag_of_tasks(hosts, config, policy,
                                                   rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_BagOfTasksChurn)
    ->Args({10000, 10000, 0})->Args({10000, 10000, 1})
    ->Args({10000, 10000, 2})
    ->Args({100000, 100000, 0})
    ->Unit(benchmark::kMillisecond);

// The fault-tolerant distribution layer: 2-of-3 quorum replication with
// deadline re-issue over a population with 14% faulty hosts (crash /
// straggler / corrupter). Beyond the wall time, this exports the outcome
// counters as deterministic metrics — in particular lost_tasks, the
// zero-silently-lost-tasks invariant (issued minus the three resolution
// codes), which the CI counter gate holds at exactly zero.
void BM_BagOfTasksReplicated(benchmark::State& state) {
  const sim::HostResourcesSoA hosts =
      scheduling_hosts(static_cast<std::size_t>(state.range(0)));
  sim::BagOfTasksConfig config;
  config.task_count = static_cast<std::size_t>(state.range(1));
  config.replication.enabled = true;
  config.replication.quorum = 2;
  config.replication.replicas = 3;
  config.replication.deadline_days = 4.0;
  config.fault_mix.crash_fraction = 0.06;
  config.fault_mix.straggler_fraction = 0.04;
  config.fault_mix.corrupter_fraction = 0.04;
  const sim::SchedulingPolicy policy =
      state.range(2) == 0 ? sim::SchedulingPolicy::kDynamicEct
                          : sim::SchedulingPolicy::kChurnEctCheckpoint;
  state.SetLabel(state.range(2) == 0 ? "ect" : "churn-checkpoint");
  sim::BagOfTasksResult result;
  for (auto _ : state) {
    util::Rng rng(99);
    result = sim::run_bag_of_tasks(hosts, config, policy, rng);
    benchmark::DoNotOptimize(result);
  }
  const sim::ReplicationOutcome& o = result.replication;
  state.counters["tasks_issued"] = static_cast<double>(o.tasks_issued);
  state.counters["tasks_validated"] = static_cast<double>(o.tasks_validated);
  state.counters["tasks_invalid"] = static_cast<double>(o.tasks_invalid);
  state.counters["tasks_missed_deadline"] =
      static_cast<double>(o.tasks_missed_deadline);
  state.counters["lost_tasks"] = static_cast<double>(
      o.tasks_issued -
      (o.tasks_validated + o.tasks_invalid + o.tasks_missed_deadline));
  state.counters["reissues"] = static_cast<double>(o.reissues);
  state.counters["wasted_replica_cpu_days"] = o.wasted_replica_cpu_days;
  state.counters["makespan_days"] = result.makespan_days;
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_BagOfTasksReplicated)
    ->Args({10000, 10000, 0})->Args({10000, 10000, 1})
    ->Args({100000, 100000, 0})->Args({100000, 100000, 1})
    ->Unit(benchmark::kMillisecond);

// The sharded virtual-time service engine (src/engine/) end to end:
// cohort construction plus the full N-clients x D-virtual-days drain,
// with a representative fault mix. items/s is requests served per wall
// second — the paper-scale acceptance number the recorded BENCH_*.json
// reports at 1M clients x 7 days. The exported counters are
// deterministic and shard/thread-invariant (the engine oracle tests
// prove bit-identity), so tools/compare_bench.py diffs them in CI;
// engine_units_unaccounted is the conservation invariant held at zero.
// Args: {clients, virtual days, shards}. The 1M-client row is the
// recorded-bench headline and is excluded from the CI perf smoke.
void BM_EngineServe(benchmark::State& state) {
  engine::EngineConfig config;
  config.cohort_clients = static_cast<std::uint64_t>(state.range(0));
  config.cohort_horizon_days = static_cast<double>(state.range(1));
  config.shards = static_cast<std::uint32_t>(state.range(2));
  config.threads = 0;  // all cores
  config.collection.population.seed = 424242;
  config.collection.client.mean_contact_interval_days = 1.0;
  config.collection.client.model_availability = true;
  config.collection.fault_mix.crash_fraction = 0.06;
  config.collection.fault_mix.straggler_fraction = 0.04;
  config.collection.fault_mix.corrupter_fraction = 0.04;
  engine::EngineResult result;
  for (auto _ : state) {
    result = engine::run_service_engine(config);
    benchmark::DoNotOptimize(result);
  }
  state.counters["engine_requests"] =
      static_cast<double>(result.total_contacts);
  state.counters["engine_units_granted"] =
      static_cast<double>(result.total_units_granted);
  state.counters["engine_units_reported"] =
      static_cast<double>(result.total_units_reported);
  state.counters["engine_units_unaccounted"] =
      static_cast<double>(result.units_unaccounted());
  state.counters["requests_per_second"] = result.requests_per_second;
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(result.total_contacts));
}
BENCHMARK(BM_EngineServe)
    ->Args({100000, 7, 1})->Args({100000, 7, 8})->Args({1000000, 7, 8})
    ->Unit(benchmark::kMillisecond);

// The BM_EngineServe cohort with checkpointing riding the day barriers
// (epoch every 2 virtual days): the serve-throughput price of crash
// safety, read against BM_EngineServe/100000/7/8 in the same run.
// Separate name on purpose — adding args to BM_EngineServe would change
// its recorded-baseline names and break compare_bench.py matching.
void BM_EngineServeCheckpointed(benchmark::State& state) {
  engine::EngineConfig config;
  config.cohort_clients = static_cast<std::uint64_t>(state.range(0));
  config.cohort_horizon_days = static_cast<double>(state.range(1));
  config.shards = static_cast<std::uint32_t>(state.range(2));
  config.threads = 0;
  config.collection.population.seed = 424242;
  config.collection.client.mean_contact_interval_days = 1.0;
  config.collection.client.model_availability = true;
  config.collection.fault_mix.crash_fraction = 0.06;
  config.collection.fault_mix.straggler_fraction = 0.04;
  config.collection.fault_mix.corrupter_fraction = 0.04;
  config.checkpoint_path = "/tmp/resmodel_bench_serve_ck.snap";
  config.checkpoint_every_days = 2;
  engine::EngineResult result;
  for (auto _ : state) {
    result = engine::run_service_engine(config);
    benchmark::DoNotOptimize(result);
  }
  state.counters["engine_requests"] =
      static_cast<double>(result.total_contacts);
  state.counters["engine_units_unaccounted"] =
      static_cast<double>(result.units_unaccounted());
  state.counters["checkpoint_epochs"] =
      static_cast<double>(result.checkpoints_written);
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(result.total_contacts));
  std::remove(config.checkpoint_path.c_str());
}
BENCHMARK(BM_EngineServeCheckpointed)
    ->Args({100000, 7, 8})->Unit(benchmark::kMillisecond);

/// Publishes a mid-run (day 3 of 7) checkpoint of the BM_EngineServe
/// cohort and returns its path — shared setup for the checkpoint-write
/// and resume benchmarks below.
std::string engine_bench_checkpoint(std::int64_t clients,
                                    engine::EngineConfig* out_config) {
  engine::EngineConfig config;
  config.cohort_clients = static_cast<std::uint64_t>(clients);
  config.cohort_horizon_days = 7.0;
  config.shards = 8;
  config.threads = 0;
  config.collection.population.seed = 424242;
  config.collection.client.mean_contact_interval_days = 1.0;
  config.collection.client.model_availability = true;
  config.collection.fault_mix.crash_fraction = 0.06;
  config.collection.fault_mix.straggler_fraction = 0.04;
  config.collection.fault_mix.corrupter_fraction = 0.04;
  if (out_config) *out_config = config;
  engine::EngineConfig killed = config;
  killed.checkpoint_path =
      "/tmp/resmodel_bench_engine_ck_" + std::to_string(clients) + ".snap";
  killed.checkpoint_every_days = 4;
  killed.stop_after_day = 3;
  engine::run_service_engine(killed);
  return killed.checkpoint_path;
}

// Serialization + atomic publish of the complete 100k-client engine
// state (MB/s is the headline: bytes = the published snapshot's size).
void BM_EngineCheckpoint(benchmark::State& state) {
  const std::string path =
      engine_bench_checkpoint(state.range(0), nullptr);
  engine::CheckpointState ck = engine::load_checkpoint(path);
  const std::string out = path + ".rewrite";
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    engine::write_checkpoint(out, ck.meta, ck.shards, ck.coordinator.get());
    benchmark::DoNotOptimize(out);
  }
  {
    std::ifstream in(out, std::ios::binary | std::ios::ate);
    bytes = static_cast<std::uint64_t>(in.tellg());
  }
  state.counters["checkpoint_bytes"] = static_cast<double>(bytes);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
  std::remove(out.c_str());
  std::remove(path.c_str());
}
BENCHMARK(BM_EngineCheckpoint)->Arg(100000)->Unit(benchmark::kMillisecond);

// Resume latency: reconstruct the full run from the mid-run checkpoint
// and drain the remaining virtual days. engine_resume_divergence is the
// summed absolute distance between the resumed run's final counters and
// an uninterrupted run's — recorded at 0 and pinned there by the CI
// zero-baseline counter gate (bit-identity as a benchmark counter).
void BM_EngineResume(benchmark::State& state) {
  engine::EngineConfig uninterrupted;
  const std::string path =
      engine_bench_checkpoint(state.range(0), &uninterrupted);
  const engine::EngineResult reference =
      engine::run_service_engine(uninterrupted);
  engine::EngineConfig resume;
  resume.resume_path = path;
  resume.threads = 0;
  engine::EngineResult result;
  for (auto _ : state) {
    result = engine::run_service_engine(resume);
    benchmark::DoNotOptimize(result);
  }
  const auto dist = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a > b ? a - b : b - a);
  };
  const double divergence =
      dist(result.total_contacts, reference.total_contacts) +
      dist(result.total_units_granted, reference.total_units_granted) +
      dist(result.total_units_reported, reference.total_units_reported) +
      dist(result.total_units_lost, reference.total_units_lost) +
      dist(result.total_units_expired, reference.total_units_expired) +
      dist(result.total_invalid_result_units,
           reference.total_invalid_result_units) +
      dist(result.units_in_flight, reference.units_in_flight) +
      (result.total_credit_granted == reference.total_credit_granted ? 0.0
                                                                     : 1.0);
  state.counters["engine_resume_divergence"] = divergence;
  state.counters["engine_requests"] =
      static_cast<double>(result.total_contacts);
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(result.total_contacts));
  std::remove(path.c_str());
}
BENCHMARK(BM_EngineResume)->Arg(100000)->Unit(benchmark::kMillisecond);

// kDynamicPull's priority_queue kernel at the kernel level, on a prebuilt
// ScheduleState and task vector — end-to-end runs bury the heap cost
// under task sampling and rate derivation.
std::vector<double> pull_bench_rates(std::size_t n) {
  const sim::HostResourcesSoA hosts = scheduling_hosts(n);
  sim::BagOfTasksConfig config;
  util::Rng rng(99);
  return sim::compute_host_rates(hosts, config, rng);
}

std::vector<double> pull_bench_tasks(std::size_t n) {
  std::vector<double> tasks(n);
  util::Rng rng(7);
  for (double& t : tasks) t = 500.0 + rng.uniform() * 8000.0;
  return tasks;
}

void BM_PullKernelPriorityQueue(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> rates = pull_bench_rates(n);
  const std::vector<double> tasks = pull_bench_tasks(n);
  for (auto _ : state) {
    sim::ScheduleState sched = sim::ScheduleState::from_rates(rates);
    benchmark::DoNotOptimize(sim::pull_schedule(sched, tasks));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PullKernelPriorityQueue)->Arg(10000)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

// kStaticSpeedWeighted: the retained full deficit scan vs the
// block-pruned kernel, on a prebuilt rate-sorted ScheduleState (copied per
// iteration, a column memcpy) and task vector, so the timed region is the
// dealing loop alone. Identical makespans are the bit-identity witness.
void speed_weighted_kernel_bench(benchmark::State& state, bool blocked) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> tasks = pull_bench_tasks(n);
  sim::ScheduleState base =
      sim::ScheduleState::from_rates(pull_bench_rates(n));
  base.ensure_ect_caches();
  sim::DynamicScheduleTotals totals;
  for (auto _ : state) {
    sim::ScheduleState sched = base;
    totals = blocked ? sim::speed_weighted_schedule_blocked(sched, tasks)
                     : sim::speed_weighted_schedule_reference(sched, tasks);
    benchmark::DoNotOptimize(totals);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["makespan_days"] = totals.makespan_days;
}

void BM_SpeedWeightedKernelReference(benchmark::State& state) {
  speed_weighted_kernel_bench(state, /*blocked=*/false);
}
BENCHMARK(BM_SpeedWeightedKernelReference)->Arg(10000)->Arg(30000)
    ->Unit(benchmark::kMillisecond);

void BM_SpeedWeightedKernelBlocked(benchmark::State& state) {
  speed_weighted_kernel_bench(state, /*blocked=*/true);
}
BENCHMARK(BM_SpeedWeightedKernelBlocked)->Arg(10000)->Arg(30000)
    ->Unit(benchmark::kMillisecond);

// The interval-walking kernels in isolation (prebuilt state + timeline,
// no availability realization or task sampling in the timed region).
// Mode 0 is the envelope gate over float32-packed columns, mode 3 the
// full-walk scalar oracle; both produce bit-identical checkpoint
// schedules. Mode 4 runs kAbandon on the default configuration: its
// selection is the shared warm-started EctBlockIndex, so its
// swept_blocks_per_task tracks that index's pruning. Modes 1 and 2 (the
// retired f64 and bucket gate arms) are left unused so that the
// surviving names keep matching their recorded baselines. The exported
// counters are deterministic kernel-shape telemetry
// (tools/compare_bench.py diffs them machine-independently in CI).
void BM_ChurnKernel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> rates = pull_bench_rates(n);
  const std::vector<double> tasks = pull_bench_tasks(n);
  util::Rng tl_rng(17);
  const churn::IntervalTimeline timeline = churn::IntervalTimeline::generate(
      synth::AvailabilityModel{}, n, 0.0, 100.0, tl_rng);
  const int mode = static_cast<int>(state.range(1));
  churn::ChurnSchedulerConfig config;
  bool reference = false;
  churn::InterruptionPolicy policy = churn::InterruptionPolicy::kCheckpoint;
  switch (mode) {
    case 0:
      state.SetLabel("envelope-f32");
      break;
    case 4:
      policy = churn::InterruptionPolicy::kAbandon;
      state.SetLabel("abandon");
      break;
    default:
      reference = true;
      state.SetLabel("reference");
      break;
  }
  churn::ChurnScheduleTotals totals;
  for (auto _ : state) {
    sim::ScheduleState sched = sim::ScheduleState::from_rates(rates);
    churn::ChurnScheduler scheduler(sched, timeline, config);
    totals = reference ? scheduler.run_reference(tasks, policy)
                       : scheduler.run(tasks, policy);
    benchmark::DoNotOptimize(totals);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  const double per_task = 1.0 / static_cast<double>(tasks.size());
  state.counters["makespan_days"] = totals.makespan_days;
  state.counters["swept_blocks_per_task"] =
      static_cast<double>(totals.swept_blocks) * per_task;
  state.counters["resolved_lanes_per_task"] =
      static_cast<double>(totals.resolved_lanes) * per_task;
}
BENCHMARK(BM_ChurnKernel)
    ->Args({10000, 0})->Args({10000, 3})->Args({10000, 4})
    ->Args({100000, 0})
    ->Unit(benchmark::kMillisecond);

// --- Backend-arm pairs (src/backend/): blocked autovectorized kernels
// vs the explicit-SIMD intrinsic arms, same inputs, bit-identical
// results (the counters and makespans below are the cross-arm identity
// witness tools/compare_bench.py checks). Arm arg: 0 = blocked, 1 =
// simd (resolved against the CPU; on hardware without AVX2/AVX-512 the
// simd request falls back to blocked and the label says so).

backend::Backend bench_backend(benchmark::State& state, int arm) {
  if (arm == 0) {
    state.SetLabel("blocked");
    return backend::Backend::kBlocked;
  }
  const backend::ResolvedBackend rb = backend::resolve(backend::Backend::kSimd);
  state.SetLabel(rb.arm == backend::Backend::kSimd
                     ? "simd-" + backend::to_string(rb.simd)
                     : "simd-fallback-blocked");
  return backend::Backend::kSimd;
}

// The ECT scan kernel per arm: prebuilt rate-sorted state copied per
// iteration (column memcpy — the same warm start run_policy_sweep uses),
// so the timed region is the blocked/SIMD min-reduction sweep itself. At
// 100k hosts / 100k tasks the simd arm must be >= 1.4x the blocked arm
// in the same Release run, with identical makespans.
void BM_EctKernelBackend(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> rates = pull_bench_rates(n);
  const std::vector<double> tasks = pull_bench_tasks(n);
  sim::ScheduleState base = sim::ScheduleState::from_rates(rates);
  base.ensure_ect_caches();
  base.backend = bench_backend(state, static_cast<int>(state.range(1)));
  sim::DynamicScheduleTotals totals;
  for (auto _ : state) {
    sim::ScheduleState sched = base;
    totals = sim::ect_schedule_blocked(sched, tasks);
    benchmark::DoNotOptimize(totals);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["makespan_days"] = totals.makespan_days;
}
BENCHMARK(BM_EctKernelBackend)
    ->Args({10000, 0})->Args({10000, 1})
    ->Args({100000, 0})->Args({100000, 1})
    ->Unit(benchmark::kMillisecond);

// The churn gate sweep per arm (the configuration BM_ChurnKernel mode 0
// measures). Same
// >= 1.4x acceptance at 100k/100k, with identical swept_blocks_per_task /
// resolved_lanes_per_task / makespan_days counters across arms.
void BM_ChurnKernelBackend(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> rates = pull_bench_rates(n);
  const std::vector<double> tasks = pull_bench_tasks(n);
  util::Rng tl_rng(17);
  const churn::IntervalTimeline timeline = churn::IntervalTimeline::generate(
      synth::AvailabilityModel{}, n, 0.0, 100.0, tl_rng);
  churn::ChurnSchedulerConfig config;
  config.backend = bench_backend(state, static_cast<int>(state.range(1)));
  churn::ChurnScheduleTotals totals;
  for (auto _ : state) {
    sim::ScheduleState sched = sim::ScheduleState::from_rates(rates);
    churn::ChurnScheduler scheduler(sched, timeline, config);
    totals = scheduler.run(tasks, churn::InterruptionPolicy::kCheckpoint);
    benchmark::DoNotOptimize(totals);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  const double per_task = 1.0 / static_cast<double>(tasks.size());
  state.counters["makespan_days"] = totals.makespan_days;
  state.counters["swept_blocks_per_task"] =
      static_cast<double>(totals.swept_blocks) * per_task;
  state.counters["resolved_lanes_per_task"] =
      static_cast<double>(totals.resolved_lanes) * per_task;
}
BENCHMARK(BM_ChurnKernelBackend)
    ->Args({10000, 0})->Args({10000, 1})
    ->Args({100000, 0})->Args({100000, 1})
    ->Unit(benchmark::kMillisecond);

// One full policy x dependence-structure grid through the parallel sweep
// runner (the CLI `sweep` command's engine).
void BM_PolicySweepGrid(benchmark::State& state) {
  std::vector<sim::SweepPopulation> populations;
  populations.push_back({"hosts", scheduling_hosts(
      static_cast<std::size_t>(state.range(0)))});
  sim::PolicySweepConfig sweep;
  sweep.policies = {
      sim::SchedulingPolicy::kStaticRoundRobin,
      sim::SchedulingPolicy::kDynamicPull,
      sim::SchedulingPolicy::kDynamicEct,
  };
  sweep.task_counts = {static_cast<std::size_t>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_policy_sweep(populations, sweep));
  }
}
BENCHMARK(BM_PolicySweepGrid)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_PearsonCorrelation(benchmark::State& state) {
  util::Rng rng(9);
  std::vector<double> xs(100000), ys(100000);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng.normal();
    ys[i] = 0.5 * xs[i] + rng.normal();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::pearson(xs, ys));
  }
}
BENCHMARK(BM_PearsonCorrelation);

// --- columnar snapshot store (src/store/): pack / unpack / verify ----------
// Throughput of the durable artifact path `resmodel pack/unpack` uses;
// SetBytesProcessed reports logical column bytes (44 B/host), so bytes/s
// is comparable across shard sizes and row counts.

core::GeneratedHostBatch snapshot_bench_population(std::size_t n) {
  util::Rng rng(0xBE7C);
  core::GeneratedHostBatch batch;
  batch.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch.n_cores[i] = 1 + static_cast<int>(rng.uniform_index(16));
    batch.memory_per_core_mb[i] =
        static_cast<double>(rng.uniform_index(1u << 20)) / 256.0;
    batch.memory_mb[i] = batch.memory_per_core_mb[i] * batch.n_cores[i];
    batch.whetstone_mips[i] = static_cast<double>(rng.uniform_index(1u << 22));
    batch.dhrystone_mips[i] = static_cast<double>(rng.uniform_index(1u << 22));
    batch.disk_avail_gb[i] =
        static_cast<double>(rng.uniform_index(1u << 18)) / 4.0;
  }
  return batch;
}

constexpr std::size_t kSnapshotBytesPerHost = sizeof(int) + 5 * sizeof(double);

void BM_SnapshotPackPopulation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const core::GeneratedHostBatch batch = snapshot_bench_population(n);
  const std::string path = "/tmp/resmodel_bench_pack.snap";
  for (auto _ : state) {
    store::write_population_snapshot(path, batch, /*shard_rows=*/1u << 18);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * n * kSnapshotBytesPerHost));
  std::remove(path.c_str());
}
BENCHMARK(BM_SnapshotPackPopulation)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_SnapshotUnpackPopulation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::string path = "/tmp/resmodel_bench_unpack.snap";
  store::write_population_snapshot(path, snapshot_bench_population(n),
                                   1u << 18);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store::read_population_snapshot(path));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * n * kSnapshotBytesPerHost));
  std::remove(path.c_str());
}
BENCHMARK(BM_SnapshotUnpackPopulation)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_SnapshotVerify(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::string path = "/tmp/resmodel_bench_verify.snap";
  store::write_population_snapshot(path, snapshot_bench_population(n),
                                   1u << 18);
  for (auto _ : state) {
    store::SnapshotReader reader(path);
    benchmark::DoNotOptimize(reader.verify());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * n * kSnapshotBytesPerHost));
  std::remove(path.c_str());
}
BENCHMARK(BM_SnapshotVerify)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

// --- CRC32C (src/util/checksum.h): the table oracle vs the dispatched arm --
// A page, a 2 MiB cache-resident buffer and a 64 MiB streaming one; every
// snapshot and checkpoint walk is bound by this loop.

void crc32c_bench(benchmark::State& state,
                  std::uint32_t (*crc)(const void*, std::size_t,
                                       std::uint32_t) noexcept) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(0xC2C);
  std::vector<unsigned char> bytes(n);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc(bytes.data(), bytes.size(), 0));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * n));
}

void BM_Crc32cTable(benchmark::State& state) {
  crc32c_bench(state, util::crc32c_table);
}
BENCHMARK(BM_Crc32cTable)->Arg(4096)->Arg(2097152)->Arg(67108864);

void BM_Crc32cDispatched(benchmark::State& state) {
  crc32c_bench(state, util::crc32c);
}
BENCHMARK(BM_Crc32cDispatched)->Arg(4096)->Arg(2097152)->Arg(67108864);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): records whether *this* binary
// (and therefore the statically linked resmodel library) was compiled with
// NDEBUG. The stock "library_build_type" context key describes the
// system-packaged google-benchmark shared library — Debian builds it
// without NDEBUG, so it reports "debug" regardless of our flags;
// "resmodel_build_type" is the key tools/run_bench.sh asserts on.
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("resmodel_build_type", "release");
#else
  benchmark::AddCustomContext("resmodel_build_type", "debug");
#endif
  // What the dispatch layer resolved on this machine (after any
  // RESMODEL_SIMD cap): the default arm every kAuto caller gets, and the
  // feature set it picked from — so a recorded BENCH_*.json says which
  // kernels produced it.
  {
    namespace be = resmodel::backend;
    const be::ResolvedBackend rb = be::resolve(be::Backend::kAuto);
    std::string arm = be::to_string(rb.arm);
    if (rb.arm == be::Backend::kSimd) arm += "-" + be::to_string(rb.simd);
    benchmark::AddCustomContext("resmodel_backend", arm);
    benchmark::AddCustomContext("resmodel_cpu_features",
                                be::cpu_feature_string());
    benchmark::AddCustomContext("resmodel_crc32c",
                                resmodel::util::crc32c_arm());
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
