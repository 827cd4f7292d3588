#include "sim/bag_of_tasks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "churn/block_envelope.h"
#include "core/host_generator.h"
#include "util/rng.h"

namespace resmodel::sim {
namespace {

std::vector<HostResources> model_hosts(std::size_t n, std::uint64_t seed) {
  const core::HostGenerator gen(core::paper_params());
  util::Rng rng(seed);
  const auto generated =
      gen.generate_many(util::ModelDate::from_ymd(2010, 1, 1), n, rng);
  std::vector<HostResources> hosts;
  for (const core::GeneratedHost& g : generated) {
    hosts.push_back({static_cast<double>(g.n_cores), g.memory_mb,
                     g.dhrystone_mips, g.whetstone_mips, g.disk_avail_gb});
  }
  return hosts;
}

std::vector<HostResources> uniform_hosts(std::size_t n, double whet) {
  std::vector<HostResources> hosts(n);
  for (HostResources& h : hosts) {
    h.cores = 1;
    h.whetstone_mips = whet;
    h.dhrystone_mips = whet * 2;
    h.memory_mb = 1024;
    h.disk_avail_gb = 10;
  }
  return hosts;
}

TEST(BagOfTasks, RejectsBadInputs) {
  util::Rng rng(1);
  BagOfTasksConfig config;
  EXPECT_THROW(run_bag_of_tasks(std::vector<HostResources>{}, config,
                                SchedulingPolicy::kDynamicPull, rng),
               std::invalid_argument);
  config.task_count = 0;
  EXPECT_THROW(run_bag_of_tasks(uniform_hosts(2, 1000), config,
                                SchedulingPolicy::kDynamicPull, rng),
               std::invalid_argument);
}

TEST(BagOfTasks, HomogeneousHostsAllPoliciesAgree) {
  // Identical hosts: any sensible policy spreads evenly, and the makespan
  // is ~ total work / aggregate rate.
  util::Rng r1(2), r2(2), r3(2);
  BagOfTasksConfig config;
  config.task_count = 4000;
  const auto hosts = uniform_hosts(50, 1000.0);
  const auto rr = run_bag_of_tasks(hosts, config,
                                   SchedulingPolicy::kStaticRoundRobin, r1);
  const auto sw = run_bag_of_tasks(
      hosts, config, SchedulingPolicy::kStaticSpeedWeighted, r2);
  const auto pull =
      run_bag_of_tasks(hosts, config, SchedulingPolicy::kDynamicPull, r3);
  EXPECT_NEAR(rr.makespan_days / sw.makespan_days, 1.0, 0.1);
  EXPECT_NEAR(rr.makespan_days / pull.makespan_days, 1.0, 0.1);
  // Conservation: identical seeds -> identical workload and rates.
  EXPECT_NEAR(rr.total_cpu_days, sw.total_cpu_days, 1e-9);
  EXPECT_NEAR(rr.total_cpu_days, pull.total_cpu_days, 1e-9);
}

TEST(BagOfTasks, HeterogeneousHostsPunishKnowledgeFreeStriping) {
  // On the real (correlated) host mixture, blind striping is dragged down
  // by the slowest hosts; dynamic pull and speed-weighted dealing are far
  // better. This is the motivation-section claim made executable.
  util::Rng r1(3), r2(3), r3(3);
  BagOfTasksConfig config;
  config.task_count = 5000;
  const auto hosts = model_hosts(300, 4);
  const auto rr = run_bag_of_tasks(hosts, config,
                                   SchedulingPolicy::kStaticRoundRobin, r1);
  const auto sw = run_bag_of_tasks(
      hosts, config, SchedulingPolicy::kStaticSpeedWeighted, r2);
  const auto ect =
      run_bag_of_tasks(hosts, config, SchedulingPolicy::kDynamicEct, r3);
  EXPECT_GT(rr.makespan_days, 1.5 * ect.makespan_days);
  EXPECT_GT(rr.makespan_days, 1.5 * sw.makespan_days);
}

TEST(BagOfTasks, DynamicEctBeatsOrMatchesStaticSpeedWeighted) {
  util::Rng r1(5), r2(5);
  BagOfTasksConfig config;
  config.task_count = 3000;
  const auto hosts = model_hosts(200, 6);
  const auto sw = run_bag_of_tasks(
      hosts, config, SchedulingPolicy::kStaticSpeedWeighted, r1);
  const auto ect =
      run_bag_of_tasks(hosts, config, SchedulingPolicy::kDynamicEct, r2);
  EXPECT_LE(ect.makespan_days, sw.makespan_days * 1.05);
}

TEST(BagOfTasks, NaivePullSuffersStragglers) {
  // The correlated model occasionally produces near-zero-speed hosts (the
  // clamped normal tail); knowledge-free pull hands them tasks and the
  // makespan explodes relative to completion-time-aware ECT.
  util::Rng r1(5), r2(5);
  BagOfTasksConfig config;
  config.task_count = 3000;
  const auto hosts = model_hosts(200, 6);
  const auto pull =
      run_bag_of_tasks(hosts, config, SchedulingPolicy::kDynamicPull, r1);
  const auto ect =
      run_bag_of_tasks(hosts, config, SchedulingPolicy::kDynamicEct, r2);
  EXPECT_GE(pull.makespan_days, ect.makespan_days);
}

TEST(BagOfTasks, MakespanBoundsHold) {
  util::Rng rng(7);
  BagOfTasksConfig config;
  config.task_count = 1000;
  const auto hosts = model_hosts(100, 8);
  const auto result =
      run_bag_of_tasks(hosts, config, SchedulingPolicy::kDynamicPull, rng);
  // Makespan >= total work / aggregate capacity (perfect balance bound)
  // and >= the mean busy time.
  EXPECT_GE(result.makespan_days + 1e-9, result.mean_host_busy_days);
  EXPECT_GT(result.makespan_days, 0.0);
  EXPECT_EQ(result.hosts_used, hosts.size());  // more tasks than hosts
  EXPECT_NEAR(result.max_host_busy_days, result.makespan_days,
              result.makespan_days * 0.5);
}

TEST(BagOfTasks, AvailabilityOverlayIncreasesMakespan) {
  BagOfTasksConfig plain;
  plain.task_count = 2000;
  BagOfTasksConfig derated = plain;
  derated.model_availability = true;
  const auto hosts = model_hosts(150, 9);
  util::Rng r1(10), r2(10);
  const auto fast =
      run_bag_of_tasks(hosts, plain, SchedulingPolicy::kDynamicPull, r1);
  const auto slow =
      run_bag_of_tasks(hosts, derated, SchedulingPolicy::kDynamicPull, r2);
  EXPECT_GT(slow.makespan_days, fast.makespan_days);
}

TEST(BagOfTasks, PolicyNamesAreStable) {
  EXPECT_EQ(to_string(SchedulingPolicy::kStaticRoundRobin),
            "static round-robin");
  EXPECT_EQ(to_string(SchedulingPolicy::kStaticSpeedWeighted),
            "static speed-weighted");
  EXPECT_EQ(to_string(SchedulingPolicy::kDynamicPull), "dynamic pull");
  EXPECT_EQ(to_string(SchedulingPolicy::kDynamicEct), "dynamic ECT");
}

TEST(BagOfTasks, DeterministicForFixedSeed) {
  BagOfTasksConfig config;
  config.task_count = 500;
  const auto hosts = model_hosts(50, 11);
  util::Rng r1(12), r2(12);
  const auto a =
      run_bag_of_tasks(hosts, config, SchedulingPolicy::kDynamicPull, r1);
  const auto b =
      run_bag_of_tasks(hosts, config, SchedulingPolicy::kDynamicPull, r2);
  EXPECT_DOUBLE_EQ(a.makespan_days, b.makespan_days);
  EXPECT_DOUBLE_EQ(a.total_cpu_days, b.total_cpu_days);
}

TEST(BagOfTasks, SoAOverloadMatchesAoSPath) {
  // The columnar overload promises identical semantics and rng
  // consumption: same seed, same hosts => bit-identical results, with and
  // without the availability overlay (one rng fork per host).
  const std::vector<HostResources> hosts = model_hosts(120, 9);
  const HostResourcesSoA soa = HostResourcesSoA::from_hosts(hosts);
  BagOfTasksConfig config;
  config.task_count = 800;
  const SchedulingPolicy policies[] = {
      SchedulingPolicy::kStaticRoundRobin,
      SchedulingPolicy::kStaticSpeedWeighted,
      SchedulingPolicy::kDynamicPull,
      SchedulingPolicy::kDynamicEct,
  };
  for (const bool availability : {false, true}) {
    config.model_availability = availability;
    for (const SchedulingPolicy policy : policies) {
      util::Rng rng_aos(31);
      util::Rng rng_soa(31);
      const BagOfTasksResult aos =
          run_bag_of_tasks(hosts, config, policy, rng_aos);
      const BagOfTasksResult via_soa =
          run_bag_of_tasks(soa, config, policy, rng_soa);
      EXPECT_DOUBLE_EQ(aos.makespan_days, via_soa.makespan_days);
      EXPECT_DOUBLE_EQ(aos.total_cpu_days, via_soa.total_cpu_days);
      EXPECT_DOUBLE_EQ(aos.max_host_busy_days, via_soa.max_host_busy_days);
      EXPECT_EQ(aos.hosts_used, via_soa.hosts_used);
    }
  }
}

void expect_results_identical(const BagOfTasksResult& a,
                              const BagOfTasksResult& b) {
  EXPECT_EQ(a.makespan_days, b.makespan_days);
  EXPECT_EQ(a.total_cpu_days, b.total_cpu_days);
  EXPECT_EQ(a.mean_host_busy_days, b.mean_host_busy_days);
  EXPECT_EQ(a.max_host_busy_days, b.max_host_busy_days);
  EXPECT_EQ(a.hosts_used, b.hosts_used);
  EXPECT_EQ(a.wasted_cpu_days, b.wasted_cpu_days);
  EXPECT_EQ(a.interruptions, b.interruptions);
}

TEST(BagOfTasks, FastPathBitIdenticalToReference) {
  // The blocked-MCT, block-pruned speed-weighted, 4-ary-heap and
  // interval-walking kernels promise results bit-identical to the
  // retained scalar / full-scan / priority_queue / full-walk reference
  // kernels — for every policy, with and without the availability
  // overlay, on both entry points. 300 hosts = 4 full pruning blocks plus
  // a 44-host tail.
  const std::vector<HostResources> hosts = model_hosts(300, 13);
  const HostResourcesSoA soa = HostResourcesSoA::from_hosts(hosts);
  BagOfTasksConfig config;
  config.task_count = 1500;
  const SchedulingPolicy policies[] = {
      SchedulingPolicy::kStaticRoundRobin,
      SchedulingPolicy::kStaticSpeedWeighted,
      SchedulingPolicy::kDynamicPull,
      SchedulingPolicy::kDynamicEct,
      SchedulingPolicy::kChurnEctCheckpoint,
      SchedulingPolicy::kChurnEctRestart,
      SchedulingPolicy::kChurnEctAbandon,
  };
  for (const bool availability : {false, true}) {
    config.model_availability = availability;
    for (const SchedulingPolicy policy : policies) {
      util::Rng r1(41), r2(41), r3(41);
      const BagOfTasksResult fast = run_bag_of_tasks(soa, config, policy, r1);
      const BagOfTasksResult ref =
          run_bag_of_tasks_reference(soa, config, policy, r2);
      const BagOfTasksResult ref_aos =
          run_bag_of_tasks_reference(hosts, config, policy, r3);
      expect_results_identical(fast, ref);
      expect_results_identical(fast, ref_aos);
    }
  }
}

TEST(BagOfTasks, ChurnPoliciesModelRealInterruptions) {
  const auto hosts = model_hosts(150, 14);
  BagOfTasksConfig config;
  config.task_count = 1200;
  util::Rng r1(51), r2(51), r3(51), r4(51);
  const auto derate = run_bag_of_tasks(
      hosts, [] {
        BagOfTasksConfig c;
        c.task_count = 1200;
        c.model_availability = true;
        return c;
      }(), SchedulingPolicy::kDynamicEct, r1);
  const auto ckpt = run_bag_of_tasks(
      hosts, config, SchedulingPolicy::kChurnEctCheckpoint, r2);
  const auto restart = run_bag_of_tasks(
      hosts, config, SchedulingPolicy::kChurnEctRestart, r3);
  const auto abandon = run_bag_of_tasks(
      hosts, config, SchedulingPolicy::kChurnEctAbandon, r4);

  // Checkpointing never wastes work; restart and abandon burn real ON
  // time on the heavy-tailed session mix.
  EXPECT_DOUBLE_EQ(ckpt.wasted_cpu_days, 0.0);
  EXPECT_EQ(ckpt.interruptions, 0u);
  EXPECT_GT(restart.interruptions, 0u);
  EXPECT_GT(restart.wasted_cpu_days, 0.0);
  EXPECT_GT(abandon.interruptions, 0u);
  // All four are sane, positive schedules.
  EXPECT_GT(derate.makespan_days, 0.0);
  EXPECT_GT(ckpt.makespan_days, 0.0);
  EXPECT_GE(restart.makespan_days, ckpt.makespan_days * 0.999);
  EXPECT_GT(abandon.makespan_days, 0.0);
}

TEST(BagOfTasks, CoupledAvailabilityMakespanIsMonotoneInRho) {
  // Fast-but-flaky (rho < 0) must hurt interval-aware ECT more than
  // uncorrelated coupling, which must hurt more than fast-and-steady
  // (rho > 0) — the coupling's end-to-end signature.
  const auto hosts = model_hosts(400, 15);
  BagOfTasksConfig config;
  config.task_count = 4000;
  config.availability_coupled = true;
  double last = -1.0;
  for (const double rho : {-0.5, 0.0, 0.5}) {
    config.availability_coupling.speed_rho = rho;
    util::Rng rng(61);
    const auto result = run_bag_of_tasks(
        hosts, config, SchedulingPolicy::kChurnEctCheckpoint, rng);
    if (last >= 0.0) {
      EXPECT_LT(result.makespan_days, last) << "rho " << rho;
    }
    last = result.makespan_days;
  }
}

TEST(BagOfTasks, ComputeHostRatesSoAMatchesAoSStream) {
  // The batched SoA derating path must consume the rng identically to the
  // AoS loop: one fork per host, in host order. Identical rate columns
  // AND identical generator state afterwards.
  const std::vector<HostResources> hosts = model_hosts(150, 17);
  const HostResourcesSoA soa = HostResourcesSoA::from_hosts(hosts);
  BagOfTasksConfig config;
  config.model_availability = true;
  util::Rng rng_aos(55), rng_soa(55);
  const std::vector<double> aos = compute_host_rates(hosts, config, rng_aos);
  const std::vector<double> via_soa =
      compute_host_rates(soa, config, rng_soa);
  ASSERT_EQ(aos.size(), via_soa.size());
  for (std::size_t h = 0; h < aos.size(); ++h) {
    EXPECT_EQ(aos[h], via_soa[h]) << "host " << h;
  }
  EXPECT_EQ(rng_aos.next(), rng_soa.next());
}

TEST(BagOfTasks, StaticMakespanIsMaxBusyWithoutExtraPass) {
  const auto hosts = model_hosts(100, 19);
  BagOfTasksConfig config;
  config.task_count = 700;
  for (const SchedulingPolicy policy :
       {SchedulingPolicy::kStaticRoundRobin,
        SchedulingPolicy::kStaticSpeedWeighted}) {
    util::Rng rng(23);
    const BagOfTasksResult result =
        run_bag_of_tasks(hosts, config, policy, rng);
    EXPECT_EQ(result.makespan_days, result.max_host_busy_days);
  }
}

TEST(PolicySweep, CellsMatchDirectRunsAndThreadCountIsIrrelevant) {
  std::vector<SweepPopulation> populations;
  populations.push_back(
      {"small", HostResourcesSoA::from_hosts(model_hosts(80, 25))});
  populations.push_back(
      {"large", HostResourcesSoA::from_hosts(model_hosts(130, 26))});

  PolicySweepConfig sweep;
  sweep.policies = {
      SchedulingPolicy::kStaticRoundRobin,
      SchedulingPolicy::kStaticSpeedWeighted,
      SchedulingPolicy::kDynamicPull,
      SchedulingPolicy::kDynamicEct,
      SchedulingPolicy::kChurnEctCheckpoint,
      SchedulingPolicy::kChurnEctRestart,
      SchedulingPolicy::kChurnEctAbandon,
  };
  sweep.task_counts = {150, 400};
  sweep.base.model_availability = true;
  // Coupling on, so the copula draws are part of the shared stream too.
  sweep.base.availability_coupled = true;
  sweep.base.availability_coupling.speed_rho = -0.3;
  sweep.workload_seed = 777;

  sweep.threads = 1;
  const PolicySweepResult serial = run_policy_sweep(populations, sweep);
  sweep.threads = 4;
  const PolicySweepResult parallel = run_policy_sweep(populations, sweep);
  ASSERT_EQ(serial.cells.size(),
            populations.size() * sweep.policies.size() *
                sweep.task_counts.size());

  for (std::size_t p = 0; p < populations.size(); ++p) {
    for (std::size_t pol = 0; pol < sweep.policies.size(); ++pol) {
      for (std::size_t t = 0; t < sweep.task_counts.size(); ++t) {
        const PolicySweepCell& cell = serial.at(p, pol, t);
        EXPECT_EQ(cell.population, p);
        EXPECT_EQ(cell.policy, pol);
        EXPECT_EQ(cell.task_count, t);
        expect_results_identical(cell.result,
                                 parallel.at(p, pol, t).result);
        // Every cell is exactly one deterministic run_bag_of_tasks call.
        BagOfTasksConfig direct_config = sweep.base;
        direct_config.task_count = sweep.task_counts[t];
        util::Rng direct_rng(sweep.workload_seed);
        const BagOfTasksResult direct = run_bag_of_tasks(
            populations[p].hosts, direct_config, sweep.policies[pol],
            direct_rng);
        expect_results_identical(cell.result, direct);
      }
    }
  }
}

// Runs `sweep` at 1 and 4 threads and checks every cell against its
// standalone run_bag_of_tasks, replication outcome included.
void expect_sweep_cells_match_standalone(
    const std::vector<SweepPopulation>& populations, PolicySweepConfig sweep) {
  for (const int threads : {1, 4}) {
    sweep.threads = threads;
    const PolicySweepResult grid = run_policy_sweep(populations, sweep);
    for (std::size_t p = 0; p < populations.size(); ++p) {
      for (std::size_t pol = 0; pol < sweep.policies.size(); ++pol) {
        for (std::size_t t = 0; t < sweep.task_counts.size(); ++t) {
          SCOPED_TRACE(testing::Message()
                       << threads << " threads, population " << p
                       << ", policy " << pol << ", task count " << t);
          BagOfTasksConfig direct = sweep.base;
          direct.task_count = sweep.task_counts[t];
          util::Rng rng(sweep.workload_seed);
          const BagOfTasksResult standalone = run_bag_of_tasks(
              populations[p].hosts, direct, sweep.policies[pol], rng);
          const BagOfTasksResult& cell = grid.at(p, pol, t).result;
          expect_results_identical(cell, standalone);
          EXPECT_EQ(cell.replication.tasks_validated,
                    standalone.replication.tasks_validated);
          EXPECT_EQ(cell.replication.replicas_issued,
                    standalone.replication.replicas_issued);
          EXPECT_EQ(cell.replication.reissues,
                    standalone.replication.reissues);
          EXPECT_EQ(cell.replication.wasted_replica_cpu_days,
                    standalone.replication.wasted_replica_cpu_days);
        }
      }
    }
  }
}

TEST(PolicySweep, EqualSizeUncoupledPopulationsShareOneRealization) {
  // Two equal-size populations with uncoupled availability: the sweep
  // draws ONE realization and hands it to both (the draw reads only the
  // host count and the seed). With coupling on, the draw ranks against
  // each population's own speeds and must not be shared. Either way each
  // cell — derate, churn and replicated — equals its standalone run.
  std::vector<SweepPopulation> populations;
  populations.push_back(
      {"a", HostResourcesSoA::from_hosts(model_hosts(96, 33))});
  populations.push_back(
      {"b", HostResourcesSoA::from_hosts(model_hosts(96, 34))});
  PolicySweepConfig sweep;
  sweep.policies = {SchedulingPolicy::kDynamicEct,
                    SchedulingPolicy::kChurnEctCheckpoint,
                    SchedulingPolicy::kChurnEctAbandon};
  sweep.task_counts = {150};
  sweep.workload_seed = 818;
  sweep.base.model_availability = true;
  PolicySweepConfig replicated = sweep;
  replicated.policies = {SchedulingPolicy::kDynamicEct};
  replicated.base.replication.enabled = true;
  replicated.base.replication.quorum = 2;
  replicated.base.replication.replicas = 3;
  replicated.base.fault_mix.crash_fraction = 0.1;
  for (const bool coupled : {false, true}) {
    SCOPED_TRACE(coupled ? "coupled" : "uncoupled");
    for (PolicySweepConfig* config : {&sweep, &replicated}) {
      config->base.availability_coupled = coupled;
      config->base.availability_coupling.speed_rho = -0.4;
      expect_sweep_cells_match_standalone(populations, *config);
    }
  }
}

TEST(PolicySweep, ChurnCellsMatchStandaloneWithoutDerateFlag) {
  // model_availability = false with churn policies present: churn cells
  // resume the rng from the post-realization state, derate-free cells
  // from the untouched seed state — both must equal their standalone
  // runs.
  std::vector<SweepPopulation> populations;
  populations.push_back(
      {"pop", HostResourcesSoA::from_hosts(model_hosts(90, 28))});
  PolicySweepConfig sweep;
  sweep.policies = {SchedulingPolicy::kDynamicEct,
                    SchedulingPolicy::kChurnEctCheckpoint,
                    SchedulingPolicy::kChurnEctAbandon};
  sweep.task_counts = {200};
  sweep.workload_seed = 555;
  const PolicySweepResult grid = run_policy_sweep(populations, sweep);
  for (std::size_t pol = 0; pol < sweep.policies.size(); ++pol) {
    BagOfTasksConfig direct = sweep.base;
    direct.task_count = 200;
    util::Rng rng(555);
    const auto standalone = run_bag_of_tasks(populations[0].hosts, direct,
                                             sweep.policies[pol], rng);
    expect_results_identical(grid.at(0, pol, 0).result, standalone);
  }
}

TEST(PolicySweep, ChurnLevelsKnobCellsMatchStandaloneRuns) {
  // The lookahead-depth knob rides through the sweep's warm-state path
  // (shared ScheduleState caches + churn cursor seed); cells at a
  // non-default depth must still equal their standalone runs bit for
  // bit, at any thread count.
  std::vector<SweepPopulation> populations;
  populations.push_back(
      {"pop", HostResourcesSoA::from_hosts(model_hosts(80, 29))});
  PolicySweepConfig sweep;
  sweep.policies = {SchedulingPolicy::kChurnEctCheckpoint,
                    SchedulingPolicy::kChurnEctRestart};
  sweep.task_counts = {150};
  sweep.workload_seed = 606;
  sweep.base.churn_lookahead_levels = 2;
  sweep.threads = 1;
  const PolicySweepResult serial = run_policy_sweep(populations, sweep);
  sweep.threads = 4;
  const PolicySweepResult parallel = run_policy_sweep(populations, sweep);
  for (std::size_t pol = 0; pol < sweep.policies.size(); ++pol) {
    expect_results_identical(serial.at(0, pol, 0).result,
                             parallel.at(0, pol, 0).result);
    BagOfTasksConfig direct = sweep.base;
    direct.task_count = 150;
    util::Rng rng(606);
    const auto standalone = run_bag_of_tasks(populations[0].hosts, direct,
                                             sweep.policies[pol], rng);
    expect_results_identical(serial.at(0, pol, 0).result, standalone);
  }
}

TEST(BagOfTasks, RejectsOutOfRangeChurnLookaheadLevels) {
  const auto hosts = model_hosts(20, 30);
  util::Rng rng(9);
  BagOfTasksConfig config;
  config.task_count = 10;
  config.churn_lookahead_levels = 0;
  EXPECT_THROW(run_bag_of_tasks(hosts, config,
                                SchedulingPolicy::kChurnEctCheckpoint, rng),
               std::invalid_argument);
  config.churn_lookahead_levels = churn::kMaxLookaheadLevels + 1;
  EXPECT_THROW(run_bag_of_tasks(hosts, config,
                                SchedulingPolicy::kChurnEctCheckpoint, rng),
               std::invalid_argument);
  config.churn_lookahead_levels = churn::kMaxLookaheadLevels;
  EXPECT_NO_THROW(run_bag_of_tasks(
      hosts, config, SchedulingPolicy::kChurnEctCheckpoint, rng));
}

TEST(BagOfTasks, SharedRealizationOverloadMatchesStandalone) {
  // Drawing the realization once and passing it in must reproduce the
  // draw-inside path exactly: same availability stream, same task
  // stream, for churn and derate policies alike. This is the contract
  // that keeps knob sweeps (e.g. churn-levels variants) draw-comparable.
  const HostResourcesSoA hosts =
      HostResourcesSoA::from_hosts(model_hosts(70, 31));
  BagOfTasksConfig config;
  config.task_count = 120;
  config.model_availability = true;
  for (const SchedulingPolicy policy :
       {SchedulingPolicy::kDynamicEct, SchedulingPolicy::kChurnEctCheckpoint,
        SchedulingPolicy::kChurnEctRestart}) {
    util::Rng inside_rng(4242);
    const auto inside = run_bag_of_tasks(hosts, config, policy, inside_rng);

    util::Rng outside_rng(4242);
    const std::vector<double> speed = base_host_rates(hosts);
    const AvailabilityRealization real =
        realize_availability(speed, config, outside_rng);
    const auto outside =
        run_bag_of_tasks(hosts, real, config, policy, outside_rng);
    expect_results_identical(inside, outside);
  }
}

TEST(BagOfTasks, SharedRealizationOverloadValidatesCoverage) {
  const HostResourcesSoA hosts =
      HostResourcesSoA::from_hosts(model_hosts(30, 32));
  BagOfTasksConfig config;
  config.task_count = 10;
  config.model_availability = true;
  AvailabilityRealization empty;  // no timeline, no fractions
  util::Rng rng(5);
  EXPECT_THROW(run_bag_of_tasks(hosts, empty, config,
                                SchedulingPolicy::kChurnEctCheckpoint, rng),
               std::invalid_argument);
  EXPECT_THROW(run_bag_of_tasks(hosts, empty, config,
                                SchedulingPolicy::kDynamicEct, rng),
               std::invalid_argument);
}

TEST(PolicySweep, RejectsEmptyAxesAndPopulations) {
  std::vector<SweepPopulation> populations;
  populations.push_back(
      {"ok", HostResourcesSoA::from_hosts(model_hosts(10, 27))});
  PolicySweepConfig sweep;
  sweep.policies = {SchedulingPolicy::kDynamicEct};
  sweep.task_counts = {10};
  EXPECT_THROW(run_policy_sweep({}, sweep), std::invalid_argument);
  PolicySweepConfig no_policies = sweep;
  no_policies.policies.clear();
  EXPECT_THROW(run_policy_sweep(populations, no_policies),
               std::invalid_argument);
  PolicySweepConfig no_tasks = sweep;
  no_tasks.task_counts.clear();
  EXPECT_THROW(run_policy_sweep(populations, no_tasks), std::invalid_argument);
  // A degenerate count anywhere in the list must throw up front, before
  // any cell runs.
  PolicySweepConfig bad_later_cell = sweep;
  bad_later_cell.task_counts = {10, 0};
  bad_later_cell.threads = 4;
  EXPECT_THROW(run_policy_sweep(populations, bad_later_cell),
               std::invalid_argument);
  // An out-of-range policy value must also throw up front.
  PolicySweepConfig bad_policy = sweep;
  bad_policy.policies = {SchedulingPolicy::kDynamicEct,
                         static_cast<SchedulingPolicy>(99)};
  bad_policy.threads = 4;
  EXPECT_THROW(run_policy_sweep(populations, bad_policy),
               std::invalid_argument);
  populations.push_back({"empty", HostResourcesSoA{}});
  EXPECT_THROW(run_policy_sweep(populations, sweep), std::invalid_argument);
}

}  // namespace
}  // namespace resmodel::sim
