#include "churn/churn_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "churn/interval_timeline.h"
#include "sim/schedule_state.h"
#include "synth/availability.h"
#include "util/rng.h"

namespace resmodel::churn {
namespace {

// One host with sessions [0,1) and [2,4), horizon 10 — every walk branch
// is reachable by choosing the work size.
IntervalTimeline two_session_host() {
  return IntervalTimeline::from_intervals({{{0.0, 1.0}, {2.0, 4.0}}}, 0.0,
                                          10.0);
}

TEST(CompletionPrimitives, CheckpointAccruesAcrossGaps) {
  const IntervalTimeline tl = two_session_host();
  // Fits inside the first session.
  EXPECT_DOUBLE_EQ(checkpoint_completion(tl, 0, 0.0, 0.5), 0.5);
  // Exactly fills the first session (inclusive boundary).
  EXPECT_DOUBLE_EQ(checkpoint_completion(tl, 0, 0.0, 1.0), 1.0);
  // Spills over the OFF gap: 1 day in [0,1), the last in [2,4).
  EXPECT_DOUBLE_EQ(checkpoint_completion(tl, 0, 0.0, 2.0), 3.0);
  // Outruns every session: 3 accrued by day 4, the rest after the horizon.
  EXPECT_DOUBLE_EQ(checkpoint_completion(tl, 0, 0.0, 4.0), 11.0);
  // Starting mid-session.
  EXPECT_DOUBLE_EQ(checkpoint_completion(tl, 0, 2.5, 1.0), 3.5);
  // Starting beyond the horizon: permanently ON.
  EXPECT_DOUBLE_EQ(checkpoint_completion(tl, 0, 12.0, 2.0), 14.0);
}

TEST(CompletionPrimitives, RestartBurnsShortSessions) {
  const IntervalTimeline tl = two_session_host();
  // Fits in the first session: no interruption, no waste.
  {
    const RestartOutcome out = restart_completion(tl, 0, 0.0, 0.75);
    EXPECT_DOUBLE_EQ(out.completion, 0.75);
    EXPECT_DOUBLE_EQ(out.worked_days, 0.75);
    EXPECT_EQ(out.interruptions, 0u);
  }
  // Too big for session one (1 day), fits session two: the first attempt
  // burns the whole first session.
  {
    const RestartOutcome out = restart_completion(tl, 0, 0.0, 1.5);
    EXPECT_DOUBLE_EQ(out.completion, 3.5);
    EXPECT_DOUBLE_EQ(out.worked_days, 2.5);  // 1 burned + 1.5 useful
    EXPECT_EQ(out.interruptions, 1u);
  }
  // Too big for every session: burns both, completes after the horizon.
  {
    const RestartOutcome out = restart_completion(tl, 0, 0.0, 5.0);
    EXPECT_DOUBLE_EQ(out.completion, 15.0);
    EXPECT_DOUBLE_EQ(out.worked_days, 8.0);  // 1 + 2 burned + 5 useful
    EXPECT_EQ(out.interruptions, 2u);
  }
}

sim::ScheduleState state_from_rates(std::vector<double> rates) {
  return sim::ScheduleState::from_rates(std::move(rates));
}

IntervalTimeline model_timeline(std::size_t hosts, std::uint64_t seed,
                                double horizon = 60.0) {
  util::Rng rng(seed);
  return IntervalTimeline::generate(synth::AvailabilityModel{}, hosts, 0.0,
                                    horizon, rng);
}

std::vector<double> random_rates(std::size_t n, std::uint64_t seed) {
  std::vector<double> rates(n);
  util::Rng rng(seed);
  for (double& r : rates) r = 50.0 + rng.uniform() * 5000.0;
  return rates;
}

std::vector<double> random_tasks(std::size_t n, std::uint64_t seed) {
  std::vector<double> tasks(n);
  util::Rng rng(seed);
  for (double& t : tasks) t = 200.0 + rng.uniform() * 4000.0;
  return tasks;
}

/// Blocked-vs-reference golden check at one kernel configuration: every
/// lookahead depth must reproduce the scalar oracle's schedule bit for
/// bit (the config trades pruning power, never results).
void expect_run_identical(std::vector<double> rates,
                          const IntervalTimeline& timeline,
                          const std::vector<double>& tasks,
                          InterruptionPolicy policy,
                          const ChurnSchedulerConfig& config = {}) {
  sim::ScheduleState fast = state_from_rates(rates);
  sim::ScheduleState ref = state_from_rates(std::move(rates));
  ChurnScheduler fast_sched(fast, timeline, config);
  ChurnScheduler ref_sched(ref, timeline, config);
  const ChurnScheduleTotals a = fast_sched.run(tasks, policy);
  const ChurnScheduleTotals b = ref_sched.run_reference(tasks, policy);
  EXPECT_EQ(a.makespan_days, b.makespan_days);
  EXPECT_EQ(a.total_cpu_days, b.total_cpu_days);
  EXPECT_EQ(a.wasted_cpu_days, b.wasted_cpu_days);
  EXPECT_EQ(a.interruptions, b.interruptions);
  for (std::size_t h = 0; h < fast.size(); ++h) {
    EXPECT_EQ(fast.busy_days[h], ref.busy_days[h]) << "host " << h;
    EXPECT_EQ(fast.free_at[h], ref.free_at[h]) << "host " << h;
  }
}

constexpr InterruptionPolicy kAllPolicies[] = {
    InterruptionPolicy::kCheckpoint,
    InterruptionPolicy::kRestart,
    InterruptionPolicy::kAbandon,
};

/// The kernel configurations the golden suites cycle through: the
/// shipping default (8 levels) and the lookahead extremes.
std::vector<ChurnSchedulerConfig> golden_configs() {
  std::vector<ChurnSchedulerConfig> configs(3);
  configs[1].lookahead_levels = 1;
  configs[2].lookahead_levels = kMaxLookaheadLevels;
  return configs;
}

TEST(ChurnScheduler, BlockedBitIdenticalToReference) {
  // A few hundred hosts spans multiple pruning blocks; heterogeneous
  // rates make the bound bite. Every lookahead depth must match the
  // oracle exactly.
  const std::vector<double> rates = random_rates(300, 31);
  const IntervalTimeline timeline = model_timeline(300, 32);
  const std::vector<double> tasks = random_tasks(900, 33);
  for (const ChurnSchedulerConfig& config : golden_configs()) {
    for (const InterruptionPolicy policy : kAllPolicies) {
      expect_run_identical(rates, timeline, tasks, policy, config);
    }
  }
}

TEST(ChurnScheduler, AbandonCountsSweptBlocksAndPrunes) {
  // kAbandon's selection runs on the shared warm-started EctBlockIndex,
  // so it reports the blocks it streamed: at least one per selection,
  // and — heterogeneous rates letting the bound bite — far fewer than a
  // sweep of every block per selection.
  const std::size_t n = 2000;
  const std::vector<double> tasks = random_tasks(n, 43);
  const IntervalTimeline timeline = model_timeline(n, 42);
  sim::ScheduleState state = state_from_rates(random_rates(n, 41));
  ChurnScheduler scheduler(state, timeline);
  const ChurnScheduleTotals totals =
      scheduler.run(tasks, InterruptionPolicy::kAbandon);
  const std::uint64_t selections = tasks.size() + totals.interruptions;
  EXPECT_GE(totals.swept_blocks, selections);
  EXPECT_LT(totals.swept_blocks, state.block_count() * selections / 4);
}

TEST(ChurnScheduler, GoldenDenseNearTies) {
  // Adversarial for the gates: rates within a relative 1e-9 of each
  // other and ONE shared timeline put hundreds of lanes inside every
  // margin band, so the fast path must resolve (not skip) all of them
  // to reproduce the oracle's smallest-index winner.
  std::vector<double> rates(200);
  for (std::size_t h = 0; h < rates.size(); ++h) {
    rates[h] = 1000.0 * (1.0 + 1e-9 * static_cast<double>(h % 7));
  }
  util::Rng rng(141);
  const synth::AvailabilityModel model;
  util::Rng host_rng = rng.fork();
  const auto intervals = model.generate(0.0, 60.0, host_rng);
  const IntervalTimeline timeline = IntervalTimeline::from_intervals(
      std::vector<std::vector<synth::AvailabilityInterval>>(200, intervals),
      0.0, 60.0);
  const std::vector<double> tasks = random_tasks(600, 143);
  for (const ChurnSchedulerConfig& config : golden_configs()) {
    for (const InterruptionPolicy policy : kAllPolicies) {
      expect_run_identical(rates, timeline, tasks, policy, config);
    }
  }
}

TEST(ChurnScheduler, GoldenStaleEnvelopeEpochs) {
  // Adversarial for the incremental envelope: a cluster of much faster
  // hosts pulls nearly every assignment into one block, cycling its
  // stale counter through many repair + full-rebuild epochs; the
  // schedule must stay bit-identical throughout.
  std::vector<double> rates = random_rates(192, 151);
  for (std::size_t h = 100; h < 108; ++h) {
    rates[h] = 80000.0 + 10.0 * static_cast<double>(h);
  }
  const IntervalTimeline timeline = model_timeline(192, 152);
  const std::vector<double> tasks =
      random_tasks(churn::BoundGate::kStaleLimit * 40, 153);
  for (const InterruptionPolicy policy : kAllPolicies) {
    expect_run_identical(rates, timeline, tasks, policy);
  }
}

TEST(ChurnScheduler, LookaheadDepthIsAPerfKnob) {
  // Depth changes which exact expression resolves a deep spill, so
  // completions may move by ulps across depths — but never more, and
  // each depth is individually bit-identical to its own reference
  // (covered above). Guard the "never more" half.
  const std::vector<double> rates = random_rates(150, 161);
  const IntervalTimeline timeline = model_timeline(150, 162);
  const std::vector<double> tasks = random_tasks(400, 163);
  double makespan_at_depth1 = 0.0;
  for (const std::size_t levels : {std::size_t{1}, std::size_t{4},
                                   std::size_t{8}, kMaxLookaheadLevels}) {
    sim::ScheduleState state = state_from_rates(rates);
    ChurnSchedulerConfig config;
    config.lookahead_levels = levels;
    ChurnScheduler sched(state, timeline, config);
    const ChurnScheduleTotals totals =
        sched.run(tasks, InterruptionPolicy::kCheckpoint);
    if (levels == 1) {
      makespan_at_depth1 = totals.makespan_days;
    } else {
      EXPECT_NEAR(totals.makespan_days, makespan_at_depth1,
                  1e-9 * makespan_at_depth1);
    }
  }
}

TEST(ChurnScheduler, GoldenTieCases) {
  // Identical rates force exact completion-time ties on every task; the
  // winner must be the smallest host index in both paths.
  const std::vector<double> rates(130, 1000.0);
  // Identical timelines too: build one host's intervals and replicate.
  util::Rng rng(41);
  const synth::AvailabilityModel model;
  util::Rng host_rng = rng.fork();
  const auto intervals = model.generate(0.0, 60.0, host_rng);
  const IntervalTimeline timeline = IntervalTimeline::from_intervals(
      std::vector<std::vector<synth::AvailabilityInterval>>(130, intervals),
      0.0, 60.0);
  const std::vector<double> tasks = random_tasks(400, 43);
  for (const InterruptionPolicy policy : kAllPolicies) {
    expect_run_identical(rates, timeline, tasks, policy);
  }
  // And the tie winner really is host 0 for the very first task.
  sim::ScheduleState state = state_from_rates(rates);
  ChurnScheduler sched(state, timeline);
  sched.run(std::vector<double>{500.0}, InterruptionPolicy::kCheckpoint);
  EXPECT_GT(state.busy_days[0], 0.0);
}

TEST(ChurnScheduler, GoldenSingleHost) {
  const std::vector<double> rates = {750.0};
  const IntervalTimeline timeline = model_timeline(1, 51);
  const std::vector<double> tasks = random_tasks(50, 53);
  for (const InterruptionPolicy policy : kAllPolicies) {
    expect_run_identical(rates, timeline, tasks, policy);
  }
}

TEST(ChurnScheduler, GoldenMoreHostsThanTasks) {
  const std::vector<double> rates = random_rates(500, 61);
  const IntervalTimeline timeline = model_timeline(500, 62);
  const std::vector<double> tasks = random_tasks(20, 63);
  for (const InterruptionPolicy policy : kAllPolicies) {
    expect_run_identical(rates, timeline, tasks, policy);
  }
}

TEST(ChurnScheduler, CheckpointNeverWastesAndOthersCanWait) {
  const std::vector<double> rates = random_rates(120, 71);
  const IntervalTimeline timeline = model_timeline(120, 72);
  const std::vector<double> tasks = random_tasks(600, 73);

  sim::ScheduleState ckpt_state = state_from_rates(rates);
  ChurnScheduler ckpt(ckpt_state, timeline);
  const ChurnScheduleTotals c =
      ckpt.run(tasks, InterruptionPolicy::kCheckpoint);
  EXPECT_DOUBLE_EQ(c.wasted_cpu_days, 0.0);
  EXPECT_EQ(c.interruptions, 0u);

  sim::ScheduleState restart_state = state_from_rates(rates);
  ChurnScheduler restart(restart_state, timeline);
  const ChurnScheduleTotals r =
      restart.run(tasks, InterruptionPolicy::kRestart);
  // Heavy-tailed sessions: some tasks must have died at least once.
  EXPECT_GT(r.interruptions, 0u);
  EXPECT_GT(r.wasted_cpu_days, 0.0);
  // Restart can only be slower than checkpointing the same workload.
  EXPECT_GE(r.makespan_days, c.makespan_days * 0.999);

  sim::ScheduleState abandon_state = state_from_rates(rates);
  ChurnScheduler abandon(abandon_state, timeline);
  const ChurnScheduleTotals a =
      abandon.run(tasks, InterruptionPolicy::kAbandon);
  EXPECT_GT(a.interruptions, 0u);
  EXPECT_GT(a.wasted_cpu_days, 0.0);
  // Every task still ran to completion somewhere.
  EXPECT_GT(a.total_cpu_days, 0.0);
  EXPECT_GT(a.makespan_days, 0.0);
}

TEST(ChurnScheduler, ChurnMakespanDominatesAlwaysOnEct) {
  // Interval walking can only delay completions relative to scheduling
  // the same rates with no OFF time at all.
  const std::vector<double> rates = random_rates(100, 81);
  const std::vector<double> tasks = random_tasks(500, 83);
  const IntervalTimeline timeline = model_timeline(100, 82);

  sim::ScheduleState plain = state_from_rates(rates);
  const sim::DynamicScheduleTotals ect =
      sim::ect_schedule_blocked(plain, tasks);

  sim::ScheduleState churned = state_from_rates(rates);
  ChurnScheduler sched(churned, timeline);
  const ChurnScheduleTotals c =
      sched.run(tasks, InterruptionPolicy::kCheckpoint);
  EXPECT_GE(c.makespan_days, ect.makespan_days);
}

TEST(ChurnScheduler, ContinuesFromPreAdvancedState) {
  // Splitting a workload across two runs must equal one combined run —
  // the ready cursor picks up from free_at, like the sim/ kernels.
  const std::vector<double> rates = random_rates(50, 91);
  const IntervalTimeline timeline = model_timeline(50, 92);
  const std::vector<double> tasks = random_tasks(200, 93);

  sim::ScheduleState whole = state_from_rates(rates);
  ChurnScheduler whole_sched(whole, timeline);
  const ChurnScheduleTotals all =
      whole_sched.run(tasks, InterruptionPolicy::kCheckpoint);

  sim::ScheduleState split = state_from_rates(rates);
  const std::vector<double> first(tasks.begin(), tasks.begin() + 120);
  const std::vector<double> second(tasks.begin() + 120, tasks.end());
  ChurnScheduler sched_a(split, timeline);
  const ChurnScheduleTotals head =
      sched_a.run(first, InterruptionPolicy::kCheckpoint);
  ChurnScheduler sched_b(split, timeline);
  const ChurnScheduleTotals tail =
      sched_b.run(second, InterruptionPolicy::kCheckpoint);
  EXPECT_EQ(all.makespan_days,
            std::max(head.makespan_days, tail.makespan_days));
  for (std::size_t h = 0; h < split.size(); ++h) {
    EXPECT_EQ(whole.busy_days[h], split.busy_days[h]) << "host " << h;
    EXPECT_EQ(whole.free_at[h], split.free_at[h]) << "host " << h;
  }
}

TEST(ChurnScheduler, WarmSeedConstructorMatchesFreshDerivation) {
  // The sweep's warm start: cursor columns copied from a seed scheduler
  // must reproduce exactly the schedule a freshly-derived scheduler
  // produces, for every policy.
  const std::vector<double> rates = random_rates(170, 171);
  const IntervalTimeline timeline = model_timeline(170, 172);
  const std::vector<double> tasks = random_tasks(300, 173);
  sim::ScheduleState seed_state = state_from_rates(rates);
  const ChurnScheduler seed(seed_state, timeline);
  for (const InterruptionPolicy policy : kAllPolicies) {
    sim::ScheduleState fresh = state_from_rates(rates);
    ChurnScheduler fresh_sched(fresh, timeline);
    const ChurnScheduleTotals a = fresh_sched.run(tasks, policy);

    sim::ScheduleState warmed = state_from_rates(rates);
    ChurnScheduler warm_sched(warmed, seed);
    const ChurnScheduleTotals b = warm_sched.run(tasks, policy);

    EXPECT_EQ(a.makespan_days, b.makespan_days);
    EXPECT_EQ(a.total_cpu_days, b.total_cpu_days);
    EXPECT_EQ(a.wasted_cpu_days, b.wasted_cpu_days);
    EXPECT_EQ(a.interruptions, b.interruptions);
    for (std::size_t h = 0; h < fresh.size(); ++h) {
      EXPECT_EQ(fresh.free_at[h], warmed.free_at[h]) << "host " << h;
    }
  }
}

TEST(ChurnScheduler, RejectsMismatchedHostCounts) {
  sim::ScheduleState state = state_from_rates(random_rates(10, 95));
  const IntervalTimeline timeline = model_timeline(9, 96);
  EXPECT_THROW(ChurnScheduler(state, timeline), std::invalid_argument);
}

}  // namespace
}  // namespace resmodel::churn
