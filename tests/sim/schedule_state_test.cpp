#include "sim/schedule_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/host_generator.h"
#include "sim/bag_of_tasks.h"
#include "util/rng.h"

namespace resmodel::sim {
namespace {

// Rates with deliberate exact duplicates (duplicated hardware is the
// common case in the trace) so equal completion times actually occur.
std::vector<double> random_rates(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> rates(n);
  for (double& r : rates) r = 100.0 + rng.uniform() * 10000.0;
  for (std::size_t i = 0; i + 1 < n; i += 3) rates[i + 1] = rates[i];
  return rates;
}

std::vector<double> random_tasks(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> tasks(n);
  for (double& t : tasks) t = 500.0 + rng.uniform() * 8000.0;
  return tasks;
}

void expect_states_identical(const ScheduleState& a, const ScheduleState& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t h = 0; h < a.size(); ++h) {
    EXPECT_EQ(a.free_at[h], b.free_at[h]) << "free_at host " << h;
    EXPECT_EQ(a.busy_days[h], b.busy_days[h]) << "busy_days host " << h;
  }
}

TEST(ScheduleState, FromRatesBuildsColumnsAndSortedCaches) {
  const std::size_t n = 2 * ScheduleState::kBlockSize + 2;  // partial tail
  ScheduleState state = ScheduleState::from_rates(random_rates(n, 1));
  ASSERT_EQ(state.size(), n);
  // The ECT caches are lazy: absent after construction, built on demand,
  // and only then do the sorted invariants hold.
  EXPECT_EQ(state.block_count(), 0u);
  EXPECT_TRUE(state.ect_order.empty());
  state.ensure_ect_caches();
  ASSERT_EQ(state.block_count(), 3u);
  for (std::size_t h = 0; h < n; ++h) {
    EXPECT_EQ(state.inv_rates[h], 1.0 / state.rates[h]);
    EXPECT_EQ(state.free_at[h], 0.0);
    EXPECT_EQ(state.busy_days[h], 0.0);
    EXPECT_EQ(state.ect_order[state.ect_pos[h]], h);  // inverse permutation
  }
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_EQ(state.ect_sorted_inv[j], state.inv_rates[state.ect_order[j]]);
    if (j > 0) {
      // Ascending inv_rates, exact ties in ascending host index.
      EXPECT_LE(state.ect_sorted_inv[j - 1], state.ect_sorted_inv[j]);
      if (state.ect_sorted_inv[j - 1] == state.ect_sorted_inv[j]) {
        EXPECT_LT(state.ect_order[j - 1], state.ect_order[j]);
      }
    }
  }
  for (std::size_t b = 0; b < state.block_count(); ++b) {
    EXPECT_EQ(state.ect_block_min_inv[b],
              state.ect_sorted_inv[b * ScheduleState::kBlockSize]);
  }
}

TEST(ScheduleState, RejectsNonPositiveRates) {
  EXPECT_THROW(ScheduleState::from_rates({100.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(ScheduleState::from_rates({-1.0}), std::invalid_argument);
}

TEST(EctKernels, BlockedMatchesReferenceBitForBit) {
  // Host counts straddling the block size (sub-block, exact blocks,
  // partial tail, many blocks) and a workload longer than any block.
  for (const std::size_t hosts : {std::size_t{1}, std::size_t{5},
                                  ScheduleState::kBlockSize,
                                  2 * ScheduleState::kBlockSize + 3,
                                  std::size_t{1000}}) {
    const std::vector<double> rates = random_rates(hosts, 7 + hosts);
    const std::vector<double> tasks = random_tasks(600, 11);
    ScheduleState blocked = ScheduleState::from_rates(rates);
    ScheduleState reference = ScheduleState::from_rates(rates);
    const DynamicScheduleTotals tb = ect_schedule_blocked(blocked, tasks);
    const DynamicScheduleTotals tr = ect_schedule_reference(reference, tasks);
    EXPECT_EQ(tb.makespan_days, tr.makespan_days) << hosts << " hosts";
    EXPECT_EQ(tb.total_cpu_days, tr.total_cpu_days) << hosts << " hosts";
    expect_states_identical(blocked, reference);
  }
}

TEST(EctKernels, EqualCompletionTieBreaksToLowestIndex) {
  // 200 identical hosts (3+ blocks): every task sees an exact tie across
  // all idle hosts, and both kernels must pick the lowest index.
  const std::vector<double> rates(200, 1000.0);
  const std::vector<double> tasks(3, 1000.0);
  ScheduleState blocked = ScheduleState::from_rates(rates);
  ScheduleState reference = ScheduleState::from_rates(rates);
  ect_schedule_blocked(blocked, tasks);
  ect_schedule_reference(reference, tasks);
  for (const ScheduleState* s : {&blocked, &reference}) {
    EXPECT_EQ(s->busy_days[0], 1.0);
    EXPECT_EQ(s->busy_days[1], 1.0);
    EXPECT_EQ(s->busy_days[2], 1.0);
    EXPECT_EQ(s->busy_days[3], 0.0);
  }
  expect_states_identical(blocked, reference);

  // A cross-block tie: hosts 0 and 150 equally fast, everyone else slower.
  std::vector<double> two_fast(200, 10.0);
  two_fast[0] = two_fast[150] = 1000.0;
  ScheduleState b2 = ScheduleState::from_rates(two_fast);
  ScheduleState r2 = ScheduleState::from_rates(two_fast);
  const std::vector<double> one_task = {500.0};
  ect_schedule_blocked(b2, one_task);
  ect_schedule_reference(r2, one_task);
  EXPECT_GT(b2.busy_days[0], 0.0);  // lowest index wins the tie
  EXPECT_EQ(b2.busy_days[150], 0.0);
  expect_states_identical(b2, r2);
}

TEST(EctKernels, MoreHostsThanTasks) {
  const std::vector<double> rates = random_rates(500, 3);
  const std::vector<double> tasks = random_tasks(7, 4);
  ScheduleState blocked = ScheduleState::from_rates(rates);
  ScheduleState reference = ScheduleState::from_rates(rates);
  const DynamicScheduleTotals tb = ect_schedule_blocked(blocked, tasks);
  const DynamicScheduleTotals tr = ect_schedule_reference(reference, tasks);
  EXPECT_EQ(tb.makespan_days, tr.makespan_days);
  expect_states_identical(blocked, reference);
  std::size_t used = 0;
  for (double b : blocked.busy_days) used += b > 0.0;
  EXPECT_EQ(used, tasks.size());  // ECT spreads distinct tasks on idle hosts
}

TEST(EctKernels, SingleHostAccumulatesSequentially) {
  ScheduleState state = ScheduleState::from_rates({250.0});
  const std::vector<double> tasks = {500.0, 250.0, 1000.0};
  const DynamicScheduleTotals totals = ect_schedule_blocked(state, tasks);
  EXPECT_EQ(state.free_at[0], totals.makespan_days);
  EXPECT_EQ(totals.total_cpu_days, totals.makespan_days);
  EXPECT_DOUBLE_EQ(totals.makespan_days, 2.0 + 1.0 + 4.0);
}

// Runs both speed-weighted kernels on fresh states and requires the same
// schedule bit for bit: every host's busy_days and both totals.
void expect_speed_weighted_identical(const std::vector<double>& rates,
                                     const std::vector<double>& tasks) {
  ScheduleState blocked = ScheduleState::from_rates(rates);
  ScheduleState reference = ScheduleState::from_rates(rates);
  const DynamicScheduleTotals tb =
      speed_weighted_schedule_blocked(blocked, tasks);
  const DynamicScheduleTotals tr =
      speed_weighted_schedule_reference(reference, tasks);
  EXPECT_EQ(tb.makespan_days, tr.makespan_days) << rates.size() << " hosts";
  EXPECT_EQ(tb.total_cpu_days, tr.total_cpu_days) << rates.size() << " hosts";
  expect_states_identical(blocked, reference);
}

std::vector<const backend::KernelOps*> index_arms() {
  return {&backend::kernel_ops(backend::SimdLevel::kNone),
          &backend::kernel_ops(
              backend::resolve(backend::Backend::kSimd).simd)};
}

// Host counts covering one partial block, exact blocks and partial tails.
constexpr std::size_t kIndexSizes[] = {
    1, ScheduleState::kBlockSize - 1, ScheduleState::kBlockSize,
    ScheduleState::kBlockSize + 1, 3 * ScheduleState::kBlockSize + 5};

TEST(EctBlockIndex, DenseTiesPickSmallestIndexLikeTheFullScan) {
  // Equal rates and equal keys: every host ties, every block's bound ties
  // the incumbent, so every block must be swept and the smallest original
  // index must win. Committing each pick walks the winner through every
  // block, and each select must still equal the full scan.
  for (const backend::KernelOps* ops : index_arms()) {
    for (const std::size_t n : kIndexSizes) {
      ScheduleState state =
          ScheduleState::from_rates(std::vector<double>(n, 1000.0));
      state.ensure_ect_caches();
      std::vector<double> keys(n, 2.5);
      EctBlockIndex index;
      index.rebuild(state, keys, *ops);
      const backend::EctBlockMin first = index.select(4000.0);
      EXPECT_EQ(first.index, 0u) << n << " hosts";
      EXPECT_EQ(index.swept_blocks(), state.block_count()) << n << " hosts";
      for (std::size_t k = 0; k < 2 * n; ++k) {
        const backend::EctBlockMin got = index.select(4000.0);
        const backend::EctBlockMin want =
            ect_select_reference(keys, state.inv_rates, 4000.0);
        ASSERT_EQ(got.index, want.index) << n << " hosts, pick " << k;
        ASSERT_EQ(got.value, want.value) << n << " hosts, pick " << k;
        keys[got.index] = got.value;
        index.refresh(got.index, got.value);
      }
    }
  }
}

TEST(EctBlockIndex, CrossBlockTieGoesToSmallestIndexNotWarmBlock) {
  // The first s hosts are slow (inv 1, key 0.5), the rest fast (inv 0.5,
  // key 1.0), with s chosen so the slow hosts fill exactly the last
  // sorted block: every completion and every block bound is exactly 1.5,
  // so the warm start begins at block 0 while the winner, host 0, sits
  // in the LAST block. Strict `>` pruning must still reach it.
  constexpr std::size_t kBlock = ScheduleState::kBlockSize;
  for (const backend::KernelOps* ops : index_arms()) {
    for (const std::size_t n : {kBlock + 1, 2 * kBlock, 3 * kBlock + 5}) {
      const std::size_t slow = n % kBlock == 0 ? kBlock : n % kBlock;
      std::vector<double> rates(n, 2.0);
      std::vector<double> keys(n, 1.0);
      for (std::size_t h = 0; h < slow; ++h) {
        rates[h] = 1.0;
        keys[h] = 0.5;
      }
      ScheduleState state = ScheduleState::from_rates(rates);
      state.ensure_ect_caches();
      ASSERT_EQ(state.ect_order[n - slow], 0u);
      EctBlockIndex index;
      index.rebuild(state, keys, *ops);
      const backend::EctBlockMin got = index.select(1.0);
      EXPECT_EQ(got.index, 0u) << n << " hosts";
      EXPECT_EQ(got.value, 1.5) << n << " hosts";
      EXPECT_EQ(got.index,
                ect_select_reference(keys, state.inv_rates, 1.0).index);
    }
  }
}

TEST(SpeedWeightedKernels, BlockedMatchesReferenceBitForBit) {
  // Host counts around the block size (one lane, one short of a block,
  // exactly one, one over) plus partial-tail and many-block populations,
  // each with fewer tasks than hosts and with many more.
  for (const std::size_t hosts :
       {std::size_t{1}, std::size_t{63}, std::size_t{64}, std::size_t{65},
        std::size_t{300}, std::size_t{10000}}) {
    const std::vector<double> rates = random_rates(hosts, 17 + hosts);
    expect_speed_weighted_identical(rates,
                                    random_tasks(hosts / 2 + 1, 19 + hosts));
    const std::size_t many = hosts >= 10000 ? 3 * hosts / 2 : 8 * hosts + 50;
    expect_speed_weighted_identical(rates, random_tasks(many, 23 + hosts));
  }
}

TEST(SpeedWeightedKernels, AllEqualRatesTieBreakToLowestIndex) {
  // Every deficit ties on every task until a host has been dealt to, so
  // only the index tie-break decides — across 5 blocks.
  const std::vector<double> rates(300, 1000.0);
  const std::vector<double> equal_tasks(3, 1000.0);
  ScheduleState blocked = ScheduleState::from_rates(rates);
  ScheduleState reference = ScheduleState::from_rates(rates);
  speed_weighted_schedule_blocked(blocked, equal_tasks);
  speed_weighted_schedule_reference(reference, equal_tasks);
  for (const ScheduleState* s : {&blocked, &reference}) {
    EXPECT_EQ(s->busy_days[0], 1.0);
    EXPECT_EQ(s->busy_days[1], 1.0);
    EXPECT_EQ(s->busy_days[2], 1.0);
    EXPECT_EQ(s->busy_days[3], 0.0);
  }
  expect_states_identical(blocked, reference);
  // Several full rounds of equal tasks, then random costs on equal rates.
  expect_speed_weighted_identical(rates, std::vector<double>(1000, 250.0));
  expect_speed_weighted_identical(rates, random_tasks(2000, 5));
}

TEST(SpeedWeightedKernels, DuplicateRateClustersStraddlingBlocks) {
  // 200 hosts: 40 fast distinct rates, then a cluster of 50 equal rates
  // that occupies sorted positions 40..89 and so straddles the block
  // boundary at 64, then a second cluster of 60 straddling 128, then slow
  // distinct rates. Cluster members sit at scattered original indices,
  // so the sorted order and the host order disagree inside each cluster.
  const std::size_t n = 200;
  std::vector<double> rates(n);
  util::Rng rng(29);
  for (std::size_t i = 0; i < n; ++i) rates[i] = 100.0 + rng.uniform() * 50.0;
  for (std::size_t i = 0; i < n; i += 5) {
    rates[i] = 9000.0 + static_cast<double>(i);  // 40 fast, distinct
  }
  std::size_t first = 0, second = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (i % 5 == 0) continue;
    if (first < 50 && i % 3 != 0) {
      rates[i] = 5000.0;
      ++first;
    } else if (second < 60) {
      rates[i] = 2500.0;
      ++second;
    }
  }
  ASSERT_EQ(first, 50u);
  ASSERT_EQ(second, 60u);
  expect_speed_weighted_identical(rates, random_tasks(37, 31));
  expect_speed_weighted_identical(rates, random_tasks(3000, 37));
  expect_speed_weighted_identical(rates, std::vector<double>(3000, 700.0));
}

TEST(SpeedWeightedKernels, CrossBlockTiesGoToLowestIndex) {
  // Hosts 0..63 at rate 1 and hosts 64..127 at rate 3: the total is 256,
  // so with integer task costs every share and deficit is an exact dyadic
  // rational and fast/slow deficits tie exactly, again and again. The
  // fast hosts fill sorted block 0 and the slow ones block 1, so each tie
  // pits a block-0 incumbent against a lower-index host in a block whose
  // bound equals the incumbent — the case the strict `<` gate must still
  // scan. Mixed costs make the pick at a tie change the final schedule.
  std::vector<double> rates(128, 1.0);
  for (std::size_t h = 64; h < 128; ++h) rates[h] = 3.0;
  util::Rng rng(2);
  std::vector<double> tasks(1000);
  for (double& t : tasks) t = 1.0 + std::floor(rng.uniform() * 4.0);
  expect_speed_weighted_identical(rates, tasks);
  expect_speed_weighted_identical(rates, std::vector<double>(1000, 1.0));
  // The same ties inside one block (32 slow low-index hosts, 32 fast;
  // total 128): the sorted order puts the fast hosts first, so the
  // in-block resolve must take the lowest original index, not the first
  // sorted lane.
  std::vector<double> one_block(64, 1.0);
  for (std::size_t h = 32; h < 64; ++h) one_block[h] = 3.0;
  expect_speed_weighted_identical(one_block, tasks);
}

TEST(SpeedWeightedKernels, AvailabilityDeratedRates) {
  // The rates the sweep actually deals over: model hosts derated by their
  // sampled long-run ON fraction (many hosts sit on the 0.01 floor).
  const core::HostGenerator generator(core::paper_params());
  util::Rng host_rng(43);
  const HostResourcesSoA hosts = HostResourcesSoA::from_batch(
      generator.generate_batch(util::ModelDate::from_ymd(2010, 1, 1), 1000,
                               host_rng));
  BagOfTasksConfig config;
  config.model_availability = true;
  util::Rng rate_rng(47);
  const std::vector<double> rates = compute_host_rates(hosts, config, rate_rng);
  expect_speed_weighted_identical(rates, random_tasks(400, 53));
  expect_speed_weighted_identical(rates, random_tasks(5000, 59));
}

TEST(SpeedWeightedKernels, DealsInRateProportion) {
  // Two hosts at 3:1 rates and equal tasks: the faster host is dealt
  // three of every four tasks, so both finish on the same day.
  ScheduleState state = ScheduleState::from_rates({300.0, 100.0});
  const std::vector<double> tasks(400, 100.0);
  const DynamicScheduleTotals totals =
      speed_weighted_schedule_blocked(state, tasks);
  EXPECT_NEAR(state.busy_days[0], 100.0, 1e-9);
  EXPECT_NEAR(state.busy_days[1], 100.0, 1e-9);
  EXPECT_EQ(totals.makespan_days,
            std::max(state.busy_days[0], state.busy_days[1]));
  EXPECT_NEAR(totals.total_cpu_days, 200.0, 1e-9);
}

TEST(PullKernels, HonorPreAdvancedFreeAt) {
  // A state mid-run (non-zero free_at) continues where it left off: the
  // kernel seeds its heap from the free_at column, so a busy host only
  // pulls again once it goes idle.
  const std::vector<double> rates(10, 100.0);
  const std::vector<double> tasks = {100.0};
  ScheduleState state = ScheduleState::from_rates(rates);
  for (std::size_t h = 0; h < rates.size(); ++h) {
    state.free_at[h] = 5.0 + static_cast<double>(h);
  }
  const DynamicScheduleTotals totals = pull_schedule(state, tasks);
  // Host 0 is the earliest-available (free at day 5) and the task takes
  // one day on it.
  EXPECT_EQ(totals.makespan_days, 6.0);
  EXPECT_EQ(state.free_at[0], 6.0);
}

}  // namespace
}  // namespace resmodel::sim
