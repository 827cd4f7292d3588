// Cross-backend golden suite: every dispatch arm must reproduce the
// scalar reference bit for bit — schedules, allocations, bounds and the
// kernel-shape counters — on inputs engineered to stress the parts that
// differ between arms (planted exact ties, partial blocks, padded gate
// lanes, sign flips in the radix key).
//
// Arm coverage adapts to the machine: the SIMD levels exercised are the
// ones backend::effective_cpu() admits, so the same test binary is the
// forced-scalar CI leg under RESMODEL_SIMD=off and the full AVX-512
// matrix on hardware that has it.
#include "backend/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "backend/backend.h"
#include "churn/churn_scheduler.h"
#include "churn/interval_timeline.h"
#include "sim/allocator.h"
#include "sim/host_soa.h"
#include "sim/schedule_state.h"
#include "sim/utility.h"
#include "synth/availability.h"
#include "util/rng.h"

namespace resmodel::backend {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The SIMD levels whose dispatch tables are safe to call on this
/// machine (under the current RESMODEL_SIMD mask). kNone — the blocked
/// arm — is always present.
std::vector<SimdLevel> testable_levels() {
  std::vector<SimdLevel> levels = {SimdLevel::kNone};
  const CpuFeatures cpu = effective_cpu();
  if (cpu.avx2) levels.push_back(SimdLevel::kAvx2);
  if (cpu.avx512) levels.push_back(SimdLevel::kAvx512);
  return levels;
}

constexpr Backend kAllBackends[] = {Backend::kAuto, Backend::kScalar,
                                    Backend::kBlocked, Backend::kSimd};

TEST(BackendResolve, ParseRoundTripsEveryName) {
  for (const Backend b : kAllBackends) {
    const auto parsed = parse_backend(to_string(b));
    ASSERT_TRUE(parsed.has_value()) << to_string(b);
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(parse_backend("").has_value());
  EXPECT_FALSE(parse_backend("avx512").has_value());
  EXPECT_FALSE(parse_backend("Scalar").has_value());
}

TEST(BackendResolve, ResolutionContract) {
  for (const Backend b : kAllBackends) {
    const ResolvedBackend rb = resolve(b);
    // Never unresolved, and the SIMD level only rides on the kSimd arm.
    EXPECT_NE(rb.arm, Backend::kAuto);
    if (rb.arm != Backend::kSimd) EXPECT_EQ(rb.simd, SimdLevel::kNone);
  }
  // The explicit arms pass through untouched.
  EXPECT_EQ(resolve(Backend::kScalar).arm, Backend::kScalar);
  EXPECT_EQ(resolve(Backend::kBlocked).arm, Backend::kBlocked);
  // kAuto and kSimd agree: both take the widest level or fall back.
  const ResolvedBackend a = resolve(Backend::kAuto);
  const ResolvedBackend s = resolve(Backend::kSimd);
  EXPECT_EQ(a.arm, s.arm);
  EXPECT_EQ(a.simd, s.simd);
  const CpuFeatures cpu = effective_cpu();
  if (cpu.avx512) {
    EXPECT_EQ(s.simd, SimdLevel::kAvx512);
  } else if (cpu.avx2) {
    EXPECT_EQ(s.simd, SimdLevel::kAvx2);
  } else {
    EXPECT_EQ(s.arm, Backend::kBlocked);
  }
}

// ---------------------------------------------------------------------
// Kernel-level unit checks: each arm against the blocked arm's answer on
// planted inputs (the blocked arm is itself golden-tested against the
// scalar oracles through the schedule suites below).

TEST(KernelArms, EctBlockSweepTieBreaksBySmallestOriginalIndex) {
  double vals[kKernelBlock];
  double inv[kKernelBlock];
  std::uint32_t order[kKernelBlock];
  for (std::size_t i = 0; i < kKernelBlock; ++i) {
    vals[i] = 5.0 + static_cast<double>(i);
    inv[i] = 0.5;
    // Scrambled original indices: descending, so the smallest original
    // index among tied lanes is NOT the smallest lane number.
    order[i] = static_cast<std::uint32_t>(200 + kKernelBlock - 1 - i);
  }
  // Lanes 3, 17 and 40 tie for the minimum done value exactly.
  vals[3] = vals[17] = vals[40] = 1.0;
  const double task = 2.0;  // done = 1.0 + 2.0 * 0.5 = 2.0 on tied lanes
  for (const SimdLevel level : testable_levels()) {
    const KernelOps& ops = kernel_ops(level);
    const EctBlockMin r =
        ops.ect_block_sweep(vals, inv, order, kKernelBlock, task, kInf);
    EXPECT_EQ(r.value, 2.0) << to_string(level);
    // min(order[3], order[17], order[40]) = order[40].
    EXPECT_EQ(r.index, order[40]) << to_string(level);
    // Pruned call (minimum above the incumbent): index is unread by
    // contract, value must still be the exact minimum.
    const EctBlockMin pruned =
        ops.ect_block_sweep(vals, inv, order, kKernelBlock, task, 1.5);
    EXPECT_EQ(pruned.value, 2.0) << to_string(level);
  }
}

TEST(KernelArms, EctBlockSweepPartialLengthsMatchBlocked) {
  util::Rng rng(42);
  double vals[kKernelBlock];
  double inv[kKernelBlock];
  std::uint32_t order[kKernelBlock];
  for (std::size_t i = 0; i < kKernelBlock; ++i) {
    vals[i] = rng.uniform() * 10.0;
    inv[i] = 0.1 + rng.uniform();
    order[i] = static_cast<std::uint32_t>(1000 + i * 7 % kKernelBlock);
  }
  const KernelOps& blocked = kernel_ops(SimdLevel::kNone);
  for (const std::size_t len : {std::size_t{1}, std::size_t{17},
                                std::size_t{63}, kKernelBlock}) {
    const EctBlockMin want =
        blocked.ect_block_sweep(vals, inv, order, len, 3.0, kInf);
    for (const SimdLevel level : testable_levels()) {
      const EctBlockMin got =
          kernel_ops(level).ect_block_sweep(vals, inv, order, len, 3.0, kInf);
      EXPECT_EQ(got.value, want.value) << to_string(level) << " len " << len;
      EXPECT_EQ(got.index, want.index) << to_string(level) << " len " << len;
    }
  }
}

TEST(KernelArms, ColumnMinMatchesBlocked) {
  util::Rng rng(43);
  std::vector<double> x(257);
  for (double& v : x) v = rng.uniform() * 100.0 - 50.0;
  x[200] = x[11];  // planted duplicate of some value
  const KernelOps& blocked = kernel_ops(SimdLevel::kNone);
  for (const std::size_t len :
       {std::size_t{1}, std::size_t{7}, std::size_t{64}, x.size()}) {
    const double want = blocked.column_min(x.data(), len);
    for (const SimdLevel level : testable_levels()) {
      EXPECT_EQ(kernel_ops(level).column_min(x.data(), len), want)
          << to_string(level) << " len " << len;
    }
  }
}

TEST(KernelArms, RowBoundsArgminReturnsFirstMinimum) {
  // row + over * bmin_inv with an exact duplicated minimum: the argmin
  // must be the FIRST position attaining it (the warm-start contract —
  // the churn scheduler's swept-blocks counter depends on it).
  std::vector<double> row = {4.0, 2.0, 6.0, 2.0, 9.0, 2.0, 7.5};
  std::vector<double> bmin_inv = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  const double over = 3.0;  // bounds = row + 3: minimum 5.0 at 1, 3, 5
  for (const SimdLevel level : testable_levels()) {
    std::vector<double> bounds(row.size(), -1.0);
    const std::uint32_t warm = kernel_ops(level).row_bounds_argmin(
        row.data(), bmin_inv.data(), over, row.size(), bounds.data());
    EXPECT_EQ(warm, 1u) << to_string(level);
    for (std::size_t b = 0; b < row.size(); ++b) {
      EXPECT_EQ(bounds[b], row[b] + over * bmin_inv[b])
          << to_string(level) << " block " << b;
    }
  }
  // Lengths around the vector width, random values, vs blocked.
  util::Rng rng(44);
  std::vector<double> long_row(100), long_inv(100);
  for (std::size_t i = 0; i < long_row.size(); ++i) {
    long_row[i] = rng.uniform() * 50.0;
    long_inv[i] = 0.01 + rng.uniform();
  }
  const KernelOps& blocked = kernel_ops(SimdLevel::kNone);
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{5}, std::size_t{8}, std::size_t{9},
        std::size_t{100}}) {
    std::vector<double> want_bounds(n);
    const std::uint32_t want = blocked.row_bounds_argmin(
        long_row.data(), long_inv.data(), 2.5, n, want_bounds.data());
    for (const SimdLevel level : testable_levels()) {
      std::vector<double> got_bounds(n);
      const std::uint32_t got = kernel_ops(level).row_bounds_argmin(
          long_row.data(), long_inv.data(), 2.5, n, got_bounds.data());
      EXPECT_EQ(got, want) << to_string(level) << " n " << n;
      EXPECT_EQ(got_bounds, want_bounds) << to_string(level) << " n " << n;
    }
  }
}

/// Builds a 64-lane gate block with live lanes, checkpoint-routing
/// variety (target below / above each level cut) and trailing pad lanes
/// exactly as BoundGate packs them (inv = 0, sess/ready/next = +inf,
/// accr = 0).
struct GateBlockFixture {
  static constexpr std::size_t kLevels = 3;
  float inv[kKernelBlock];
  float sess[kKernelBlock];
  float ready[kKernelBlock];
  float next[kKernelBlock];
  float accr[kKernelBlock];
  float c[kLevels][kKernelBlock];
  float phi[kLevels][kKernelBlock];

  explicit GateBlockFixture(std::uint64_t seed, std::size_t live) {
    util::Rng rng(seed);
    constexpr float inf = std::numeric_limits<float>::infinity();
    for (std::size_t i = 0; i < kKernelBlock; ++i) {
      if (i < live) {
        inv[i] = static_cast<float>(0.001 + rng.uniform() * 0.01);
        sess[i] = static_cast<float>(rng.uniform() * 4.0);
        ready[i] = static_cast<float>(rng.uniform() * 10.0);
        next[i] = ready[i] + static_cast<float>(rng.uniform() * 5.0);
        accr[i] = static_cast<float>(rng.uniform() * 2.0);
        for (std::size_t k = 0; k < kLevels; ++k) {
          c[k][i] = accr[i] + static_cast<float>(k) +
                    static_cast<float>(rng.uniform());
          phi[k][i] = ready[i] + static_cast<float>(k) * 2.0f +
                      static_cast<float>(rng.uniform());
        }
      } else {
        inv[i] = 0.0f;
        sess[i] = ready[i] = next[i] = inf;
        accr[i] = 0.0f;
        for (std::size_t k = 0; k < kLevels; ++k) {
          c[k][i] = inf;
          phi[k][i] = inf;
        }
      }
    }
  }

  GateBlockView view(bool checkpoint) const {
    GateBlockView v;
    v.inv = inv;
    v.sess = sess;
    v.ready = ready;
    v.next = next;
    v.accr = accr;
    for (std::size_t k = 0; k < kLevels; ++k) {
      v.c[k] = c[k];
      v.phi[k] = phi[k];
    }
    v.levels = kLevels;
    v.checkpoint = checkpoint;
    return v;
  }
};

TEST(KernelArms, GateSweepMatchesBlocked) {
  const KernelOps& blocked = kernel_ops(SimdLevel::kNone);
  for (const std::size_t live : {kKernelBlock, std::size_t{41}}) {
    const GateBlockFixture fx(live * 31 + 7, live);
    for (const bool checkpoint : {true, false}) {
      const GateBlockView v = fx.view(checkpoint);
      for (const float task : {50.0f, 900.0f}) {
        float want[kKernelBlock];
        blocked.gate_sweep(v, task, want);
        // Pad lanes must bound to +inf through every arm.
        for (std::size_t i = live; i < kKernelBlock; ++i) {
          EXPECT_EQ(want[i], std::numeric_limits<float>::infinity());
        }
        for (const SimdLevel level : testable_levels()) {
          float got[kKernelBlock];
          kernel_ops(level).gate_sweep(v, task, got);
          for (std::size_t i = 0; i < kKernelBlock; ++i) {
            EXPECT_EQ(got[i], want[i])
                << to_string(level) << (checkpoint ? " ckpt" : " restart")
                << " live " << live << " lane " << i;
          }
        }
      }
    }
  }
}

TEST(ScorePack, TiedHostsShareKeyAndSignedZerosNormalize) {
  const std::size_t n = 101;
  std::vector<double> cols[5];
  util::Rng rng(45);
  for (auto& col : cols) {
    col.resize(n);
    for (double& v : col) v = rng.uniform() * 20.0 - 10.0;  // both signs
  }
  // Planted exact ties: hosts 10 and 90 identical in every column.
  for (auto& col : cols) col[90] = col[10];
  // Host 7 is negative in every column and host 8 positive in every
  // column, so zero weights give them -0.0 and +0.0.
  for (auto& col : cols) {
    col[7] = -std::abs(col[7]) - 1.0;
    col[8] = std::abs(col[8]) + 1.0;
  }
  std::vector<double> score(n);
  std::vector<std::uint64_t> pref(n);
  const auto pack = [&](const ScoreWeights& w) {
    score_pack(cols[0].data(), cols[1].data(), cols[2].data(),
               cols[3].data(), cols[4].data(), w, n, score.data(),
               pref.data());
  };
  pack({{0.25, 0.1, 0.3, 0.2, 0.15}});
  // Tied hosts share the key half; low halves are the host indices.
  EXPECT_EQ(pref[10] >> 32, pref[90] >> 32);
  for (std::size_t h = 0; h < n; ++h) EXPECT_EQ(pref[h] & 0xFFFFFFFFull, h);
  // Ascending keys walk the scores in descending float order, ties by
  // ascending host index.
  std::vector<std::uint64_t> sorted = pref;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 1; i < n; ++i) {
    const auto a = static_cast<std::size_t>(sorted[i - 1] & 0xFFFFFFFFull);
    const auto b = static_cast<std::size_t>(sorted[i] & 0xFFFFFFFFull);
    const float fa = static_cast<float>(score[a]);
    const float fb = static_cast<float>(score[b]);
    EXPECT_GE(fa, fb) << "hosts " << a << ", " << b;
    if (fa == fb) EXPECT_LT(a, b);
  }
  // All-zero weights: every score is a signed zero, and both zeros must
  // share one key.
  pack({{0.0, 0.0, 0.0, 0.0, 0.0}});
  ASSERT_EQ(score[7], 0.0);
  ASSERT_TRUE(std::signbit(score[7]));
  ASSERT_FALSE(std::signbit(score[8]));
  for (std::size_t h = 0; h < n; ++h) {
    EXPECT_EQ(pref[h] >> 32, pref[8] >> 32) << "host " << h;
  }
}

// ---------------------------------------------------------------------
// ECT schedule goldens: every requested backend vs the scalar reference,
// over populations engineered for tie pressure, at sizes spanning
// partial / exact / multi-block layouts, from cold and warm states.

std::vector<double> tie_heavy_rates(std::size_t n) {
  // One rate: every completion ties every task, so the whole schedule is
  // decided by the tie-break chain.
  return std::vector<double>(n, 750.0);
}

std::vector<double> dense_near_tie_rates(std::size_t n) {
  // Two exact values interleaved: heavy exact-tie runs inside blocks
  // plus cross-block ties after the rate sort.
  std::vector<double> rates(n);
  for (std::size_t i = 0; i < n; ++i) {
    rates[i] = (i % 2 == 0) ? 500.0 : 500.0000001;
  }
  return rates;
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

void expect_ect_identical(const std::vector<double>& rates,
                          const std::vector<double>& tasks,
                          const std::string& label) {
  sim::ScheduleState ref = sim::ScheduleState::from_rates(rates);
  const std::vector<double> warm_tasks = random_tasks(64, 77);
  // Warm the reference the same way the backends are warmed below.
  sim::ect_schedule_reference(ref, warm_tasks);
  const sim::DynamicScheduleTotals want = sim::ect_schedule_reference(ref, tasks);
  for (const Backend b : kAllBackends) {
    sim::ScheduleState state = sim::ScheduleState::from_rates(rates);
    state.backend = b;
    sim::ect_schedule_blocked(state, warm_tasks);  // warm: free_at spread
    const sim::DynamicScheduleTotals got = sim::ect_schedule_blocked(state, tasks);
    EXPECT_EQ(got.makespan_days, want.makespan_days)
        << label << " backend " << to_string(b);
    EXPECT_EQ(got.total_cpu_days, want.total_cpu_days)
        << label << " backend " << to_string(b);
    for (std::size_t h = 0; h < rates.size(); ++h) {
      ASSERT_EQ(state.free_at[h], ref.free_at[h])
          << label << " backend " << to_string(b) << " host " << h;
      ASSERT_EQ(state.busy_days[h], ref.busy_days[h])
          << label << " backend " << to_string(b) << " host " << h;
    }
  }
}

TEST(EctGoldens, AllBackendsMatchReferenceAcrossPopulations) {
  for (const std::size_t hosts :
       {std::size_t{1}, std::size_t{64}, std::size_t{257}}) {
    const std::vector<double> tasks = random_tasks(4 * hosts + 32, hosts);
    expect_ect_identical(tie_heavy_rates(hosts), tasks,
                         "tie-heavy/" + std::to_string(hosts));
    expect_ect_identical(dense_near_tie_rates(hosts), tasks,
                         "near-tie/" + std::to_string(hosts));
    expect_ect_identical(random_rates(hosts, hosts + 1), tasks,
                         "random/" + std::to_string(hosts));
  }
}

// ---------------------------------------------------------------------
// Churn schedule goldens: arms x interruption policies vs the scalar
// full-scan oracle, counters included where the contract pins them
// (swept blocks / resolved lanes are kernel-shape telemetry: identical
// for every non-scalar arm).

TEST(ChurnGoldens, AllBackendsMatchReferenceAcrossPolicies) {
  const std::size_t hosts = 300;
  const std::vector<double> rates = random_rates(hosts, 9);
  const std::vector<double> tasks = random_tasks(600, 10);
  util::Rng tl_rng(11);
  const churn::IntervalTimeline timeline = churn::IntervalTimeline::generate(
      synth::AvailabilityModel{}, hosts, 0.0, 60.0, tl_rng);
  constexpr churn::InterruptionPolicy kPolicies[] = {
      churn::InterruptionPolicy::kCheckpoint,
      churn::InterruptionPolicy::kRestart,
      churn::InterruptionPolicy::kAbandon,
  };
  for (const churn::InterruptionPolicy policy : kPolicies) {
    churn::ChurnSchedulerConfig config;
    sim::ScheduleState ref_state = sim::ScheduleState::from_rates(rates);
    churn::ChurnScheduler ref(ref_state, timeline, config);
    const churn::ChurnScheduleTotals want = ref.run_reference(tasks, policy);
    // The blocked arm's counters are the shape baseline the SIMD arms
    // must reproduce exactly — so it runs first.
    std::uint64_t blocked_swept = 0, blocked_lanes = 0;
    for (const Backend b : {Backend::kBlocked, Backend::kScalar,
                            Backend::kAuto, Backend::kSimd}) {
      config.backend = b;
      sim::ScheduleState state = sim::ScheduleState::from_rates(rates);
      churn::ChurnScheduler sched(state, timeline, config);
      const churn::ChurnScheduleTotals got = sched.run(tasks, policy);
      const std::string label = to_string(policy) + "/" + to_string(b);
      EXPECT_EQ(got.makespan_days, want.makespan_days) << label;
      EXPECT_EQ(got.total_cpu_days, want.total_cpu_days) << label;
      EXPECT_EQ(got.wasted_cpu_days, want.wasted_cpu_days) << label;
      EXPECT_EQ(got.interruptions, want.interruptions) << label;
      for (std::size_t h = 0; h < hosts; ++h) {
        ASSERT_EQ(state.free_at[h], ref_state.free_at[h])
            << label << " host " << h;
        ASSERT_EQ(state.busy_days[h], ref_state.busy_days[h])
            << label << " host " << h;
      }
      if (b == Backend::kBlocked) {
        blocked_swept = got.swept_blocks;
        blocked_lanes = got.resolved_lanes;
      } else if (b != Backend::kScalar) {
        // kAuto / kSimd: identical pruning shape, not just results.
        EXPECT_EQ(got.swept_blocks, blocked_swept) << label;
        EXPECT_EQ(got.resolved_lanes, blocked_lanes) << label;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Allocator goldens: the fused score+pack sweep through every arm vs the
// pow-based reference, on a population with planted identical hosts so
// the radix key's tie path is exercised.

TEST(AllocatorGoldens, AllBackendsMatchReference) {
  const std::size_t hosts = 600;
  std::vector<sim::HostResources> aos(hosts);
  util::Rng rng(13);
  for (std::size_t h = 0; h < hosts; ++h) {
    aos[h].cores = 1.0 + std::floor(rng.uniform() * 8.0);
    aos[h].memory_mb = 512.0 + rng.uniform() * 8192.0;
    aos[h].dhrystone_mips = 500.0 + rng.uniform() * 4000.0;
    aos[h].whetstone_mips = 400.0 + rng.uniform() * 3000.0;
    aos[h].disk_avail_gb = 1.0 + rng.uniform() * 500.0;
  }
  // Planted duplicates: identical hosts must tie and resolve by index.
  for (std::size_t h = 30; h < 40; ++h) aos[h] = aos[29];
  const sim::HostResourcesSoA soa = sim::HostResourcesSoA::from_hosts(aos);
  const std::span<const sim::ApplicationSpec> apps = sim::paper_applications();
  const sim::AllocationResult want =
      sim::allocate_round_robin_reference(apps, aos);
  for (const Backend b : kAllBackends) {
    const sim::AllocationResult got =
        sim::allocate_round_robin(apps, soa, /*threads=*/2, b);
    const std::string label = "backend " + to_string(b);
    EXPECT_EQ(got.assignment, want.assignment) << label;
    EXPECT_EQ(got.hosts_assigned, want.hosts_assigned) << label;
    ASSERT_EQ(got.total_utility.size(), want.total_utility.size()) << label;
    for (std::size_t a = 0; a < want.total_utility.size(); ++a) {
      EXPECT_NEAR(got.total_utility[a], want.total_utility[a],
                  1e-9 * want.total_utility[a])
          << label << " app " << a;
    }
  }
}

}  // namespace
}  // namespace resmodel::backend
