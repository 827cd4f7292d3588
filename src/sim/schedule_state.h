// Columnar scheduling state + the blocked kernels behind bag_of_tasks.
//
// The MCT-family heuristics the paper's introduction cites (Al-Azzoni &
// Down; Anglano & Canonico) all reduce to tight loops over per-host
// scheduling state. This header keeps that state as contiguous columns —
// `rates`, `inv_rates`, `free_at`, `busy_days` — exactly the way
// HostResourcesSoA carries the hardware columns into the allocator, so the
// policy hot loops are cache-friendly streaming sweeps instead of pointer
// chases:
//
//  - EctBlockIndex: the warm-started, block-pruned minimum of
//    key[h] + task * inv_rates[h] over the rate-sorted layout — one
//    index behind every MCT-shaped selection in sim/ and churn/.
//  - ect_schedule_blocked: the kDynamicEct (minimum-completion-time) scan
//    on an EctBlockIndex over free_at — multiply instead of divide,
//    block-local buffers the autovectorizer likes, and a per-block lower
//    bound that skips whole blocks that cannot beat the current best
//    completion time.
//  - ect_schedule_reference: the retained scalar loop, bit-identical to
//    the blocked kernel (the golden oracle for tests/sim/).
//  - pull_schedule: kDynamicPull on a std::priority_queue of
//    (free_at, host) keys — the one pull kernel on every backend.
//  - speed_weighted_schedule_blocked / speed_weighted_schedule_reference:
//    kStaticSpeedWeighted largest-deficit dealing over the same rate-sorted
//    blocks, pruned by a per-block upper bound on the deficit, vs the
//    full per-task scan it replaced.
//
// All kernels use task * inv_rates[h] for processing times (the reciprocal
// column is computed once per run), so every implementation pair agrees
// bit for bit. schedule_state.cpp is compiled with -ffp-contract=off (see
// src/CMakeLists.txt): otherwise the compiler may fuse a*b+c into an fma
// in one loop and not another, and "bit-identical across kernels" would be
// at the mercy of instruction selection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "backend/kernels.h"

namespace resmodel::sim {

/// Totals a dynamic scheduling kernel reports on top of the per-host
/// columns it updates in place.
struct DynamicScheduleTotals {
  double makespan_days = 0.0;
  double total_cpu_days = 0.0;
};

/// Per-host scheduling columns, index h across all columns is one host.
/// `rates` is the (derated) processing rate in MIPS; `inv_rates` its
/// reciprocal; `free_at` the day the host next goes idle; `busy_days` the
/// accumulated processing time.
///
/// The `ect_*` members are the blocked MCT kernel's static caches: hosts
/// re-ordered by ascending inv_rates (fastest first, stable so equal
/// rates keep ascending host index), so each kBlockSize-wide block is
/// rate-homogeneous and its minimum inv_rate — the first sorted entry —
/// is a sharp per-block lower bound ingredient. With random host order a
/// fast host lands in almost every block and the bound discriminates
/// poorly; sorted blocks concentrate the fast hosts into the leading
/// blocks and let the trailing ones prune wholesale.
struct ScheduleState {
  /// Hosts per pruning block: 64 doubles = one 512-byte column stripe,
  /// long enough to amortize the bound test, short enough that one slow
  /// host cannot hide a block of fast ones.
  static constexpr std::size_t kBlockSize = 64;

  /// Compute backend for the blocked kernels (src/backend/README.md):
  /// kAuto picks the widest SIMD arm the CPU offers, kScalar routes
  /// ect_schedule_blocked onto the reference oracle. Every setting
  /// returns the same schedule bit for bit.
  backend::Backend backend = backend::Backend::kAuto;

  std::vector<double> rates;
  std::vector<double> inv_rates;
  std::vector<double> free_at;
  std::vector<double> busy_days;

  /// Sorted position -> original host index (ascending inv_rates, ties by
  /// ascending host index). Built lazily by ensure_ect_caches() — only
  /// the ECT and speed-weighted kernels read the sorted layout, so the
  /// other policies never pay for the sort.
  std::vector<std::uint32_t> ect_order;
  /// Original host index -> sorted position (inverse of ect_order).
  std::vector<std::uint32_t> ect_pos;
  /// inv_rates permuted into sorted order.
  std::vector<double> ect_sorted_inv;
  /// Per sorted block, the minimum of ect_sorted_inv (its first entry).
  std::vector<double> ect_block_min_inv;

  /// Builds the idle state (free_at = busy_days = 0) for the given rates.
  /// Every rate must be > 0 (host_rates guarantees >= 0.01 MIPS). Host
  /// counts are capped at 2^32 entries by the permutation columns.
  static ScheduleState from_rates(std::vector<double> rates);

  /// Builds the ect_* columns if they are not present yet (rates are
  /// immutable after from_rates, so once built they stay valid).
  void ensure_ect_caches();

  std::size_t size() const noexcept { return rates.size(); }
  std::size_t block_count() const noexcept {
    return ect_block_min_inv.size();
  }
};

/// The pruning index behind every `key[h] + task * inv_rates[h]`
/// minimum-completion selection: one key column gathered into the
/// rate-sorted ect_order layout plus its per-block minima. Shared by
/// ect_schedule_blocked (key = free_at), the replicated derate stepper
/// (sim/replication.cpp, key = free_at) and churn's kAbandon selection
/// (key = the ready-at cursor).
class EctBlockIndex {
 public:
  /// Gathers `keys` (original host order, one per host) into sorted
  /// layout and recomputes every block minimum. `state` must have its
  /// ect_* caches built and outlive every later call.
  void rebuild(const ScheduleState& state, std::span<const double> keys,
               const backend::KernelOps& ops);

  /// Sets `host`'s key and re-reduces its block's minimum.
  void refresh(std::size_t host, double key);

  /// The host minimizing key + task * inv_rate — the smallest original
  /// host index among exact ties — and that minimum. The per-block bound
  /// bmin_key + task * ect_block_min_inv is computed for the whole row
  /// first; the tightest block is swept first (warm start), then every
  /// block whose bound is not strictly greater than the incumbent. Both
  /// addends are per-block minima and fl(+), fl(*) are monotone, so the
  /// bound never exceeds a lane's key bitwise, the strict `>` keeps every
  /// block that could still tie, and the pick equals the full scan's
  /// first strict improvement. Requires a non-empty state.
  backend::EctBlockMin select(double task);

  /// Blocks whose columns select() has streamed since construction.
  std::uint64_t swept_blocks() const noexcept { return swept_blocks_; }

 private:
  const ScheduleState* state_ = nullptr;
  const backend::KernelOps* ops_ = nullptr;
  std::vector<double> keys_;    ///< key column in sorted layout
  std::vector<double> bmin_;    ///< per-block minimum of keys_
  std::vector<double> bounds_;  ///< per-select bound row scratch
  std::uint64_t swept_blocks_ = 0;
};

/// Minimum-completion-time scheduling of `tasks` (costs in MIPS-days, in
/// arrival order) over `state`: each task goes to the host minimizing
/// free_at[h] + task * inv_rates[h], lowest host index on exact ties.
/// Blocked kernel: one EctBlockIndex over free_at, refreshed at the
/// winner after every assignment. Updates free_at / busy_days in place.
DynamicScheduleTotals ect_schedule_blocked(ScheduleState& state,
                                           std::span<const double> tasks);

/// The full scan EctBlockIndex::select equals: the first strict
/// improvement of keys[h] + task * inv_rates[h] in host order. The
/// reference arm of every selection built on the index.
backend::EctBlockMin ect_select_reference(std::span<const double> keys,
                                          std::span<const double> inv_rates,
                                          double task);

/// The retained scalar ECT loop — same formula, same tie-break, scans
/// every host for every task. Golden oracle and benchmark baseline;
/// bit-identical to ect_schedule_blocked.
DynamicScheduleTotals ect_schedule_reference(ScheduleState& state,
                                             std::span<const double> tasks);

/// Static speed-weighted dealing of `tasks` (non-negative costs in
/// MIPS-days, in arrival order) over `state`: with share[h] = rates[h] / sum(rates) and
/// assigned[h] the cost dealt to h so far, each task goes to the host with
/// the largest deficit share[h] * (dealt + task) - assigned[h], lowest
/// host index on exact ties. Adds task * inv_rates[h] to busy_days[h];
/// free_at is not touched (a static schedule runs each host's quota back
/// to back). Returns the busy days added (total_cpu_days) and
/// makespan_days = the largest busy_days.
/// Blocked kernel over the rate-sorted layout (ensure_ect_caches): per
/// block it keeps the maximum share (fixed) and the minimum assigned cost
/// (rescanned only in the winner's block), and skips a block outright when
///   bmax_share[b] * (dealt + task) - bmin_assigned[b] < best_so_far,
/// an upper bound on every deficit inside it (monotone rounding keeps it
/// an upper bound in floating point too). The strict `<` means a block
/// that could still tie the incumbent is always scanned, so the winner is
/// the smallest original host index among all hosts achieving the
/// maximum — exactly the reference loop's first-strict-improvement pick.
DynamicScheduleTotals speed_weighted_schedule_blocked(
    ScheduleState& state, std::span<const double> tasks);

/// The retained full scan — every host's deficit for every task. Golden
/// oracle and benchmark baseline; bit-identical to
/// speed_weighted_schedule_blocked.
DynamicScheduleTotals speed_weighted_schedule_reference(
    ScheduleState& state, std::span<const double> tasks);

/// Dynamic pull (list scheduling): the earliest-available host takes the
/// next task, ties to the smallest host index. A std::priority_queue
/// seeded from the state's current free_at (a pre-advanced state
/// continues where it left off); updates state in place.
DynamicScheduleTotals pull_schedule(ScheduleState& state,
                                    std::span<const double> tasks);

}  // namespace resmodel::sim
