// Compiled with -ffp-contract=off (src/CMakeLists.txt): the blocked and
// reference kernels must produce bit-identical completion times and
// deficits, which rules out the compiler fusing free_at + task * inv_rate
// or share * x - assigned into an fma in one loop but not the other.
#include "sim/schedule_state.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <utility>

#include "backend/kernels.h"

namespace resmodel::sim {

ScheduleState ScheduleState::from_rates(std::vector<double> rates) {
  ScheduleState state;
  const std::size_t n = rates.size();
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "ScheduleState: host count exceeds 32-bit permutation index");
  }
  state.rates = std::move(rates);
  state.inv_rates.resize(n);
  for (std::size_t h = 0; h < n; ++h) {
    if (!(state.rates[h] > 0.0)) {
      throw std::invalid_argument("ScheduleState: non-positive host rate");
    }
    state.inv_rates[h] = 1.0 / state.rates[h];
  }
  state.free_at.assign(n, 0.0);
  state.busy_days.assign(n, 0.0);
  return state;
}

void ScheduleState::ensure_ect_caches() {
  const std::size_t n = size();
  if (ect_order.size() == n && ect_pos.size() == n &&
      ect_sorted_inv.size() == n) {
    return;
  }
  ect_order.resize(n);
  for (std::size_t h = 0; h < n; ++h) {
    ect_order[h] = static_cast<std::uint32_t>(h);
  }
  std::sort(ect_order.begin(), ect_order.end(),
            [&inv = inv_rates](std::uint32_t a, std::uint32_t b) {
              if (inv[a] != inv[b]) return inv[a] < inv[b];
              return a < b;
            });
  ect_pos.resize(n);
  ect_sorted_inv.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    ect_pos[ect_order[j]] = static_cast<std::uint32_t>(j);
    ect_sorted_inv[j] = inv_rates[ect_order[j]];
  }
  const std::size_t blocks = (n + kBlockSize - 1) / kBlockSize;
  ect_block_min_inv.resize(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    // Sorted ascending, so the block's first entry is its minimum.
    ect_block_min_inv[b] = ect_sorted_inv[b * kBlockSize];
  }
}

void EctBlockIndex::rebuild(const ScheduleState& state,
                            std::span<const double> keys,
                            const backend::KernelOps& ops) {
  constexpr std::size_t kBlock = ScheduleState::kBlockSize;
  state_ = &state;
  ops_ = &ops;
  const std::size_t n = state.size();
  const std::size_t blocks = state.block_count();
  keys_.resize(n);
  for (std::size_t j = 0; j < n; ++j) keys_[j] = keys[state.ect_order[j]];
  bmin_.resize(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = b * kBlock;
    bmin_[b] = ops.column_min(keys_.data() + lo, std::min(n - lo, kBlock));
  }
  bounds_.resize(blocks);
}

void EctBlockIndex::refresh(std::size_t host, double key) {
  constexpr std::size_t kBlock = ScheduleState::kBlockSize;
  const std::size_t pos = state_->ect_pos[host];
  keys_[pos] = key;
  const std::size_t lo = pos / kBlock * kBlock;
  bmin_[pos / kBlock] =
      ops_->column_min(keys_.data() + lo, std::min(keys_.size() - lo, kBlock));
}

backend::EctBlockMin EctBlockIndex::select(double task) {
  constexpr std::size_t kBlock = ScheduleState::kBlockSize;
  const std::size_t n = keys_.size();
  const std::size_t blocks = bmin_.size();
  const double* inv = state_->ect_sorted_inv.data();
  const std::uint32_t* order = state_->ect_order.data();
  // The whole bound row in one vectorizable pass; its minimum's block is
  // swept first, so the incumbent is near-optimal before any other block
  // is gated. Processing order is result-neutral because pruning only
  // skips hosts that can neither win nor tie.
  const std::uint32_t warm =
      ops_->row_bounds_argmin(bmin_.data(), state_->ect_block_min_inv.data(),
                              task, blocks, bounds_.data());
  backend::EctBlockMin best{std::numeric_limits<double>::infinity(), 0};
  for (std::size_t bi = 0; bi <= blocks; ++bi) {
    const std::size_t b = bi == 0 ? warm : bi - 1;
    if (bi != 0 && (b == warm || bounds_[b] > best.value)) continue;
    ++swept_blocks_;
    const std::size_t lo = b * kBlock;
    const backend::EctBlockMin r =
        ops_->ect_block_sweep(keys_.data() + lo, inv + lo, order + lo,
                              std::min(n - lo, kBlock), task, best.value);
    if (r.value > best.value) continue;
    if (r.value < best.value) {
      best = r;
    } else {
      best.index = std::min(best.index, r.index);
    }
  }
  return best;
}

DynamicScheduleTotals ect_schedule_blocked(ScheduleState& state,
                                           std::span<const double> tasks) {
  // Backend dispatch (src/backend/README.md): kScalar routes onto the
  // reference oracle; the other arms share this driver and differ only
  // in the kernel-ops table the sweeps go through. Every arm returns
  // the same schedule bit for bit.
  const backend::ResolvedBackend rb = backend::resolve(state.backend);
  if (rb.arm == backend::Backend::kScalar) {
    return ect_schedule_reference(state, tasks);
  }
  DynamicScheduleTotals totals;
  if (state.size() == 0) return totals;
  state.ensure_ect_caches();
  // free_at gathered once per run (kernel-local, so a pre-advanced state
  // works too); only the assigned host's block is refreshed per task.
  EctBlockIndex index;
  index.rebuild(state, state.free_at, backend::kernel_ops(rb.simd));
  for (const double task : tasks) {
    const backend::EctBlockMin best = index.select(task);
    const double days = task * state.inv_rates[best.index];
    state.busy_days[best.index] += days;
    state.free_at[best.index] = best.value;
    totals.total_cpu_days += days;
    totals.makespan_days = std::max(totals.makespan_days, best.value);
    index.refresh(best.index, best.value);
  }
  return totals;
}

backend::EctBlockMin ect_select_reference(std::span<const double> keys,
                                          std::span<const double> inv_rates,
                                          double task) {
  backend::EctBlockMin best{std::numeric_limits<double>::infinity(), 0};
  for (std::size_t h = 0; h < keys.size(); ++h) {
    const double done = keys[h] + task * inv_rates[h];
    if (done < best.value) best = {done, static_cast<std::uint32_t>(h)};
  }
  return best;
}

DynamicScheduleTotals ect_schedule_reference(ScheduleState& state,
                                             std::span<const double> tasks) {
  DynamicScheduleTotals totals;
  if (state.size() == 0) return totals;
  for (const double task : tasks) {
    const backend::EctBlockMin best =
        ect_select_reference(state.free_at, state.inv_rates, task);
    const double days = task * state.inv_rates[best.index];
    state.busy_days[best.index] += days;
    state.free_at[best.index] = best.value;
    totals.total_cpu_days += days;
    totals.makespan_days = std::max(totals.makespan_days, best.value);
  }
  return totals;
}

namespace {

// rates[h] / sum(rates) in host order: both speed-weighted kernels read
// their shares through this one expression, so they agree bit for bit.
std::vector<double> rate_shares(const ScheduleState& state) {
  const double total_rate =
      std::accumulate(state.rates.begin(), state.rates.end(), 0.0);
  std::vector<double> share(state.size());
  for (std::size_t h = 0; h < state.size(); ++h) {
    share[h] = state.rates[h] / total_rate;
  }
  return share;
}

double max_busy_days(const ScheduleState& state) {
  double makespan = 0.0;
  for (const double b : state.busy_days) makespan = std::max(makespan, b);
  return makespan;
}

struct DeficitMax {
  double value = 0.0;
  std::uint32_t index = 0;  ///< UINT32_MAX when value < best
};

// One block of the deficit scan: the block maximum of share * x - assigned
// and, when it can still win or tie (>= best), the smallest original host
// index attaining it. Two passes — a max-reduction over a block-local
// buffer, then an integer-min over the lanes equal to it — so neither
// pass carries an index through the floating-point reduction.
DeficitMax deficit_block_max(const double* share, const double* assigned,
                             const std::uint32_t* order, std::size_t len,
                             double x, double best) {
  double deficit[ScheduleState::kBlockSize];
  double block_max = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < len; ++i) {
    deficit[i] = share[i] * x - assigned[i];
    block_max = std::max(block_max, deficit[i]);
  }
  if (block_max < best) {
    return {block_max, std::numeric_limits<std::uint32_t>::max()};
  }
  std::uint32_t index = std::numeric_limits<std::uint32_t>::max();
  for (std::size_t i = 0; i < len; ++i) {
    if (deficit[i] == block_max) index = std::min(index, order[i]);
  }
  return {block_max, index};
}

}  // namespace

DynamicScheduleTotals speed_weighted_schedule_blocked(
    ScheduleState& state, std::span<const double> tasks) {
  constexpr std::size_t kBlock = ScheduleState::kBlockSize;
  DynamicScheduleTotals totals;
  const std::size_t n = state.size();
  if (n == 0) return totals;
  state.ensure_ect_caches();
  const std::size_t blocks = state.block_count();
  const std::uint32_t* order = state.ect_order.data();

  // Shares and dealt cost in sorted order, plus the two per-block bound
  // ingredients: the maximum share (fixed for the run) and the minimum
  // assigned cost (only the winner's block changes per task).
  const std::vector<double> share = rate_shares(state);
  std::vector<double> sshare(n);
  for (std::size_t j = 0; j < n; ++j) sshare[j] = share[order[j]];
  std::vector<double> sassigned(n, 0.0);
  std::vector<double> bmax_share(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = b * kBlock;
    const std::size_t hi = std::min(n, lo + kBlock);
    bmax_share[b] = *std::max_element(sshare.begin() + lo, sshare.begin() + hi);
  }
  std::vector<double> bmin_assigned(blocks, 0.0);

  std::vector<double> bounds(blocks);  // per-task gate scratch
  double total_assigned = 0.0;
  for (const double task : tasks) {
    const double x = total_assigned + task;
    // Per-block upper bound on every deficit inside it: no host has a
    // larger share than bmax_share[b] nor less dealt cost than
    // bmin_assigned[b], and x >= 0, so share[h] * x <= bmax_share[b] * x
    // and the subtraction keep the order after rounding. The block with
    // the largest bound is swept first (warm start), so the incumbent is
    // near-optimal before any other block is gated; processing order is
    // result-neutral because pruning only skips hosts that can neither
    // win nor tie.
    std::size_t warm = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
      bounds[b] = bmax_share[b] * x - bmin_assigned[b];
      if (bounds[b] > bounds[warm]) warm = b;
    }
    std::uint32_t best = 0;  // original host index of the incumbent
    double best_deficit = -std::numeric_limits<double>::infinity();
    for (std::size_t bi = 0; bi <= blocks; ++bi) {
      const std::size_t b = bi == 0 ? warm : bi - 1;
      if (bi != 0 && (b == warm || bounds[b] < best_deficit)) continue;
      const std::size_t lo = b * kBlock;
      const DeficitMax r =
          deficit_block_max(sshare.data() + lo, sassigned.data() + lo,
                            order + lo, std::min(n - lo, kBlock), x,
                            best_deficit);
      if (r.value < best_deficit) continue;
      if (r.value > best_deficit) {
        best_deficit = r.value;
        best = r.index;
      } else {
        best = std::min(best, r.index);
      }
    }
    const double days = task * state.inv_rates[best];
    state.busy_days[best] += days;
    totals.total_cpu_days += days;
    const std::size_t pos = state.ect_pos[best];
    sassigned[pos] += task;
    const std::size_t blk = pos / kBlock;
    const std::size_t lo = blk * kBlock;
    const std::size_t hi = std::min(n, lo + kBlock);
    bmin_assigned[blk] =
        *std::min_element(sassigned.begin() + lo, sassigned.begin() + hi);
    total_assigned = x;
  }
  totals.makespan_days = max_busy_days(state);
  return totals;
}

DynamicScheduleTotals speed_weighted_schedule_reference(
    ScheduleState& state, std::span<const double> tasks) {
  // Deal tasks in rate-proportional quotas: host h receives the next
  // task whenever its accumulated *work share* is furthest below its
  // rate share. Equivalent to largest-remaining-quota dealing.
  const std::size_t n = state.size();
  DynamicScheduleTotals totals;
  if (n == 0) return totals;
  const std::vector<double> share = rate_shares(state);
  std::vector<double> assigned_work(n, 0.0);
  double total_assigned = 0.0;
  for (const double task : tasks) {
    // Deficit in cost units: how far below its rate-proportional share
    // of the work assigned so far this host currently is. Looking one
    // task ahead keeps the first |H| picks spread across hosts.
    std::size_t best = 0;
    double best_deficit = -std::numeric_limits<double>::infinity();
    const double next_total = total_assigned + task;
    for (std::size_t h = 0; h < n; ++h) {
      const double deficit = share[h] * next_total - assigned_work[h];
      if (deficit > best_deficit) {
        best_deficit = deficit;
        best = h;
      }
    }
    const double days = task * state.inv_rates[best];
    state.busy_days[best] += days;
    totals.total_cpu_days += days;
    assigned_work[best] += task;
    total_assigned = next_total;
  }
  totals.makespan_days = max_busy_days(state);
  return totals;
}

DynamicScheduleTotals pull_schedule(ScheduleState& state,
                                    std::span<const double> tasks) {
  using Entry = std::pair<double, std::size_t>;  // (free at, host)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (std::size_t h = 0; h < state.size(); ++h) {
    heap.push({state.free_at[h], h});
  }
  DynamicScheduleTotals totals;
  if (state.size() == 0) return totals;
  for (const double task : tasks) {
    const auto [free_at, h] = heap.top();
    heap.pop();
    const double days = task * state.inv_rates[h];
    state.busy_days[h] += days;
    totals.total_cpu_days += days;
    const double done = free_at + days;
    state.free_at[h] = done;
    totals.makespan_days = std::max(totals.makespan_days, done);
    heap.push({done, h});
  }
  return totals;
}

}  // namespace resmodel::sim
