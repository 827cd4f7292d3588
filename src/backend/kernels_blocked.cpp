// The blocked arm: the PR-3/5 kernel loop bodies, verbatim, moved behind
// the dispatch table. Compiled with -ffp-contract=off and
// -fno-trapping-math (src/CMakeLists.txt) — the same flags their
// original homes (schedule_state.cpp / block_envelope.cpp) carry — so
// the autovectorized code generation is unchanged by the move. This TU
// also hosts kernel_ops(), the only consumer of the per-arm accessors,
// and the allocator's score_pack sweep, which has no other arm.
#include <algorithm>
#include <cstdint>
#include <limits>

#include "backend/kernels.h"
#include "backend/kernels_internal.h"

namespace resmodel::backend {

namespace {

EctBlockMin ect_block_sweep_blocked(const double* vals, const double* inv,
                                    const std::uint32_t* order,
                                    std::size_t len, double task,
                                    double best_done) {
  double done[kKernelBlock];
  for (std::size_t i = 0; i < len; ++i) {
    done[i] = vals[i] + task * inv[i];
  }
  double m = done[0];
  for (std::size_t i = 1; i < len; ++i) m = std::min(m, done[i]);
  EctBlockMin out{m, std::numeric_limits<std::uint32_t>::max()};
  if (m > best_done) return out;
  std::uint32_t m_best = std::numeric_limits<std::uint32_t>::max();
  for (std::size_t i = 0; i < len; ++i) {
    if (done[i] == m) m_best = std::min(m_best, order[i]);
  }
  out.index = m_best;
  return out;
}

double column_min_blocked(const double* x, std::size_t len) {
  double m = x[0];
  for (std::size_t i = 1; i < len; ++i) m = std::min(m, x[i]);
  return m;
}

std::uint32_t row_bounds_argmin_blocked(const double* row,
                                        const double* bmin_inv, double over,
                                        std::size_t n, double* bounds) {
  std::uint32_t warm = 0;
  double tightest = std::numeric_limits<double>::infinity();
  for (std::size_t b = 0; b < n; ++b) {
    const double bound = row[b] + over * bmin_inv[b];
    bounds[b] = bound;
    if (bound < tightest) {
      tightest = bound;
      warm = static_cast<std::uint32_t>(b);
    }
  }
  return warm;
}

// BoundGate::eval_block's former body (block_envelope.h derives the
// bounds). The loop shapes are deliberate: the checkpoint level routing
// is a min of per-level candidates whose unselected arm is the CONSTANT
// +inf — a dependent select between two loads does not if-convert (gcc
// reports "control flow in loop"), the constant arm does, and
// if-conversion is what lets these sweeps autovectorize at all; loads
// are hoisted unconditionally for the same reason (gcc refuses to
// speculate a load that only appears in one ternary arm). The restart
// bound exploits next_start >= ready so min(fits-candidate, next + w)
// equals the routed value while keeping the unselected arm constant.
void gate_sweep_blocked(const GateBlockView& v, float t, float* lb) {
  constexpr float kInfF = std::numeric_limits<float>::infinity();
  const float* __restrict inv = v.inv;
  const float* __restrict sess = v.sess;
  const float* __restrict ready = v.ready;
  float w[kKernelBlock];
  for (std::size_t i = 0; i < kKernelBlock; ++i) w[i] = t * inv[i];
  if (v.checkpoint) {
    const float* __restrict accr = v.accr;
    float target[kKernelBlock];
    float spill[kKernelBlock];
    for (std::size_t i = 0; i < kKernelBlock; ++i) {
      target[i] = accr[i] + w[i];
    }
    const float* __restrict pl = v.phi[v.levels - 1];
    for (std::size_t i = 0; i < kKernelBlock; ++i) {
      spill[i] = target[i] + pl[i];
    }
    for (std::size_t k = v.levels - 1; k-- > 0;) {
      const float* __restrict ck = v.c[k];
      const float* __restrict pk = v.phi[k];
      for (std::size_t i = 0; i < kKernelBlock; ++i) {
        const float tg = target[i];
        const float val = tg + pk[i];
        const float cand = tg <= ck[i] ? val : kInfF;
        spill[i] = std::min(spill[i], cand);
      }
    }
    for (std::size_t i = 0; i < kKernelBlock; ++i) {
      const float fits = ready[i] + w[i];
      const float sp = spill[i];
      lb[i] = w[i] <= sess[i] ? fits : sp;
    }
  } else {
    const float* __restrict nx = v.next;
    for (std::size_t i = 0; i < kKernelBlock; ++i) {
      const float rw = ready[i] + w[i];
      const float fits = w[i] <= sess[i] ? rw : kInfF;
      lb[i] = std::min(fits, nx[i] + w[i]);
    }
  }
}

constexpr KernelOps kBlockedOps = {
    &ect_block_sweep_blocked, &column_min_blocked, &row_bounds_argmin_blocked,
    &gate_sweep_blocked,
};

}  // namespace

namespace detail {
const KernelOps& blocked_ops() noexcept { return kBlockedOps; }
}  // namespace detail

const KernelOps& kernel_ops(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kAvx2:
      return detail::avx2_ops();
    case SimdLevel::kAvx512:
      return detail::avx512_ops();
    case SimdLevel::kNone:
      break;
  }
  return kBlockedOps;
}

void score_pack(const double* log_c, const double* log_m,
                const double* log_i, const double* log_f,
                const double* log_d, const ScoreWeights& weights,
                std::size_t n, double* score, std::uint64_t* pref) noexcept {
  const double w0 = weights.w[0];
  const double w1 = weights.w[1];
  const double w2 = weights.w[2];
  const double w3 = weights.w[3];
  const double w4 = weights.w[4];
  for (std::size_t h = 0; h < n; ++h) {
    const double s = w0 * log_c[h] + w1 * log_m[h] + w2 * log_i[h] +
                     w3 * log_f[h] + w4 * log_d[h];
    score[h] = s;
    pref[h] = (static_cast<std::uint64_t>(descending_key(s)) << 32) |
              static_cast<std::uint64_t>(h);
  }
}

}  // namespace resmodel::backend
