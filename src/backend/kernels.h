// The kernel-dispatch table behind backend::Backend — one function-
// pointer struct per SIMD level, each implementing the same four hot
// primitives over the columnar layouts the sim/ and churn/ kernels
// already maintain:
//
//   ect_block_sweep   — one pruning block of the MCT scan: materialize
//                       done[i] = vals[i] + task * inv[i], min-reduce,
//                       and (when the minimum can still matter) return
//                       the smallest ORIGINAL host index attaining it.
//   column_min        — plain min over a contiguous double column (the
//                       per-block free_at / ready_at refresh).
//   row_bounds_argmin — the churn level-A pass: bounds[b] = row[b] +
//                       over * bmin_inv[b] for every block, returning
//                       the FIRST index attaining the row minimum (the
//                       warm-start block).
//   gate_sweep        — churn::BoundGate::eval_block over one padded
//                       64-lane block of float32 columns (checkpoint
//                       level routing or the restart two-piece bound).
//
// The allocator's fused score sweep, score_pack, is a plain function
// below, not a table entry: its autovectorized loop measured faster than
// explicit AVX2/AVX-512 code (src/backend/README.md).
//
// EXACTNESS RULES (what makes every arm bit-identical):
//  - No fused multiply-add, ever: a * b + c is two roundings in every
//    arm (the blocked TU compiles -ffp-contract=off, the SIMD TUs use
//    _mm*_mul + _mm*_add — never fmadd).
//  - Each lane's value is the same expression tree in the same order;
//    lanes never interact except through min, and IEEE min over
//    non-NaN data is exact and associative, so 2/4/8-wide reduction
//    trees agree with the sequential std::min chain bit for bit.
//  - Index reductions (tie-breaks, argmins) are over exact equality
//    with the already-reduced minimum, so they are pure integer min /
//    first-match scans — width changes the schedule, not the answer.
//
// Tail handling: ect_block_sweep / column_min / row_bounds_argmin take
// arbitrary lengths (the SIMD arms run a scalar epilogue); gate_sweep
// runs over fixed 64-lane blocks whose tail lanes the gate pads inert
// (inv = 0, sess/ready/next = +inf), so it has no tail path at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "backend/backend.h"

namespace resmodel::backend {

/// Lanes per pruning block — must equal sim::ScheduleState::kBlockSize
/// (static_assert'ed where both are visible, in block_envelope.cpp).
inline constexpr std::size_t kKernelBlock = 64;

/// Must equal churn::kMaxLookaheadLevels (same static_assert).
inline constexpr std::size_t kGateMaxLevels = 12;

/// Result of one block of the MCT scan: the block minimum and, when the
/// caller's incumbent made the equality pass run (value <= best_done),
/// the smallest original host index attaining it. `index` is
/// UINT32_MAX — and must not be read — when value > best_done.
struct EctBlockMin {
  double value = 0.0;
  std::uint32_t index = 0;
};

/// Read-only view of one 64-lane block of a BoundGate's packed float32
/// columns (pointers pre-offset to the block base; all lanes valid — the
/// gate pads its tails). `levels` of the c/phi arrays are populated;
/// `checkpoint` selects the level-routing bound, else the restart bound.
struct GateBlockView {
  const float* inv = nullptr;
  const float* sess = nullptr;
  const float* ready = nullptr;
  const float* next = nullptr;
  const float* accr = nullptr;
  const float* c[kGateMaxLevels] = {};
  const float* phi[kGateMaxLevels] = {};
  std::size_t levels = 0;
  bool checkpoint = true;
};

/// Cobb-Douglas exponents in column order (cores, memory, dhrystone,
/// whetstone, disk) — the allocator's score weights.
struct ScoreWeights {
  double w[5] = {};
};

/// Maps a score to a 32-bit key whose *ascending* unsigned order is the
/// *descending* float(score) order (sign-flip transform, complemented;
/// -0.0 normalized onto +0.0 first).
inline std::uint32_t descending_key(double score) noexcept {
  const float narrowed = static_cast<float>(score + 0.0);
  std::uint32_t bits;
  std::memcpy(&bits, &narrowed, sizeof(bits));
  bits = (bits & 0x80000000u) ? ~bits : (bits | 0x80000000u);
  return ~bits;
}

/// One dispatch arm. All pointers non-null; implementations are
/// stateless and thread-compatible (pure functions over their inputs).
struct KernelOps {
  /// Block MCT sweep over `len` <= kKernelBlock lanes: done[i] =
  /// vals[i] + task * inv[i]. Returns the block minimum; when it is
  /// <= best_done, also the smallest order[i] among the lanes attaining
  /// it (else index = UINT32_MAX, unread by contract).
  EctBlockMin (*ect_block_sweep)(const double* vals, const double* inv,
                                 const std::uint32_t* order, std::size_t len,
                                 double task, double best_done);
  /// min over x[0..len), len >= 1.
  double (*column_min)(const double* x, std::size_t len);
  /// bounds[b] = row[b] + over * bmin_inv[b] for b in [0, n); returns
  /// the first b attaining the minimum (n >= 1).
  std::uint32_t (*row_bounds_argmin)(const double* row,
                                     const double* bmin_inv, double over,
                                     std::size_t n, double* bounds);
  /// BoundGate::eval_block over one padded 64-lane block; writes
  /// kKernelBlock lower bounds (pad lanes produce +inf).
  void (*gate_sweep)(const GateBlockView& view, float task, float* lb);
};

/// The dispatch table for a resolved SIMD level. kNone returns the
/// blocked (autovectorized baseline) arm; kAvx2/kAvx512 return the
/// intrinsic arms — only call those on hardware resolve() selected
/// them for.
const KernelOps& kernel_ops(SimdLevel level) noexcept;

/// The allocator's fused sweep over n hosts: score[h] = sum_k w[k] *
/// col_k[h] (left-to-right association, no contraction); pref[h] =
/// (descending_key(score[h]) << 32) | h.
void score_pack(const double* log_c, const double* log_m,
                const double* log_i, const double* log_f,
                const double* log_d, const ScoreWeights& weights,
                std::size_t n, double* score, std::uint64_t* pref) noexcept;

}  // namespace resmodel::backend
