// The AVX2 arm: 4-wide double / 8-wide float intrinsic versions of the
// dispatch kernels, using blends where the AVX-512 arm uses mask
// registers. Compiled with -mavx2 (plus -ffp-contract=off;
// src/CMakeLists.txt) and only called when resolve() selected it — see
// kernels_avx512.cpp for the shared bit-identity notes (mul/add only,
// never fmadd; exact lane-wise min; sentinel-blended index tie-breaks).
#include "backend/kernels_internal.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <limits>

namespace resmodel::backend {

namespace {

inline double reduce_min_pd(__m256d v) noexcept {
  __m128d m = _mm_min_pd(_mm256_castpd256_pd128(v),
                         _mm256_extractf128_pd(v, 1));
  m = _mm_min_sd(m, _mm_unpackhi_pd(m, m));
  return _mm_cvtsd_f64(m);
}

EctBlockMin ect_block_sweep_avx2(const double* vals, const double* inv,
                                 const std::uint32_t* order, std::size_t len,
                                 double task, double best_done) {
  if (len != kKernelBlock) {
    return detail::blocked_ops().ect_block_sweep(vals, inv, order, len,
                                                 task, best_done);
  }
  const __m256d vt = _mm256_set1_pd(task);
  alignas(32) double done[kKernelBlock];
  __m256d vm = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  for (std::size_t j = 0; j < kKernelBlock; j += 4) {
    const __m256d d = _mm256_add_pd(
        _mm256_loadu_pd(vals + j),
        _mm256_mul_pd(vt, _mm256_loadu_pd(inv + j)));
    _mm256_store_pd(done + j, d);
    vm = _mm256_min_pd(vm, d);
  }
  const double m = reduce_min_pd(vm);
  if (m > best_done) {
    return {m, std::numeric_limits<std::uint32_t>::max()};
  }
  // Equality pass stays scalar here (the 64-bit lane masks do not line
  // up with the 32-bit order column without a widening shuffle); it
  // only runs for blocks that beat or tie the incumbent.
  std::uint32_t m_best = std::numeric_limits<std::uint32_t>::max();
  for (std::size_t i = 0; i < kKernelBlock; ++i) {
    if (done[i] == m) m_best = std::min(m_best, order[i]);
  }
  return {m, m_best};
}

double column_min_avx2(const double* x, std::size_t len) {
  std::size_t i = 0;
  double m;
  if (len >= 4) {
    __m256d vm = _mm256_loadu_pd(x);
    for (i = 4; i + 4 <= len; i += 4) {
      vm = _mm256_min_pd(vm, _mm256_loadu_pd(x + i));
    }
    m = reduce_min_pd(vm);
  } else {
    m = x[0];
    i = 1;
  }
  for (; i < len; ++i) m = std::min(m, x[i]);
  return m;
}

std::uint32_t row_bounds_argmin_avx2(const double* row,
                                     const double* bmin_inv, double over,
                                     std::size_t n, double* bounds) {
  const __m256d vo = _mm256_set1_pd(over);
  __m256d vm = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d b = _mm256_add_pd(
        _mm256_loadu_pd(row + i),
        _mm256_mul_pd(vo, _mm256_loadu_pd(bmin_inv + i)));
    _mm256_storeu_pd(bounds + i, b);
    vm = _mm256_min_pd(vm, b);
  }
  double tightest = reduce_min_pd(vm);
  for (; i < n; ++i) {
    const double b = row[i] + over * bmin_inv[i];
    bounds[i] = b;
    tightest = std::min(tightest, b);
  }
  const __m256d vt = _mm256_set1_pd(tightest);
  for (i = 0; i + 4 <= n; i += 4) {
    const int eq = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(bounds + i), vt, _CMP_EQ_OQ));
    if (eq != 0) {
      return static_cast<std::uint32_t>(
          i + static_cast<std::size_t>(__builtin_ctz(
                  static_cast<unsigned>(eq))));
    }
  }
  for (; i < n; ++i) {
    if (bounds[i] == tightest) return static_cast<std::uint32_t>(i);
  }
  return 0;  // unreachable: tightest was read from bounds
}

void gate_sweep_avx2(const GateBlockView& v, float t, float* lb) {
  const __m256 vt = _mm256_set1_ps(t);
  const __m256 vinf =
      _mm256_set1_ps(std::numeric_limits<float>::infinity());
  const std::size_t L = v.levels;
  if (v.checkpoint) {
    for (std::size_t j = 0; j < kKernelBlock; j += 8) {
      const __m256 w = _mm256_mul_ps(vt, _mm256_loadu_ps(v.inv + j));
      const __m256 target =
          _mm256_add_ps(_mm256_loadu_ps(v.accr + j), w);
      __m256 spill =
          _mm256_add_ps(target, _mm256_loadu_ps(v.phi[L - 1] + j));
      for (std::size_t k = L - 1; k-- > 0;) {
        const __m256 ck = _mm256_loadu_ps(v.c[k] + j);
        const __m256 pk = _mm256_loadu_ps(v.phi[k] + j);
        const __m256 val = _mm256_add_ps(target, pk);
        const __m256 le = _mm256_cmp_ps(target, ck, _CMP_LE_OQ);
        spill = _mm256_min_ps(spill, _mm256_blendv_ps(vinf, val, le));
      }
      const __m256 fits = _mm256_add_ps(_mm256_loadu_ps(v.ready + j), w);
      const __m256 fm =
          _mm256_cmp_ps(w, _mm256_loadu_ps(v.sess + j), _CMP_LE_OQ);
      _mm256_storeu_ps(lb + j, _mm256_blendv_ps(spill, fits, fm));
    }
  } else {
    for (std::size_t j = 0; j < kKernelBlock; j += 8) {
      const __m256 w = _mm256_mul_ps(vt, _mm256_loadu_ps(v.inv + j));
      const __m256 rw = _mm256_add_ps(_mm256_loadu_ps(v.ready + j), w);
      const __m256 nw = _mm256_add_ps(_mm256_loadu_ps(v.next + j), w);
      const __m256 fm =
          _mm256_cmp_ps(w, _mm256_loadu_ps(v.sess + j), _CMP_LE_OQ);
      const __m256 fits = _mm256_blendv_ps(vinf, rw, fm);
      _mm256_storeu_ps(lb + j, _mm256_min_ps(fits, nw));
    }
  }
}

constexpr KernelOps kAvx2Ops = {
    &ect_block_sweep_avx2, &column_min_avx2, &row_bounds_argmin_avx2,
    &gate_sweep_avx2,
};

}  // namespace

namespace detail {
const KernelOps& avx2_ops() noexcept { return kAvx2Ops; }
}  // namespace detail

}  // namespace resmodel::backend

#else  // no AVX2 at compile time (non-x86 target): fall back.

namespace resmodel::backend::detail {
const KernelOps& avx2_ops() noexcept { return blocked_ops(); }
}  // namespace resmodel::backend::detail

#endif
