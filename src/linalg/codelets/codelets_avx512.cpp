// AVX-512F codelets for the rank-R kernel layer.
//
// Same contract and isolation rules as codelets_avx2.cpp (see its header
// comment); this TU is compiled with -mavx512f -mavx2 -mfma and reached
// only through the tier-resolved RankKernelTable after the cpuid probe
// confirmed avx512f.
//
// Padded ranks are multiples of 4 doubles, not 8, so every kernel runs an
// 8-wide (512-bit) main loop followed by at most one 4-wide (256-bit) step
// — e.g. padded rank 20 = 2×8 + 4 — and the P = 0 runtime-length
// instantiations add a scalar tail for the unaligned Cholesky suffixes
// (its loop tests P == 0 first, so padded instantiations compile it out).
// The dot kernel reduces eight partial-sum lanes, so its summation
// grouping differs from the generic/AVX2 four-lane scheme: dots agree to
// ulp-level tolerance across tiers, never bitwise (tests pin this).
//
// Scalar tails are written with std::fma where the vector body fuses, so
// the rounding of every element is fixed by the source rather than by the
// compiler's contraction setting; SolveUpperRows replays exactly this
// arithmetic with one row per lane.

#include "linalg/codelets/codelet_tables.h"

#ifdef SNS_HAVE_X86_CODELETS

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace sns::codelets {
namespace {

template <int64_t P>
inline int64_t Trip(int64_t n) {
  return P > 0 ? P : n;
}

template <int64_t P>
void Fill(double* dst, double value, int64_t n) {
  const int64_t m = Trip<P>(n);
  const __m512d v8 = _mm512_set1_pd(value);
  int64_t r = 0;
  for (; r + 8 <= m; r += 8) _mm512_storeu_pd(dst + r, v8);
  if (r + 4 <= m) {
    _mm256_storeu_pd(dst + r, _mm256_set1_pd(value));
    r += 4;
  }
  for (; P == 0 && r < m; ++r) dst[r] = value;
}

template <int64_t P>
void Copy(const double* src, double* dst, int64_t n) {
  const int64_t m = Trip<P>(n);
  int64_t r = 0;
  for (; r + 8 <= m; r += 8) {
    _mm512_storeu_pd(dst + r, _mm512_loadu_pd(src + r));
  }
  if (r + 4 <= m) {
    _mm256_storeu_pd(dst + r, _mm256_loadu_pd(src + r));
    r += 4;
  }
  for (; P == 0 && r < m; ++r) dst[r] = src[r];
}

template <int64_t P>
void Axpy(double alpha, const double* x, double* y, int64_t n) {
  const int64_t m = Trip<P>(n);
  const __m512d va8 = _mm512_set1_pd(alpha);
  int64_t r = 0;
  for (; r + 8 <= m; r += 8) {
    _mm512_storeu_pd(y + r, _mm512_fmadd_pd(va8, _mm512_loadu_pd(x + r),
                                            _mm512_loadu_pd(y + r)));
  }
  if (r + 4 <= m) {
    const __m256d va4 = _mm256_set1_pd(alpha);
    _mm256_storeu_pd(y + r, _mm256_fmadd_pd(va4, _mm256_loadu_pd(x + r),
                                            _mm256_loadu_pd(y + r)));
    r += 4;
  }
  for (; P == 0 && r < m; ++r) y[r] = std::fma(alpha, x[r], y[r]);
}

template <int64_t P>
void Mul(const double* a, const double* b, double* out, int64_t n) {
  const int64_t m = Trip<P>(n);
  int64_t r = 0;
  for (; r + 8 <= m; r += 8) {
    _mm512_storeu_pd(out + r, _mm512_mul_pd(_mm512_loadu_pd(a + r),
                                            _mm512_loadu_pd(b + r)));
  }
  if (r + 4 <= m) {
    _mm256_storeu_pd(out + r, _mm256_mul_pd(_mm256_loadu_pd(a + r),
                                            _mm256_loadu_pd(b + r)));
    r += 4;
  }
  for (; P == 0 && r < m; ++r) out[r] = a[r] * b[r];
}

template <int64_t P>
void MulAccum(double* dst, const double* src, int64_t n) {
  const int64_t m = Trip<P>(n);
  int64_t r = 0;
  for (; r + 8 <= m; r += 8) {
    _mm512_storeu_pd(dst + r, _mm512_mul_pd(_mm512_loadu_pd(dst + r),
                                            _mm512_loadu_pd(src + r)));
  }
  if (r + 4 <= m) {
    _mm256_storeu_pd(dst + r, _mm256_mul_pd(_mm256_loadu_pd(dst + r),
                                            _mm256_loadu_pd(src + r)));
    r += 4;
  }
  for (; P == 0 && r < m; ++r) dst[r] *= src[r];
}

template <int64_t P>
void Fma3(double v, const double* a, const double* b, double* out, int64_t n) {
  const int64_t m = Trip<P>(n);
  const __m512d vv8 = _mm512_set1_pd(v);
  int64_t r = 0;
  for (; r + 8 <= m; r += 8) {
    const __m512d prod =
        _mm512_mul_pd(_mm512_loadu_pd(a + r), _mm512_loadu_pd(b + r));
    _mm512_storeu_pd(out + r,
                     _mm512_fmadd_pd(vv8, prod, _mm512_loadu_pd(out + r)));
  }
  if (r + 4 <= m) {
    const __m256d prod =
        _mm256_mul_pd(_mm256_loadu_pd(a + r), _mm256_loadu_pd(b + r));
    _mm256_storeu_pd(out + r, _mm256_fmadd_pd(_mm256_set1_pd(v),
                                              prod, _mm256_loadu_pd(out + r)));
    r += 4;
  }
  for (; P == 0 && r < m; ++r) out[r] = std::fma(v, a[r] * b[r], out[r]);
}

// Fma3 over the terms of one fiber, in order: each lane runs Fma3's
// fma(v, a·b, acc), with the P-wide row held in registers — P/8 zmm plus
// one ymm for Fma3's 4-wide step when P is not a multiple of 8.
template <int64_t P>
void FiberFma3(const double* v, const double* const* a, const double* const* b,
               int64_t count, double* out, int64_t n) {
  if constexpr (P == 0) {
    for (int64_t k = 0; k < count; ++k) Fma3<0>(v[k], a[k], b[k], out, n);
  } else {
    constexpr int kRegs = static_cast<int>(P / 8);
    constexpr bool kQuad = P % 8 != 0;
    constexpr int64_t kQuadAt = 8 * kRegs;
    __m512d acc[kRegs > 0 ? kRegs : 1];
    __m256d quad = _mm256_setzero_pd();
    for (int l = 0; l < kRegs; ++l) acc[l] = _mm512_loadu_pd(out + 8 * l);
    if constexpr (kQuad) quad = _mm256_loadu_pd(out + kQuadAt);
    for (int64_t k = 0; k < count; ++k) {
      const double* ak = a[k];
      const double* bk = b[k];
      const __m512d vv8 = _mm512_set1_pd(v[k]);
      for (int l = 0; l < kRegs; ++l) {
        const __m512d prod = _mm512_mul_pd(_mm512_loadu_pd(ak + 8 * l),
                                           _mm512_loadu_pd(bk + 8 * l));
        acc[l] = _mm512_fmadd_pd(vv8, prod, acc[l]);
      }
      if constexpr (kQuad) {
        const __m256d prod = _mm256_mul_pd(_mm256_loadu_pd(ak + kQuadAt),
                                           _mm256_loadu_pd(bk + kQuadAt));
        quad = _mm256_fmadd_pd(_mm256_set1_pd(v[k]), prod, quad);
      }
    }
    for (int l = 0; l < kRegs; ++l) _mm512_storeu_pd(out + 8 * l, acc[l]);
    if constexpr (kQuad) _mm256_storeu_pd(out + kQuadAt, quad);
  }
}

// The 256-bit half kHalf of v. GCC's _mm512_extractf64x4_pd and
// _mm512_castpd512_pd256 merge into _mm256_undefined_pd(), which
// -Wuninitialized reports; the all-ones mask overwrites every lane of this
// defined zero source, so it compiles to the same single extract.
template <int kHalf>
inline __m256d Half(__m512d v) {
  return _mm512_mask_extractf64x4_pd(_mm256_setzero_pd(), 0xFF, v, kHalf);
}

// ((a0+a4)+(a2+a6)) + ((a1+a5)+(a3+a7)): the halving tree GCC expands
// _mm512_reduce_add_pd into, written out so every compiler rounds the same.
inline double ReduceAdd8(__m512d acc) {
  const __m256d quad = _mm256_add_pd(Half<0>(acc), Half<1>(acc));
  const __m128d pair = _mm_add_pd(_mm256_castpd256_pd128(quad),
                                  _mm256_extractf128_pd(quad, 1));
  return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
}

template <int64_t P>
double Dot(const double* a, const double* b, int64_t n) {
  const int64_t m = Trip<P>(n);
  __m512d acc = _mm512_setzero_pd();
  int64_t r = 0;
  for (; r + 8 <= m; r += 8) {
    acc = _mm512_fmadd_pd(_mm512_loadu_pd(a + r), _mm512_loadu_pd(b + r), acc);
  }
  double sum = ReduceAdd8(acc);
  if (r + 4 <= m) {
    const __m256d p = _mm256_mul_pd(_mm256_loadu_pd(a + r),
                                    _mm256_loadu_pd(b + r));
    const __m128d pair =
        _mm_add_pd(_mm256_castpd256_pd128(p), _mm256_extractf128_pd(p, 1));
    sum += _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
    r += 4;
  }
  for (; P == 0 && r < m; ++r) sum = std::fma(a[r], b[r], sum);
  return sum;
}

template <int64_t P>
void GramRowDelta(double new_i, const double* new_row, double old_i,
                  const double* old_row, double* g, int64_t n) {
  const int64_t m = Trip<P>(n);
  const __m512d vn8 = _mm512_set1_pd(new_i);
  const __m512d vo8 = _mm512_set1_pd(old_i);
  int64_t r = 0;
  for (; r + 8 <= m; r += 8) {
    __m512d t = _mm512_mul_pd(vn8, _mm512_loadu_pd(new_row + r));
    t = _mm512_fnmadd_pd(vo8, _mm512_loadu_pd(old_row + r), t);
    _mm512_storeu_pd(g + r, _mm512_add_pd(_mm512_loadu_pd(g + r), t));
  }
  if (r + 4 <= m) {
    __m256d t = _mm256_mul_pd(_mm256_set1_pd(new_i),
                              _mm256_loadu_pd(new_row + r));
    t = _mm256_fnmadd_pd(_mm256_set1_pd(old_i),
                         _mm256_loadu_pd(old_row + r), t);
    _mm256_storeu_pd(g + r, _mm256_add_pd(_mm256_loadu_pd(g + r), t));
    r += 4;
  }
  for (; P == 0 && r < m; ++r) g[r] += new_i * new_row[r] - old_i * old_row[r];
}

template <int64_t P>
void ScaledDiffAccum(double p, const double* new_row, const double* prev_row,
                     double* g, int64_t n) {
  const int64_t m = Trip<P>(n);
  const __m512d vp8 = _mm512_set1_pd(p);
  int64_t r = 0;
  for (; r + 8 <= m; r += 8) {
    const __m512d d = _mm512_sub_pd(_mm512_loadu_pd(new_row + r),
                                    _mm512_loadu_pd(prev_row + r));
    _mm512_storeu_pd(g + r, _mm512_fmadd_pd(vp8, d, _mm512_loadu_pd(g + r)));
  }
  if (r + 4 <= m) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(new_row + r),
                                    _mm256_loadu_pd(prev_row + r));
    _mm256_storeu_pd(g + r, _mm256_fmadd_pd(_mm256_set1_pd(p), d,
                                            _mm256_loadu_pd(g + r)));
    r += 4;
  }
  for (; P == 0 && r < m; ++r) g[r] += p * (new_row[r] - prev_row[r]);
}

// Hides a product from floating-point contraction, so the add consuming it
// rounds separately, as Dot's 4-wide pair step does after _mm256_mul_pd.
inline __m512d Rounded(__m512d v) {
  __asm__("" : "+v"(v));
  return v;
}

// Solves the rows held in `t` in place, one row per lane: t[k·S + j] is
// value k of row j, S = 8·G rows in G lane groups. Each lane performs
// CholeskySolveUpperInPlace's operations with Axpy<0> and Dot<0> above, in
// their order: the forward step's x_j = fma(−y_k, u_kj, x_j); the dot's
// eight accumulators, ReduceAdd8 tree, unfused pair step and fused tail;
// the division by the pivot.
template <int G>
void SolveLanes(const double* upper, int64_t upper_stride, int64_t n,
                double* t) {
  constexpr int64_t S = 8 * G;
  // Forward elimination U' y = b.
  for (int64_t k = 0; k < n; ++k) {
    const double* row = upper + k * upper_stride;
    const __m512d pivot = _mm512_set1_pd(row[k]);
    __m512d y[G];
    for (int g = 0; g < G; ++g) {
      y[g] = _mm512_div_pd(_mm512_loadu_pd(t + k * S + 8 * g), pivot);
      _mm512_storeu_pd(t + k * S + 8 * g, y[g]);
    }
    for (int64_t j = k + 1; j < n; ++j) {
      const __m512d u = _mm512_set1_pd(row[j]);
      double* x = t + j * S;
      for (int g = 0; g < G; ++g) {
        const __m512d xg = _mm512_loadu_pd(x + 8 * g);
        _mm512_storeu_pd(x + 8 * g, _mm512_fnmadd_pd(y[g], u, xg));
      }
    }
  }
  // Back substitution U x = y.
  for (int64_t i = n - 1; i >= 0; --i) {
    const double* a = upper + i * upper_stride + i + 1;
    const double* x = t + (i + 1) * S;
    const int64_t m = n - i - 1;
    __m512d acc[G][8];
    for (int g = 0; g < G; ++g) {
      for (int l = 0; l < 8; ++l) acc[g][l] = _mm512_setzero_pd();
    }
    int64_t r = 0;
    for (; r + 8 <= m; r += 8) {
      for (int l = 0; l < 8; ++l) {
        const __m512d u = _mm512_set1_pd(a[r + l]);
        for (int g = 0; g < G; ++g) {
          acc[g][l] = _mm512_fmadd_pd(
              u, _mm512_loadu_pd(x + (r + l) * S + 8 * g), acc[g][l]);
        }
      }
    }
    __m512d sum[G];
    for (int g = 0; g < G; ++g) {
      const __m512d* s = acc[g];
      sum[g] = _mm512_add_pd(
          _mm512_add_pd(_mm512_add_pd(s[0], s[4]), _mm512_add_pd(s[2], s[6])),
          _mm512_add_pd(_mm512_add_pd(s[1], s[5]), _mm512_add_pd(s[3], s[7])));
    }
    if (r + 4 <= m) {
      for (int g = 0; g < G; ++g) {
        __m512d p[4];
        for (int l = 0; l < 4; ++l) {
          const __m512d xl = _mm512_loadu_pd(x + (r + l) * S + 8 * g);
          p[l] = Rounded(_mm512_mul_pd(_mm512_set1_pd(a[r + l]), xl));
        }
        sum[g] = _mm512_add_pd(sum[g],
                               _mm512_add_pd(_mm512_add_pd(p[0], p[2]),
                                             _mm512_add_pd(p[1], p[3])));
      }
      r += 4;
    }
    for (; r < m; ++r) {
      const __m512d u = _mm512_set1_pd(a[r]);
      for (int g = 0; g < G; ++g) {
        sum[g] = _mm512_fmadd_pd(u, _mm512_loadu_pd(x + r * S + 8 * g), sum[g]);
      }
    }
    const __m512d pivot = _mm512_set1_pd(upper[i * upper_stride + i]);
    double* xi = t + i * S;
    for (int g = 0; g < G; ++g) {
      _mm512_storeu_pd(xi + 8 * g,
                       _mm512_div_pd(_mm512_sub_pd(_mm512_loadu_pd(xi + 8 * g),
                                                   sum[g]),
                                     pivot));
    }
  }
}

// Rows in blocks of kSolveRowsBlock = 16 (two lane groups), a last block of
// at most 8 rows in one group.
void SolveUpperRows(const double* upper, int64_t upper_stride, int64_t n,
                    const double* b, double* x, int64_t row_stride,
                    int64_t rows, double* lanes) {
  for (int64_t first = 0; first < rows; first += kSolveRowsBlock) {
    const int64_t count = std::min(kSolveRowsBlock, rows - first);
    const int64_t s = count <= 8 ? 8 : 16;
    const double* b0 = b + first * row_stride;
    for (int64_t k = 0; k < n; ++k) {
      double* lane = lanes + k * s;
      for (int64_t j = 0; j < count; ++j) lane[j] = b0[j * row_stride + k];
      for (int64_t j = count; j < s; ++j) lane[j] = 0.0;
    }
    if (s == 8) {
      SolveLanes<1>(upper, upper_stride, n, lanes);
    } else {
      SolveLanes<2>(upper, upper_stride, n, lanes);
    }
    double* x0 = x + first * row_stride;
    for (int64_t j = 0; j < count; ++j) {
      for (int64_t k = 0; k < n; ++k) x0[j * row_stride + k] = lanes[k * s + j];
    }
  }
}

template <int64_t P>
constexpr RankKernelTable kTable = {KernelTier::kAvx512,
                                    P,
                                    &Fill<P>,
                                    &Copy<P>,
                                    &Axpy<P>,
                                    &Mul<P>,
                                    &MulAccum<P>,
                                    &Fma3<P>,
                                    &FiberFma3<P>,
                                    &Dot<P>,
                                    &GramRowDelta<P>,
                                    &ScaledDiffAccum<P>,
                                    &SolveUpperRows};

}  // namespace

const RankKernelTable& Avx512Table(int64_t padded_rank) {
  return DispatchPaddedRank(padded_rank,
                            [](auto tag) -> const RankKernelTable& {
                              return kTable<decltype(tag)::value>;
                            });
}

}  // namespace sns::codelets

#endif  // SNS_HAVE_X86_CODELETS
