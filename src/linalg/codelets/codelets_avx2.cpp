// AVX2+FMA codelets for the rank-R kernel layer.
//
// This TU is compiled with -mavx2 -mfma (see CMakeLists.txt) and is only
// reachable through the tier-resolved RankKernelTable, after the cpuid
// probe (common/cpu_features.h) confirmed avx2+fma — never from baseline
// code paths. Everything except the exported Avx2Table getter lives in an
// anonymous namespace so the linker cannot substitute AVX2-compiled inline
// symbols into TUs built for baseline x86-64.
//
// Numeric contract (see rank_dispatch.h): elementwise kernels (fill, copy,
// mul, mul_accum) are bitwise identical to the generic tier — each lane is
// a single correctly-rounded operation.
// Multiply-accumulate kernels (axpy, fma3, gram_row_delta,
// scaled_diff_accum, dot) use fused multiply-adds, which drop one rounding
// per element relative to an uncontracted generic build, so they agree to
// a few ulps rather than bitwise. The dot kernel keeps the generic tier's
// fixed four-lane reduction grouping (s0+s2)+(s1+s3): vector lane l holds
// partial sum s_l, so the summation ORDER matches and only FMA contraction
// differs.
//
// Padded-buffer contract: P > 0 instantiations run exactly P lanes
// (P ≡ 0 mod 4, buffers padded with zeros per linalg/simd.h); the P = 0
// runtime-length instantiations handle arbitrary n with scalar tails —
// they serve the triangular Cholesky loops, whose row suffixes are
// unaligned, so every vector access uses unaligned loads/stores.

#include "linalg/codelets/codelet_tables.h"

#ifdef SNS_HAVE_X86_CODELETS

#include <immintrin.h>

namespace sns::codelets {
namespace {

template <int64_t P>
inline int64_t Trip(int64_t n) {
  return P > 0 ? P : n;
}

template <int64_t P>
void Fill(double* dst, double value, int64_t n) {
  const int64_t m = Trip<P>(n);
  const __m256d v = _mm256_set1_pd(value);
  int64_t r = 0;
  for (; r + 4 <= m; r += 4) _mm256_storeu_pd(dst + r, v);
  for (; r < m; ++r) dst[r] = value;
}

template <int64_t P>
void Copy(const double* src, double* dst, int64_t n) {
  const int64_t m = Trip<P>(n);
  int64_t r = 0;
  for (; r + 4 <= m; r += 4) {
    _mm256_storeu_pd(dst + r, _mm256_loadu_pd(src + r));
  }
  for (; r < m; ++r) dst[r] = src[r];
}

template <int64_t P>
void Axpy(double alpha, const double* x, double* y, int64_t n) {
  const int64_t m = Trip<P>(n);
  const __m256d va = _mm256_set1_pd(alpha);
  int64_t r = 0;
  for (; r + 4 <= m; r += 4) {
    const __m256d vy =
        _mm256_fmadd_pd(va, _mm256_loadu_pd(x + r), _mm256_loadu_pd(y + r));
    _mm256_storeu_pd(y + r, vy);
  }
  for (; r < m; ++r) y[r] += alpha * x[r];
}

template <int64_t P>
void Mul(const double* a, const double* b, double* out, int64_t n) {
  const int64_t m = Trip<P>(n);
  int64_t r = 0;
  for (; r + 4 <= m; r += 4) {
    _mm256_storeu_pd(
        out + r, _mm256_mul_pd(_mm256_loadu_pd(a + r), _mm256_loadu_pd(b + r)));
  }
  for (; r < m; ++r) out[r] = a[r] * b[r];
}

template <int64_t P>
void MulAccum(double* dst, const double* src, int64_t n) {
  const int64_t m = Trip<P>(n);
  int64_t r = 0;
  for (; r + 4 <= m; r += 4) {
    _mm256_storeu_pd(dst + r, _mm256_mul_pd(_mm256_loadu_pd(dst + r),
                                            _mm256_loadu_pd(src + r)));
  }
  for (; r < m; ++r) dst[r] *= src[r];
}

template <int64_t P>
void Fma3(double v, const double* a, const double* b, double* out, int64_t n) {
  const int64_t m = Trip<P>(n);
  const __m256d vv = _mm256_set1_pd(v);
  int64_t r = 0;
  for (; r + 4 <= m; r += 4) {
    const __m256d prod =
        _mm256_mul_pd(_mm256_loadu_pd(a + r), _mm256_loadu_pd(b + r));
    _mm256_storeu_pd(out + r,
                     _mm256_fmadd_pd(vv, prod, _mm256_loadu_pd(out + r)));
  }
  for (; r < m; ++r) out[r] += v * (a[r] * b[r]);
}

template <int64_t P>
double Dot(const double* a, const double* b, int64_t n) {
  const int64_t m = Trip<P>(n);
  const int64_t m4 = m - m % 4;
  __m256d acc = _mm256_setzero_pd();
  int64_t r = 0;
  for (; r < m4; r += 4) {
    acc = _mm256_fmadd_pd(_mm256_loadu_pd(a + r), _mm256_loadu_pd(b + r), acc);
  }
  // (s0+s2)+(s1+s3): lane l of acc is exactly the generic tier's s_l.
  const __m128d pair = _mm_add_pd(_mm256_castpd256_pd128(acc),
                                  _mm256_extractf128_pd(acc, 1));
  double sum = _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
  for (; r < m; ++r) sum += a[r] * b[r];
  return sum;
}

template <int64_t P>
void GramRowDelta(double new_i, const double* new_row, double old_i,
                  const double* old_row, double* g, int64_t n) {
  const int64_t m = Trip<P>(n);
  const __m256d vn = _mm256_set1_pd(new_i);
  const __m256d vo = _mm256_set1_pd(old_i);
  int64_t r = 0;
  for (; r + 4 <= m; r += 4) {
    // t = new_i·new − old_i·old, then g += t: one FMA + one FNMA keeps the
    // subtraction inside the delta like the generic expression.
    __m256d t = _mm256_mul_pd(vn, _mm256_loadu_pd(new_row + r));
    t = _mm256_fnmadd_pd(vo, _mm256_loadu_pd(old_row + r), t);
    _mm256_storeu_pd(g + r, _mm256_add_pd(_mm256_loadu_pd(g + r), t));
  }
  for (; r < m; ++r) g[r] += new_i * new_row[r] - old_i * old_row[r];
}

template <int64_t P>
void ScaledDiffAccum(double p, const double* new_row, const double* prev_row,
                     double* g, int64_t n) {
  const int64_t m = Trip<P>(n);
  const __m256d vp = _mm256_set1_pd(p);
  int64_t r = 0;
  for (; r + 4 <= m; r += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(new_row + r),
                                    _mm256_loadu_pd(prev_row + r));
    _mm256_storeu_pd(g + r, _mm256_fmadd_pd(vp, d, _mm256_loadu_pd(g + r)));
  }
  for (; r < m; ++r) g[r] += p * (new_row[r] - prev_row[r]);
}

template <int64_t P>
constexpr RankKernelTable kTable = {KernelTier::kAvx2,
                                    P,
                                    &Fill<P>,
                                    &Copy<P>,
                                    &Axpy<P>,
                                    &Mul<P>,
                                    &MulAccum<P>,
                                    &Fma3<P>,
                                    &Dot<P>,
                                    &GramRowDelta<P>,
                                    &ScaledDiffAccum<P>};

}  // namespace

const RankKernelTable& Avx2Table(int64_t padded_rank) {
  return DispatchPaddedRank(padded_rank,
                            [](auto tag) -> const RankKernelTable& {
                              return kTable<decltype(tag)::value>;
                            });
}

}  // namespace sns::codelets

#endif  // SNS_HAVE_X86_CODELETS
