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
// instantiations add a scalar tail for the unaligned Cholesky suffixes.
// The dot kernel reduces eight partial-sum lanes, so its summation
// grouping differs from the generic/AVX2 four-lane scheme: dots agree to
// ulp-level tolerance across tiers, never bitwise (tests pin this).

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
  const __m512d v8 = _mm512_set1_pd(value);
  int64_t r = 0;
  for (; r + 8 <= m; r += 8) _mm512_storeu_pd(dst + r, v8);
  if (r + 4 <= m) {
    _mm256_storeu_pd(dst + r, _mm512_castpd512_pd256(v8));
    r += 4;
  }
  for (; r < m; ++r) dst[r] = value;
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
  for (; r < m; ++r) dst[r] = src[r];
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
    const __m256d va4 = _mm512_castpd512_pd256(va8);
    _mm256_storeu_pd(y + r, _mm256_fmadd_pd(va4, _mm256_loadu_pd(x + r),
                                            _mm256_loadu_pd(y + r)));
    r += 4;
  }
  for (; r < m; ++r) y[r] += alpha * x[r];
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
  for (; r < m; ++r) out[r] = a[r] * b[r];
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
  for (; r < m; ++r) dst[r] *= src[r];
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
    _mm256_storeu_pd(out + r, _mm256_fmadd_pd(_mm512_castpd512_pd256(vv8),
                                              prod, _mm256_loadu_pd(out + r)));
    r += 4;
  }
  for (; r < m; ++r) out[r] += v * (a[r] * b[r]);
}

template <int64_t P>
double Dot(const double* a, const double* b, int64_t n) {
  const int64_t m = Trip<P>(n);
  __m512d acc = _mm512_setzero_pd();
  int64_t r = 0;
  for (; r + 8 <= m; r += 8) {
    acc = _mm512_fmadd_pd(_mm512_loadu_pd(a + r), _mm512_loadu_pd(b + r), acc);
  }
  double sum = _mm512_reduce_add_pd(acc);
  if (r + 4 <= m) {
    const __m256d p = _mm256_mul_pd(_mm256_loadu_pd(a + r),
                                    _mm256_loadu_pd(b + r));
    const __m128d pair =
        _mm_add_pd(_mm256_castpd256_pd128(p), _mm256_extractf128_pd(p, 1));
    sum += _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
    r += 4;
  }
  for (; r < m; ++r) sum += a[r] * b[r];
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
    __m256d t = _mm256_mul_pd(_mm512_castpd512_pd256(vn8),
                              _mm256_loadu_pd(new_row + r));
    t = _mm256_fnmadd_pd(_mm512_castpd512_pd256(vo8),
                         _mm256_loadu_pd(old_row + r), t);
    _mm256_storeu_pd(g + r, _mm256_add_pd(_mm256_loadu_pd(g + r), t));
    r += 4;
  }
  for (; r < m; ++r) g[r] += new_i * new_row[r] - old_i * old_row[r];
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
    _mm256_storeu_pd(g + r, _mm256_fmadd_pd(_mm512_castpd512_pd256(vp8), d,
                                            _mm256_loadu_pd(g + r)));
    r += 4;
  }
  for (; r < m; ++r) g[r] += p * (new_row[r] - prev_row[r]);
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
                                    &Dot<P>,
                                    &GramRowDelta<P>,
                                    &ScaledDiffAccum<P>};

}  // namespace

const RankKernelTable& Avx512Table(int64_t padded_rank) {
  return DispatchPaddedRank(padded_rank,
                            [](auto tag) -> const RankKernelTable& {
                              return kTable<decltype(tag)::value>;
                            });
}

}  // namespace sns::codelets

#endif  // SNS_HAVE_X86_CODELETS
