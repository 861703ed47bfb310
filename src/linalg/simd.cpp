#include "linalg/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <stdexcept>

#include "linalg/matrix.hpp"
#include "util/require.hpp"

#if DQMA_SIMD_X86
#include <immintrin.h>
#endif

namespace dqma::linalg::simd {
namespace {

// -1 = unresolved; resolved lazily (benign race: every resolver computes
// the same value from the same env + CPU).
std::atomic<int> g_level{-1};
// -1 = no override on this thread; LevelScope saves/restores it, which
// gives nesting for free.
thread_local int tl_level = -1;

Level resolve_from_env() {
  Level level = detect_best();
  if (const char* env = std::getenv("DQMA_SIMD")) {
    level = parse_level(env);
    util::require(is_supported(level),
                  std::string("DQMA_SIMD requests ") + level_name(level) +
                      " but this host only supports " +
                      level_name(detect_best()));
  }
  return level;
}

Level global_level() {
  const int cached = g_level.load(std::memory_order_acquire);
  if (cached >= 0) {
    return static_cast<Level>(cached);
  }
  const Level level = resolve_from_env();
  g_level.store(static_cast<int>(level), std::memory_order_release);
  return level;
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
  }
  return "scalar";
}

Level parse_level(const std::string& name) {
  if (name == "scalar") {
    return Level::kScalar;
  }
  if (name == "avx2") {
    return Level::kAvx2;
  }
  if (name == "avx512") {
    return Level::kAvx512;
  }
  if (name == "native") {
    return detect_best();
  }
  throw std::invalid_argument("unknown SIMD level '" + name +
                              "' (expected scalar|avx2|avx512|native)");
}

Level detect_best() {
#if DQMA_SIMD_X86
  static const Level best = [] {
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq")) {
      return Level::kAvx512;
    }
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      return Level::kAvx2;
    }
    return Level::kScalar;
  }();
  return best;
#else
  return Level::kScalar;
#endif
}

bool is_supported(Level level) {
  return static_cast<int>(level) <= static_cast<int>(detect_best());
}

Level clamp_to_supported(Level level) {
  return is_supported(level) ? level : detect_best();
}

Level active() {
  if (tl_level >= 0) {
    return static_cast<Level>(tl_level);
  }
  return global_level();
}

void set_global_level(Level level) {
  util::require(is_supported(level),
                std::string("SIMD level ") + level_name(level) +
                    " is not supported on this host (best: " +
                    level_name(detect_best()) + ")");
  g_level.store(static_cast<int>(level), std::memory_order_release);
}

void resolve_startup(const std::string& cli_value) {
  if (!cli_value.empty()) {
    set_global_level(parse_level(cli_value));
    return;
  }
  // Forces env parsing now so a bad DQMA_SIMD fails at startup.
  g_level.store(static_cast<int>(resolve_from_env()),
                std::memory_order_release);
}

LevelScope::LevelScope(Level level) : prev_(tl_level) {
  util::require(is_supported(level),
                std::string("LevelScope: ") + level_name(level) +
                    " is not supported on this host");
  tl_level = static_cast<int>(level);
}

LevelScope::~LevelScope() { tl_level = prev_; }

// ---------------------------------------------------------------------------
// Kernel variants. One scalar + one AVX2 + one AVX-512 body per primitive;
// dispatchers switch on the explicit level argument. Loads/stores are the
// unaligned forms throughout: AlignedVector only over-aligns buffers past
// its 4096-byte threshold, and view callers may pass interior pointers.
// ---------------------------------------------------------------------------

namespace {

void deinterleave_scalar(const Complex* src, long long n, double* re,
                         double* im) {
  for (long long i = 0; i < n; ++i) {
    re[i] = src[i].real();
    im[i] = src[i].imag();
  }
}

void interleave_scalar(const double* re, const double* im, long long n,
                       Complex* dst) {
  for (long long i = 0; i < n; ++i) {
    dst[i] = Complex{re[i], im[i]};
  }
}

void axpy_scalar(double ar, double ai, const double* xr, const double* xi,
                 double* yr, double* yi, long long n) {
  for (long long i = 0; i < n; ++i) {
    yr[i] += ar * xr[i] - ai * xi[i];
    yi[i] += ar * xi[i] + ai * xr[i];
  }
}

Complex dot_scalar(bool conj_a, const double* ar, const double* ai,
                   const double* br, const double* bi, long long n) {
  double rr = 0.0;
  double ri = 0.0;
  if (conj_a) {
    for (long long i = 0; i < n; ++i) {
      rr += ar[i] * br[i] + ai[i] * bi[i];
      ri += ar[i] * bi[i] - ai[i] * br[i];
    }
  } else {
    for (long long i = 0; i < n; ++i) {
      rr += ar[i] * br[i] - ai[i] * bi[i];
      ri += ar[i] * bi[i] + ai[i] * br[i];
    }
  }
  return Complex{rr, ri};
}

#if DQMA_SIMD_X86

// ---- AVX2 (4 doubles / vector) ----

DQMA_TARGET_AVX2 void deinterleave_avx2(const Complex* src, long long n,
                                        double* re, double* im) {
  const double* p = reinterpret_cast<const double*>(src);
  long long i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v0 = _mm256_loadu_pd(p + 2 * i);      // r0 i0 r1 i1
    const __m256d v1 = _mm256_loadu_pd(p + 2 * i + 4);  // r2 i2 r3 i3
    const __m256d lo = _mm256_unpacklo_pd(v0, v1);      // r0 r2 r1 r3
    const __m256d hi = _mm256_unpackhi_pd(v0, v1);      // i0 i2 i1 i3
    _mm256_storeu_pd(re + i, _mm256_permute4x64_pd(lo, 0xD8));
    _mm256_storeu_pd(im + i, _mm256_permute4x64_pd(hi, 0xD8));
  }
  for (; i < n; ++i) {
    re[i] = src[i].real();
    im[i] = src[i].imag();
  }
}

DQMA_TARGET_AVX2 void interleave_avx2(const double* re, const double* im,
                                      long long n, Complex* dst) {
  double* p = reinterpret_cast<double*>(dst);
  long long i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d r = _mm256_permute4x64_pd(_mm256_loadu_pd(re + i), 0xD8);
    const __m256d m = _mm256_permute4x64_pd(_mm256_loadu_pd(im + i), 0xD8);
    _mm256_storeu_pd(p + 2 * i, _mm256_unpacklo_pd(r, m));
    _mm256_storeu_pd(p + 2 * i + 4, _mm256_unpackhi_pd(r, m));
  }
  for (; i < n; ++i) {
    dst[i] = Complex{re[i], im[i]};
  }
}

DQMA_TARGET_AVX2 void axpy_avx2(double ar, double ai, const double* xr,
                                const double* xi, double* yr, double* yi,
                                long long n) {
  const __m256d var = _mm256_set1_pd(ar);
  const __m256d vai = _mm256_set1_pd(ai);
  long long i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x_re = _mm256_loadu_pd(xr + i);
    const __m256d x_im = _mm256_loadu_pd(xi + i);
    __m256d y_re = _mm256_loadu_pd(yr + i);
    __m256d y_im = _mm256_loadu_pd(yi + i);
    y_re = _mm256_fmadd_pd(var, x_re, _mm256_fnmadd_pd(vai, x_im, y_re));
    y_im = _mm256_fmadd_pd(var, x_im, _mm256_fmadd_pd(vai, x_re, y_im));
    _mm256_storeu_pd(yr + i, y_re);
    _mm256_storeu_pd(yi + i, y_im);
  }
  if (i < n) {
    // Masked tail, NOT a scalar loop: a plain loop here gets
    // auto-vectorized with runtime alias/alignment checks, so which
    // elements round through FMA code would depend on the heap addresses
    // of the buffers — breaking byte-determinism across otherwise
    // identical runs. Masked lanes load as zero and are never stored.
    const long long rem = n - i;
    const __m256i mask = _mm256_set_epi64x(
        rem > 3 ? -1 : 0, rem > 2 ? -1 : 0, rem > 1 ? -1 : 0, -1);
    const __m256d x_re = _mm256_maskload_pd(xr + i, mask);
    const __m256d x_im = _mm256_maskload_pd(xi + i, mask);
    __m256d y_re = _mm256_maskload_pd(yr + i, mask);
    __m256d y_im = _mm256_maskload_pd(yi + i, mask);
    y_re = _mm256_fmadd_pd(var, x_re, _mm256_fnmadd_pd(vai, x_im, y_re));
    y_im = _mm256_fmadd_pd(var, x_im, _mm256_fmadd_pd(vai, x_re, y_im));
    _mm256_maskstore_pd(yr + i, mask, y_re);
    _mm256_maskstore_pd(yi + i, mask, y_im);
  }
}

DQMA_TARGET_AVX2 Complex dot_avx2(bool conj_a, const double* ar,
                                  const double* ai, const double* br,
                                  const double* bi, long long n) {
  __m256d acc_re = _mm256_setzero_pd();
  __m256d acc_im = _mm256_setzero_pd();
  long long i = 0;
  if (conj_a) {
    for (; i + 4 <= n; i += 4) {
      const __m256d a_re = _mm256_loadu_pd(ar + i);
      const __m256d a_im = _mm256_loadu_pd(ai + i);
      const __m256d b_re = _mm256_loadu_pd(br + i);
      const __m256d b_im = _mm256_loadu_pd(bi + i);
      acc_re = _mm256_fmadd_pd(a_re, b_re,
                               _mm256_fmadd_pd(a_im, b_im, acc_re));
      acc_im = _mm256_fmadd_pd(a_re, b_im,
                               _mm256_fnmadd_pd(a_im, b_re, acc_im));
    }
  } else {
    for (; i + 4 <= n; i += 4) {
      const __m256d a_re = _mm256_loadu_pd(ar + i);
      const __m256d a_im = _mm256_loadu_pd(ai + i);
      const __m256d b_re = _mm256_loadu_pd(br + i);
      const __m256d b_im = _mm256_loadu_pd(bi + i);
      acc_re = _mm256_fmadd_pd(a_re, b_re,
                               _mm256_fnmadd_pd(a_im, b_im, acc_re));
      acc_im = _mm256_fmadd_pd(a_re, b_im,
                               _mm256_fmadd_pd(a_im, b_re, acc_im));
    }
  }
  // Lane partials combined in ascending lane order, then the scalar tail
  // in ascending index order — the fixed reduction order the determinism
  // contract pins for this level.
  alignas(32) double lanes_re[4];
  alignas(32) double lanes_im[4];
  _mm256_storeu_pd(lanes_re, acc_re);
  _mm256_storeu_pd(lanes_im, acc_im);
  double rr = ((lanes_re[0] + lanes_re[1]) + lanes_re[2]) + lanes_re[3];
  double ri = ((lanes_im[0] + lanes_im[1]) + lanes_im[2]) + lanes_im[3];
  if (conj_a) {
    for (; i < n; ++i) {
      rr += ar[i] * br[i] + ai[i] * bi[i];
      ri += ar[i] * bi[i] - ai[i] * br[i];
    }
  } else {
    for (; i < n; ++i) {
      rr += ar[i] * br[i] - ai[i] * bi[i];
      ri += ar[i] * bi[i] + ai[i] * br[i];
    }
  }
  return Complex{rr, ri};
}

// ---- AVX-512 (8 doubles / vector) ----

DQMA_TARGET_AVX512 void deinterleave_avx512(const Complex* src, long long n,
                                            double* re, double* im) {
  const double* p = reinterpret_cast<const double*>(src);
  const __m512i idx_re = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
  const __m512i idx_im = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
  long long i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d v0 = _mm512_loadu_pd(p + 2 * i);
    const __m512d v1 = _mm512_loadu_pd(p + 2 * i + 8);
    _mm512_storeu_pd(re + i, _mm512_permutex2var_pd(v0, idx_re, v1));
    _mm512_storeu_pd(im + i, _mm512_permutex2var_pd(v0, idx_im, v1));
  }
  for (; i < n; ++i) {
    re[i] = src[i].real();
    im[i] = src[i].imag();
  }
}

DQMA_TARGET_AVX512 void interleave_avx512(const double* re, const double* im,
                                          long long n, Complex* dst) {
  double* p = reinterpret_cast<double*>(dst);
  const __m512i idx_lo = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
  const __m512i idx_hi = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
  long long i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d r = _mm512_loadu_pd(re + i);
    const __m512d m = _mm512_loadu_pd(im + i);
    _mm512_storeu_pd(p + 2 * i, _mm512_permutex2var_pd(r, idx_lo, m));
    _mm512_storeu_pd(p + 2 * i + 8, _mm512_permutex2var_pd(r, idx_hi, m));
  }
  for (; i < n; ++i) {
    dst[i] = Complex{re[i], im[i]};
  }
}

DQMA_TARGET_AVX512 void axpy_avx512(double ar, double ai, const double* xr,
                                    const double* xi, double* yr, double* yi,
                                    long long n) {
  const __m512d var = _mm512_set1_pd(ar);
  const __m512d vai = _mm512_set1_pd(ai);
  long long i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d x_re = _mm512_loadu_pd(xr + i);
    const __m512d x_im = _mm512_loadu_pd(xi + i);
    __m512d y_re = _mm512_loadu_pd(yr + i);
    __m512d y_im = _mm512_loadu_pd(yi + i);
    y_re = _mm512_fmadd_pd(var, x_re, _mm512_fnmadd_pd(vai, x_im, y_re));
    y_im = _mm512_fmadd_pd(var, x_im, _mm512_fmadd_pd(vai, x_re, y_im));
    _mm512_storeu_pd(yr + i, y_re);
    _mm512_storeu_pd(yi + i, y_im);
  }
  if (i < n) {
    // Masked tail for the same reason as axpy_avx2: a scalar loop here is
    // auto-vectorized with address-dependent dispatch, which would make
    // tail rounding depend on where the buffers happen to be allocated.
    const __mmask8 mask =
        static_cast<__mmask8>((1u << static_cast<unsigned>(n - i)) - 1u);
    const __m512d x_re = _mm512_maskz_loadu_pd(mask, xr + i);
    const __m512d x_im = _mm512_maskz_loadu_pd(mask, xi + i);
    __m512d y_re = _mm512_maskz_loadu_pd(mask, yr + i);
    __m512d y_im = _mm512_maskz_loadu_pd(mask, yi + i);
    y_re = _mm512_fmadd_pd(var, x_re, _mm512_fnmadd_pd(vai, x_im, y_re));
    y_im = _mm512_fmadd_pd(var, x_im, _mm512_fmadd_pd(vai, x_re, y_im));
    _mm512_mask_storeu_pd(yr + i, mask, y_re);
    _mm512_mask_storeu_pd(yi + i, mask, y_im);
  }
}

DQMA_TARGET_AVX512 Complex dot_avx512(bool conj_a, const double* ar,
                                      const double* ai, const double* br,
                                      const double* bi, long long n) {
  __m512d acc_re = _mm512_setzero_pd();
  __m512d acc_im = _mm512_setzero_pd();
  long long i = 0;
  if (conj_a) {
    for (; i + 8 <= n; i += 8) {
      const __m512d a_re = _mm512_loadu_pd(ar + i);
      const __m512d a_im = _mm512_loadu_pd(ai + i);
      const __m512d b_re = _mm512_loadu_pd(br + i);
      const __m512d b_im = _mm512_loadu_pd(bi + i);
      acc_re = _mm512_fmadd_pd(a_re, b_re,
                               _mm512_fmadd_pd(a_im, b_im, acc_re));
      acc_im = _mm512_fmadd_pd(a_re, b_im,
                               _mm512_fnmadd_pd(a_im, b_re, acc_im));
    }
  } else {
    for (; i + 8 <= n; i += 8) {
      const __m512d a_re = _mm512_loadu_pd(ar + i);
      const __m512d a_im = _mm512_loadu_pd(ai + i);
      const __m512d b_re = _mm512_loadu_pd(br + i);
      const __m512d b_im = _mm512_loadu_pd(bi + i);
      acc_re = _mm512_fmadd_pd(a_re, b_re,
                               _mm512_fnmadd_pd(a_im, b_im, acc_re));
      acc_im = _mm512_fmadd_pd(a_re, b_im,
                               _mm512_fmadd_pd(a_im, b_re, acc_im));
    }
  }
  alignas(64) double lanes_re[8];
  alignas(64) double lanes_im[8];
  _mm512_storeu_pd(lanes_re, acc_re);
  _mm512_storeu_pd(lanes_im, acc_im);
  double rr = 0.0;
  double ri = 0.0;
  for (int lane = 0; lane < 8; ++lane) {
    rr += lanes_re[lane];
    ri += lanes_im[lane];
  }
  if (conj_a) {
    for (; i < n; ++i) {
      rr += ar[i] * br[i] + ai[i] * bi[i];
      ri += ar[i] * bi[i] - ai[i] * br[i];
    }
  } else {
    for (; i < n; ++i) {
      rr += ar[i] * br[i] - ai[i] * bi[i];
      ri += ar[i] * bi[i] + ai[i] * br[i];
    }
  }
  return Complex{rr, ri};
}

#endif  // DQMA_SIMD_X86

}  // namespace

void deinterleave(Level level, const Complex* src, long long n, double* re,
                  double* im) {
#if DQMA_SIMD_X86
  switch (level) {
    case Level::kAvx512:
      deinterleave_avx512(src, n, re, im);
      return;
    case Level::kAvx2:
      deinterleave_avx2(src, n, re, im);
      return;
    case Level::kScalar:
      break;
  }
#else
  (void)level;
#endif
  deinterleave_scalar(src, n, re, im);
}

void interleave(Level level, const double* re, const double* im, long long n,
                Complex* dst) {
#if DQMA_SIMD_X86
  switch (level) {
    case Level::kAvx512:
      interleave_avx512(re, im, n, dst);
      return;
    case Level::kAvx2:
      interleave_avx2(re, im, n, dst);
      return;
    case Level::kScalar:
      break;
  }
#else
  (void)level;
#endif
  interleave_scalar(re, im, n, dst);
}

void axpy(Level level, double ar, double ai, const double* xr,
          const double* xi, double* yr, double* yi, long long n) {
#if DQMA_SIMD_X86
  switch (level) {
    case Level::kAvx512:
      axpy_avx512(ar, ai, xr, xi, yr, yi, n);
      return;
    case Level::kAvx2:
      axpy_avx2(ar, ai, xr, xi, yr, yi, n);
      return;
    case Level::kScalar:
      break;
  }
#else
  (void)level;
#endif
  axpy_scalar(ar, ai, xr, xi, yr, yi, n);
}

Complex dot(Level level, bool conj_a, const double* ar, const double* ai,
            const double* br, const double* bi, long long n) {
#if DQMA_SIMD_X86
  switch (level) {
    case Level::kAvx512:
      return dot_avx512(conj_a, ar, ai, br, bi, n);
    case Level::kAvx2:
      return dot_avx2(conj_a, ar, ai, br, bi, n);
    case Level::kScalar:
      break;
  }
#else
  (void)level;
#endif
  return dot_scalar(conj_a, ar, ai, br, bi, n);
}

void convert(Level level, ConstComplexView src, MutComplexView dst) {
  util::require(src.extent() == dst.extent(),
                "convert: extent mismatch between views");
  const long long n = src.extent();
  if (n == 0) {
    return;
  }
  if (src.layout() == Layout::kAoS && dst.layout() == Layout::kSoA) {
    deinterleave(level, src.aos_data(), n, dst.re(), dst.im());
  } else if (src.layout() == Layout::kSoA && dst.layout() == Layout::kAoS) {
    interleave(level, src.re(), src.im(), n, dst.aos_data());
  } else if (src.layout() == Layout::kAoS) {
    std::copy(src.aos_data(), src.aos_data() + n, dst.aos_data());
  } else {
    std::copy(src.re(), src.re() + n, dst.re());
    std::copy(src.im(), src.im() + n, dst.im());
  }
}

PackedOp pack_operator(const CMat& op, bool transpose, bool conjugate) {
  PackedOp packed;
  packed.rows = transpose ? op.cols() : op.rows();
  packed.cols = transpose ? op.rows() : op.cols();
  packed.re.assign(static_cast<std::size_t>(packed.rows * packed.cols), 0.0);
  packed.im.assign(static_cast<std::size_t>(packed.rows * packed.cols), 0.0);
  for (long long o = 0; o < packed.rows; ++o) {
    for (long long s = 0; s < packed.cols; ++s) {
      const Complex v = transpose
                            ? op(static_cast<int>(s), static_cast<int>(o))
                            : op(static_cast<int>(o), static_cast<int>(s));
      const double vr = v.real();
      const double vi = conjugate ? -v.imag() : v.imag();
      packed.re[static_cast<std::size_t>(s * packed.rows + o)] = vr;
      packed.im[static_cast<std::size_t>(s * packed.rows + o)] = vi;
    }
  }
  return packed;
}

void block_apply(Level level, const PackedOp& m, const double* in_re,
                 const double* in_im, double* out_re, double* out_im) {
  std::fill(out_re, out_re + m.rows, 0.0);
  std::fill(out_im, out_im + m.rows, 0.0);
  for (long long s = 0; s < m.cols; ++s) {
    const double xr = in_re[s];
    const double xi = in_im[s];
    if (xr == 0.0 && xi == 0.0) {
      continue;
    }
    const double* col_re = m.re.data() + s * m.rows;
    const double* col_im = m.im.data() + s * m.rows;
    axpy(level, xr, xi, col_re, col_im, out_re, out_im, m.rows);
  }
}

}  // namespace dqma::linalg::simd
