#include "linalg/lanczos.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "linalg/complex_view.hpp"
#include "linalg/simd.hpp"
#include "sweep/parallel.hpp"
#include "util/require.hpp"

namespace dqma::linalg {

using util::require;

namespace {

/// The shared stop rule: an eigenpair estimate (theta, x) is accepted when
/// the residual ||A x - theta x|| clears tol relative to the eigenvalue
/// scale. Used by both Lanczos (via the beta * |y_last| bound) and power
/// iteration (via the explicit residual), so the two backends certify the
/// same quantity.
bool residual_converged(double resid, double theta, double tol) {
  return resid <= tol * std::max(1.0, std::abs(theta));
}

/// Vectors smaller than a page bypass the pool: the allocator serves them
/// without page faults, and lending them a large idle vector would only
/// shrink it for the next large solve to regrow.
constexpr std::size_t kPooledMinBytes = 4096;

/// The calling thread's pool behind WorkspaceVec.
struct Workspace {
  std::vector<CVec> idle;
  WorkspaceBytes bytes;
};

Workspace& thread_workspace() {
  thread_local Workspace ws;
  return ws;
}

/// Fills x (already sized) with spectral_start_vector's recipe.
void fill_start_vector(CVec& x) {
  for (int i = 0; i < x.dim(); ++i) {
    const double angle = 0.7 * static_cast<double>(i) + 0.3;
    x[i] = Complex{std::cos(angle), std::sin(angle)};
  }
  x.normalize();
}

using Basis = std::vector<WorkspaceVec>;

double* doubles(CVec& v) {
  return reinterpret_cast<double*>(MutComplexView(v).aos_data());
}

// ---------------------------------------------------------------------------
// Reorthogonalization sweep kernels. One body per kernel, instantiated per
// SIMD level with that level's register width W in doubles (2 for the
// baseline build, 4 for AVX2, 8 for AVX-512) through GCC vector types. Each
// lane runs one scalar chain: the same products and sums std::complex
// forms, in the same order, spelled in real arithmetic without its
// NaN-recovery branch. This file is compiled without FMA contraction, so
// every level and every W rounds identically. Differences are written as
// a + b * (-c), which is the same IEEE result: gcc's SLP complex patterns
// would otherwise fuse add/subtract pairs into vfmaddsub even with
// contraction off. No helper takes or returns a vector by value, so the
// baseline build never sees a wide vector in a call signature.
// ---------------------------------------------------------------------------

template <int W>
struct VecOf {
  typedef double type __attribute__((vector_size(8 * W)));
};
/// W doubles in one register.
template <int W>
using Vec = typename VecOf<W>::type;

/// Steps the sweeps' chunk partials are sized for up front; a longer solve
/// regrows them. The exact engine's solves converge in 20-40 steps; sizing
/// for kMaxLanczosBasis instead (358 KB at D = 2^16) raised exact_spectral's
/// peak RSS by ~3 MiB.
constexpr std::size_t kPlannedSteps = 64;

/// Basis vectors a combine pass adds per load and store of an entry of w.
constexpr std::size_t kCombineGroup = 8;

/// Transposes the W x W block of doubles held in r[0 .. W).
template <int W>
[[gnu::always_inline]] inline void transpose(Vec<W>* r) {
  if constexpr (W == 2) {
    const Vec<2> lo = __builtin_shufflevector(r[0], r[1], 0, 2);
    r[1] = __builtin_shufflevector(r[0], r[1], 1, 3);
    r[0] = lo;
  } else if constexpr (W == 4) {
    const Vec<4> t0 = __builtin_shufflevector(r[0], r[1], 0, 4, 2, 6);
    const Vec<4> t1 = __builtin_shufflevector(r[0], r[1], 1, 5, 3, 7);
    const Vec<4> t2 = __builtin_shufflevector(r[2], r[3], 0, 4, 2, 6);
    const Vec<4> t3 = __builtin_shufflevector(r[2], r[3], 1, 5, 3, 7);
    r[0] = __builtin_shufflevector(t0, t2, 0, 1, 4, 5);
    r[1] = __builtin_shufflevector(t1, t3, 0, 1, 4, 5);
    r[2] = __builtin_shufflevector(t0, t2, 2, 3, 6, 7);
    r[3] = __builtin_shufflevector(t1, t3, 2, 3, 6, 7);
  } else {
    static_assert(W == 8, "register widths are 2, 4 and 8 doubles");
    Vec<8> t[8];
    for (int i = 0; i < 8; i += 2) {
      t[i] = __builtin_shufflevector(r[i], r[i + 1], 0, 8, 2, 10, 4, 12, 6,
                                     14);
      t[i + 1] = __builtin_shufflevector(r[i], r[i + 1], 1, 9, 3, 11, 5, 13,
                                         7, 15);
    }
    Vec<8> u[8];
    for (int i = 0; i < 8; i += 4) {
      for (int k = i; k < i + 2; ++k) {
        u[k] = __builtin_shufflevector(t[k], t[k + 2], 0, 1, 8, 9, 4, 5, 12,
                                       13);
        u[k + 2] = __builtin_shufflevector(t[k], t[k + 2], 2, 3, 10, 11, 6, 7,
                                           14, 15);
      }
    }
    for (int k = 0; k < 4; ++k) {
      r[k] = __builtin_shufflevector(u[k], u[k + 4], 0, 1, 2, 3, 8, 9, 10, 11);
      r[k + 4] = __builtin_shufflevector(u[k], u[k + 4], 4, 5, 6, 7, 12, 13,
                                         14, 15);
    }
  }
}

/// (re, im) += conj(b[e]) w[e] over e in [begin, end), ascending.
[[gnu::always_inline]] inline void dot_chain(const double* b, const double* w,
                                             std::size_t begin,
                                             std::size_t end, double& re,
                                             double& im) {
  for (std::size_t e = begin; e < end; ++e) {
    const double br = b[2 * e];
    const double bi = b[2 * e + 1];
    const double wr = w[2 * e];
    const double wi = w[2 * e + 1];
    re += br * wr + bi * wi;
    im += br * wi + bi * (-wr);
  }
}

/// out[t] = sum over e in [begin, end) of conj(b[t][e]) w[e], for t < W:
/// the lanes are basis vectors, each summing in ascending e. A step loads
/// W/2 entries of each of the W vectors and transposes them into one
/// register per (entry, re/im); entries past the last whole step finish
/// lane by lane.
template <int W>
[[gnu::always_inline]] inline void dot_lanes(const double* const* b,
                                             const double* w,
                                             std::size_t begin,
                                             std::size_t end, Complex* out) {
  constexpr std::size_t kStep = W / 2;
  Vec<W> re = {};
  Vec<W> im = {};
  std::size_t e = begin;
  for (; e + kStep <= end; e += kStep) {
    Vec<W> rows[W];
    for (int t = 0; t < W; ++t) {
      std::memcpy(&rows[t], b[t] + 2 * e, sizeof(Vec<W>));
    }
    transpose<W>(rows);
    for (std::size_t j = 0; j < kStep; ++j) {
      const double wr = w[2 * (e + j)];
      const double wi = w[2 * (e + j) + 1];
      re += rows[2 * j] * wr + rows[2 * j + 1] * wi;
      im += rows[2 * j] * wi + rows[2 * j + 1] * (-wr);
    }
  }
  for (int t = 0; t < W; ++t) {
    double r = re[t];
    double i = im[t];
    dot_chain(b[t], w, e, end, r, i);
    out[t] = Complex{r, i};
  }
}

/// part[t] = sum over e in [begin, end) of conj(b[t][e]) w[e] for t < m:
/// groups of W basis vectors, then narrower groups, then a lone chain.
template <int W>
[[gnu::always_inline]] inline void dots_range(const double* const* b,
                                              std::size_t m, const double* w,
                                              std::size_t begin,
                                              std::size_t end, Complex* part) {
  std::size_t t = 0;
  for (; t + W <= m; t += W) {
    dot_lanes<W>(b + t, w, begin, end, part + t);
  }
  if constexpr (W > 2) {
    dots_range<W / 2>(b + t, m - t, w, begin, end, part + t);
  } else {
    for (; t < m; ++t) {
      double re = 0.0;
      double im = 0.0;
      dot_chain(b[t], w, begin, end, re, im);
      part[t] = Complex{re, im};
    }
  }
}

/// y[e] += sum over t < m of a[t] x[t][e] for e in [begin, end), every
/// entry summed in ascending t: the lanes are entries (W/2 interleaved
/// complex per register), swept in passes of kCombineGroup basis vectors.
template <int W>
[[gnu::always_inline]] inline void combine_range(const Complex* a,
                                                 const double* const* x,
                                                 std::size_t m, double* y,
                                                 std::size_t begin,
                                                 std::size_t end) {
  constexpr std::size_t kStep = W / 2;
  for (std::size_t t0 = 0; t0 < m; t0 += kCombineGroup) {
    const std::size_t g = std::min(kCombineGroup, m - t0);
    const Complex* ga = a + t0;
    const double* const* gx = x + t0;
    Vec<W> ar[kCombineGroup];
    Vec<W> ai[kCombineGroup];  // (-a_im, a_im) in every complex lane
    for (std::size_t t = 0; t < g; ++t) {
      for (int l = 0; l < W; l += 2) {
        ar[t][l] = ga[t].real();
        ar[t][l + 1] = ga[t].real();
        ai[t][l] = -ga[t].imag();
        ai[t][l + 1] = ga[t].imag();
      }
    }
    std::size_t e = begin;
    for (; e + kStep <= end; e += kStep) {
      Vec<W> acc;
      std::memcpy(&acc, y + 2 * e, sizeof(acc));
      for (std::size_t t = 0; t < g; ++t) {
        Vec<W> xv;
        std::memcpy(&xv, gx[t] + 2 * e, sizeof(xv));
        Vec<W> swapped;  // (x_im, x_re) per complex lane
        if constexpr (W == 2) {
          swapped = __builtin_shufflevector(xv, xv, 1, 0);
        } else if constexpr (W == 4) {
          swapped = __builtin_shufflevector(xv, xv, 1, 0, 3, 2);
        } else {
          swapped = __builtin_shufflevector(xv, xv, 1, 0, 3, 2, 5, 4, 7, 6);
        }
        acc += ar[t] * xv + ai[t] * swapped;
      }
      std::memcpy(y + 2 * e, &acc, sizeof(acc));
    }
    for (; e < end; ++e) {
      double yr = y[2 * e];
      double yi = y[2 * e + 1];
      for (std::size_t t = 0; t < g; ++t) {
        const double xr = gx[t][2 * e];
        const double xi = gx[t][2 * e + 1];
        yr += ga[t].real() * xr + (-ga[t].imag()) * xi;
        yi += ga[t].real() * xi + ga[t].imag() * xr;
      }
      y[2 * e] = yr;
      y[2 * e + 1] = yi;
    }
  }
}

/// One reorthogonalization sweep over the stored basis: with coeffs,
/// w += sum_t coeffs[t] basis[t].
struct Sweep {
  const double* const* basis;
  std::size_t m;
  const Complex* coeffs;  // nullptr: no combine
  double* w;
};

/// The one kernel body; the wrappers below instantiate it per level. With
/// part, the range's dots <basis[t] | w> (of the updated w) land in
/// part[t].
template <int W>
[[gnu::always_inline]] inline void sweep_chunk(const Sweep& s, Complex* part,
                                               std::size_t begin,
                                               std::size_t end) {
  if (s.coeffs != nullptr) {
    combine_range<W>(s.coeffs, s.basis, s.m, s.w, begin, end);
  }
  if (part != nullptr) {
    dots_range<W>(s.basis, s.m, s.w, begin, end, part);
  }
}

void sweep_chunk_scalar(const Sweep& s, Complex* part, std::size_t begin,
                        std::size_t end) {
  sweep_chunk<2>(s, part, begin, end);
}

#if DQMA_SIMD_X86
DQMA_TARGET_AVX2 void sweep_chunk_avx2(const Sweep& s, Complex* part,
                                       std::size_t begin, std::size_t end) {
  sweep_chunk<4>(s, part, begin, end);
}

DQMA_TARGET_AVX512 void sweep_chunk_avx512(const Sweep& s, Complex* part,
                                           std::size_t begin,
                                           std::size_t end) {
  sweep_chunk<8>(s, part, begin, end);
}
#endif

/// Runs a sweep over the `dim` entries on the kernel pool, chunked by the
/// basis count's fixed partition (sweep/parallel.hpp), at a level the
/// caller resolved on its own thread. With h, the sweep also dots: chunk c
/// writes its partials to (*partials)[c * m ..], and h[t] is their sum in
/// chunk order starting from zero, which is parallel_reduce's tree without
/// its per-chunk vectors. Chunks own disjoint entries, so the result is
/// thread-count invariant. h may alias s.coeffs: it is written after every
/// chunk is done.
void run_sweep(simd::Level level, const Sweep& s, std::size_t dim,
               std::vector<Complex>* partials, Complex* h) {
  const std::size_t grain = sweep::grain_for_ops(s.m);
  std::size_t chunks = 0;
  Complex* parts = nullptr;
  if (h != nullptr) {
    chunks = sweep::plan_chunks(dim, grain).chunks;
    partials->resize(chunks * s.m);
    parts = partials->data();
  }
  sweep::for_each_chunk(
      dim, grain,
      [&s, parts, level](std::size_t chunk, std::size_t begin,
                         std::size_t end) {
        Complex* part = parts == nullptr ? nullptr : parts + chunk * s.m;
        switch (level) {
#if DQMA_SIMD_X86
          case simd::Level::kAvx512:
            sweep_chunk_avx512(s, part, begin, end);
            return;
          case simd::Level::kAvx2:
            sweep_chunk_avx2(s, part, begin, end);
            return;
#endif
          default:
            sweep_chunk_scalar(s, part, begin, end);
        }
      });
  if (h == nullptr) {
    return;
  }
  for (std::size_t t = 0; t < s.m; ++t) {
    Complex acc{0.0, 0.0};
    for (std::size_t c = 0; c < chunks; ++c) {
      acc += (*partials)[c * s.m + t];
    }
    h[t] = acc;
  }
}

/// w <- w * (s + 0i) on the kernel pool (6 flops per entry). Each entry
/// gets CVec::operator*='s complex product, re = wr s - wi 0 and
/// im = wr 0 + wi s, so signed zeros come out as they do serially.
void scale_by_real(CVec& w, double s) {
  double* p = doubles(w);
  sweep::parallel_for(static_cast<std::size_t>(w.dim()),
                      sweep::grain_for_ops(6),
                      [p, s](std::size_t begin, std::size_t end) {
                        const double zero = 0.0;
                        for (std::size_t e = begin; e < end; ++e) {
                          const double re = p[2 * e];
                          const double im = p[2 * e + 1];
                          p[2 * e] = re * s - im * zero;
                          p[2 * e + 1] = re * zero + im * s;
                        }
                      });
}

void negate(std::vector<Complex>& coeffs) {
  for (Complex& c : coeffs) {
    c = -c;
  }
}

/// tridiag_top_eigenvector's shifted-solve arrays, reused across a solve's
/// steps.
struct TridiagScratch {
  std::vector<double> dl;
  std::vector<double> d;
  std::vector<double> du;
  std::vector<double> du2;
  std::vector<double> b;
};

/// Sturm-sequence count: number of eigenvalues of the symmetric tridiagonal
/// (alpha, beta) strictly below x, via the LDL^T pivot signs. IEEE inf/0
/// propagation keeps the recurrence well-defined when a pivot collapses.
int sturm_count_below(const std::vector<double>& alpha,
                      const std::vector<double>& beta, double x) {
  int count = 0;
  double d = 1.0;
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    const double off = (i == 0) ? 0.0 : beta[i - 1] * beta[i - 1] / d;
    d = alpha[i] - x - off;
    if (d == 0.0) {
      d = -1e-300;
    }
    if (d < 0.0) {
      ++count;
    }
  }
  return count;
}

/// Power iteration with the residual-augmented stop rule: one operator
/// application per iteration (iteration k's Rayleigh product is reused as
/// iteration k+1's image); convergence needs BOTH a small Rayleigh-quotient
/// delta and a small true residual, so near-degenerate spectra (clustered
/// top eigenvalues) can no longer trip a spurious early exit.
double power_iterate(const LinearOperator& op, int max_iters, double tol,
                     CVec* vec_out, SpectralStats* stats) {
  SpectralStats local;
  const int dim = op.dim();
  if (dim == 0) {
    local.converged = true;
    if (vec_out != nullptr) {
      *vec_out = CVec();
    }
    if (stats != nullptr) {
      *stats = local;
    }
    return 0.0;
  }
  CVec x = spectral_start_vector(dim);
  CVec image(dim);
  op.apply_into(x, image);
  ++local.matvecs;
  double lambda = 0.0;
  for (int it = 0; it < max_iters; ++it) {
    local.iterations = it + 1;
    const double norm = image.norm();
    if (norm < 1e-300) {
      // The operator annihilates the iterate; spectrum is ~0 on it.
      local.converged = true;
      lambda = 0.0;
      break;
    }
    const double inv = 1.0 / norm;
    for (int i = 0; i < dim; ++i) {
      x[i] = image[i] * inv;
    }
    op.apply_into(x, image);
    ++local.matvecs;
    const double next = std::real(x.dot(image));
    double resid_sq = 0.0;
    for (int i = 0; i < dim; ++i) {
      resid_sq += std::norm(image[i] - next * x[i]);
    }
    const bool done =
        std::abs(next - lambda) <= tol * std::max(1.0, next) &&
        residual_converged(std::sqrt(resid_sq), next, tol);
    lambda = next;
    if (done && it > 2) {
      local.converged = true;
      break;
    }
  }
  if (vec_out != nullptr) {
    *vec_out = x;
  }
  if (stats != nullptr) {
    *stats = local;
  }
  return lambda;
}

/// Writes into y the unit top eigenvector of the tridiagonal (alpha, beta)
/// for its top eigenvalue theta; the body of tridiag_top_eigenvector, with
/// every array in caller-owned storage.
void top_eigenvector_into(const std::vector<double>& alpha,
                          const std::vector<double>& beta, double theta,
                          TridiagScratch& s, std::vector<double>& y) {
  const std::size_t m = alpha.size();
  if (m == 1) {
    y.assign(1, 1.0);
    return;
  }
  double scale = 1.0;
  for (const double a : alpha) scale = std::max(scale, std::abs(a));
  for (const double b : beta) scale = std::max(scale, std::abs(b));
  const double tiny = 1e-18 * scale;

  y.assign(m, 1.0 / std::sqrt(static_cast<double>(m)));
  std::vector<double>& dl = s.dl;
  std::vector<double>& d = s.d;
  std::vector<double>& du = s.du;
  std::vector<double>& du2 = s.du2;
  std::vector<double>& b = s.b;
  dl.resize(m - 1);
  d.resize(m);
  du.resize(m - 1);
  du2.resize(m - 2);
  for (int step = 0; step < 2; ++step) {
    for (std::size_t i = 0; i < m - 1; ++i) {
      dl[i] = beta[i];
      du[i] = beta[i];
    }
    for (std::size_t i = 0; i < m; ++i) {
      d[i] = alpha[i] - theta;
    }
    std::fill(du2.begin(), du2.end(), 0.0);
    b.assign(y.begin(), y.end());
    for (std::size_t i = 0; i + 1 < m; ++i) {
      if (std::abs(d[i]) < std::abs(dl[i])) {
        // Interchange rows i and i+1.
        const double fact = d[i] / dl[i];
        d[i] = dl[i];
        const double tmp = d[i + 1];
        d[i + 1] = du[i] - fact * tmp;
        if (i + 2 < m) {
          du2[i] = du[i + 1];
          du[i + 1] = -fact * du[i + 1];
        }
        du[i] = tmp;
        std::swap(b[i], b[i + 1]);
        b[i + 1] -= fact * b[i];
      } else {
        if (d[i] == 0.0) {
          d[i] = tiny;
        }
        const double fact = dl[i] / d[i];
        d[i + 1] -= fact * du[i];
        b[i + 1] -= fact * b[i];
      }
    }
    if (d[m - 1] == 0.0) {
      d[m - 1] = tiny;
    }
    // Back substitution through the two superdiagonals.
    b[m - 1] /= d[m - 1];
    b[m - 2] = (b[m - 2] - du[m - 2] * b[m - 1]) / d[m - 2];
    for (std::size_t ii = m; ii-- > 2;) {
      const std::size_t i = ii - 2;
      b[i] = (b[i] - du[i] * b[i + 1] - du2[i] * b[i + 2]) / d[i];
    }
    double nrm_sq = 0.0;
    for (const double v : b) nrm_sq += v * v;
    const double nrm = std::sqrt(nrm_sq);
    if (!std::isfinite(nrm) || nrm == 0.0) {
      // Degenerate solve: fall back to the last basis direction, which makes
      // the beta * |y_last| residual bound a conservative overestimate.
      std::fill(y.begin(), y.end(), 0.0);
      y[m - 1] = 1.0;
      return;
    }
    for (std::size_t i = 0; i < m; ++i) {
      y[i] = b[i] / nrm;
    }
  }
}

/// Deterministic Lanczos with full reorthogonalization. Per step: one
/// operator application, two classical Gram-Schmidt passes against the
/// whole stored basis in three sweeps over it (CGS2: project; subtract and
/// re-project fused per chunk; subtract; always both passes, no
/// norm-triggered branching, so the instruction stream is
/// input-independent), then the top Ritz pair of the tridiagonal and the
/// standard beta * |y_last| residual bound. Breakdown
/// (beta ~ 0) means the Krylov space is exhausted and the tridiagonal is
/// exact — rank-deficient and tiny-dimension operators converge that way.
double lanczos_iterate(const LinearOperator& op, int max_iters, double tol,
                       CVec* vec_out, SpectralStats* stats) {
  SpectralStats local;
  local.used_lanczos = true;
  const int dim = op.dim();
  if (dim == 0) {
    local.converged = true;
    if (vec_out != nullptr) {
      *vec_out = CVec();
    }
    if (stats != nullptr) {
      *stats = local;
    }
    return 0.0;
  }
  const int m_max = std::max(1, std::min({dim, max_iters, kMaxLanczosBasis}));
  const std::size_t n = static_cast<std::size_t>(dim);
  const std::size_t cap = static_cast<std::size_t>(m_max);
  const simd::Level level = simd::active();
  // Basis vectors and w are borrowed from the thread's workspace. The
  // sweeps' pointers, coefficients and chunk partials and the tridiagonal's
  // arrays are reserved here (the partials for kPlannedSteps steps), so a
  // step allocates nothing.
  Basis basis;
  basis.reserve(cap);
  std::vector<const double*> ptrs;
  ptrs.reserve(cap);
  std::vector<Complex> h;
  h.reserve(cap);
  std::vector<Complex> partials;
  const std::size_t planned = std::min(cap, kPlannedSteps);
  partials.reserve(sweep::plan_chunks(n, sweep::grain_for_ops(planned)).chunks *
                   planned);
  std::vector<double> alpha;
  std::vector<double> beta;  // beta[j] couples basis[j] and basis[j + 1]
  std::vector<double> ritz;  // top eigenvector of the current tridiagonal
  TridiagScratch tri;
  for (std::vector<double>* v :
       {&alpha, &beta, &ritz, &tri.dl, &tri.d, &tri.du, &tri.du2, &tri.b}) {
    v->reserve(cap);
  }
  basis.emplace_back(dim);
  fill_start_vector(*basis.front());
  ptrs.push_back(doubles(*basis.front()));
  WorkspaceVec w_loan(dim);
  CVec& w = *w_loan;
  double theta = 0.0;
  for (int j = 0; j < m_max; ++j) {
    op.apply_into(*basis[static_cast<std::size_t>(j)], w);
    ++local.matvecs;
    // CGS2 in three sweeps: project; subtract and re-project; subtract.
    const std::size_t m = basis.size();
    h.resize(m);
    double* wp = doubles(w);
    run_sweep(level, {ptrs.data(), m, nullptr, wp}, n, &partials, h.data());
    double aj = 0.0;
    aj += h[static_cast<std::size_t>(j)].real();
    negate(h);
    run_sweep(level, {ptrs.data(), m, h.data(), wp}, n, &partials, h.data());
    aj += h[static_cast<std::size_t>(j)].real();
    negate(h);
    run_sweep(level, {ptrs.data(), m, h.data(), wp}, n, nullptr, nullptr);
    alpha.push_back(aj);
    local.iterations = j + 1;
    // Serial on purpose: beta's bits are defined by this sequential sum.
    const double bj = w.norm();
    theta = tridiag_max_eigenvalue(alpha, beta);
    top_eigenvector_into(alpha, beta, theta, tri, ritz);
    if (residual_converged(bj * std::abs(ritz.back()), theta, tol) ||
        bj <= 1e-14 * std::max(1.0, std::abs(theta))) {
      local.converged = true;
      break;
    }
    if (j + 1 >= m_max) {
      break;
    }
    beta.push_back(bj);
    // The normalized w becomes the next basis vector; w takes a fresh loan.
    scale_by_real(w, 1.0 / bj);
    basis.emplace_back(dim);
    std::swap(*basis.back(), w);
    ptrs.push_back(doubles(*basis.back()));
  }
  if (vec_out != nullptr) {
    CVec x(dim);
    std::vector<Complex> coeffs;
    for (const double r : ritz) {
      coeffs.emplace_back(r, 0.0);
    }
    run_sweep(level, {ptrs.data(), coeffs.size(), coeffs.data(), doubles(x)},
              n, nullptr, nullptr);
    const double nrm = x.norm();
    // The Ritz combination of an orthonormal basis with a unit coefficient
    // vector has norm ~1; guard the pathological collapse anyway.
    *vec_out = (nrm > 1e-12) ? x * Complex{1.0 / nrm, 0.0} : *basis.front();
  }
  if (stats != nullptr) {
    *stats = local;
  }
  return theta;
}

}  // namespace

WorkspaceVec::WorkspaceVec(int dim)
    : charge_(static_cast<std::size_t>(std::max(dim, 0)) * sizeof(Complex)) {
  Workspace& ws = thread_workspace();
  std::vector<CVec>& idle = ws.idle;
  std::size_t fit = idle.size();
  std::size_t largest = idle.size();
  for (std::size_t i = 0; charge_ >= kPooledMinBytes && i < idle.size(); ++i) {
    const std::size_t cap = idle[i].capacity_bytes();
    if (cap >= charge_ &&
        (fit == idle.size() || cap < idle[fit].capacity_bytes())) {
      fit = i;
    }
    if (largest == idle.size() || cap > idle[largest].capacity_bytes()) {
      largest = i;
    }
  }
  const std::size_t pick = fit < idle.size() ? fit : largest;
  if (pick < idle.size()) {
    ws.bytes.retained -= idle[pick].capacity_bytes();
    if (pick == fit) {
      v_ = std::move(idle[pick]);
    }
    // Otherwise nothing idle is large enough: the largest idle vector is
    // freed here, so the new allocation below replaces it instead of
    // adding to it.
    if (pick + 1 != idle.size()) {
      std::swap(idle[pick], idle.back());
    }
    idle.pop_back();
  }
  v_.resize_for_overwrite(dim);
  ws.bytes.on_loan += charge_;
  ws.bytes.high_water = std::max(ws.bytes.high_water, ws.bytes.on_loan);
}

WorkspaceVec::WorkspaceVec(WorkspaceVec&& other) noexcept
    : v_(std::move(other.v_)), charge_(other.charge_) {
  other.charge_ = 0;
}

WorkspaceVec::~WorkspaceVec() {
  Workspace& ws = thread_workspace();
  ws.bytes.on_loan -= std::min(charge_, ws.bytes.on_loan);
  const std::size_t cap = v_.capacity_bytes();
  if (cap < kPooledMinBytes || ws.bytes.retained + cap > ws.bytes.high_water) {
    return;  // below a page, moved from, or over the cap: v_ is freed
  }
  try {
    ws.idle.push_back(std::move(v_));
    ws.bytes.retained += cap;
  } catch (...) {
    // No memory to grow the idle list: v_ is freed instead.
  }
}

WorkspaceBytes workspace_bytes() { return thread_workspace().bytes; }

CVec spectral_start_vector(int n) {
  CVec x(n);
  fill_start_vector(x);
  return x;
}

std::vector<double> tridiag_top_eigenvector(const std::vector<double>& alpha,
                                            const std::vector<double>& beta,
                                            double theta) {
  TridiagScratch scratch;
  std::vector<double> y;
  top_eigenvector_into(alpha, beta, theta, scratch, y);
  return y;
}

double tridiag_max_eigenvalue(const std::vector<double>& alpha,
                              const std::vector<double>& beta) {
  const std::size_t m = alpha.size();
  require(m >= 1 && beta.size() + 1 == m,
          "tridiag_max_eigenvalue: inconsistent band sizes");
  if (m == 1) {
    return alpha[0];
  }
  // Gershgorin bracket, slightly inflated so the upper end always counts
  // every eigenvalue strictly below it.
  double lo = alpha[0];
  double hi = alpha[0];
  for (std::size_t i = 0; i < m; ++i) {
    const double radius = (i > 0 ? std::abs(beta[i - 1]) : 0.0) +
                          (i + 1 < m ? std::abs(beta[i]) : 0.0);
    lo = std::min(lo, alpha[i] - radius);
    hi = std::max(hi, alpha[i] + radius);
  }
  hi += 1e-12 * std::max(1.0, std::abs(hi));
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) {
      break;  // bracket reached machine resolution
    }
    if (sturm_count_below(alpha, beta, mid) >= static_cast<int>(m)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double top_eigenvalue_psd(const LinearOperator& op, const SpectralOptions& opts,
                          CVec* vec_out, SpectralStats* stats) {
  using Method = SpectralOptions::Method;
  const bool use_lanczos =
      opts.method == Method::kLanczos ||
      (opts.method == Method::kAuto && op.dim() >= kLanczosMinDim);
  return use_lanczos
             ? lanczos_iterate(op, opts.max_iters, opts.tol, vec_out, stats)
             : power_iterate(op, opts.max_iters, opts.tol, vec_out, stats);
}

}  // namespace dqma::linalg
