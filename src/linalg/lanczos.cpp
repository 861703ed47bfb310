#include "linalg/lanczos.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "linalg/complex_view.hpp"
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

/// Basis vectors swept together by the reorthogonalization kernels: each
/// element of w is loaded once per group, and the group's sums are
/// independent dependency chains.
constexpr std::size_t kGroup = 4;

/// Vectors smaller than a page bypass the pool: the allocator serves them
/// without page faults, and lending them a large idle vector would only
/// shrink it for the next large solve to zero-fill again.
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

/// Raw element pointers of basis[0 .. count).
std::vector<const Complex*> element_pointers(const Basis& basis,
                                             std::size_t count) {
  std::vector<const Complex*> ptrs;
  for (std::size_t i = 0; i < count; ++i) {
    ptrs.push_back(ConstComplexView(*basis[i]).aos_data());
  }
  return ptrs;
}

/// out[t] = sum_e conj(b[t][e]) * w[e] over e in [begin, end) ascending, for
/// t < K. The complex products are spelled out in real arithmetic — the
/// same products and sums std::complex forms, without the NaN-recovery
/// branch that keeps its loops from unrolling.
template <std::size_t K>
void dot_group(const Complex* const* b, const Complex* w, std::size_t begin,
               std::size_t end, Complex* out) {
  double re[K] = {};
  double im[K] = {};
  for (std::size_t e = begin; e < end; ++e) {
    const double wr = w[e].real();
    const double wi = w[e].imag();
    for (std::size_t t = 0; t < K; ++t) {
      const double br = b[t][e].real();
      const double bi = b[t][e].imag();
      re[t] += br * wr + bi * wi;
      im[t] += br * wi - bi * wr;
    }
  }
  for (std::size_t t = 0; t < K; ++t) {
    out[t] = Complex{re[t], im[t]};
  }
}

/// y[e] += sum_t a[t] * x[t][e], t ascending, for e in [begin, end).
template <std::size_t K>
void axpy_group(const Complex* a, const Complex* const* x, Complex* y,
                std::size_t begin, std::size_t end) {
  for (std::size_t e = begin; e < end; ++e) {
    double yr = y[e].real();
    double yi = y[e].imag();
    for (std::size_t t = 0; t < K; ++t) {
      const double xr = x[t][e].real();
      const double xi = x[t][e].imag();
      yr += a[t].real() * xr - a[t].imag() * xi;
      yi += a[t].real() * xi + a[t].imag() * xr;
    }
    y[e] = Complex{yr, yi};
  }
}

/// part[i] = sum over e in [begin, end) of conj(basis[i][e]) * w[e], basis
/// vectors in groups of kGroup.
void dots_range(const std::vector<const Complex*>& b, const Complex* w,
                std::size_t begin, std::size_t end, Complex* part) {
  const std::size_t m = b.size();
  std::size_t i = 0;
  for (; i + kGroup <= m; i += kGroup) {
    dot_group<kGroup>(b.data() + i, w, begin, end, part + i);
  }
  for (; i < m; ++i) {
    dot_group<1>(b.data() + i, w, begin, end, part + i);
  }
}

/// y[e] += sum_i coeffs[i] * basis[i][e] for e in [begin, end), every entry
/// summed in ascending i.
void combine_range(const Complex* coeffs, const std::vector<const Complex*>& x,
                   Complex* y, std::size_t begin, std::size_t end) {
  const std::size_t m = x.size();
  std::size_t i = 0;
  for (; i + kGroup <= m; i += kGroup) {
    axpy_group<kGroup>(coeffs + i, x.data() + i, y, begin, end);
  }
  for (; i < m; ++i) {
    axpy_group<1>(coeffs + i, x.data() + i, y, begin, end);
  }
}

std::vector<Complex> add_partials(std::vector<Complex> acc,
                                  const std::vector<Complex>& part) {
  for (std::size_t i = 0; i < acc.size(); ++i) {
    acc[i] += part[i];
  }
  return acc;
}

/// h[i] = <basis[i] | w> for every stored basis vector in one pass over w:
/// per-chunk partial dots over a fixed element partition, combined in chunk
/// order (sweep/parallel.hpp), so the coefficients are identical at any
/// kernel thread count.
std::vector<Complex> project(const Basis& basis, const CVec& w) {
  const std::size_t m = basis.size();
  const std::vector<const Complex*> b = element_pointers(basis, m);
  const Complex* wp = ConstComplexView(w).aos_data();
  return sweep::parallel_reduce<std::vector<Complex>>(
      static_cast<std::size_t>(w.dim()), sweep::grain_for_ops(m),
      std::vector<Complex>(m),
      [&](std::size_t begin, std::size_t end) {
        std::vector<Complex> part(m);
        dots_range(b, wp, begin, end, part.data());
        return part;
      },
      add_partials);
}

/// w += sum_i coeffs[i] * basis[i], then h[i] = <basis[i] | w>: CGS2's first
/// subtraction and second projection as one sweep over the basis. Per chunk
/// of project's partition the chunk's elements are updated, then dotted;
/// each element's update is independent of the partition, so the result is
/// bit-identical to add_combination followed by project.
std::vector<Complex> combine_then_project(const std::vector<Complex>& coeffs,
                                          const Basis& basis, CVec& w) {
  const std::size_t m = basis.size();
  const std::vector<const Complex*> b = element_pointers(basis, m);
  Complex* wp = MutComplexView(w).aos_data();
  return sweep::parallel_reduce<std::vector<Complex>>(
      static_cast<std::size_t>(w.dim()), sweep::grain_for_ops(m),
      std::vector<Complex>(m),
      [&](std::size_t begin, std::size_t end) {
        combine_range(coeffs.data(), b, wp, begin, end);
        std::vector<Complex> part(m);
        dots_range(b, wp, begin, end, part.data());
        return part;
      },
      add_partials);
}

/// y += sum_i coeffs[i] * basis[i], every entry summed in ascending i. Chunks
/// own disjoint element ranges, so the result is thread-count invariant.
void add_combination(const std::vector<Complex>& coeffs, const Basis& basis,
                     CVec& y) {
  const std::vector<const Complex*> x = element_pointers(basis, coeffs.size());
  Complex* yp = MutComplexView(y).aos_data();
  sweep::parallel_for(static_cast<std::size_t>(y.dim()),
                      sweep::grain_for_ops(coeffs.size()),
                      [&](std::size_t begin, std::size_t end) {
                        combine_range(coeffs.data(), x, yp, begin, end);
                      });
}

void negate(std::vector<Complex>& coeffs) {
  for (Complex& c : coeffs) {
    c = -c;
  }
}

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
  // Basis vectors and w are borrowed from the thread's workspace.
  Basis basis;
  basis.reserve(static_cast<std::size_t>(m_max));
  basis.emplace_back(dim);
  fill_start_vector(*basis.front());
  std::vector<double> alpha;
  std::vector<double> beta;  // beta[j] couples basis[j] and basis[j + 1]
  std::vector<double> ritz;  // top eigenvector of the current tridiagonal
  WorkspaceVec w_loan(dim);
  CVec& w = *w_loan;
  double theta = 0.0;
  for (int j = 0; j < m_max; ++j) {
    op.apply_into(*basis[static_cast<std::size_t>(j)], w);
    ++local.matvecs;
    // CGS2 in three sweeps: project; subtract and re-project; subtract.
    std::vector<Complex> h = project(basis, w);
    double aj = 0.0;
    aj += h[static_cast<std::size_t>(j)].real();
    negate(h);
    h = combine_then_project(h, basis, w);
    aj += h[static_cast<std::size_t>(j)].real();
    negate(h);
    add_combination(h, basis, w);
    alpha.push_back(aj);
    local.iterations = j + 1;
    const double bj = w.norm();
    theta = tridiag_max_eigenvalue(alpha, beta);
    ritz = tridiag_top_eigenvector(alpha, beta, theta);
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
    w *= Complex{1.0 / bj, 0.0};
    basis.emplace_back(dim);
    std::swap(*basis.back(), w);
  }
  if (vec_out != nullptr) {
    CVec x(dim);
    std::vector<Complex> coeffs;
    for (const double r : ritz) {
      coeffs.emplace_back(r, 0.0);
    }
    add_combination(coeffs, basis, x);
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
  v_.resize(dim);
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
  const std::size_t m = alpha.size();
  if (m == 1) {
    return {1.0};
  }
  double scale = 1.0;
  for (const double a : alpha) scale = std::max(scale, std::abs(a));
  for (const double b : beta) scale = std::max(scale, std::abs(b));
  const double tiny = 1e-18 * scale;

  std::vector<double> y(m, 1.0 / std::sqrt(static_cast<double>(m)));
  std::vector<double> dl(m - 1), d(m), du(m - 1), du2(m >= 2 ? m - 2 : 0);
  for (int step = 0; step < 2; ++step) {
    for (std::size_t i = 0; i < m - 1; ++i) {
      dl[i] = beta[i];
      du[i] = beta[i];
    }
    for (std::size_t i = 0; i < m; ++i) {
      d[i] = alpha[i] - theta;
    }
    std::fill(du2.begin(), du2.end(), 0.0);
    std::vector<double> b = y;
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
      return y;
    }
    for (std::size_t i = 0; i < m; ++i) {
      y[i] = b[i] / nrm;
    }
  }
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
