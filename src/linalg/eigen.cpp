#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "linalg/lanczos.hpp"
#include "sweep/parallel.hpp"
#include "util/require.hpp"
#include "util/tolerance.hpp"

namespace dqma::linalg {

using util::require;

namespace {

/// Frobenius mass of the strict upper triangle (the Jacobi convergence
/// functional).
double off_diagonal_mass(const CMat& a) {
  double acc = 0.0;
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = i + 1; j < a.cols(); ++j) {
      acc += std::norm(a(i, j));
    }
  }
  return acc;
}

/// Applies the 2x2 unitary
///   U = [ c        -s e^{i phi} ]
///       [ s e^{-i phi}   c      ]
/// on indices (p, q): A <- U^dagger A U, V <- V U.
void apply_rotation(CMat& a, CMat& v, int p, int q, double c, double s,
                    Complex phase) {
  const int n = a.rows();
  // Columns: A <- A U.
  for (int k = 0; k < n; ++k) {
    const Complex akp = a(k, p);
    const Complex akq = a(k, q);
    a(k, p) = akp * c + akq * s * std::conj(phase);
    a(k, q) = -akp * s * phase + akq * c;
  }
  // Rows: A <- U^dagger A.
  for (int k = 0; k < n; ++k) {
    const Complex apk = a(p, k);
    const Complex aqk = a(q, k);
    a(p, k) = apk * c + aqk * s * phase;
    a(q, k) = -apk * s * std::conj(phase) + aqk * c;
  }
  // Accumulate eigenvectors: V <- V U.
  for (int k = 0; k < v.rows(); ++k) {
    const Complex vkp = v(k, p);
    const Complex vkq = v(k, q);
    v(k, p) = vkp * c + vkq * s * std::conj(phase);
    v(k, q) = -vkp * s * phase + vkq * c;
  }
}

}  // namespace

EigenSystem eigh(const CMat& input) {
  require(input.rows() == input.cols(), "eigh: matrix not square");
  require(input.is_hermitian(1e-8), "eigh: matrix not Hermitian");
  const int n = input.rows();

  CMat a = input;
  // Symmetrize exactly so rounding in the input cannot bias the sweeps.
  for (int i = 0; i < n; ++i) {
    a(i, i) = Complex{a(i, i).real(), 0.0};
    for (int j = i + 1; j < n; ++j) {
      const Complex mean = 0.5 * (a(i, j) + std::conj(a(j, i)));
      a(i, j) = mean;
      a(j, i) = std::conj(mean);
    }
  }
  CMat v = CMat::identity(n);

  const int kMaxSweeps = 100;
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    if (off_diagonal_mass(a) < util::kJacobiTol) {
      break;
    }
    for (int p = 0; p < n; ++p) {
      for (int q = p + 1; q < n; ++q) {
        const Complex apq = a(p, q);
        const double r = std::abs(apq);
        if (r < 1e-300) {
          continue;
        }
        const Complex phase = apq / r;  // apq = r * phase
        const double app = a(p, p).real();
        const double aqq = a(q, q).real();
        // Classical Jacobi angle for the real symmetric 2x2 [[app, r],[r, aqq]].
        const double tau = (aqq - app) / (2.0 * r);
        // With U = [[c, -s e^{i phi}],[s e^{-i phi}, c]], zeroing the pivot
        // requires the root t of t^2 - 2 tau t - 1 = 0 of smaller magnitude.
        const double t =
            -(tau >= 0.0 ? 1.0 : -1.0) / (std::abs(tau) + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;
        apply_rotation(a, v, p, q, c, s, phase);
      }
    }
  }

  // Collect eigenpairs and sort ascending.
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> diag(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    diag[static_cast<std::size_t>(i)] = a(i, i).real();
  }
  std::sort(order.begin(), order.end(), [&](int x, int y) {
    return diag[static_cast<std::size_t>(x)] < diag[static_cast<std::size_t>(y)];
  });

  EigenSystem out;
  out.values.resize(static_cast<std::size_t>(n));
  out.vectors = CMat(n, n);
  for (int k = 0; k < n; ++k) {
    const int src = order[static_cast<std::size_t>(k)];
    out.values[static_cast<std::size_t>(k)] = diag[static_cast<std::size_t>(src)];
    for (int i = 0; i < n; ++i) {
      out.vectors(i, k) = v(i, src);
    }
  }
  return out;
}

DenseOperator::DenseOperator(const CMat& a)
    : a_(a), level_(simd::active()) {
  require(a.rows() == a.cols(), "DenseOperator: matrix not square");
  // Pack once when a vector level is active and the dot length pays for
  // it; every apply() below reuses the SoA copy. The input scratch xs_ is
  // sized here too, so iterative solves are allocation-free per matvec.
  if (level_ != simd::Level::kScalar && a.cols() >= 8) {
    pack_ = SplitBuffer(static_cast<long long>(a.rows()) * a.cols());
    simd::deinterleave(level_, &a(0, 0), pack_.size(), pack_.re(),
                       pack_.im());
    packed_ = true;
    xs_ = SplitBuffer(a.cols());
  }
}

int DenseOperator::dim() const { return a_.rows(); }

CVec DenseOperator::apply(const CVec& x) const {
  CVec out(a_.rows());
  apply_into(x, out);
  return out;
}

void DenseOperator::apply_into(const CVec& x, CVec& out) const {
  require(x.dim() == a_.cols(), "DenseOperator::apply: dimension mismatch");
  if (!packed_) {
    a_.multiply_into(x, out);
    return;
  }
  const long long n = a_.cols();
  simd::deinterleave(level_, &x[0], n, xs_.re(), xs_.im());
  if (out.dim() != a_.rows()) {
    out = CVec(a_.rows());
  }
  // Row panels in parallel, one full vectorized dot per row — the same
  // thread-count-invariance argument as the scalar matvec. level_ was
  // resolved on the constructing thread; pool workers just use it.
  sweep::parallel_for(
      static_cast<std::size_t>(a_.rows()),
      sweep::grain_for_ops(static_cast<std::size_t>(n)),
      [&](std::size_t i_begin, std::size_t i_end) {
        for (std::size_t ii = i_begin; ii < i_end; ++ii) {
          const long long i = static_cast<long long>(ii);
          out[static_cast<int>(ii)] =
              simd::dot(level_, false, pack_.re() + i * n, pack_.im() + i * n,
                        xs_.re(), xs_.im(), n);
        }
      });
}

CallbackOperator::CallbackOperator(std::function<CVec(const CVec&)> apply,
                                   int dim)
    : apply_(std::move(apply)), dim_(dim) {
  require(dim >= 0, "CallbackOperator: negative dimension");
}

int CallbackOperator::dim() const { return dim_; }

CVec CallbackOperator::apply(const CVec& x) const { return apply_(x); }

double max_eigenvalue_psd(const LinearOperator& op, int max_iters,
                          double tol) {
  SpectralOptions opts;
  opts.max_iters = max_iters;
  opts.tol = tol;
  return top_eigenvalue_psd(op, opts);
}

double top_eigenpair_psd(const LinearOperator& op, CVec& vec, int max_iters,
                         double tol) {
  SpectralOptions opts;
  opts.max_iters = max_iters;
  opts.tol = tol;
  return top_eigenvalue_psd(op, opts, &vec);
}

double max_eigenvalue_psd(const CMat& a, int max_iters, double tol) {
  return max_eigenvalue_psd(DenseOperator(a), max_iters, tol);
}

double max_eigenvalue_psd(const std::function<CVec(const CVec&)>& apply,
                          int dim, int max_iters, double tol) {
  return max_eigenvalue_psd(CallbackOperator(apply, dim), max_iters, tol);
}

double top_eigenpair_psd(const CMat& a, CVec& vec, int max_iters, double tol) {
  return top_eigenpair_psd(DenseOperator(a), vec, max_iters, tol);
}

CMat sqrt_psd(const CMat& a) {
  const EigenSystem es = eigh(a);
  const int n = a.rows();
  CMat d(n, n);
  for (int i = 0; i < n; ++i) {
    const double lam = std::max(0.0, es.values[static_cast<std::size_t>(i)]);
    d(i, i) = Complex{std::sqrt(lam), 0.0};
  }
  return (es.vectors * d).times_adjoint(es.vectors);
}

double trace_norm(const CMat& a) {
  if (a.rows() == a.cols() && a.is_hermitian(1e-8)) {
    const EigenSystem es = eigh(a);
    double acc = 0.0;
    for (const double lam : es.values) {
      acc += std::abs(lam);
    }
    return acc;
  }
  // General case: singular values are sqrt(eig(A^dagger A)).
  const EigenSystem es = eigh(a.adjoint_times(a));
  double acc = 0.0;
  for (const double lam : es.values) {
    acc += std::sqrt(std::max(0.0, lam));
  }
  return acc;
}

}  // namespace dqma::linalg
