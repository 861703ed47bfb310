#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/aligned.hpp"
#include "linalg/simd.hpp"
#include "sweep/parallel.hpp"
#include "util/require.hpp"

namespace dqma::linalg {

using util::require;

namespace {

/// The split-complex (SIMD) product paths pay a one-time SoA pack/unpack
/// pass per operand; below these shapes the pack traffic wins over the
/// vector arithmetic, so the scalar std::complex path (which is also the
/// kScalar dispatch reference) runs instead. Pure shape function — never
/// thread-count dependent, so per-level determinism is preserved.
bool worth_splitting(simd::Level level, int rows, int inner, int cols) {
  return level != simd::Level::kScalar && rows >= 1 && inner >= 2 &&
         cols >= 8;
}

}  // namespace

CMat::CMat(int rows, int cols) : rows_(rows), cols_(cols) {
  require(rows >= 0 && cols >= 0, "CMat: negative dimensions");
  a_.assign(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
            Complex{0.0, 0.0});
}

CMat CMat::identity(int n) {
  CMat m(n, n);
  for (int i = 0; i < n; ++i) {
    m(i, i) = Complex{1.0, 0.0};
  }
  return m;
}

CMat CMat::outer(const CVec& u, const CVec& v) {
  CMat m(u.dim(), v.dim());
  for (int i = 0; i < u.dim(); ++i) {
    if (u[i] == Complex{0.0, 0.0}) continue;
    for (int j = 0; j < v.dim(); ++j) {
      m(i, j) = u[i] * std::conj(v[j]);
    }
  }
  return m;
}

CMat CMat::projector(const CVec& u) { return outer(u, u); }

CMat CMat::diagonal(const std::vector<Complex>& entries) {
  const int n = static_cast<int>(entries.size());
  CMat m(n, n);
  for (int i = 0; i < n; ++i) {
    m(i, i) = entries[static_cast<std::size_t>(i)];
  }
  return m;
}

CMat& CMat::operator+=(const CMat& other) {
  require(rows_ == other.rows_ && cols_ == other.cols_,
          "CMat::operator+=: shape mismatch");
  for (std::size_t k = 0; k < a_.size(); ++k) {
    a_[k] += other.a_[k];
  }
  return *this;
}

CMat& CMat::operator-=(const CMat& other) {
  require(rows_ == other.rows_ && cols_ == other.cols_,
          "CMat::operator-=: shape mismatch");
  for (std::size_t k = 0; k < a_.size(); ++k) {
    a_[k] -= other.a_[k];
  }
  return *this;
}

CMat& CMat::operator*=(Complex scalar) {
  for (auto& x : a_) {
    x *= scalar;
  }
  return *this;
}

CMat CMat::operator+(const CMat& other) const {
  CMat out = *this;
  out += other;
  return out;
}

CMat CMat::operator-(const CMat& other) const {
  CMat out = *this;
  out -= other;
  return out;
}

CMat CMat::operator*(Complex scalar) const {
  CMat out = *this;
  out *= scalar;
  return out;
}

CMat CMat::operator*(const CMat& other) const {
  require(cols_ == other.rows_, "CMat::operator*: shape mismatch");
  CMat out(rows_, other.cols_);
  // Blocked ikj over row panels: each parallel chunk owns a contiguous
  // panel of output rows and streams the k-panel of `other` (kKB rows)
  // while it is hot, instead of sweeping the whole right factor once per
  // output row. Per-(i,j) summation stays in ascending-k order, so results
  // are bit-identical to the unblocked serial loop at any thread count.
  constexpr int kKB = 64;
  const std::size_t row_ops =
      static_cast<std::size_t>(cols_) * static_cast<std::size_t>(other.cols_);
  // SIMD level resolved once on the calling thread (LevelScope overrides
  // do not propagate to pool workers) and captured by both paths.
  const simd::Level level = simd::active();
  if (worth_splitting(level, rows_, cols_, other.cols_)) {
    // Split path: deinterleave the right factor and accumulate into a
    // split output, turning the inner j-loop into pure-FMA axpy over the
    // packed row of `other`. The exact-zero skip on the left factor (cheap
    // products with embedded local operators) and the ascending-k order
    // per output element both carry over verbatim.
    const long long n = other.cols_;
    SplitBuffer b_pack(static_cast<long long>(cols_) * n);
    simd::deinterleave(level, &other(0, 0), b_pack.size(), b_pack.re(),
                       b_pack.im());
    SplitBuffer out_pack(static_cast<long long>(rows_) * n);
    sweep::parallel_for(
        static_cast<std::size_t>(rows_), sweep::grain_for_ops(row_ops),
        [&](std::size_t row_begin, std::size_t row_end) {
          for (int kb = 0; kb < cols_; kb += kKB) {
            const int kend = std::min(cols_, kb + kKB);
            for (std::size_t r = row_begin; r < row_end; ++r) {
              const long long i = static_cast<long long>(r);
              for (int k = kb; k < kend; ++k) {
                const Complex aik = (*this)(static_cast<int>(i), k);
                if (aik == Complex{0.0, 0.0}) continue;
                simd::axpy(level, aik.real(), aik.imag(),
                           b_pack.re() + static_cast<long long>(k) * n,
                           b_pack.im() + static_cast<long long>(k) * n,
                           out_pack.re() + i * n, out_pack.im() + i * n, n);
              }
            }
          }
        });
    simd::interleave(level, out_pack.re(), out_pack.im(), out_pack.size(),
                     &out(0, 0));
    return out;
  }
  sweep::parallel_for(
      static_cast<std::size_t>(rows_), sweep::grain_for_ops(row_ops),
      [&](std::size_t row_begin, std::size_t row_end) {
        for (int kb = 0; kb < cols_; kb += kKB) {
          const int kend = std::min(cols_, kb + kKB);
          for (std::size_t r = row_begin; r < row_end; ++r) {
            const int i = static_cast<int>(r);
            Complex* out_row = &out(i, 0);
            for (int k = kb; k < kend; ++k) {
              const Complex aik = (*this)(i, k);
              if (aik == Complex{0.0, 0.0}) continue;
              const Complex* b_row = &other(k, 0);
              for (int j = 0; j < other.cols_; ++j) {
                out_row[static_cast<std::size_t>(j)] +=
                    aik * b_row[static_cast<std::size_t>(j)];
              }
            }
          }
        }
      });
  return out;
}

CMat CMat::adjoint_times(const CMat& other) const {
  require(rows_ == other.rows_, "CMat::adjoint_times: shape mismatch");
  CMat out(cols_, other.cols_);
  // out(i, j) = sum_k conj(a(k, i)) * b(k, j). Parallel chunks own panels
  // of output rows i (disjoint writes); within a panel k stays outer so
  // `other`'s rows stream and per-(i,j) summation stays in ascending-k
  // order — the same value at any thread count. No adjoint copy is ever
  // materialized.
  const std::size_t row_ops =
      static_cast<std::size_t>(rows_) * static_cast<std::size_t>(other.cols_);
  const simd::Level level = simd::active();
  if (worth_splitting(level, cols_, rows_, other.cols_)) {
    // Same split-axpy formulation as operator*; the conjugated coefficient
    // is just (re, -im) on the axpy scalar, so no adjoint copy appears
    // here either. k stays outer: ascending-k per (i, j) at any thread
    // count.
    const long long n = other.cols_;
    SplitBuffer b_pack(static_cast<long long>(rows_) * n);
    simd::deinterleave(level, &other(0, 0), b_pack.size(), b_pack.re(),
                       b_pack.im());
    SplitBuffer out_pack(static_cast<long long>(cols_) * n);
    sweep::parallel_for(
        static_cast<std::size_t>(cols_), sweep::grain_for_ops(row_ops),
        [&](std::size_t i_begin, std::size_t i_end) {
          for (int k = 0; k < rows_; ++k) {
            const Complex* a_row = &(*this)(k, 0);
            for (std::size_t ii = i_begin; ii < i_end; ++ii) {
              const long long i = static_cast<long long>(ii);
              const Complex aki = a_row[ii];
              if (aki == Complex{0.0, 0.0}) continue;
              simd::axpy(level, aki.real(), -aki.imag(),
                         b_pack.re() + static_cast<long long>(k) * n,
                         b_pack.im() + static_cast<long long>(k) * n,
                         out_pack.re() + i * n, out_pack.im() + i * n, n);
            }
          }
        });
    simd::interleave(level, out_pack.re(), out_pack.im(), out_pack.size(),
                     &out(0, 0));
    return out;
  }
  sweep::parallel_for(
      static_cast<std::size_t>(cols_), sweep::grain_for_ops(row_ops),
      [&](std::size_t i_begin, std::size_t i_end) {
        for (int k = 0; k < rows_; ++k) {
          const Complex* a_row = &(*this)(k, 0);
          const Complex* b_row = &other(k, 0);
          for (std::size_t ii = i_begin; ii < i_end; ++ii) {
            const int i = static_cast<int>(ii);
            const Complex aki = std::conj(a_row[static_cast<std::size_t>(i)]);
            if (aki == Complex{0.0, 0.0}) continue;
            Complex* out_row = &out(i, 0);
            for (int j = 0; j < other.cols_; ++j) {
              out_row[static_cast<std::size_t>(j)] +=
                  aki * b_row[static_cast<std::size_t>(j)];
            }
          }
        }
      });
  return out;
}

CMat CMat::times_adjoint(const CMat& other) const {
  require(cols_ == other.cols_, "CMat::times_adjoint: shape mismatch");
  CMat out(rows_, other.rows_);
  // out(i, j) = sum_k a(i, k) * conj(b(j, k)): row-by-row dot products,
  // both factors read along their contiguous rows; parallel chunks own
  // panels of output rows (each entry a full serial dot, so values are
  // thread-count-invariant).
  const std::size_t row_ops =
      static_cast<std::size_t>(other.rows_) * static_cast<std::size_t>(cols_);
  const simd::Level level = simd::active();
  if (worth_splitting(level, rows_, other.rows_, cols_)) {
    // Both factors read along contiguous rows, so pack each whole matrix
    // to SoA once and every output entry becomes one vectorized dot:
    // out(i, j) = sum_k a(i,k) * conj(b(j,k)) = dot(conj_a, b_row_j,
    // a_row_i). Full serial dot per entry keeps thread-count invariance.
    const long long k_len = cols_;
    SplitBuffer a_pack(static_cast<long long>(rows_) * k_len);
    SplitBuffer b_pack(static_cast<long long>(other.rows_) * k_len);
    simd::deinterleave(level, &(*this)(0, 0), a_pack.size(), a_pack.re(),
                       a_pack.im());
    simd::deinterleave(level, &other(0, 0), b_pack.size(), b_pack.re(),
                       b_pack.im());
    sweep::parallel_for(
        static_cast<std::size_t>(rows_), sweep::grain_for_ops(row_ops),
        [&](std::size_t i_begin, std::size_t i_end) {
          for (std::size_t ii = i_begin; ii < i_end; ++ii) {
            const long long i = static_cast<long long>(ii);
            for (int j = 0; j < other.rows_; ++j) {
              out(static_cast<int>(i), j) = simd::dot(
                  level, true,
                  b_pack.re() + static_cast<long long>(j) * k_len,
                  b_pack.im() + static_cast<long long>(j) * k_len,
                  a_pack.re() + i * k_len, a_pack.im() + i * k_len, k_len);
            }
          }
        });
    return out;
  }
  sweep::parallel_for(
      static_cast<std::size_t>(rows_), sweep::grain_for_ops(row_ops),
      [&](std::size_t i_begin, std::size_t i_end) {
        for (std::size_t ii = i_begin; ii < i_end; ++ii) {
          const int i = static_cast<int>(ii);
          const Complex* a_row = &(*this)(i, 0);
          for (int j = 0; j < other.rows_; ++j) {
            const Complex* b_row = &other(j, 0);
            Complex acc{0.0, 0.0};
            for (int k = 0; k < cols_; ++k) {
              acc += a_row[static_cast<std::size_t>(k)] *
                     std::conj(b_row[static_cast<std::size_t>(k)]);
            }
            out(i, j) = acc;
          }
        }
      });
  return out;
}

CMat& CMat::blend(const CMat& other, Complex w_this, Complex w_other) {
  require(rows_ == other.rows_ && cols_ == other.cols_,
          "CMat::blend: shape mismatch");
  for (std::size_t k = 0; k < a_.size(); ++k) {
    a_[k] = w_this * a_[k] + w_other * other.a_[k];
  }
  return *this;
}

CVec CMat::operator*(const CVec& v) const {
  CVec out;
  multiply_into(v, out);
  return out;
}

void CMat::multiply_into(const CVec& v, CVec& out) const {
  require(cols_ == v.dim(), "CMat::operator*(CVec): shape mismatch");
  out.resize_for_overwrite(rows_);  // every entry is written below
  // Row panels in parallel; each output entry is one full serial dot, so
  // the matvec (and everything built on it, e.g. dense power iteration) is
  // thread-count-invariant.
  sweep::parallel_for(
      static_cast<std::size_t>(rows_),
      sweep::grain_for_ops(static_cast<std::size_t>(cols_)),
      [&](std::size_t i_begin, std::size_t i_end) {
        for (std::size_t ii = i_begin; ii < i_end; ++ii) {
          const int i = static_cast<int>(ii);
          Complex acc{0.0, 0.0};
          for (int j = 0; j < cols_; ++j) {
            acc += (*this)(i, j) * v[j];
          }
          out[i] = acc;
        }
      });
}

CMat CMat::adjoint() const {
  CMat out(cols_, rows_);
  for (int i = 0; i < rows_; ++i) {
    for (int j = 0; j < cols_; ++j) {
      out(j, i) = std::conj((*this)(i, j));
    }
  }
  return out;
}

Complex CMat::trace() const {
  require(rows_ == cols_, "CMat::trace: matrix not square");
  Complex acc{0.0, 0.0};
  for (int i = 0; i < rows_; ++i) {
    acc += (*this)(i, i);
  }
  return acc;
}

CMat CMat::kron(const CMat& other) const {
  CMat out(rows_ * other.rows_, cols_ * other.cols_);
  for (int i = 0; i < rows_; ++i) {
    for (int j = 0; j < cols_; ++j) {
      const Complex aij = (*this)(i, j);
      if (aij == Complex{0.0, 0.0}) continue;
      for (int k = 0; k < other.rows_; ++k) {
        for (int l = 0; l < other.cols_; ++l) {
          out(i * other.rows_ + k, j * other.cols_ + l) = aij * other(k, l);
        }
      }
    }
  }
  return out;
}

double CMat::frobenius_norm() const {
  double acc = 0.0;
  for (const auto& x : a_) {
    acc += std::norm(x);
  }
  return std::sqrt(acc);
}

bool CMat::is_hermitian(double tol) const {
  if (rows_ != cols_) return false;
  for (int i = 0; i < rows_; ++i) {
    for (int j = i; j < cols_; ++j) {
      if (std::abs((*this)(i, j) - std::conj((*this)(j, i))) > tol) {
        return false;
      }
    }
  }
  return true;
}

bool CMat::is_unitary(double tol) const {
  if (rows_ != cols_) return false;
  const CMat product = adjoint_times(*this);
  const CMat id = identity(rows_);
  return product.linf_distance(id) <= tol;
}

double CMat::linf_distance(const CMat& other) const {
  require(rows_ == other.rows_ && cols_ == other.cols_,
          "CMat::linf_distance: shape mismatch");
  double worst = 0.0;
  for (std::size_t k = 0; k < a_.size(); ++k) {
    worst = std::max(worst, std::abs(a_[k] - other.a_[k]));
  }
  return worst;
}

}  // namespace dqma::linalg
