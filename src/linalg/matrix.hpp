// Dense complex matrices (row-major) for density operators, unitaries and
// POVM elements in the exact simulation engine.
#pragma once

#include <complex>
#include <vector>

#include "linalg/vector.hpp"

namespace dqma::linalg {

/// Dense complex matrix with value semantics.
class CMat {
 public:
  CMat() = default;

  /// Zero matrix of shape rows x cols.
  CMat(int rows, int cols);

  /// Identity of size n.
  static CMat identity(int n);

  /// Outer product |u><v| (u conjugated on the right, physics convention:
  /// result(i,j) = u_i * conj(v_j)).
  static CMat outer(const CVec& u, const CVec& v);

  /// Projector |u><u| for a (not necessarily normalized) vector.
  static CMat projector(const CVec& u);

  /// Diagonal matrix from entries.
  static CMat diagonal(const std::vector<Complex>& entries);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  Complex& operator()(int i, int j) {
    return a_[static_cast<std::size_t>(i) * static_cast<std::size_t>(cols_) +
              static_cast<std::size_t>(j)];
  }
  const Complex& operator()(int i, int j) const {
    return a_[static_cast<std::size_t>(i) * static_cast<std::size_t>(cols_) +
              static_cast<std::size_t>(j)];
  }

  // Note: there is deliberately no raw data() accessor; kernels view this
  // storage through linalg/complex_view.hpp (see the note in vector.hpp).

  CMat& operator+=(const CMat& other);
  CMat& operator-=(const CMat& other);
  CMat& operator*=(Complex scalar);

  CMat operator+(const CMat& other) const;
  CMat operator-(const CMat& other) const;
  CMat operator*(Complex scalar) const;

  /// Matrix product (blocked, cache-aware; exact zeros in the left factor
  /// are skipped, which makes products with embedded local operators cheap).
  CMat operator*(const CMat& other) const;

  /// Matrix-vector product.
  CVec operator*(const CVec& v) const;

  /// The same product into `out`, reusing its storage when it fits (no
  /// allocation); `out` must not alias `v`.
  void multiply_into(const CVec& v, CVec& out) const;

  /// this^dagger * other without materializing the adjoint copy.
  CMat adjoint_times(const CMat& other) const;

  /// this * other^dagger without materializing the adjoint copy.
  CMat times_adjoint(const CMat& other) const;

  /// In-place convex/linear blend: this <- w_this * this + w_other * other,
  /// in one fused pass (same shape required).
  CMat& blend(const CMat& other, Complex w_this, Complex w_other);

  /// Conjugate transpose.
  CMat adjoint() const;

  /// Trace (requires square).
  Complex trace() const;

  /// Kronecker product this ⊗ other.
  CMat kron(const CMat& other) const;

  /// Frobenius norm.
  double frobenius_norm() const;

  /// Hermiticity check within tolerance.
  bool is_hermitian(double tol) const;

  /// Unitarity check within tolerance (requires square).
  bool is_unitary(double tol) const;

  /// Max elementwise |a_ij - b_ij| (testing helper).
  double linf_distance(const CMat& other) const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  AlignedVector<Complex> a_;
};

}  // namespace dqma::linalg
