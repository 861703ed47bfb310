// Dense complex vectors: the amplitude representation of pure quantum states.
//
// No external linear-algebra dependency is available in this environment, so
// the library ships its own small dense layer. It is deliberately simple
// (contiguous std::vector storage, value semantics) — the simulators never
// need more than a few thousand dimensions in the exact engine, and the fast
// protocol runner works with closed-form inner products instead.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "linalg/aligned.hpp"

namespace dqma::linalg {

using Complex = std::complex<double>;

/// Dense complex column vector.
class CVec {
 public:
  CVec() = default;

  /// Zero vector of the given dimension.
  explicit CVec(int dim);

  /// From raw amplitudes.
  explicit CVec(std::vector<Complex> amplitudes);

  /// Computational-basis vector |index> in `dim` dimensions.
  static CVec basis(int dim, int index);

  int dim() const { return static_cast<int>(a_.size()); }

  /// Sets the dimension, keeping the storage when `dim` fits its capacity:
  /// entries below min(old, new) dim keep their values. New entries are
  /// unspecified (whatever the storage holds; nothing is written), so the
  /// caller must write each one before reading it.
  void resize_for_overwrite(int dim);

  /// Bytes of storage held, which can exceed dim() entries after a shrink.
  std::size_t capacity_bytes() const { return a_.capacity() * sizeof(Complex); }

  Complex& operator[](int i) { return a_[static_cast<std::size_t>(i)]; }
  const Complex& operator[](int i) const {
    return a_[static_cast<std::size_t>(i)];
  }

  // Note: there is deliberately no raw data() accessor. Kernels take this
  // buffer through linalg/complex_view.hpp views, which carry the memory
  // layout (AoS here, SoA for SplitBuffer) so consumers never name one.

  CVec& operator+=(const CVec& other);
  CVec& operator-=(const CVec& other);
  CVec& operator*=(Complex scalar);

  CVec operator+(const CVec& other) const;
  CVec operator-(const CVec& other) const;
  CVec operator*(Complex scalar) const;

  /// Inner product <this|other>, conjugate-linear in *this (physics
  /// convention).
  Complex dot(const CVec& other) const;

  /// Euclidean norm.
  double norm() const;

  /// Squared Euclidean norm.
  double norm_sq() const;

  /// Normalizes in place; throws if the norm is (numerically) zero.
  void normalize();

  /// Returns the normalized copy.
  CVec normalized() const;

  /// Tensor (Kronecker) product |this> ⊗ |other>.
  CVec tensor(const CVec& other) const;

  /// Max |a_i - b_i| elementwise distance (testing helper).
  double linf_distance(const CVec& other) const;

 private:
  std::vector<Complex, OverwriteAllocator<Complex>> a_;
};

}  // namespace dqma::linalg
