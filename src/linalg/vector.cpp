#include "linalg/vector.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"
#include "util/tolerance.hpp"

namespace dqma::linalg {

using util::require;

CVec::CVec(int dim) {
  require(dim >= 0, "CVec: dimension must be non-negative");
  a_.assign(static_cast<std::size_t>(dim), Complex{0.0, 0.0});
}

void CVec::resize_for_overwrite(int dim) {
  require(dim >= 0,
          "CVec::resize_for_overwrite: dimension must be non-negative");
  a_.resize(static_cast<std::size_t>(dim));  // no fill: OverwriteAllocator
}

CVec::CVec(std::vector<Complex> amplitudes)
    : a_(amplitudes.begin(), amplitudes.end()) {}

CVec CVec::basis(int dim, int index) {
  require(index >= 0 && index < dim, "CVec::basis: index out of range");
  CVec v(dim);
  v[index] = Complex{1.0, 0.0};
  return v;
}

CVec& CVec::operator+=(const CVec& other) {
  require(dim() == other.dim(), "CVec::operator+=: dimension mismatch");
  for (int i = 0; i < dim(); ++i) {
    a_[static_cast<std::size_t>(i)] += other[i];
  }
  return *this;
}

CVec& CVec::operator-=(const CVec& other) {
  require(dim() == other.dim(), "CVec::operator-=: dimension mismatch");
  for (int i = 0; i < dim(); ++i) {
    a_[static_cast<std::size_t>(i)] -= other[i];
  }
  return *this;
}

CVec& CVec::operator*=(Complex scalar) {
  for (auto& x : a_) {
    x *= scalar;
  }
  return *this;
}

CVec CVec::operator+(const CVec& other) const {
  CVec out = *this;
  out += other;
  return out;
}

CVec CVec::operator-(const CVec& other) const {
  CVec out = *this;
  out -= other;
  return out;
}

CVec CVec::operator*(Complex scalar) const {
  CVec out = *this;
  out *= scalar;
  return out;
}

Complex CVec::dot(const CVec& other) const {
  require(dim() == other.dim(), "CVec::dot: dimension mismatch");
  Complex acc{0.0, 0.0};
  for (int i = 0; i < dim(); ++i) {
    acc += std::conj(a_[static_cast<std::size_t>(i)]) * other[i];
  }
  return acc;
}

double CVec::norm_sq() const {
  double acc = 0.0;
  for (const auto& x : a_) {
    acc += std::norm(x);
  }
  return acc;
}

double CVec::norm() const { return std::sqrt(norm_sq()); }

void CVec::normalize() {
  const double n = norm();
  require(n > util::kAlgebraTol, "CVec::normalize: zero vector");
  for (auto& x : a_) {
    x /= n;
  }
}

CVec CVec::normalized() const {
  CVec out = *this;
  out.normalize();
  return out;
}

CVec CVec::tensor(const CVec& other) const {
  CVec out(dim() * other.dim());
  for (int i = 0; i < dim(); ++i) {
    const Complex ai = a_[static_cast<std::size_t>(i)];
    if (ai == Complex{0.0, 0.0}) {
      continue;
    }
    for (int j = 0; j < other.dim(); ++j) {
      out[i * other.dim() + j] = ai * other[j];
    }
  }
  return out;
}

double CVec::linf_distance(const CVec& other) const {
  require(dim() == other.dim(), "CVec::linf_distance: dimension mismatch");
  double worst = 0.0;
  for (int i = 0; i < dim(); ++i) {
    worst = std::max(worst, std::abs(a_[static_cast<std::size_t>(i)] - other[i]));
  }
  return worst;
}

}  // namespace dqma::linalg
