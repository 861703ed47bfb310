// Unit tests for the dense linear-algebra layer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "linalg/eigen.hpp"
#include "linalg/matrix.hpp"
#include "linalg/permanent.hpp"
#include "linalg/vector.hpp"
#include "quantum/random.hpp"
#include "support/test_support.hpp"
#include "util/rng.hpp"

namespace {

using dqma::linalg::CMat;
using dqma::linalg::Complex;
using dqma::linalg::CVec;
using dqma::linalg::eigh;
using dqma::linalg::max_eigenvalue_psd;
using dqma::linalg::permanent;
using dqma::linalg::sqrt_psd;
using dqma::linalg::trace_norm;
using dqma::util::Rng;

TEST(CVecTest, BasisAndNorm) {
  const CVec e1 = CVec::basis(4, 1);
  EXPECT_EQ(e1.dim(), 4);
  EXPECT_DOUBLE_EQ(e1.norm(), 1.0);
  EXPECT_EQ(e1[1], (Complex{1.0, 0.0}));
  EXPECT_EQ(e1[0], (Complex{0.0, 0.0}));
}

TEST(CVecTest, DotIsConjugateLinearInFirstArgument) {
  CVec a(2);
  a[0] = Complex{0.0, 1.0};  // i
  CVec b(2);
  b[0] = Complex{1.0, 0.0};
  // <ia|b> = conj(i) * 1 = -i.
  EXPECT_NEAR(std::abs(a.dot(b) - Complex{0.0, -1.0}), 0.0, 1e-12);
}

TEST(CVecTest, TensorProductDimensionsAndValues) {
  const CVec a = CVec::basis(2, 1);
  const CVec b = CVec::basis(3, 2);
  const CVec t = a.tensor(b);
  EXPECT_EQ(t.dim(), 6);
  EXPECT_EQ(t[1 * 3 + 2], (Complex{1.0, 0.0}));
}

TEST(CVecTest, ResizeForOverwriteKeepsEntriesAndStorage) {
  // Contract: entries below min(old, new) dim keep their bits, and a size
  // within the capacity reuses the storage. New entries are unspecified
  // (nothing is written), so only their count is checked.
  CVec v(600);  // 9600 bytes: the aligned allocation path
  for (int i = 0; i < v.dim(); ++i) {
    v[i] = Complex{0.5 + i, (i % 3 == 0) ? -0.0 : -1.0 * i};
  }
  const CVec original = v;
  const std::size_t capacity = v.capacity_bytes();
  const Complex* storage = &v[0];

  v.resize_for_overwrite(250);
  EXPECT_EQ(v.dim(), 250);
  EXPECT_EQ(v.capacity_bytes(), capacity);
  EXPECT_EQ(&v[0], storage);
  EXPECT_EQ(std::memcmp(&v[0], &original[0], 250 * sizeof(Complex)), 0);

  v.resize_for_overwrite(600);
  EXPECT_EQ(v.dim(), 600);
  EXPECT_EQ(v.capacity_bytes(), capacity);
  EXPECT_EQ(&v[0], storage);
  EXPECT_EQ(std::memcmp(&v[0], &original[0], 250 * sizeof(Complex)), 0);

  // Growing past the capacity moves the kept entries to new storage.
  v.resize_for_overwrite(1000);
  EXPECT_EQ(v.dim(), 1000);
  EXPECT_GE(v.capacity_bytes(), 1000 * sizeof(Complex));
  EXPECT_EQ(std::memcmp(&v[0], &original[0], 250 * sizeof(Complex)), 0);

  // Construction by dimension still writes +0.0 into every entry.
  const CVec zeros(600);
  const Complex plus_zero{0.0, 0.0};
  for (int i = 0; i < zeros.dim(); ++i) {
    EXPECT_EQ(std::memcmp(&zeros[i], &plus_zero, sizeof(Complex)), 0) << i;
  }
}

TEST(CVecTest, NormalizeThrowsOnZeroVector) {
  CVec z(3);
  EXPECT_THROW(z.normalize(), std::invalid_argument);
}

TEST(CMatTest, IdentityAndTrace) {
  const CMat id = CMat::identity(5);
  EXPECT_NEAR(std::abs(id.trace() - Complex{5.0, 0.0}), 0.0, 1e-12);
}

TEST(CMatTest, MatrixProductAgainstHandComputation) {
  CMat a(2, 2);
  a(0, 0) = Complex{1.0, 0.0};
  a(0, 1) = Complex{2.0, 0.0};
  a(1, 0) = Complex{3.0, 0.0};
  a(1, 1) = Complex{4.0, 0.0};
  const CMat b = a * a;
  EXPECT_NEAR(b(0, 0).real(), 7.0, 1e-12);
  EXPECT_NEAR(b(0, 1).real(), 10.0, 1e-12);
  EXPECT_NEAR(b(1, 0).real(), 15.0, 1e-12);
  EXPECT_NEAR(b(1, 1).real(), 22.0, 1e-12);
}

TEST(CMatTest, KronMatchesManualBlocks) {
  CMat a(2, 2);
  a(0, 0) = Complex{1.0, 0.0};
  a(1, 1) = Complex{2.0, 0.0};
  const CMat k = a.kron(CMat::identity(3));
  EXPECT_EQ(k.rows(), 6);
  EXPECT_NEAR(k(0, 0).real(), 1.0, 1e-12);
  EXPECT_NEAR(k(5, 5).real(), 2.0, 1e-12);
  EXPECT_NEAR(std::abs(k(0, 5)), 0.0, 1e-12);
}

TEST(CMatTest, AdjointConjugatesAndTransposes) {
  CMat a(2, 3);
  a(0, 2) = Complex{1.0, 2.0};
  const CMat ad = a.adjoint();
  EXPECT_EQ(ad.rows(), 3);
  EXPECT_EQ(ad.cols(), 2);
  EXPECT_NEAR(std::abs(ad(2, 0) - Complex{1.0, -2.0}), 0.0, 1e-12);
}

TEST(EigenTest, PauliXHasPlusMinusOne) {
  CMat x(2, 2);
  x(0, 1) = Complex{1.0, 0.0};
  x(1, 0) = Complex{1.0, 0.0};
  const auto es = eigh(x);
  ASSERT_EQ(es.values.size(), 2u);
  EXPECT_NEAR(es.values[0], -1.0, 1e-9);
  EXPECT_NEAR(es.values[1], 1.0, 1e-9);
}

TEST(EigenTest, ComplexHermitianKnownSpectrum) {
  // [[2, i],[-i, 2]] has eigenvalues 1 and 3.
  CMat a(2, 2);
  a(0, 0) = Complex{2.0, 0.0};
  a(0, 1) = Complex{0.0, 1.0};
  a(1, 0) = Complex{0.0, -1.0};
  a(1, 1) = Complex{2.0, 0.0};
  const auto es = eigh(a);
  EXPECT_NEAR(es.values[0], 1.0, 1e-9);
  EXPECT_NEAR(es.values[1], 3.0, 1e-9);
}

TEST(EigenTest, ReconstructionPropertyOnRandomHermitian) {
  Rng rng(42);
  for (int trial = 0; trial < 5; ++trial) {
    const int n = 6 + trial;
    CMat a(n, n);
    for (int i = 0; i < n; ++i) {
      a(i, i) = Complex{rng.next_gaussian(), 0.0};
      for (int j = i + 1; j < n; ++j) {
        a(i, j) = Complex{rng.next_gaussian(), rng.next_gaussian()};
        a(j, i) = std::conj(a(i, j));
      }
    }
    const auto es = eigh(a);
    CMat lambda(n, n);
    for (int i = 0; i < n; ++i) {
      lambda(i, i) = Complex{es.values[static_cast<std::size_t>(i)], 0.0};
    }
    const CMat rebuilt = es.vectors * lambda * es.vectors.adjoint();
    EXPECT_DENSITY_NEAR_TOL(rebuilt, a, 1e-8);
    EXPECT_TRUE(es.vectors.is_unitary(1e-8));
  }
}

TEST(EigenTest, EigenvaluesAreSortedAscending) {
  Rng rng(7);
  const CMat rho = dqma::quantum::random_density(8, rng);
  const auto es = eigh(rho);
  for (std::size_t i = 1; i < es.values.size(); ++i) {
    EXPECT_LE(es.values[i - 1], es.values[i] + 1e-12);
  }
}

TEST(EigenTest, PowerIterationMatchesEigh) {
  Rng rng(123);
  for (int trial = 0; trial < 4; ++trial) {
    const CMat rho = dqma::quantum::random_density(10, rng);
    const auto es = eigh(rho);
    const double top = max_eigenvalue_psd(rho);
    EXPECT_NEAR(top, es.values.back(), 1e-7);
  }
}

TEST(EigenTest, SqrtPsdSquaresBack) {
  Rng rng(5);
  const CMat rho = dqma::quantum::random_density(6, rng);
  const CMat root = sqrt_psd(rho);
  EXPECT_DENSITY_NEAR_TOL(root * root, rho, 1e-8);
}

TEST(EigenTest, TraceNormOfHermitianIsSumAbsEigenvalues) {
  CMat z(2, 2);
  z(0, 0) = Complex{1.0, 0.0};
  z(1, 1) = Complex{-1.0, 0.0};
  EXPECT_NEAR(trace_norm(z), 2.0, 1e-9);
}

TEST(EigenTest, TraceNormOfDensityDifferenceIsAtMostTwo) {
  Rng rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    const CMat a = dqma::quantum::random_density(7, rng);
    const CMat b = dqma::quantum::random_density(7, rng);
    const double tn = trace_norm(a - b);
    EXPECT_GE(tn, -1e-12);
    EXPECT_LE(tn, 2.0 + 1e-9);
  }
}

TEST(PermanentTest, IdentityIsOne) {
  EXPECT_NEAR(permanent(CMat::identity(5)).real(), 1.0, 1e-9);
}

TEST(PermanentTest, AllOnesIsFactorial) {
  CMat ones(4, 4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      ones(i, j) = Complex{1.0, 0.0};
    }
  }
  EXPECT_NEAR(permanent(ones).real(), 24.0, 1e-9);
}

TEST(PermanentTest, TwoByTwoFormula) {
  CMat a(2, 2);
  a(0, 0) = Complex{1.0, 1.0};
  a(0, 1) = Complex{2.0, 0.0};
  a(1, 0) = Complex{0.0, 3.0};
  a(1, 1) = Complex{4.0, 0.0};
  // perm = a00*a11 + a01*a10 = (1+i)*4 + 2*3i = 4 + 4i + 6i = 4 + 10i.
  const Complex p = permanent(a);
  EXPECT_NEAR(p.real(), 4.0, 1e-9);
  EXPECT_NEAR(p.imag(), 10.0, 1e-9);
}

TEST(PermanentTest, PermutationMatrixIsOne) {
  CMat p(3, 3);
  p(0, 1) = Complex{1.0, 0.0};
  p(1, 2) = Complex{1.0, 0.0};
  p(2, 0) = Complex{1.0, 0.0};
  EXPECT_NEAR(permanent(p).real(), 1.0, 1e-9);
}

TEST(PermanentTest, EmptyMatrixIsOne) {
  EXPECT_NEAR(permanent(CMat(0, 0)).real(), 1.0, 1e-12);
}

}  // namespace
