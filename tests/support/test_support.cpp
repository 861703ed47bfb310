#include "support/test_support.hpp"

#include <cmath>
#include <complex>
#include <sstream>

#include "qtest/swap_test.hpp"
#include "quantum/random.hpp"

namespace dqma::test {

namespace {

std::string complex_to_string(const linalg::Complex& c) {
  std::ostringstream os;
  os << "(" << c.real() << (c.imag() < 0 ? "" : "+") << c.imag() << "i)";
  return os.str();
}

}  // namespace

::testing::AssertionResult StateNearPred(const char* a_expr, const char* b_expr,
                                         const char* tol_expr, const CVec& a,
                                         const CVec& b, double tol) {
  if (a.dim() != b.dim()) {
    return ::testing::AssertionFailure()
           << "dimension mismatch between " << a_expr << " (dim " << a.dim()
           << ") and " << b_expr << " (dim " << b.dim() << ")";
  }
  double worst = 0.0;
  int worst_i = 0;
  for (int i = 0; i < a.dim(); ++i) {
    const double d = std::abs(a[i] - b[i]);
    if (d > worst) {
      worst = d;
      worst_i = i;
    }
  }
  if (worst <= tol) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a_expr << " and " << b_expr << " differ by " << worst
         << " at index " << worst_i << " ("
         << complex_to_string(a[worst_i]) << " vs "
         << complex_to_string(b[worst_i]) << "), tolerance " << tol_expr
         << " = " << tol;
}

namespace {

::testing::AssertionResult mat_near(const char* a_expr, const char* b_expr,
                                    const char* tol_expr, const CMat& a,
                                    const CMat& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape mismatch between " << a_expr << " (" << a.rows() << "x"
           << a.cols() << ") and " << b_expr << " (" << b.rows() << "x"
           << b.cols() << ")";
  }
  double worst = 0.0;
  int worst_r = 0;
  int worst_c = 0;
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      const double d = std::abs(a(r, c) - b(r, c));
      if (d > worst) {
        worst = d;
        worst_r = r;
        worst_c = c;
      }
    }
  }
  if (worst <= tol) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a_expr << " and " << b_expr << " differ by " << worst
         << " at entry (" << worst_r << "," << worst_c << ") ("
         << complex_to_string(a(worst_r, worst_c)) << " vs "
         << complex_to_string(b(worst_r, worst_c)) << "), tolerance "
         << tol_expr << " = " << tol;
}

}  // namespace

::testing::AssertionResult DensityNearPred(const char* a_expr,
                                           const char* b_expr,
                                           const char* tol_expr, const CMat& a,
                                           const CMat& b, double tol) {
  return mat_near(a_expr, b_expr, tol_expr, a, b, tol);
}

::testing::AssertionResult DensityNearPred(const char* a_expr,
                                           const char* b_expr,
                                           const char* tol_expr,
                                           const quantum::Density& a,
                                           const quantum::Density& b,
                                           double tol) {
  return mat_near(a_expr, b_expr, tol_expr, a.matrix(), b.matrix(), tol);
}

::testing::AssertionResult NormalizedPred(const char* v_expr,
                                          const char* tol_expr, const CVec& v,
                                          double tol) {
  const double n = v.norm();
  if (std::abs(n - 1.0) <= tol) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << v_expr << " has norm " << n << ", expected 1 within " << tol_expr
         << " = " << tol;
}

::testing::AssertionResult ProbabilityPred(const char* p_expr, double p) {
  if (p >= -util::kAlgebraTol && p <= 1.0 + util::kAlgebraTol) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << p_expr << " = " << p << " is not a probability";
}

std::pair<Bitstring, Bitstring> random_unequal_pair(int n, Rng& rng) {
  const Bitstring x = Bitstring::random(n, rng);
  return {x, random_unequal_to(x, rng)};
}

Bitstring random_unequal_to(const Bitstring& x, Rng& rng) {
  const int n = x.size();
  Bitstring y = Bitstring::random(n, rng);
  if (x == y) {
    y.flip(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n))));
  }
  return y;
}

std::vector<CVec> haar_states(int dim, int count, Rng& rng) {
  std::vector<CVec> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back(quantum::haar_state(dim, rng));
  }
  return out;
}

std::function<double(const CVec&, const CVec&)> swap_pair_test() {
  return [](const CVec& a, const CVec& b) {
    return qtest::swap_test_accept(a, b);
  };
}

std::function<double(const CVec&)> overlap_final_test(CVec target) {
  return [target = std::move(target)](const CVec& v) {
    const double amp = std::abs(target.dot(v));
    return amp * amp;
  };
}

double chain_swap_overlap_accept(const CVec& source, const CVec& target,
                                 const protocol::PathProof& proof) {
  return protocol::chain_accept(source, proof, swap_pair_test(),
                                overlap_final_test(target));
}

double exact_worst_case_accept(const CVec& hx, const CVec& hy, int r) {
  const protocol::ExactEqPathAnalyzer analyzer(hx, hy, r);
  return analyzer.worst_case_accept();
}

double exact_best_product_accept(const CVec& hx, const CVec& hy, int r,
                                 int restarts) {
  const protocol::ExactEqPathAnalyzer analyzer(hx, hy, r);
  Rng rng(kTestSeed);
  return analyzer.best_product_accept(rng, restarts);
}

std::vector<std::uint64_t> reference_stream(std::uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back(rng.next_u64());
  }
  return out;
}

std::vector<linalg::simd::Level> supported_simd_levels() {
  namespace simd = linalg::simd;
  std::vector<simd::Level> levels{simd::Level::kScalar};
  for (const simd::Level level : {simd::Level::kAvx2, simd::Level::kAvx512}) {
    if (simd::is_supported(level)) {
      levels.push_back(level);
    }
  }
  return levels;
}

CVec reference_haar_state(int dim, std::uint64_t seed) {
  Rng rng(seed);
  return quantum::haar_state(dim, rng);
}

}  // namespace dqma::test
