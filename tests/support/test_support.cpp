#include "support/test_support.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <sstream>

#include "qtest/swap_test.hpp"
#include "quantum/local_ops.hpp"
#include "quantum/random.hpp"
#include "quantum/state.hpp"
#include "quantum/unitary.hpp"

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

namespace {

/// One pattern's local effect: the d x d or d^2 x d^2 effect, the
/// registers it acts on, and whether it is the first test.
struct PatternEffect {
  CMat effect;
  std::vector<int> regs;
  bool first = false;
};

std::vector<PatternEffect> pattern_effects(const CVec& hx, const CVec& hy,
                                           int r, int pattern) {
  const int d = hx.dim();
  const int inner = r - 1;
  const auto kept = [&](int j) {
    return 2 * (j - 1) + ((pattern >> (j - 1)) & 1);
  };
  const auto sent = [&](int j) { return 4 * (j - 1) + 1 - kept(j); };
  CMat first = CMat::identity(d);
  first += CMat::projector(hx);
  first *= linalg::Complex{0.5, 0.0};
  CMat swap_effect = quantum::swap_unitary(d);
  swap_effect += CMat::identity(d * d);
  swap_effect *= linalg::Complex{0.5, 0.0};
  std::vector<PatternEffect> effects{{first, {kept(1)}, true}};
  for (int j = 2; j <= inner; ++j) {
    effects.push_back({swap_effect, {sent(j - 1), kept(j)}});
  }
  effects.push_back({CMat::projector(hy), {sent(inner)}});
  return effects;
}

/// <w| effect |w> on the product of the listed registers' states, by the
/// effect's closed form (the matrix form loses relative accuracy when an
/// overlap is small).
double local_expectation(const PatternEffect& pe, const CVec& hx,
                         const CVec& hy, const std::vector<CVec>& regs) {
  const CVec& w = regs[static_cast<std::size_t>(pe.regs.front())];
  if (pe.regs.size() == 2) {
    const CVec& v = regs[static_cast<std::size_t>(pe.regs.back())];
    return 0.5 * (w.norm_sq() * v.norm_sq() + std::norm(w.dot(v)));
  }
  return pe.first ? 0.5 * (w.norm_sq() + std::norm(hx.dot(w)))
                  : std::norm(hy.dot(w));
}

/// max |a - b| / max |b| over the entries.
double relative_error(const CVec& a, const CVec& b) {
  double diff = 0.0;
  double scale = 0.0;
  for (int i = 0; i < b.dim(); ++i) {
    diff = std::max(diff, std::abs(a[i] - b[i]));
    scale = std::max(scale, std::abs(b[i]));
  }
  return diff / scale;
}

CVec entries(const CMat& m) {
  std::vector<linalg::Complex> all;
  for (int i = 0; i < m.rows(); ++i) {
    for (int j = 0; j < m.cols(); ++j) {
      all.push_back(m(i, j));
    }
  }
  return CVec(all);
}

/// A random unit vector with real entries.
CVec real_state(int d, Rng& rng) {
  CVec v(d);
  for (int i = 0; i < d; ++i) {
    v[i] = linalg::Complex{rng.next_gaussian(), 0.0};
  }
  v.normalize();
  return v;
}

}  // namespace

CVec pattern_sum_acceptance(const CVec& hx, const CVec& hy, int r,
                            const CVec& psi) {
  const quantum::RegisterShape shape(
      std::vector<int>(static_cast<std::size_t>(2 * (r - 1)), hx.dim()));
  CVec out(psi.dim());
  for (int pattern = 0; pattern < (1 << (r - 1)); ++pattern) {
    CVec term = psi;
    for (const PatternEffect& pe : pattern_effects(hx, hy, r, pattern)) {
      quantum::apply_local(shape, pe.effect, pe.regs, term);
    }
    out += term;
  }
  out *= linalg::Complex{1.0 / (1 << (r - 1)), 0.0};
  return out;
}

double pattern_sum_product_accept(const CVec& hx, const CVec& hy, int r,
                                  const std::vector<CVec>& regs) {
  double total = 0.0;
  for (int pattern = 0; pattern < (1 << (r - 1)); ++pattern) {
    double term = 1.0;
    for (const PatternEffect& pe : pattern_effects(hx, hy, r, pattern)) {
      term *= local_expectation(pe, hx, hy, regs);
    }
    total += term;
  }
  return total / (1 << (r - 1));
}

CMat pattern_sum_conditional(const CVec& hx, const CVec& hy, int r, int k,
                             const std::vector<CVec>& regs) {
  const int d = hx.dim();
  CMat cond(d, d);
  for (int pattern = 0; pattern < (1 << (r - 1)); ++pattern) {
    double scale = 1.0;
    CMat block;
    for (const PatternEffect& pe : pattern_effects(hx, hy, r, pattern)) {
      const auto at = std::find(pe.regs.begin(), pe.regs.end(), k);
      if (at == pe.regs.end()) {
        scale *= local_expectation(pe, hx, hy, regs);
      } else if (pe.regs.size() == 1) {
        block = pe.effect;
      } else {
        // Contract the partner register: <v|_partner effect |v>_partner.
        const CVec& v = regs[static_cast<std::size_t>(
            at == pe.regs.begin() ? pe.regs.back() : pe.regs.front())];
        const bool own_first = at == pe.regs.begin();
        block = CMat(d, d);
        for (int i = 0; i < d; ++i) {
          for (int j = 0; j < d; ++j) {
            for (int a = 0; a < d; ++a) {
              for (int b = 0; b < d; ++b) {
                const int row = own_first ? i * d + a : a * d + i;
                const int col = own_first ? j * d + b : b * d + j;
                block(i, j) += std::conj(v[a]) * pe.effect(row, col) * v[b];
              }
            }
          }
        }
      }
    }
    cond += block * linalg::Complex{scale, 0.0};
  }
  cond *= linalg::Complex{1.0 / (1 << (r - 1)), 0.0};
  return cond;
}

double transfer_chain_error(int d, int r, bool real_pair, Rng& rng) {
  const CVec hx = real_pair ? real_state(d, rng) : quantum::haar_state(d, rng);
  const CVec hy = real_pair ? real_state(d, rng) : quantum::haar_state(d, rng);
  const protocol::ExactEqPathAnalyzer chain(
      hx, hy, r, protocol::ExactEqPathAnalyzer::Mode::kMatrixFree);
  const CVec psi =
      quantum::haar_state(static_cast<int>(chain.proof_dim()), rng);
  std::vector<CVec> regs;
  for (int k = 0; k < 2 * (r - 1); ++k) {
    regs.push_back(quantum::haar_state(d, rng));
  }
  double worst = relative_error(chain.apply_acceptance(psi),
                                pattern_sum_acceptance(hx, hy, r, psi));
  const double product = pattern_sum_product_accept(hx, hy, r, regs);
  worst = std::max(worst,
                   std::abs(chain.product_accept(regs) - product) / product);
  for (int k = 0; k < 2 * (r - 1); ++k) {
    worst = std::max(
        worst,
        relative_error(entries(chain.conditional_operator(k, regs)),
                       entries(pattern_sum_conditional(hx, hy, r, k, regs))));
  }
  return worst;
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
