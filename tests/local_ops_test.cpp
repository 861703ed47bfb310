// Randomized property tests for the matrix-free local-operator engine
// (quantum/local_ops.hpp): every entry point is cross-validated against the
// embed_operator reference on random shapes and register subsets — pure and
// mixed states, including non-adjacent and permuted register lists — plus
// structural checks of the plan tables and determinism pins for the bench
// series seeded on top of the engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "dqma/exact_runner.hpp"
#include "linalg/eigen.hpp"
#include "linalg/simd.hpp"
#include "quantum/density.hpp"
#include "quantum/local_ops.hpp"
#include "quantum/random.hpp"
#include "quantum/state.hpp"
#include "quantum/unitary.hpp"
#include "support/test_support.hpp"
#include "util/tolerance.hpp"

namespace {

using dqma::linalg::CMat;
using dqma::linalg::Complex;
using dqma::linalg::CVec;
using dqma::protocol::ExactEqPathAnalyzer;
using dqma::quantum::apply_left_local;
using dqma::quantum::apply_local;
using dqma::quantum::apply_right_local;
using dqma::quantum::Density;
using dqma::quantum::embed_operator;
using dqma::quantum::expectation_local;
using dqma::quantum::haar_state;
using dqma::quantum::haar_unitary;
using dqma::quantum::LocalOpPlan;
using dqma::quantum::project_local;
using dqma::quantum::PureState;
using dqma::quantum::RegisterShape;
using dqma::quantum::sandwich_local;
using dqma::quantum::SparseRows;
using dqma::test::SeededTest;
using dqma::test::supported_simd_levels;
using dqma::util::Rng;
namespace simd = dqma::linalg::simd;

/// Shapes and register subsets exercised by every property test: mixed
/// register dimensions, adjacent and non-adjacent subsets, permuted lists.
struct Case {
  std::vector<int> dims;
  std::vector<int> regs;
};

std::vector<Case> property_cases() {
  return {
      {{2, 3}, {0}},
      {{2, 3}, {1}},
      {{2, 3, 2}, {0, 2}},     // non-adjacent
      {{2, 3, 2}, {2, 0}},     // non-adjacent, permuted
      {{3, 2, 2}, {1, 0}},     // permuted pair
      {{2, 2, 3, 2}, {3, 1}},  // strided, permuted
      {{2, 2, 2, 2}, {0, 1, 2, 3}},
      {{4, 3, 2}, {1}},
  };
}

/// A random mixed state's matrix on the shape (convex mix of projectors).
CMat random_mixed_matrix(const RegisterShape& shape, Rng& rng) {
  const int d = static_cast<int>(shape.total_dim());
  CMat rho = CMat::projector(haar_state(d, rng));
  rho.blend(CMat::projector(haar_state(d, rng)), Complex{0.6, 0.0},
            Complex{0.4, 0.0});
  return rho;
}

/// Sparse b x b operators that fail SparseRows::dense_enough at realistic
/// block sizes, so vector levels reach the row walk too: (I + SWAP)/2 when
/// b is a square, a random permutation, and a ~10% random mask holding one
/// subnormal entry.
std::vector<CMat> sparse_operators(int b, Rng& rng) {
  std::vector<CMat> ops;
  const int d = static_cast<int>(std::lround(std::sqrt(b)));
  if (d * d == b) {
    CMat swap_effect = dqma::quantum::swap_unitary(d);
    swap_effect += CMat::identity(b);
    swap_effect *= Complex{0.5, 0.0};
    ops.push_back(swap_effect);
  }
  std::vector<int> perm(static_cast<std::size_t>(b));
  for (int i = 0; i < b; ++i) perm[static_cast<std::size_t>(i)] = i;
  for (int i = b - 1; i > 0; --i) {
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
  }
  CMat permutation(b, b);
  for (int i = 0; i < b; ++i) {
    permutation(i, perm[static_cast<std::size_t>(i)]) = Complex{1.0, 0.0};
  }
  ops.push_back(permutation);
  CMat mask(b, b);
  for (int i = 0; i < b; ++i) {
    for (int j = 0; j < b; ++j) {
      if (rng.next_bool(0.1)) {
        mask(i, j) = Complex{rng.next_gaussian(), rng.next_gaussian()};
      }
    }
  }
  mask(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(b))), 0) =
      Complex{0.0, 1e-310};
  ops.push_back(mask);
  return ops;
}

class LocalOpsPropertyTest : public SeededTest {};

TEST_F(LocalOpsPropertyTest, SparseRowsKeepSubnormalsInColumnOrder) {
  CMat op(3, 3);
  op(0, 2) = Complex{2.0, 0.0};
  op(0, 0) = Complex{0.0, -1.0};
  op(2, 1) = Complex{1e-310, 0.0};  // subnormal: std::norm would drop it
  const SparseRows rows(op);
  EXPECT_EQ(rows.rows(), 3);
  EXPECT_EQ(rows.start, (std::vector<std::size_t>{0, 2, 2, 3}));
  EXPECT_EQ(rows.col, (std::vector<int>{0, 2, 1}));
  EXPECT_EQ(rows.val[2], op(2, 1));
  EXPECT_TRUE(SparseRows::dense_enough(op));  // 3 of 9 entries
  EXPECT_FALSE(SparseRows::dense_enough(CMat::identity(5)));  // 5 of 25
  EXPECT_TRUE(SparseRows::dense_enough(CMat::identity(4)));   // 4 of 16
}

TEST_F(LocalOpsPropertyTest, PlanOffsetsMatchShapeFlatten) {
  const RegisterShape shape({2, 3, 2});
  const LocalOpPlan plan(shape, {2, 0});
  EXPECT_EQ(plan.block(), 4);
  EXPECT_EQ(plan.total_dim(), 12);
  EXPECT_EQ(plan.free_offsets().size(), 3u);
  // target assignment b = (i_2, i_0) row-major over the listed order; free
  // register 1 at value f. Offsets must agree with RegisterShape::flatten.
  for (int i2 = 0; i2 < 2; ++i2) {
    for (int i0 = 0; i0 < 2; ++i0) {
      const long long b = i2 * 2 + i0;
      for (int f = 0; f < 3; ++f) {
        const long long flat = shape.flatten({i0, f, i2});
        EXPECT_EQ(plan.target_offsets()[static_cast<std::size_t>(b)] +
                      plan.free_offsets()[static_cast<std::size_t>(f)],
                  flat);
      }
    }
  }
}

TEST_F(LocalOpsPropertyTest, PlanRejectsBadRegisters) {
  const RegisterShape shape({2, 3});
  EXPECT_THROW(LocalOpPlan(shape, {2}), std::invalid_argument);
  EXPECT_THROW(LocalOpPlan(shape, {-1}), std::invalid_argument);
  EXPECT_THROW(LocalOpPlan(shape, {1, 1}), std::invalid_argument);
}

TEST_F(LocalOpsPropertyTest, ApplyLocalMatchesEmbeddedOperator) {
  for (const simd::Level level : supported_simd_levels()) {
    const simd::LevelScope scope(level);
    for (const Case& c : property_cases()) {
      const RegisterShape shape(c.dims);
      const int total = static_cast<int>(shape.total_dim());
      long long block = 1;
      for (const int r : c.regs) block *= shape.dim(r);
      std::vector<CMat> ops = sparse_operators(static_cast<int>(block), rng());
      ops.push_back(haar_unitary(static_cast<int>(block), rng()));
      for (const CMat& op : ops) {
        CVec psi = haar_state(total, rng());
        const CVec expected = embed_operator(shape, op, c.regs) * psi;
        apply_local(shape, op, c.regs, psi);
        EXPECT_STATE_NEAR(psi, expected) << simd::level_name(level);
      }
    }
  }
}

TEST_F(LocalOpsPropertyTest, PureExpectationMatchesEmbeddedOperator) {
  for (const simd::Level level : supported_simd_levels()) {
    const simd::LevelScope scope(level);
    for (const Case& c : property_cases()) {
      const RegisterShape shape(c.dims);
      const int total = static_cast<int>(shape.total_dim());
      long long block = 1;
      for (const int r : c.regs) block *= shape.dim(r);
      // A projector onto a random local state, plus the sparse operators
      // (the real part of <psi|E|psi> is compared, Hermitian or not).
      std::vector<CMat> effects =
          sparse_operators(static_cast<int>(block), rng());
      effects.push_back(
          CMat::projector(haar_state(static_cast<int>(block), rng())));
      const LocalOpPlan plan(shape, c.regs);
      for (const CMat& effect : effects) {
        const CVec psi = haar_state(total, rng());
        const CVec image = embed_operator(shape, effect, c.regs) * psi;
        EXPECT_NEAR(expectation_local(plan, effect, psi),
                    psi.dot(image).real(), 1e-10)
            << simd::level_name(level);
      }
    }
  }
}

TEST_F(LocalOpsPropertyTest, MixedExpectationMatchesEmbeddedOperator) {
  for (const Case& c : property_cases()) {
    const RegisterShape shape(c.dims);
    long long block = 1;
    for (const int r : c.regs) block *= shape.dim(r);
    const CMat effect =
        CMat::projector(haar_state(static_cast<int>(block), rng()));
    const CMat rho = random_mixed_matrix(shape, rng());
    const CMat big = embed_operator(shape, effect, c.regs);
    const LocalOpPlan plan(shape, c.regs);
    EXPECT_NEAR(expectation_local(plan, effect, rho),
                (big * rho).trace().real(), 1e-10);
  }
}

TEST_F(LocalOpsPropertyTest, LeftRightApplicationMatchesEmbeddedProducts) {
  for (const Case& c : property_cases()) {
    const RegisterShape shape(c.dims);
    long long block = 1;
    for (const int r : c.regs) block *= shape.dim(r);
    const CMat u = haar_unitary(static_cast<int>(block), rng());
    const CMat big = embed_operator(shape, u, c.regs);
    const CMat a = random_mixed_matrix(shape, rng());
    const LocalOpPlan plan(shape, c.regs);

    CMat left = a;
    apply_left_local(plan, u, left);
    EXPECT_DENSITY_NEAR_TOL(left, big * a, 1e-10);

    CMat left_adj = a;
    apply_left_local(plan, u, left_adj, /*adjoint_op=*/true);
    EXPECT_DENSITY_NEAR_TOL(left_adj, big.adjoint() * a, 1e-10);

    CMat right = a;
    apply_right_local(plan, u, right);
    EXPECT_DENSITY_NEAR_TOL(right, a * big, 1e-10);

    CMat right_adj = a;
    apply_right_local(plan, u, right_adj, /*adjoint_op=*/true);
    EXPECT_DENSITY_NEAR_TOL(right_adj, a * big.adjoint(), 1e-10);
  }
}

TEST_F(LocalOpsPropertyTest, SandwichMatchesEmbeddedConjugation) {
  for (const Case& c : property_cases()) {
    const RegisterShape shape(c.dims);
    long long block = 1;
    for (const int r : c.regs) block *= shape.dim(r);
    const CMat u = haar_unitary(static_cast<int>(block), rng());
    const CMat big = embed_operator(shape, u, c.regs);
    const CMat rho = random_mixed_matrix(shape, rng());
    CMat conjugated = rho;
    const LocalOpPlan plan(shape, c.regs);
    sandwich_local(plan, u, conjugated);
    EXPECT_DENSITY_NEAR_TOL(conjugated, big * rho * big.adjoint(), 1e-10);
  }
}

TEST_F(LocalOpsPropertyTest, ProjectLocalMatchesEmbeddedProjection) {
  for (const Case& c : property_cases()) {
    const RegisterShape shape(c.dims);
    long long block = 1;
    for (const int r : c.regs) block *= shape.dim(r);
    const CMat effect =
        CMat::projector(haar_state(static_cast<int>(block), rng()));
    const CMat big = embed_operator(shape, effect, c.regs);
    const CMat rho = random_mixed_matrix(shape, rng());

    CMat projected = rho;
    const LocalOpPlan plan(shape, c.regs);
    const double p = project_local(plan, effect, projected);

    CMat expected = big * rho * big.adjoint();
    const double p_ref = expected.trace().real();
    EXPECT_NEAR(p, p_ref, 1e-10);
    ASSERT_GT(p, 1e-6);  // haar projections virtually never annihilate rho
    expected *= Complex{1.0 / p_ref, 0.0};
    EXPECT_DENSITY_NEAR_TOL(projected, expected, 1e-9);
  }
}

TEST_F(LocalOpsPropertyTest, ProjectLocalLeavesStateOnZeroBranch) {
  // Effect orthogonal to the state: |1><1| on a |0> register.
  const RegisterShape shape({2, 2});
  const Density rho = Density::from_pure(PureState(shape));
  CMat m = rho.matrix();
  CMat effect(2, 2);
  effect(1, 1) = Complex{1.0, 0.0};
  const LocalOpPlan plan(shape, {0});
  EXPECT_EQ(project_local(plan, effect, m), 0.0);
  EXPECT_DENSITY_NEAR_TOL(m, rho.matrix(), 1e-15);
}

TEST_F(LocalOpsPropertyTest, DensityEntryPointsMatchEmbeddedReference) {
  // The Density member functions (now matrix-free) against the embedded
  // formulas they replaced, on a permuted non-adjacent register pair.
  const RegisterShape shape({2, 3, 2});
  const std::vector<int> regs{2, 0};
  const CVec psi = haar_state(12, rng());
  const CMat u = haar_unitary(4, rng());
  const CMat big = embed_operator(shape, u, regs);

  Density rho = Density::from_pure(PureState(shape, psi));
  const CMat reference = big * rho.matrix() * big.adjoint();
  rho.apply(u, regs);
  EXPECT_DENSITY_NEAR_TOL(rho.matrix(), reference, 1e-10);

  const CMat effect = CMat::projector(haar_state(4, rng()));
  const CMat big_effect = embed_operator(shape, effect, regs);
  EXPECT_NEAR(rho.expectation(effect, regs),
              (big_effect * rho.matrix()).trace().real(), 1e-10);
}

TEST_F(LocalOpsPropertyTest, AdjointAwareMultipliesMatchMaterializedAdjoint) {
  const CMat a = haar_unitary(5, rng());
  const CMat b = haar_unitary(5, rng());
  EXPECT_DENSITY_NEAR_TOL(a.adjoint_times(b), a.adjoint() * b, 1e-12);
  EXPECT_DENSITY_NEAR_TOL(a.times_adjoint(b), a * b.adjoint(), 1e-12);
}

// ---------------------------------------------------------------------------
// Exact engine: streamed dense assembly and matrix-free mode
// ---------------------------------------------------------------------------

class ExactEngineModesTest : public SeededTest {};

/// One differential case of the exact engine: endpoint states (Haar, or
/// unnormalized with Gaussian entries of mean square norm 1 — the closed
/// forms must equal the effect matrices for any input) on a path of
/// length r.
struct EngineCase {
  CVec hx;
  CVec hy;
  int r;
  bool unnormalized;
  std::string label;
};

/// Largest proof dimension the tests materialize a kDense operator for.
constexpr long long kMaxDenseOracleDim = 1024;

CVec gaussian_state(int d, Rng& rng) {
  CVec v(d);
  const double scale = 1.0 / std::sqrt(2.0 * d);
  for (int i = 0; i < d; ++i) {
    v[i] = Complex{scale * rng.next_gaussian(), scale * rng.next_gaussian()};
  }
  return v;
}

/// d in {2, 3, 5} x r in {2, 3, 4, 5} within the exact-engine cap (proof
/// dimensions 4 .. 5^6; 5^8 exceeds it), each with Haar and with
/// unnormalized endpoints.
std::vector<EngineCase> engine_cases(Rng& rng) {
  std::vector<EngineCase> cases;
  for (const int d : {2, 3, 5}) {
    for (const int r : {2, 3, 4, 5}) {
      if (std::pow(d, 2 * (r - 1)) > dqma::util::kMaxExactDim) {
        continue;
      }
      for (const bool unnormalized : {false, true}) {
        const auto draw = [&] {
          return unnormalized ? gaussian_state(d, rng) : haar_state(d, rng);
        };
        CVec hx = draw();
        CVec hy = draw();
        cases.push_back({std::move(hx), std::move(hy), r, unnormalized,
                         "d=" + std::to_string(d) + " r=" + std::to_string(r) +
                             (unnormalized ? " unnormalized" : " haar")});
      }
    }
  }
  return cases;
}

long long proof_dim(const EngineCase& c) {
  return static_cast<long long>(
      std::llround(std::pow(c.hx.dim(), 2 * (c.r - 1))));
}

/// Product-proof registers for a case: unnormalized along with its
/// endpoints, so the closed forms' norm factors are exercised.
std::vector<CVec> case_registers(const EngineCase& c, Rng& rng) {
  std::vector<CVec> regs;
  for (int k = 0; k < 2 * (c.r - 1); ++k) {
    regs.push_back(c.unnormalized ? gaussian_state(c.hx.dim(), rng)
                                  : haar_state(c.hx.dim(), rng));
  }
  return regs;
}

CVec flatten(const std::vector<CVec>& regs) {
  CVec flat(1);
  flat[0] = Complex{1.0, 0.0};
  for (const CVec& v : regs) {
    flat = flat.tensor(v);
  }
  return flat;
}

TEST_F(ExactEngineModesTest, TransferChainMatchesPatternSum) {
  // d in {2, 3, 5} x r in {2, ..., 6} within the exact-engine cap (d = 5
  // stops at r = 4), real and complex endpoint pairs.
  for (const int d : {2, 3, 5}) {
    for (int r = 2; r <= 6; ++r) {
      if (std::pow(d, 2 * (r - 1)) > dqma::util::kMaxExactDim) {
        continue;
      }
      for (const bool real_pair : {true, false}) {
        EXPECT_LE(dqma::test::transfer_chain_error(d, r, real_pair, rng()),
                  1e-14)
            << "d=" << d << " r=" << r << (real_pair ? " real" : " complex");
      }
    }
  }
}

TEST_F(ExactEngineModesTest, StreamedOperatorMatchesEmbeddedAssembly) {
  // Reassemble the r = 3 acceptance operator exactly as the pre-engine code
  // did — products of embedded effects, averaged over patterns — and
  // compare with the streamed dense assembly.
  const int d = 2;
  const CVec hx = haar_state(d, rng());
  const CVec hy = haar_state(d, rng());
  const ExactEqPathAnalyzer analyzer(hx, hy, 3,
                                     ExactEqPathAnalyzer::Mode::kDense);

  const RegisterShape shape({d, d, d, d});
  CMat first = CMat::identity(d);
  first += CMat::projector(hx);
  first *= Complex{0.5, 0.0};
  CMat swap_effect = dqma::quantum::swap_unitary(d);
  swap_effect += CMat::identity(d * d);
  swap_effect *= Complex{0.5, 0.0};
  const CMat final_effect = CMat::projector(hy);

  const long long dim = shape.total_dim();
  CMat reference(static_cast<int>(dim), static_cast<int>(dim));
  for (int pattern = 0; pattern < 4; ++pattern) {
    const int kept1 = (pattern >> 0) & 1;
    const int kept2 = 2 + ((pattern >> 1) & 1);
    const int sent1 = 1 - kept1;
    const int sent2 = 2 + (1 - ((pattern >> 1) & 1));
    CMat term = embed_operator(shape, first, {kept1});
    term = term * embed_operator(shape, swap_effect, {sent1, kept2});
    term = term * embed_operator(shape, final_effect, {sent2});
    reference += term;
  }
  reference *= Complex{0.25, 0.0};
  EXPECT_DENSITY_NEAR_TOL(analyzer.acceptance_operator(), reference, 1e-12);
}

TEST_F(ExactEngineModesTest, MatrixFreeApplicationMatchesDenseOperator) {
  for (const EngineCase& c : engine_cases(rng())) {
    const ExactEqPathAnalyzer free(c.hx, c.hy, c.r,
                                   ExactEqPathAnalyzer::Mode::kMatrixFree);
    EXPECT_FALSE(free.dense());
    const CVec psi = haar_state(static_cast<int>(free.proof_dim()), rng());
    EXPECT_STATE_NEAR_TOL(
        free.apply_acceptance(psi),
        dqma::test::pattern_sum_acceptance(c.hx, c.hy, c.r, psi), 1e-12)
        << c.label;
  }
}

TEST_F(ExactEngineModesTest, MatrixFreeConditionalMatchesDenseContraction) {
  // M_k(i, j) = <psi_-k, e_i| O |psi_-k, e_j>, contracted from the kDense
  // operator, for every register k of every small case.
  for (const EngineCase& c : engine_cases(rng())) {
    if (proof_dim(c) > kMaxDenseOracleDim) {
      continue;
    }
    const ExactEqPathAnalyzer dense(c.hx, c.hy, c.r,
                                    ExactEqPathAnalyzer::Mode::kDense);
    const ExactEqPathAnalyzer free(c.hx, c.hy, c.r,
                                   ExactEqPathAnalyzer::Mode::kMatrixFree);
    const std::vector<CVec> regs = case_registers(c, rng());
    const int d = c.hx.dim();
    for (int k = 0; k < static_cast<int>(regs.size()); ++k) {
      std::vector<CVec> columns;  // |psi_-k, e_j>, then O |psi_-k, e_j>
      std::vector<CVec> applied;
      for (int j = 0; j < d; ++j) {
        std::vector<CVec> with_basis = regs;
        with_basis[static_cast<std::size_t>(k)] = CVec::basis(d, j);
        columns.push_back(flatten(with_basis));
        applied.push_back(dense.acceptance_operator() * columns.back());
      }
      CMat expected(d, d);
      for (int i = 0; i < d; ++i) {
        for (int j = 0; j < d; ++j) {
          expected(i, j) = columns[static_cast<std::size_t>(i)].dot(
              applied[static_cast<std::size_t>(j)]);
        }
      }
      EXPECT_DENSITY_NEAR_TOL(free.conditional_operator(k, regs), expected,
                              1e-12)
          << c.label << ", register " << k;
      EXPECT_DENSITY_NEAR_TOL(dense.conditional_operator(k, regs), expected,
                              1e-12)
          << c.label << ", register " << k;
    }
  }
}

TEST_F(ExactEngineModesTest, MatrixFreeWorstCaseMatchesDense) {
  const CVec hx = CVec::basis(2, 0);
  CVec hy(2);
  hy[0] = Complex{0.2, 0.0};
  hy[1] = Complex{std::sqrt(1.0 - 0.04), 0.0};
  for (const int r : {2, 3, 4}) {
    const ExactEqPathAnalyzer dense(hx, hy, r,
                                    ExactEqPathAnalyzer::Mode::kDense);
    const ExactEqPathAnalyzer free(hx, hy, r,
                                   ExactEqPathAnalyzer::Mode::kMatrixFree);
    EXPECT_NEAR(free.worst_case_accept(4000), dense.worst_case_accept(4000),
                1e-6);
  }
}

TEST_F(ExactEngineModesTest, MatrixFreeProductAcceptMatchesDenseQuadraticForm) {
  for (const EngineCase& c : engine_cases(rng())) {
    const ExactEqPathAnalyzer free(c.hx, c.hy, c.r,
                                   ExactEqPathAnalyzer::Mode::kMatrixFree);
    const std::vector<CVec> regs = case_registers(c, rng());
    const CVec flat = flatten(regs);
    const CVec applied =
        dqma::test::pattern_sum_acceptance(c.hx, c.hy, c.r, flat);
    const double quadratic = std::max(0.0, flat.dot(applied).real());
    EXPECT_NEAR(free.product_accept(regs), quadratic, 1e-12) << c.label;
    if (proof_dim(c) <= kMaxDenseOracleDim) {
      const ExactEqPathAnalyzer dense(c.hx, c.hy, c.r,
                                      ExactEqPathAnalyzer::Mode::kDense);
      EXPECT_NEAR(dense.product_accept(regs), quadratic, 1e-12) << c.label;
    }
  }
}

TEST_F(ExactEngineModesTest, BestProductAgreesAcrossModes) {
  const CVec hx = CVec::basis(2, 0);
  CVec hy(2);
  hy[0] = Complex{0.3, 0.0};
  hy[1] = Complex{std::sqrt(1.0 - 0.09), 0.0};
  const ExactEqPathAnalyzer dense(hx, hy, 3,
                                  ExactEqPathAnalyzer::Mode::kDense);
  const ExactEqPathAnalyzer free(hx, hy, 3,
                                 ExactEqPathAnalyzer::Mode::kMatrixFree);
  Rng rng_dense(1234);
  Rng rng_free(1234);
  EXPECT_NEAR(dense.best_product_accept(rng_dense, 4, 40),
              free.best_product_accept(rng_free, 4, 40), 1e-8);
}

TEST_F(ExactEngineModesTest, MatrixFreeModeReachesBeyondTheOldDenseCap) {
  // d = 4, r = 5: proof dimension 4^8 = 65536 > 2^14 (the old engine cap).
  const CVec hx = CVec::basis(4, 0);
  const CVec hy = CVec::basis(4, 1);
  const ExactEqPathAnalyzer analyzer(hx, hy, 5,
                                     ExactEqPathAnalyzer::Mode::kMatrixFree);
  EXPECT_EQ(analyzer.proof_dim(), 65536);
  EXPECT_GT(analyzer.proof_dim(), 1 << 14);
  // Orthogonal endpoints, honest all-|h_x> proof: the final measurement
  // never accepts, every swap test does, so acceptance is 0.
  std::vector<CVec> honest(8, hx);
  EXPECT_NEAR(analyzer.product_accept(honest), 0.0, 1e-12);
  // The identical-endpoints analyzer accepts the honest proof with
  // certainty.
  const ExactEqPathAnalyzer complete(hx, hx, 5,
                                     ExactEqPathAnalyzer::Mode::kMatrixFree);
  EXPECT_NEAR(complete.product_accept(honest), 1.0, 1e-12);
}

}  // namespace
