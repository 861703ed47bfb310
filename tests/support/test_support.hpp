// Shared test-support layer for the dqma GoogleTest suites.
//
// Centralizes what every suite used to re-implement locally:
//  * seeded-RNG fixtures (bit-for-bit reproducible across runs and
//    translation units, per DESIGN.md Sec. 5);
//  * state / density comparison matchers whose default tolerances come
//    from src/util/tolerance.hpp instead of per-test literals;
//  * protocol-run harness helpers wrapping the chain DP engine
//    (dqma/runner.hpp) and the exact acceptance-operator engine
//    (dqma/exact_runner.hpp).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "dqma/exact_runner.hpp"
#include "dqma/model.hpp"
#include "dqma/runner.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"
#include "linalg/vector.hpp"
#include "quantum/density.hpp"
#include "util/bitstring.hpp"
#include "util/rng.hpp"
#include "util/tolerance.hpp"

namespace dqma::test {

using linalg::CMat;
using linalg::CVec;
using util::Bitstring;
using util::Rng;

/// Default seed of SeededTest fixtures. Every fixture-based test draws from
/// the same deterministic stream unless it reseeds explicitly.
inline constexpr std::uint64_t kTestSeed = 0x5eed0d09a0ULL;

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// Base fixture owning a deterministically seeded Rng. Use `rng()` for the
/// shared stream or `fresh_rng(k)` for an independent stream keyed by k.
class SeededTest : public ::testing::Test {
 protected:
  Rng& rng() { return rng_; }

  /// Independent generator for test-local substreams; the same k always
  /// yields the same stream.
  static Rng fresh_rng(std::uint64_t k) { return Rng(kTestSeed ^ k); }

 private:
  Rng rng_{kTestSeed};
};

// ---------------------------------------------------------------------------
// Comparison matchers (predicate-formatters; use via the macros below)
// ---------------------------------------------------------------------------

/// Element-wise comparison of two state vectors: max_i |a_i - b_i| <= tol.
::testing::AssertionResult StateNearPred(const char* a_expr, const char* b_expr,
                                         const char* tol_expr, const CVec& a,
                                         const CVec& b, double tol);

/// Element-wise comparison of two operators / density matrices.
::testing::AssertionResult DensityNearPred(const char* a_expr,
                                           const char* b_expr,
                                           const char* tol_expr, const CMat& a,
                                           const CMat& b, double tol);
::testing::AssertionResult DensityNearPred(const char* a_expr,
                                           const char* b_expr,
                                           const char* tol_expr,
                                           const quantum::Density& a,
                                           const quantum::Density& b,
                                           double tol);

/// ||v|| == 1 within tol.
::testing::AssertionResult NormalizedPred(const char* v_expr,
                                          const char* tol_expr, const CVec& v,
                                          double tol);

/// p in [0 - tol, 1 + tol].
::testing::AssertionResult ProbabilityPred(const char* p_expr, double p);

}  // namespace dqma::test

/// State comparison at an explicit tolerance.
#define EXPECT_STATE_NEAR_TOL(a, b, tol) \
  EXPECT_PRED_FORMAT3(::dqma::test::StateNearPred, a, b, tol)
/// State comparison at the library-wide algebraic tolerance.
#define EXPECT_STATE_NEAR(a, b) \
  EXPECT_STATE_NEAR_TOL(a, b, ::dqma::util::kAlgebraTol)

/// Density / operator comparison at an explicit tolerance.
#define EXPECT_DENSITY_NEAR_TOL(a, b, tol) \
  EXPECT_PRED_FORMAT3(::dqma::test::DensityNearPred, a, b, tol)
/// Density / operator comparison at the spectral tolerance (eigensolver
/// outputs accumulate O(dim) rounding).
#define EXPECT_DENSITY_NEAR(a, b) \
  EXPECT_DENSITY_NEAR_TOL(a, b, ::dqma::util::kSpectralTol)

/// Unit-norm check at the algebraic tolerance.
#define EXPECT_NORMALIZED(v) \
  EXPECT_PRED_FORMAT2(::dqma::test::NormalizedPred, v, ::dqma::util::kAlgebraTol)

/// Probability-range check (p in [0, 1] up to the algebraic tolerance).
#define EXPECT_PROBABILITY(p) \
  EXPECT_PRED_FORMAT1(::dqma::test::ProbabilityPred, p)

namespace dqma::test {

// ---------------------------------------------------------------------------
// Input generation
// ---------------------------------------------------------------------------

/// Two uniformly random n-bit strings guaranteed distinct (a no-instance of
/// EQ). Replaces the `if (x == y) y.flip(i)` pattern.
std::pair<Bitstring, Bitstring> random_unequal_pair(int n, Rng& rng);

/// A uniformly random bitstring of x's length guaranteed distinct from x.
Bitstring random_unequal_to(const Bitstring& x, Rng& rng);

/// `count` Haar-random states of dimension `dim` from `rng`.
std::vector<CVec> haar_states(int dim, int count, Rng& rng);

/// Every SIMD dispatch level this host can execute, scalar first — the
/// axis kernel tests iterate under linalg::simd::LevelScope.
std::vector<linalg::simd::Level> supported_simd_levels();

// ---------------------------------------------------------------------------
// Protocol-run harness: chain DP engine (dqma/runner.hpp)
// ---------------------------------------------------------------------------

/// The SWAP-test pair test used by every path protocol's intermediate node.
std::function<double(const CVec&, const CVec&)> swap_pair_test();

/// Final test of node v_r: projective overlap with `target` (|<target|v>|^2).
std::function<double(const CVec&)> overlap_final_test(CVec target);

/// One repetition of the symmetrize-and-forward chain with the standard
/// SWAP pair test and overlap final test — the run shape shared by the
/// EQ-path DP cross-validation tests.
double chain_swap_overlap_accept(const CVec& source, const CVec& target,
                                 const protocol::PathProof& proof);

// ---------------------------------------------------------------------------
// Protocol-run harness: exact acceptance-operator engine
// ---------------------------------------------------------------------------

/// Worst-case (entangled-prover) acceptance of one Algorithm 3 repetition
/// with endpoint states hx, hy on a path of length r.
double exact_worst_case_accept(const CVec& hx, const CVec& hy, int r);

/// Best product-prover acceptance found by alternating optimization, with a
/// deterministic internal seed.
double exact_best_product_accept(const CVec& hx, const CVec& hy, int r,
                                 int restarts = 8);

/// Reference forms of the exact engine's outputs for one Algorithm 3
/// repetition: every one of the 2^{r-1} coin patterns' effects applied in
/// turn and the terms averaged, the form the engine's transfer chain
/// replaced. Registers are ordered R_{1,0}, R_{1,1}, ..., R_{r-1,1};
/// pattern bit j - 1 keeps R_{j,bit} and sends the other one.
/// O psi.
CVec pattern_sum_acceptance(const CVec& hx, const CVec& hy, int r,
                            const CVec& psi);
/// <w| O |w> for the product proof w = regs[0] x regs[1] x ...
double pattern_sum_product_accept(const CVec& hx, const CVec& hy, int r,
                                  const std::vector<CVec>& regs);
/// Register k's conditional operator <w_-k, e_i| O |w_-k, e_j>.
CMat pattern_sum_conditional(const CVec& hx, const CVec& hy, int r, int k,
                             const std::vector<CVec>& regs);

/// The engine's transfer chain against the pattern sum at one (d, r): the
/// matvec on a Haar probe, a Haar product proof's acceptance and every
/// register's conditional block, with real (`real_pair`) or complex Haar
/// endpoints. Returns the largest relative error (max |delta| / max |ref|
/// per output).
double transfer_chain_error(int d, int r, bool real_pair, Rng& rng);

// ---------------------------------------------------------------------------
// Cross-translation-unit determinism reference
// ---------------------------------------------------------------------------

/// The first `count` raw draws of Rng(seed), generated inside the support
/// translation unit. Tests compare these against locally generated streams
/// to pin down that seeding is deterministic across translation units.
std::vector<std::uint64_t> reference_stream(std::uint64_t seed, int count);

/// haar_state(dim, Rng(seed)) generated inside the support translation unit.
CVec reference_haar_state(int dim, std::uint64_t seed);

}  // namespace dqma::test
