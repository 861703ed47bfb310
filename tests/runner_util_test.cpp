// Tests for the execution engines (chain DP, Monte-Carlo estimation) and
// the util layer (RNG, Table).
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "dqma/attacks.hpp"
#include "dqma/model.hpp"
#include "dqma/runner.hpp"
#include "quantum/random.hpp"
#include "support/test_support.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using dqma::linalg::CVec;
using dqma::protocol::chain_accept;
using dqma::protocol::estimate;
using dqma::protocol::fold_repetitions;
using dqma::protocol::PathProof;
using dqma::protocol::uniform_proof;
using dqma::test::chain_swap_overlap_accept;
using dqma::test::haar_states;
using dqma::test::overlap_final_test;
using dqma::test::swap_pair_test;
using dqma::util::Rng;
using dqma::util::Table;

TEST(ChainAcceptTest, ZeroIntermediateNodesIsFinalTestOnly) {
  Rng rng(1);
  const CVec src = dqma::quantum::haar_state(4, rng);
  const double accept =
      chain_accept(src, PathProof{}, swap_pair_test(),
                   [](const CVec& v) { return std::norm(v[0]); });
  EXPECT_NEAR(accept, std::norm(src[0]), 1e-12);
}

TEST(ChainAcceptTest, AllIdenticalRegistersAcceptFully) {
  Rng rng(2);
  const CVec psi = dqma::quantum::haar_state(5, rng);
  const double accept =
      chain_swap_overlap_accept(psi, psi, uniform_proof(psi, 6));
  EXPECT_NEAR(accept, 1.0, 1e-12);
}

TEST(ChainAcceptTest, ResultIsAProbability) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const int inner = 1 + static_cast<int>(rng.next_below(5));
    const CVec src = dqma::quantum::haar_state(3, rng);
    const CVec target = dqma::quantum::haar_state(3, rng);
    PathProof proof;
    proof.reg0 = haar_states(3, inner, rng);
    proof.reg1 = haar_states(3, inner, rng);
    EXPECT_PROBABILITY(chain_swap_overlap_accept(src, target, proof));
  }
}

TEST(ChainAcceptTest, SymmetrizationAveragesTheTwoRegisters) {
  // With one intermediate node, the DP must average the two coin branches
  // explicitly: accept = 1/2 [ t(src, r0) f(r1) + t(src, r1) f(r0) ].
  Rng rng(4);
  const CVec src = dqma::quantum::haar_state(3, rng);
  const CVec r0 = dqma::quantum::haar_state(3, rng);
  const CVec r1 = dqma::quantum::haar_state(3, rng);
  const CVec target = dqma::quantum::haar_state(3, rng);
  PathProof proof;
  proof.reg0.push_back(r0);
  proof.reg1.push_back(r1);
  const auto pair_test = swap_pair_test();
  const auto final_test = overlap_final_test(target);
  const double expected = 0.5 * (pair_test(src, r0) * final_test(r1) +
                                 pair_test(src, r1) * final_test(r0));
  EXPECT_NEAR(chain_swap_overlap_accept(src, target, proof), expected, 1e-12);
}

TEST(FoldRepetitionsTest, EqualsTheKCopyProductBitForBit) {
  // k identical repetitions multiply left to right; the fold must return
  // exactly that product (std::pow may differ in the last ulp).
  Rng rng(5);
  const CVec src = dqma::quantum::haar_state(3, rng);
  const CVec target = dqma::quantum::haar_state(3, rng);
  PathProof proof;
  proof.reg0.push_back(dqma::quantum::haar_state(3, rng));
  proof.reg1.push_back(dqma::quantum::haar_state(3, rng));
  const double one = chain_swap_overlap_accept(src, target, proof);
  for (const int reps : {1, 2, 3, 17, 2592}) {
    double product = 1.0;
    for (int k = 0; k < reps; ++k) {
      product *= one;
    }
    EXPECT_EQ(fold_repetitions(one, reps), product) << "reps = " << reps;
  }
  EXPECT_EQ(fold_repetitions(one, 0), 1.0);
  EXPECT_EQ(fold_repetitions(0.5, 3), 0.125);
}

TEST(FoldRepetitionsTest, StopsAtAnExactZero) {
  // 1e-200 squared underflows to 0; every later factor keeps it 0.
  EXPECT_EQ(fold_repetitions(1e-200, 2), 0.0);
  EXPECT_EQ(fold_repetitions(1e-200, 1000000), 0.0);
  EXPECT_EQ(fold_repetitions(0.0, 5), 0.0);
  EXPECT_EQ(fold_repetitions(1.0, 1000000), 1.0);
}

TEST(EstimateTest, MeanAndConfidenceInterval) {
  Rng rng(6);
  const auto est = estimate([&]() { return rng.next_bool(0.3) ? 1.0 : 0.0; },
                            20000);
  EXPECT_NEAR(est.mean, 0.3, 0.02);
  EXPECT_LT(est.half_width_95, 0.01);
  EXPECT_EQ(est.samples, 20000);
}

TEST(EstimateTest, DeterministicSampleHasZeroWidth) {
  const auto est = estimate([]() { return 0.75; }, 100);
  EXPECT_DOUBLE_EQ(est.mean, 0.75);
  EXPECT_NEAR(est.half_width_95, 0.0, 1e-9);
}

// --- RNG ----------------------------------------------------------------------
// (Seed-determinism guarantees live in determinism_test.cpp; these cover
// the distributional properties.)

TEST(EstimateTest, VarianceIsStableForLargeOffsets) {
  // The one-pass Welford accumulation must not cancel catastrophically:
  // samples 1e9 and 1e9 + 1 have exact population variance 0.25, which the
  // former sum_sq/count - mean^2 form destroys entirely at this magnitude
  // (1e18 - 1e18 in doubles).
  int calls = 0;
  const auto est = estimate(
      [&calls]() { return 1.0e9 + static_cast<double>(calls++ % 2); }, 1000);
  EXPECT_DOUBLE_EQ(est.mean, 1.0e9 + 0.5);
  // half_width = 1.96 * sqrt(0.25 / 1000)
  EXPECT_NEAR(est.half_width_95, 1.96 * std::sqrt(0.25 / 1000.0), 1e-12);
}

TEST(EstimateTest, RunningStatMatchesEstimate) {
  // The batched Monte-Carlo paths accumulate through RunningStat directly;
  // identical samples must yield identical statistics either way.
  Rng rng_a(99);
  Rng rng_b(99);
  const auto est = estimate([&rng_a]() { return rng_a.next_double(); }, 500);
  dqma::protocol::RunningStat stat;
  for (int i = 0; i < 500; ++i) {
    stat.add(rng_b.next_double());
  }
  const auto direct = stat.finalize();
  EXPECT_EQ(est.mean, direct.mean);
  EXPECT_EQ(est.half_width_95, direct.half_width_95);
  EXPECT_EQ(est.samples, direct.samples);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent(7);
  Rng child = parent.split();
  std::set<std::uint64_t> values;
  for (int i = 0; i < 64; ++i) {
    values.insert(parent.next_u64());
    values.insert(child.next_u64());
  }
  EXPECT_EQ(values.size(), 128u);
}

TEST(RngTest, NextBelowIsInRangeAndRoughlyUniform) {
  Rng rng(8);
  std::vector<int> counts(10, 0);
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) {
    const auto v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    counts[static_cast<std::size_t>(v)]++;
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / draws, 0.1, 0.01);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(9);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / draws, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / draws, 1.0, 0.03);
}

TEST(RngTest, NextIntBounds) {
  Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

// --- Table ----------------------------------------------------------------------

TEST(TableTest, AlignsColumnsAndSeparators) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "12345"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2);
}

TEST(TableTest, RejectsMismatchedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

}  // namespace
