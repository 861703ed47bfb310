// Cross-validation of the three protocol engines (circuit-level Monte-
// Carlo vs coin-DP closed form vs acceptance operator) and the noise
// robustness model.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "dqma/attacks.hpp"
#include "dqma/circuit_sim.hpp"
#include "dqma/eq_path.hpp"
#include "dqma/exact_runner.hpp"
#include "dqma/noise.hpp"
#include "dqma/runner.hpp"
#include "quantum/local_ops.hpp"
#include "quantum/random.hpp"
#include "quantum/unitary.hpp"
#include "support/test_support.hpp"
#include "util/bitstring.hpp"
#include "util/rng.hpp"

namespace {

using dqma::linalg::CMat;
using dqma::linalg::Complex;
using dqma::linalg::CVec;
using dqma::protocol::circuit_eq_path_accept;
using dqma::protocol::EqPathProtocol;
using dqma::protocol::MonteCarloEstimate;
using dqma::protocol::NoiseModel;
using dqma::protocol::noise_threshold;
using dqma::protocol::noisy_attack_accept;
using dqma::protocol::noisy_completeness;
using dqma::protocol::PathProof;
using dqma::protocol::rotation_attack;
using dqma::protocol::uniform_proof;
using dqma::test::chain_swap_overlap_accept;
using dqma::test::haar_states;
using dqma::test::random_unequal_pair;
using dqma::util::Bitstring;
using dqma::util::Rng;

/// Reference for circuit_eq_path_accept: every shot runs Algorithm 1's
/// SWAP-test circuit on a state-vector machine over {ancilla, A, B} —
/// ancilla |0>, H, controlled-SWAP, H, measure — O(inner * d^2) per shot.
/// Draws: a symmetrization coin and an acceptance draw per node up to the
/// first rejection, then the final Bernoulli.
MonteCarloEstimate state_vector_circuit_accept(const CVec& source,
                                               const CVec& target,
                                               const PathProof& proof,
                                               Rng& rng, int samples) {
  const int d = source.dim();
  const dqma::quantum::RegisterShape shape({2, d, d});
  const CMat h = dqma::quantum::hadamard();
  const dqma::quantum::LocalOpPlan h_plan(shape, {0});
  const int dd = d * d;
  CVec amp(2 * dd);
  const int inner = proof.intermediate_nodes();
  const auto run_once = [&]() -> double {
    // `received` travels down the chain; it is always a pure register
    // disjoint from previously tested pairs.
    CVec received = source;
    for (int j = 0; j < inner; ++j) {
      const bool coin = rng.next_bool(0.5);  // symmetrization (step 3)
      const CVec& kept = coin ? proof.reg1[static_cast<std::size_t>(j)]
                              : proof.reg0[static_cast<std::size_t>(j)];
      const CVec& sent = coin ? proof.reg0[static_cast<std::size_t>(j)]
                              : proof.reg1[static_cast<std::size_t>(j)];
      // |0>|received>|kept>: the ancilla-0 block carries the product state.
      for (int a = 0; a < d; ++a) {
        for (int b = 0; b < d; ++b) {
          amp[a * d + b] = received[a] * kept[b];
        }
      }
      for (int x = 0; x < dd; ++x) {
        amp[dd + x] = Complex{0.0, 0.0};
      }
      dqma::quantum::apply_local(h_plan, h, amp);
      // Controlled-SWAP = identity on the ancilla-0 block, SWAP of the two
      // d-registers on the ancilla-1 block.
      for (int a = 0; a < d; ++a) {
        for (int b = a + 1; b < d; ++b) {
          std::swap(amp[dd + a * d + b], amp[dd + b * d + a]);
        }
      }
      dqma::quantum::apply_local(h_plan, h, amp);
      // Pr[ancilla = 0] is the weight of the first block (the ancilla is
      // the most significant register). The tested pair is consumed either
      // way, so no collapse is needed.
      double p0 = 0.0;
      for (int x = 0; x < dd; ++x) {
        p0 += std::norm(amp[x]);
      }
      if (rng.next_double() >= p0) {
        return 0.0;  // this node rejects
      }
      received = sent;
    }
    // v_r: projective measurement {|h_y><h_y|, I - ...}.
    const double p = std::norm(target.dot(received));
    return rng.next_bool(p) ? 1.0 : 0.0;
  };
  return dqma::protocol::estimate(run_once, samples);
}

TEST(CircuitSimTest, HonestRunAcceptsAlways) {
  Rng rng(1);
  const CVec psi = dqma::quantum::haar_state(4, rng);
  const auto est =
      circuit_eq_path_accept(psi, psi, uniform_proof(psi, 3), rng, 300);
  EXPECT_DOUBLE_EQ(est.mean, 1.0);
}

TEST(CircuitSimTest, MatchesChainDpOnRandomProducts) {
  // The independent circuit-level implementation agrees with the closed-
  // form DP within Monte-Carlo error on arbitrary product proofs.
  Rng rng(2);
  for (int trial = 0; trial < 4; ++trial) {
    const CVec source = dqma::quantum::haar_state(4, rng);
    const CVec target = dqma::quantum::haar_state(4, rng);
    PathProof proof;
    const int inner = 2 + trial % 2;
    proof.reg0 = haar_states(4, inner, rng);
    proof.reg1 = haar_states(4, inner, rng);
    const double exact = chain_swap_overlap_accept(source, target, proof);
    const auto est = circuit_eq_path_accept(source, target, proof, rng, 4000);
    EXPECT_NEAR(est.mean, exact, 4.0 * est.half_width_95 + 0.01)
        << "trial " << trial;
  }
}

TEST(CircuitSimTest, MatchesExactEngineOnRotationAttack) {
  Rng rng(3);
  const CVec a = CVec::basis(3, 0);
  const CVec b = CVec::basis(3, 1);
  const int r = 3;
  const auto attack = rotation_attack(a, b, r - 1);
  const double dp = chain_swap_overlap_accept(a, b, attack);
  // Exact engine.
  const dqma::protocol::ExactEqPathAnalyzer exact(a, b, r);
  std::vector<CVec> regs;
  for (int j = 0; j < r - 1; ++j) {
    regs.push_back(attack.reg0[static_cast<std::size_t>(j)]);
    regs.push_back(attack.reg1[static_cast<std::size_t>(j)]);
  }
  EXPECT_NEAR(dp, exact.product_accept(regs), 1e-9);
  // Circuit.
  const auto est = circuit_eq_path_accept(a, b, attack, rng, 4000);
  EXPECT_NEAR(est.mean, dp, 4.0 * est.half_width_95 + 0.01);
}

TEST(CircuitSimTest, BatchedReplaysStateVectorDrawSequence) {
  // circuit_eq_path_accept precomputes the coin-conditioned closed-form
  // test probabilities but draws in the reference circuit's order; from the
  // same seed both therefore walk the same sample paths, and the means
  // agree to numerical noise of the per-test probabilities (the probability
  // of a uniform draw landing inside that window is ~1e-13 per draw).
  Rng rng(5);
  for (int trial = 0; trial < 3; ++trial) {
    const CVec source = dqma::quantum::haar_state(5, rng);
    const CVec target = dqma::quantum::haar_state(5, rng);
    PathProof proof;
    proof.reg0 = haar_states(5, 3, rng);
    proof.reg1 = haar_states(5, 3, rng);
    Rng rng_sv(1000 + trial);
    Rng rng_batched(1000 + trial);
    const auto sv =
        state_vector_circuit_accept(source, target, proof, rng_sv, 2000);
    const auto batched =
        circuit_eq_path_accept(source, target, proof, rng_batched, 2000);
    EXPECT_NEAR(sv.mean, batched.mean, 1e-9) << "trial " << trial;
    EXPECT_NEAR(sv.half_width_95, batched.half_width_95, 1e-9);
    // Both consumed the same number of draws: the streams stay in lockstep.
    EXPECT_EQ(rng_sv.next_u64(), rng_batched.next_u64());
  }
}

TEST(CircuitSimTest, ReferenceHonestRunAcceptsAlways) {
  Rng rng(6);
  const CVec psi = dqma::quantum::haar_state(4, rng);
  const auto est =
      state_vector_circuit_accept(psi, psi, uniform_proof(psi, 3), rng, 300);
  EXPECT_DOUBLE_EQ(est.mean, 1.0);
}

// --- noise robustness ---------------------------------------------------------

TEST(NoiseTest, ZeroNoiseMatchesNoiselessProtocol) {
  Rng rng(4);
  const EqPathProtocol protocol(12, 4, 0.3, 10);
  const auto [x, y] = random_unequal_pair(12, rng);
  EXPECT_NEAR(noisy_completeness(protocol, x, NoiseModel()),
              protocol.completeness(x), 1e-12);
  EXPECT_NEAR(noisy_attack_accept(protocol, x, y, NoiseModel::uniform(0.0)),
              protocol.best_attack_accept(x, y), 1e-9);
}

TEST(NoiseTest, CompletenessDecaysMonotonically) {
  Rng rng(5);
  const EqPathProtocol protocol(12, 4, 0.3, 20);
  const Bitstring x = Bitstring::random(12, rng);
  double prev = 1.0;
  for (const double p : {0.0, 0.001, 0.01, 0.1, 0.5}) {
    const double c = noisy_completeness(protocol, x, NoiseModel::uniform(p));
    EXPECT_LE(c, prev + 1e-12);
    prev = c;
  }
  // Full depolarization: every test is essentially a coin flip.
  EXPECT_LT(noisy_completeness(protocol, x, NoiseModel::uniform(1.0)), 1e-3);
}

TEST(NoiseTest, CompletenessClosedFormAtHonestProof) {
  // Honest proof: every SWAP test has swap(a,b) = 1, so its noisy value is
  // (1-p) + p (1/2 + 1/2d); the final projector gives (1-p) + p/d.
  Rng rng(6);
  const int r = 5;
  const int reps = 3;
  const EqPathProtocol protocol(12, r, 0.3, reps);
  const Bitstring x = Bitstring::random(12, rng);
  const double p = 0.07;
  const double d = protocol.scheme().dim();
  const double per_swap = (1.0 - p) + p * (0.5 + 0.5 / d);
  const double per_final = (1.0 - p) + p / d;
  const double expected =
      std::pow(std::pow(per_swap, r - 1) * per_final, reps);
  EXPECT_NEAR(noisy_completeness(protocol, x, NoiseModel::uniform(p)),
              expected, 1e-9);
}

TEST(NoiseTest, NoiseDampsTheAttackToo) {
  // Depolarization pulls every test statistic toward its mixed baseline:
  // the rotation attack's near-1 per-test acceptances decay as well, so
  // the soundness side is robust; completeness is the fragile side.
  Rng rng(7);
  const EqPathProtocol protocol(12, 4, 0.3, 20);
  const auto [x, y] = random_unequal_pair(12, rng);
  EXPECT_LT(noisy_attack_accept(protocol, x, y, NoiseModel::uniform(0.3)),
            noisy_attack_accept(protocol, x, y, NoiseModel::uniform(0.0)));
}

TEST(NoiseTest, ThresholdIsPositiveAndBelowBreakdown) {
  Rng rng(8);
  const int r = 4;
  // 64 repetitions: enough for soundness 1/3 at r = 4 (ablation D4) while
  // keeping the completeness decay, and hence the threshold, measurable.
  const EqPathProtocol protocol(12, r, 0.3, 64);
  const auto [x, y] = random_unequal_pair(12, rng);
  const double threshold = noise_threshold(protocol, x, y, 1e-6);
  EXPECT_GT(threshold, 0.0);
  EXPECT_LT(threshold, 0.5);
  // At the threshold the protocol still separates; just above it doesn't.
  EXPECT_GE(noisy_completeness(protocol, x, NoiseModel::uniform(threshold)),
            2.0 / 3.0 - 1e-6);
  EXPECT_LE(noisy_attack_accept(protocol, x, y, NoiseModel::uniform(threshold)),
            1.0 / 3.0 + 1e-6);
}

TEST(NoiseTest, MoreRepetitionsLowerTheNoiseTolerance) {
  // Each repetition multiplies the noisy completeness, so the tolerable
  // per-channel noise shrinks as repetitions grow: the robustness price of
  // the soundness amplification.
  Rng rng(9);
  const auto [x, y] = random_unequal_pair(12, rng);
  const EqPathProtocol few(12, 4, 0.3, 100);
  const EqPathProtocol many(12, 4, 0.3, 1000);
  EXPECT_GT(noise_threshold(few, x, y), noise_threshold(many, x, y));
}

TEST(NoiseTest, PerLinkModelWithEqualRatesMatchesUniform) {
  // A per-link table holding one constant rate is the uniform model: the
  // two evaluations run the identical damped chain DP, so the acceptance
  // values agree bit for bit.
  Rng rng(10);
  const int r = 4;
  const EqPathProtocol protocol(12, r, 0.3, 16);
  const auto [x, y] = random_unequal_pair(12, rng);
  const double p = 0.03;
  const NoiseModel per_link =
      NoiseModel::per_link(std::vector<double>(static_cast<std::size_t>(r), p));
  const NoiseModel uniform = NoiseModel::uniform(p);
  EXPECT_EQ(noisy_completeness(protocol, x, per_link),
            noisy_completeness(protocol, x, uniform));
  EXPECT_EQ(noisy_attack_accept(protocol, x, y, per_link),
            noisy_attack_accept(protocol, x, y, uniform));
}

TEST(NoiseTest, SingleNoisyLinkDampsLessThanAllNoisyLinks) {
  // Heterogeneity matters: noise concentrated on one link hurts the honest
  // prover strictly less than the same rate on every link, and strictly
  // more than no noise at all.
  Rng rng(11);
  const int r = 4;
  const EqPathProtocol protocol(12, r, 0.3, 16);
  const Bitstring x = Bitstring::random(12, rng);
  std::vector<double> rates(static_cast<std::size_t>(r), 0.0);
  rates[1] = 0.2;
  const double one_link =
      noisy_completeness(protocol, x, NoiseModel::per_link(rates));
  const double all_links =
      noisy_completeness(protocol, x, NoiseModel::uniform(0.2));
  const double clean = noisy_completeness(protocol, x, NoiseModel());
  EXPECT_LT(one_link, clean);
  EXPECT_GT(one_link, all_links);
}

TEST(NoiseTest, PerLinkModelValidatesCoverageAndRange) {
  Rng rng(12);
  const EqPathProtocol protocol(12, 4, 0.3, 4);
  const Bitstring x = Bitstring::random(12, rng);
  // Too few links for r = 4 must fail loudly, not read out of range.
  EXPECT_THROW(noisy_completeness(protocol, x,
                                  NoiseModel::per_link({0.1, 0.1})),
               std::exception);
  EXPECT_THROW(NoiseModel::per_link({0.5, 1.5}), std::exception);
  EXPECT_THROW(NoiseModel::uniform(-0.1), std::exception);
}

TEST(NoiseTest, ScaledProfileThresholdMatchesUniformSearch) {
  // noise_threshold's default profile is the unit uniform model, so the
  // returned scale IS the tolerable uniform rate; an explicit heterogeneous
  // profile searches along its own ray instead.
  Rng rng(13);
  const EqPathProtocol protocol(12, 4, 0.3, 64);
  const auto [x, y] = random_unequal_pair(12, rng);
  const double uniform_threshold = noise_threshold(protocol, x, y, 1e-4);
  EXPECT_EQ(uniform_threshold,
            noise_threshold(protocol, x, y, 1e-4, NoiseModel::uniform(1.0)));
  // A profile that only stresses half the links tolerates a larger scale.
  std::vector<double> rates(4, 0.0);
  rates[0] = 1.0;
  rates[1] = 1.0;
  const double half_threshold =
      noise_threshold(protocol, x, y, 1e-4, NoiseModel::per_link(rates));
  EXPECT_GT(half_threshold, uniform_threshold);
}

}  // namespace
