// Bit-identity of the folded repetition paths. Every protocol entry point
// that evaluates one distinct repetition and folds it k times
// (completeness, noisy completeness, the ForallF attack's one table per
// tree, noise_threshold's collected chains) must equal the general k-copy
// path exactly — EXPECT_EQ, not EXPECT_NEAR. The ForallF estimates and the
// noise thresholds are also pinned to values recorded before the folding
// existed (hex-float literals, exact).
#include <gtest/gtest.h>

#include <vector>

#include "comm/eq_protocol.hpp"
#include "comm/lsd.hpp"
#include "dqma/attacks.hpp"
#include "dqma/eq_graph.hpp"
#include "dqma/eq_path.hpp"
#include "dqma/forall_f.hpp"
#include "dqma/from_qma_cc.hpp"
#include "dqma/gt.hpp"
#include "dqma/hamming.hpp"
#include "dqma/noise.hpp"
#include "dqma/relay_eq.hpp"
#include "dqma/runner.hpp"
#include "network/graph.hpp"
#include "quantum/random.hpp"
#include "support/test_support.hpp"
#include "util/bitstring.hpp"
#include "util/rng.hpp"

namespace {

using dqma::comm::EqOneWayProtocol;
using dqma::comm::OneWayProtocol;
using dqma::linalg::CVec;
using dqma::network::Graph;
using dqma::protocol::EqGraphProtocol;
using dqma::protocol::EqPathMode;
using dqma::protocol::EqPathProtocol;
using dqma::protocol::ForallFProtocol;
using dqma::protocol::fold_repetitions;
using dqma::protocol::GtProtocol;
using dqma::protocol::HammingGraphProtocol;
using dqma::protocol::MonteCarloEstimate;
using dqma::protocol::NoiseModel;
using dqma::protocol::QmaCcPathProtocol;
using dqma::protocol::RelayEqProtocol;
using dqma::test::random_unequal_to;
using dqma::util::Bitstring;
using dqma::util::Rng;

// --- chain protocols ---------------------------------------------------------

TEST(FoldedCompletenessTest, EqPathEveryModeEqualsKCopyPath) {
  Rng rng(1);
  for (const EqPathMode mode :
       {EqPathMode::kSymmetrized, EqPathMode::kNoSymmetrization,
        EqPathMode::kFgnpForwarding}) {
    const EqPathProtocol protocol(16, 5, 0.3, 97, mode);
    const Bitstring x = Bitstring::random(16, rng);
    const Bitstring y = random_unequal_to(x, rng);
    EXPECT_EQ(protocol.completeness(x),
              protocol.accept_probability(x, x, protocol.honest_proof(x)));
    // The fold itself on a per-repetition value far below 1.
    const auto attack = dqma::protocol::rotation_attack(
        protocol.scheme().state(x), protocol.scheme().state(y), 4);
    const double single = protocol.single_rep_accept(x, y, attack);
    ASSERT_LT(single, 1.0);
    EXPECT_EQ(fold_repetitions(single, protocol.reps()),
              protocol.accept_probability(
                  x, y, dqma::protocol::replicate(attack, protocol.reps())));
  }
}

TEST(FoldedCompletenessTest, EqGraphPathAndStarNoiselessAndNoisy) {
  Rng rng(2);
  const EqGraphProtocol path(Graph::path(4), {0, 4}, 16, 0.3, 60);
  const EqGraphProtocol star(Graph::star(3), {1, 2, 3}, 16, 0.3, 60);
  for (const EqGraphProtocol* protocol : {&path, &star}) {
    const Bitstring x = Bitstring::random(16, rng);
    const std::vector<Bitstring> inputs(
        static_cast<std::size_t>(protocol->terminal_count()), x);
    const auto honest = protocol->honest_proof(x);
    EXPECT_EQ(protocol->completeness(x),
              protocol->accept_probability(inputs, honest));

    std::vector<double> rates;
    for (int v = 0; v < protocol->tree().size(); ++v) {
      rates.push_back(0.01 * (v % 3));
    }
    for (const NoiseModel& noise :
         {NoiseModel::uniform(0.02), NoiseModel::per_link(rates)}) {
      const double folded = protocol->noisy_completeness(x, noise);
      EXPECT_LT(folded, 1.0);
      EXPECT_EQ(folded,
                protocol->noisy_accept_probability(inputs, honest, noise));
    }
  }
}

TEST(FoldedCompletenessTest, GtBelowOneEqualsKCopyPath) {
  // The auction_gt serve fixture's winning bid: per-repetition acceptance
  // just below 1, so the fold order matters.
  const GtProtocol protocol(16, 3, 0.3, 12);
  const Bitstring x = Bitstring::from_integer(52000, 16);
  const Bitstring y = Bitstring::from_integer(48000, 16);
  const double folded = protocol.completeness(x, y);
  EXPECT_EQ(folded, 0.9999999999999947);
  EXPECT_EQ(folded, protocol.accept_probability(
                        x, y, protocol.honest_strategy(x, y)));
}

TEST(FoldedCompletenessTest, RelayEqualsKCopyPath) {
  Rng rng(3);
  const RelayEqProtocol protocol(16, 9, 0.3, 3, 10);
  const Bitstring x = Bitstring::random(16, rng);
  EXPECT_EQ(protocol.completeness(x),
            protocol.accept_probability(x, x, protocol.honest_strategy(x)));
}

TEST(FoldedCompletenessTest, QmaCcBelowOneEqualsKCopyPath) {
  Rng rng(9);
  const auto lsd = dqma::comm::LsdInstance::close_pair(24, 3, 0.05, rng);
  const QmaCcPathProtocol protocol(dqma::comm::lsd_qma_instance(lsd), 3, 5);
  const double folded = protocol.completeness();
  EXPECT_LT(folded, 1.0);
  EXPECT_EQ(folded, protocol.accept_probability(protocol.honest_strategy()));
}

TEST(FoldedCompletenessTest, NoisyEqPathEqualsKCopyPathIncludingUnderflow) {
  Rng rng(4);
  const EqPathProtocol protocol(16, 8, 0.3, EqPathProtocol::paper_reps(8));
  const Bitstring x = Bitstring::random(16, rng);
  const auto honest = protocol.honest_proof(x);
  // 1e-5 keeps the product well inside (0, 1); 0.5 underflows to exactly 0
  // part-way through the k = 2592 repetitions (the early break).
  for (const double rate : {1e-5, 0.5}) {
    const NoiseModel noise = NoiseModel::uniform(rate);
    const double folded = noisy_completeness(protocol, x, noise);
    EXPECT_EQ(folded,
              noisy_accept_probability(protocol, x, x, honest, noise));
    if (rate == 0.5) {
      EXPECT_EQ(folded, 0.0);
    } else {
      EXPECT_GT(folded, 0.0);
      EXPECT_LT(folded, 1.0);
    }
  }
}

// --- noise threshold ---------------------------------------------------------

/// The bisection over the general k-copy evaluators, as noise_threshold
/// computed it before the chains were collected once.
double reference_threshold(const EqPathProtocol& protocol, const Bitstring& x,
                           const Bitstring& y, double tol,
                           const NoiseModel& profile) {
  const auto honest = protocol.honest_proof(x);
  const auto separated = [&](double scale) {
    const NoiseModel scaled = profile.scaled(scale);
    return noisy_accept_probability(protocol, x, x, honest, scaled) >=
               2.0 / 3.0 &&
           noisy_attack_accept(protocol, x, y, scaled) <= 1.0 / 3.0;
  };
  if (!separated(0.0)) {
    return 0.0;
  }
  double lo = 0.0;
  double hi = 1.0;
  while (hi - lo > tol) {
    const double mid = 0.5 * (lo + hi);
    (separated(mid) ? lo : hi) = mid;
  }
  return lo;
}

TEST(FoldedNoiseThresholdTest, PinnedAndEqualToPerStepBisection) {
  // The table_sweep noise_threshold job shape: n = 16, k = 4r, tol 1e-6.
  struct Case {
    int r;
    double pinned;
  };
  const Case cases[] = {{4, 0x1.4bap-7}, {6, 0x1.3c7p-8}, {8, 0x1.716p-9}};
  Rng rng(5);
  for (const Case& c : cases) {
    const EqPathProtocol protocol(16, c.r, 0.3, 4 * c.r);
    const Bitstring x = Bitstring::random(16, rng);
    const Bitstring y = random_unequal_to(x, rng);
    const NoiseModel unit = NoiseModel::uniform(1.0);
    const double threshold = noise_threshold(protocol, x, y, 1e-6, unit);
    EXPECT_EQ(threshold, c.pinned) << "r = " << c.r << ": " << std::hexfloat
                                   << threshold;
    EXPECT_EQ(threshold, reference_threshold(protocol, x, y, 1e-6, unit));
  }
  // A heterogeneous per-link profile.
  const EqPathProtocol protocol(16, 5, 0.3, 20);
  const Bitstring x = Bitstring::random(16, rng);
  const Bitstring y = random_unequal_to(x, rng);
  const NoiseModel profile = NoiseModel::per_link({0.2, 1.0, 0.5, 0.0, 0.7});
  EXPECT_EQ(noise_threshold(protocol, x, y, 1e-6, profile),
            reference_threshold(protocol, x, y, 1e-6, profile));
}

TEST(FoldedNoiseThresholdTest, DampedValuesPinned) {
  // The damped final test must round as (1-p)*amp*amp + p/d, the per-step
  // evaluation's order; these values were recorded from it.
  Rng rng(8);
  const EqPathProtocol protocol(16, 4, 0.3, 16);
  const Bitstring x = Bitstring::random(16, rng);
  const Bitstring y = random_unequal_to(x, rng);
  const NoiseModel uniform = NoiseModel::uniform(0.01);
  const NoiseModel per_link = NoiseModel::per_link({0.03, 0.0, 0.01, 0.02});
  const double values[] = {noisy_completeness(protocol, x, uniform),
                           noisy_attack_accept(protocol, x, y, uniform),
                           noisy_completeness(protocol, x, per_link),
                           noisy_attack_accept(protocol, x, y, per_link)};
  const double pins[] = {0x1.56fdad848b5ecp-1, 0x1.f43d0b18790dep-10,
                         0x1.0ce5f45b6d5ebp-1, 0x1.8aa5297092ab3p-10};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(values[i], pins[i]) << i << ": " << std::hexfloat << values[i];
  }
}

// --- forall_t f --------------------------------------------------------------

/// best_attack_accept's proof for the violated pair (j, k), built as k
/// identical copies per tree: messages interpolate from psi(x_j) to
/// psi(x_k) along T_j's root-to-leaf path, every other tree honest.
ForallFProtocol::Proof attack_proof(const ForallFProtocol& protocol,
                                    const OneWayProtocol& f,
                                    const std::vector<int>& terminals,
                                    const std::vector<Bitstring>& inputs,
                                    int j, int k) {
  ForallFProtocol::Proof proof = protocol.honest_proof(inputs);
  const auto& tree = protocol.tree_for(j);
  const int leaf =
      tree.leaf_of_terminal(terminals[static_cast<std::size_t>(k)]);
  const auto path = tree.path_between(tree.root(), leaf);
  const auto source = f.honest_message(inputs[static_cast<std::size_t>(j)]);
  const auto target = f.honest_message(inputs[static_cast<std::size_t>(k)]);
  const int inner = static_cast<int>(path.size()) - 2;
  for (int p = 1; p <= inner; ++p) {
    const int v = path[static_cast<std::size_t>(p)];
    const auto& node = tree.node(v);
    if (node.parent < 0 || node.children.empty()) {
      continue;
    }
    ForallFProtocol::Message waypoint;
    for (std::size_t reg = 0; reg < source.size(); ++reg) {
      waypoint.push_back(dqma::protocol::geodesic_states(
          source[reg], target[reg], inner)[static_cast<std::size_t>(p - 1)]);
    }
    for (auto& rep : proof[static_cast<std::size_t>(j)]) {
      rep.bundles[static_cast<std::size_t>(v)].assign(node.children.size() + 1,
                                                      waypoint);
    }
  }
  return proof;
}

/// The attack search over k-copy proofs through accept_probability, with
/// the same RNG stream best_attack_accept consumes.
MonteCarloEstimate reference_attack(const ForallFProtocol& protocol,
                                    const OneWayProtocol& f,
                                    const std::vector<int>& terminals,
                                    const std::vector<Bitstring>& inputs,
                                    Rng& rng, int samples) {
  MonteCarloEstimate best;
  best.mean = -1.0;
  for (int j = 0; j < protocol.terminal_count(); ++j) {
    for (int k = 0; k < protocol.terminal_count(); ++k) {
      if (j == k || f.predicate(inputs[static_cast<std::size_t>(j)],
                                inputs[static_cast<std::size_t>(k)])) {
        continue;
      }
      const MonteCarloEstimate est = protocol.accept_probability(
          inputs, attack_proof(protocol, f, terminals, inputs, j, k), rng,
          samples);
      if (est.mean > best.mean) {
        best = est;
      }
    }
  }
  return best;
}

void expect_same(const MonteCarloEstimate& a, const MonteCarloEstimate& b) {
  EXPECT_EQ(a.mean, b.mean) << std::hexfloat << a.mean;
  EXPECT_EQ(a.half_width_95, b.half_width_95)
      << std::hexfloat << a.half_width_95;
  EXPECT_EQ(a.samples, b.samples);
}

MonteCarloEstimate pinned(double mean, double half_width, int samples) {
  MonteCarloEstimate est;
  est.mean = mean;
  est.half_width_95 = half_width;
  est.samples = samples;
  return est;
}

TEST(FoldedForallFTest, GeneralPathAtFixedSeed) {
  // accept_probability on an arbitrary proof keeps one table per (tree,
  // repetition). Copy 0 of every internal bundle is moved halfway to a
  // seeded Haar message, distinct per repetition, so the estimate depends
  // on every permutation draw.
  const EqOneWayProtocol eq(16, 0.3);
  const ForallFProtocol protocol(Graph::star(3), {1, 2, 3}, eq, 5);
  Rng rng(6);
  const std::vector<Bitstring> yes(3, Bitstring::random(16, rng));
  ForallFProtocol::Proof proof = protocol.honest_proof(yes);
  for (auto& reps : proof) {
    for (auto& rep : reps) {
      for (auto& bundle : rep.bundles) {
        if (!bundle.empty()) {
          const CVec haar = dqma::quantum::haar_state(eq.scheme().dim(), rng);
          bundle[0] = {
              dqma::protocol::geodesic_states(bundle[0][0], haar, 1)[0]};
        }
      }
    }
  }
  expect_same(protocol.accept_probability(yes, proof, rng, 300),
              pinned(0x1.e5560857ea7bdp-12, 0x1.4b848de147a84p-15, 300));
}

TEST(FoldedForallFTest, EqStarAttackAtFixedSeed) {
  const EqOneWayProtocol eq(16, 0.3);
  const std::vector<int> terminals{1, 2, 3};
  const ForallFProtocol protocol(Graph::star(3), terminals, eq, 40);
  Rng inputs_rng(6);
  const Bitstring x = Bitstring::random(16, inputs_rng);
  std::vector<Bitstring> no(3, x);
  no[1] = random_unequal_to(x, inputs_rng);

  Rng folded_rng(61);
  Rng reference_rng(61);
  const MonteCarloEstimate folded =
      protocol.best_attack_accept(no, folded_rng, 300);
  expect_same(folded, reference_attack(protocol, eq, terminals, no,
                                       reference_rng, 300));
  expect_same(folded, pinned(0x1.1cef95127c532p-778, 0x0p+0, 300));
}

TEST(FoldedForallFTest, HammingPathAttackAtFixedSeed) {
  // A three-node inner path: the attack interpolates over several
  // waypoints and both trees are attacked in turn.
  const std::vector<int> terminals{0, 4};
  const HammingGraphProtocol protocol(Graph::path(4), terminals, 16, 1, 0.35,
                                      12);
  Rng inputs_rng(7);
  const Bitstring x = Bitstring::random(16, inputs_rng);
  const std::vector<Bitstring> inputs{
      x, Bitstring::random_at_distance(x, 5, inputs_rng)};

  Rng folded_rng(70);
  Rng reference_rng(70);
  const MonteCarloEstimate folded =
      protocol.best_attack_accept(inputs, folded_rng, 200);
  expect_same(folded, reference_attack(protocol.forall(), protocol.one_way(),
                                       terminals, inputs, reference_rng, 200));
  expect_same(folded, pinned(0x1.4f007d2e66262p-427, 0x0p+0, 200));
}

}  // namespace
