// Tests for the two-party communication substrate: one-way protocols (EQ,
// Hamming, LTF), QMA one-way instances, LSD, and the protocol-to-LSD
// reduction.
#include <gtest/gtest.h>

#include <cmath>

#include "comm/eq_protocol.hpp"
#include "comm/hamming_protocol.hpp"
#include "comm/history_state.hpp"
#include "comm/lsd.hpp"
#include "comm/ltf_protocol.hpp"
#include "comm/qma_one_way.hpp"
#include "quantum/random.hpp"
#include "support/test_support.hpp"
#include "util/rng.hpp"

namespace {

using dqma::comm::and_amplify;
using dqma::comm::eq_as_qma_instance;
using dqma::comm::EqOneWayProtocol;
using dqma::comm::HammingOneWayProtocol;
using dqma::comm::lsd_from_qma_instance;
using dqma::comm::lsd_qma_instance;
using dqma::comm::LsdInstance;
using dqma::comm::LtfOneWayProtocol;
using dqma::comm::no_instance_distance_bound;
using dqma::comm::qubits_for_dim;
using dqma::comm::QmaOneWayInstance;
using dqma::linalg::CVec;
using dqma::test::random_unequal_pair;
using dqma::test::random_unequal_to;
using dqma::util::Bitstring;
using dqma::util::Rng;

TEST(OneWayTest, QubitsForDim) {
  EXPECT_EQ(qubits_for_dim(1), 0);
  EXPECT_EQ(qubits_for_dim(2), 1);
  EXPECT_EQ(qubits_for_dim(3), 2);
  EXPECT_EQ(qubits_for_dim(1024), 10);
}

TEST(EqProtocolTest, PerfectCompleteness) {
  Rng rng(1);
  const EqOneWayProtocol eq(24, 0.3);
  const Bitstring x = Bitstring::random(24, rng);
  EXPECT_NEAR(eq.honest_accept(x, x), 1.0, 1e-10);
}

TEST(EqProtocolTest, SoundnessBelowDeltaSquared) {
  Rng rng(2);
  const EqOneWayProtocol eq(24, 0.3);
  for (int trial = 0; trial < 30; ++trial) {
    const auto [x, y] = random_unequal_pair(24, rng);
    EXPECT_LE(eq.honest_accept(x, y), 0.3 * 0.3 + 1e-10);
  }
}

TEST(EqProtocolTest, MessageCostIsLogarithmic) {
  const EqOneWayProtocol small(32, 0.3);
  const EqOneWayProtocol large(2048, 0.3);
  EXPECT_LE(large.message_qubits() - small.message_qubits(), 8);
}

TEST(HammingProtocolTest, CompletenessIsExactlyOne) {
  Rng rng(3);
  const int n = 48;
  const int d = 3;
  const HammingOneWayProtocol ham(n, d, 0.3, 3);
  for (int dist = 0; dist <= d; ++dist) {
    const Bitstring x = Bitstring::random(n, rng);
    const Bitstring y = Bitstring::random_at_distance(x, dist, rng);
    EXPECT_EQ(ham.honest_accept(x, y), 1.0) << "distance " << dist;
  }
}

// The closed-form honest run (codeword weights, no state vectors) against
// Bob's verdict on the explicitly built honest message, over seeded
// (n, d, delta, distance) grids on both sides of the threshold.
TEST(HammingProtocolTest, ClosedFormHonestAcceptMatchesBuiltMessages) {
  Rng rng(2024);
  for (const int n : {16, 48, 130}) {
    for (const int d : {0, 1, 2, 4}) {
      for (const double delta : {0.3, 0.5}) {
        const HammingOneWayProtocol ham(
            n, d, delta, HammingOneWayProtocol::recommended_copies(d, delta),
            rng.next_u64());
        for (int dist = 0; dist <= d + 3; ++dist) {
          const Bitstring x = Bitstring::random(n, rng);
          const Bitstring y = Bitstring::random_at_distance(x, dist, rng);
          const double closed = ham.honest_accept(x, y);
          const double built = ham.accept_product(y, ham.honest_message(x));
          EXPECT_NEAR(closed, built, 1e-12)
              << "n " << n << ", d " << d << ", delta " << delta
              << ", distance " << dist;
          if (dist <= d) {
            EXPECT_EQ(closed, 1.0) << "n " << n << ", d " << d;
          }
        }
      }
    }
  }
}

TEST(HammingProtocolTest, SoundnessDecaysWithCopies) {
  Rng rng(4);
  const int n = 48;
  const int d = 2;
  const HammingOneWayProtocol weak(n, d, 0.3, 1, 77);
  const HammingOneWayProtocol strong(n, d, 0.3, 4, 77);
  double weak_err = 0.0;
  double strong_err = 0.0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    const Bitstring x = Bitstring::random(n, rng);
    const Bitstring y = Bitstring::random_at_distance(x, d + 4, rng);
    weak_err += weak.honest_accept(x, y);
    strong_err += strong.honest_accept(x, y);
  }
  EXPECT_LT(strong_err, weak_err + 1e-9);
  EXPECT_LT(strong_err / trials, 1.0 / 3.0);
}

TEST(HammingProtocolTest, RecommendedCopiesMeetTarget) {
  const int k = HammingOneWayProtocol::recommended_copies(4, 0.3);
  const double err = 5 * std::pow(0.09, k);
  EXPECT_LE(err, 1.0 / 6.0);
}

TEST(HammingProtocolTest, BlockMasksPartitionIndices) {
  const HammingOneWayProtocol ham(40, 2, 0.3, 2);
  std::vector<int> owner(40, -1);
  for (int b = 0; b < ham.block_count(); ++b) {
    const Bitstring& mask = ham.block_mask(b);
    for (int i = 0; i < 40; ++i) {
      if (mask.get(i)) {
        EXPECT_EQ(owner[static_cast<std::size_t>(i)], -1);
        owner[static_cast<std::size_t>(i)] = b;
      }
    }
  }
  for (const int o : owner) {
    EXPECT_GE(o, 0);
  }
}

TEST(HammingProtocolTest, PredicateMatchesDistance) {
  Rng rng(5);
  const HammingOneWayProtocol ham(32, 5, 0.3, 2);
  const Bitstring x = Bitstring::random(32, rng);
  EXPECT_TRUE(ham.predicate(x, Bitstring::random_at_distance(x, 5, rng)));
  EXPECT_FALSE(ham.predicate(x, Bitstring::random_at_distance(x, 6, rng)));
}

TEST(LtfProtocolTest, PredicateIsWeightedThreshold) {
  const LtfOneWayProtocol ltf({3, 1, 2}, 3, 0.3);
  const Bitstring x = Bitstring::from_string("000");
  // y = 010: weighted distance 1 <= 3.
  EXPECT_TRUE(ltf.predicate(x, Bitstring::from_string("010")));
  // y = 101: weighted distance 3 + 2 = 5 > 3.
  EXPECT_FALSE(ltf.predicate(x, Bitstring::from_string("101")));
}

TEST(LtfProtocolTest, CompletenessOne) {
  const LtfOneWayProtocol ltf({2, 2, 1, 1}, 2, 0.3);
  const Bitstring x = Bitstring::from_string("1010");
  const Bitstring y = Bitstring::from_string("1011");  // weighted dist 1
  EXPECT_NEAR(ltf.honest_accept(x, y), 1.0, 1e-9);
}

TEST(LtfProtocolTest, RejectsAboveThreshold) {
  const LtfOneWayProtocol ltf({4, 4, 4}, 2, 0.25);
  const Bitstring x = Bitstring::from_string("000");
  const Bitstring y = Bitstring::from_string("100");  // weighted dist 4 > 2
  EXPECT_LT(ltf.honest_accept(x, y), 1.0 / 3.0);
}

TEST(QmaOneWayTest, EqInstanceRoundTrip) {
  Rng rng(6);
  const EqOneWayProtocol eq(16, 128, 0.3, 0x0ddba11);
  const Bitstring x = Bitstring::random(16, rng);
  const auto yes = eq_as_qma_instance(eq, x, x);
  yes.validate();
  EXPECT_TRUE(yes.yes_instance);
  EXPECT_NEAR(yes.accept(yes.honest_proof), 1.0, 1e-9);

  const Bitstring y = random_unequal_to(x, rng);
  const auto no = eq_as_qma_instance(eq, x, y);
  no.validate();
  EXPECT_FALSE(no.yes_instance);
  // Worst case over proofs is still bounded by delta^2: the proof space is
  // trivial, so the message is always |h_x>.
  EXPECT_LE(no.max_accept(), 0.09 + 1e-8);
}

TEST(QmaOneWayTest, AndAmplifyPowersSoundness) {
  Rng rng(7);
  const EqOneWayProtocol eq(12, 64, 0.3, 0x0ddba11);
  const auto [x, y] = random_unequal_pair(12, rng);
  const auto base = eq_as_qma_instance(eq, x, y);
  const double single = base.max_accept();
  // Amplifying EQ squares the message dimension: keep k = 2 and compare.
  // (dim m^2 can be large; use a small scheme.)
  if (base.message_dim() <= 100) {
    const auto doubled = and_amplify(base, 2);
    EXPECT_NEAR(doubled.max_accept(), single * single, 1e-8);
  }
  const auto amp = and_amplify(base, 1);
  EXPECT_NEAR(amp.max_accept(), single, 1e-10);
}

TEST(LsdTest, ClosePairDistanceMatchesAngle) {
  Rng rng(8);
  const double angle = 0.1;
  const auto inst = LsdInstance::close_pair(16, 3, angle, rng);
  EXPECT_NEAR(inst.distance(), std::sqrt(2.0 - 2.0 * std::cos(angle)), 1e-6);
  EXPECT_TRUE(inst.is_yes());
}

TEST(LsdTest, FarPairIsMaximallyDistant) {
  Rng rng(9);
  const auto inst = LsdInstance::far_pair(16, 3, rng);
  EXPECT_NEAR(inst.distance(), LsdInstance::kSqrt2, 1e-6);
  EXPECT_TRUE(inst.is_no());
}

TEST(LsdTest, QmaProtocolCompletenessOnYesInstances) {
  Rng rng(10);
  const auto inst = LsdInstance::close_pair(20, 4, 0.1, rng);
  const auto qma = lsd_qma_instance(inst);
  qma.validate();
  // Accept >= (1 - Delta^2/2)^2 >= 0.98 on the honest proof.
  EXPECT_GE(qma.accept(qma.honest_proof), 0.98);
}

TEST(LsdTest, QmaProtocolSoundnessOnNoInstances) {
  Rng rng(11);
  const auto inst = LsdInstance::far_pair(20, 4, rng);
  const auto qma = lsd_qma_instance(inst);
  // Worst case over all proofs: sigma_max^2 <= (1 - Delta^2/2)^2 ~ 0.
  EXPECT_LE(qma.max_accept(), 0.05);
}

TEST(LsdTest, CostIsLogarithmicInAmbientDimension) {
  Rng rng(12);
  const auto small = lsd_qma_instance(LsdInstance::far_pair(16, 2, rng));
  const auto large = lsd_qma_instance(LsdInstance::far_pair(256, 2, rng));
  EXPECT_EQ(large.cost_qubits() - small.cost_qubits(), 2 * 4);
}

TEST(HistoryStateTest, YesInstanceReducesToCloseSubspaces) {
  Rng rng(13);
  const EqOneWayProtocol eq(10, 128, 0.3, 0x0ddba11);
  const Bitstring x = Bitstring::random(10, rng);
  const auto yes = eq_as_qma_instance(eq, x, x);
  const auto lsd = lsd_from_qma_instance(yes, 0.5);
  // Perfect completeness: Alice's range contains |h_x> = |h_y>, which lies
  // in Bob's top eigenspace, so the subspaces intersect: distance ~ 0.
  EXPECT_LE(lsd.distance(), 0.1 * LsdInstance::kSqrt2 + 1e-6);
}

TEST(HistoryStateTest, NoInstanceReducesToFarSubspaces) {
  Rng rng(14);
  const EqOneWayProtocol eq(10, 128, 0.3, 0x0ddba11);
  const auto [x, y] = random_unequal_pair(10, rng);
  const auto no = eq_as_qma_instance(eq, x, y);
  const auto lsd = lsd_from_qma_instance(no, 0.5);
  // Soundness delta^2 = 0.09, tau = 0.5: distance >= sqrt(2 - 2 sqrt(0.18)).
  EXPECT_GE(lsd.distance() + 1e-6, no_instance_distance_bound(0.09, 0.5));
}

TEST(HistoryStateTest, NoInstanceBoundIsMonotone) {
  EXPECT_GT(no_instance_distance_bound(0.01, 0.5),
            no_instance_distance_bound(0.2, 0.5));
  EXPECT_NEAR(no_instance_distance_bound(0.0, 0.5), LsdInstance::kSqrt2, 1e-9);
}

}  // namespace
