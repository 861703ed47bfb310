#include "dqma/from_qma_cc.hpp"

#include <algorithm>
#include <cmath>

#include "comm/one_way.hpp"
#include "dqma/attacks.hpp"
#include "linalg/eigen.hpp"
#include "qtest/swap_test.hpp"
#include "util/require.hpp"

namespace dqma::protocol {

using linalg::CMat;
using linalg::CVec;
using util::require;

QmaCcPathProtocol::QmaCcPathProtocol(comm::QmaOneWayInstance instance, int r,
                                     int reps)
    : instance_(std::move(instance)), r_(r), reps_(reps) {
  require(r >= 1, "QmaCcPathProtocol: r must be positive");
  require(reps >= 1, "QmaCcPathProtocol: reps must be positive");
}

CostProfile QmaCcPathProtocol::costs() const {
  const long long gamma = instance_.gamma_qubits;
  const long long mu =
      comm::qubits_for_dim(instance_.message_dim());
  CostProfile c;
  const long long inner = std::max(0, r_ - 1);
  // v_0 receives the proof; intermediate nodes two message registers each.
  c.local_proof_qubits = std::max<long long>(
      static_cast<long long>(reps_) * gamma, 2LL * reps_ * mu);
  c.total_proof_qubits =
      static_cast<long long>(reps_) * gamma + 2LL * reps_ * mu * inner;
  c.local_message_qubits = static_cast<long long>(reps_) * mu;
  c.total_message_qubits = c.local_message_qubits * r_;
  return c;
}

PathProof QmaCcPathProtocol::honest_chain() const {
  require(instance_.yes_instance,
          "QmaCcPathProtocol: honest strategy needs a yes instance");
  CVec message = instance_.alice * instance_.honest_proof;
  if (message.norm() > 1e-12) {
    message.normalize();
  }
  return uniform_proof(message, std::max(0, r_ - 1));
}

QmaCcPathProtocol::Strategy QmaCcPathProtocol::honest_strategy() const {
  Strategy s;
  s.chain = replicate(honest_chain(), reps_);
  s.proofs.assign(static_cast<std::size_t>(reps_), instance_.honest_proof);
  return s;
}

double QmaCcPathProtocol::accept_one_rep(const CVec& proof,
                                         const PathProof& chain) const {
  require(proof.dim() == instance_.proof_dim(),
          "QmaCcPathProtocol: proof dimension mismatch");
  CVec message = instance_.alice * proof;
  const double alpha = message.norm_sq();  // Alice's own pass probability
  if (alpha < 1e-14) {
    return 0.0;
  }
  message *= linalg::Complex{1.0 / std::sqrt(alpha), 0.0};
  const auto swap_test = [](const CVec& a, const CVec& b) {
    return qtest::swap_test_accept(a, b);
  };
  const auto final_test = [this](const CVec& received) {
    const CVec image = instance_.bob_accept * received;
    return std::clamp(received.dot(image).real(), 0.0, 1.0);
  };
  return alpha * chain_accept(message, chain, swap_test, final_test);
}

double QmaCcPathProtocol::accept_probability(const Strategy& strategy) const {
  require(static_cast<int>(strategy.proofs.size()) == reps_ &&
              static_cast<int>(strategy.chain.size()) == reps_,
          "QmaCcPathProtocol: repetition count mismatch");
  double accept = 1.0;
  for (int k = 0; k < reps_; ++k) {
    accept *= accept_one_rep(strategy.proofs[static_cast<std::size_t>(k)],
                             strategy.chain[static_cast<std::size_t>(k)]);
    if (accept == 0.0) {
      break;
    }
  }
  return accept;
}

double QmaCcPathProtocol::completeness() const {
  // Every honest repetition is the same: evaluate one, fold it k times.
  return fold_repetitions(
      accept_one_rep(instance_.honest_proof, honest_chain()), reps_);
}

double QmaCcPathProtocol::best_attack_accept() const {
  const int inner = std::max(0, r_ - 1);
  const int pdim = instance_.proof_dim();
  const int mdim = instance_.message_dim();

  // Candidate proofs: top eigenvector of V^dagger M V (best end-to-end) and
  // top eigenvector of V^dagger V (best Alice-pass probability).
  std::vector<CVec> proofs;
  {
    const CMat direct = instance_.alice.adjoint_times(instance_.bob_accept) *
                        instance_.alice;
    const auto es = linalg::eigh(direct);
    CVec top(pdim);
    for (int i = 0; i < pdim; ++i) {
      top[i] = es.vectors(i, pdim - 1);
    }
    proofs.push_back(std::move(top));
  }
  {
    const CMat gram = instance_.alice.adjoint_times(instance_.alice);
    const auto es = linalg::eigh(gram);
    CVec top(pdim);
    for (int i = 0; i < pdim; ++i) {
      top[i] = es.vectors(i, pdim - 1);
    }
    proofs.push_back(std::move(top));
  }
  // Bob's most-accepting message.
  CVec bob_top(mdim);
  {
    const auto es = linalg::eigh(instance_.bob_accept);
    for (int i = 0; i < mdim; ++i) {
      bob_top[i] = es.vectors(i, mdim - 1);
    }
  }

  double best_single = 0.0;
  for (const auto& proof : proofs) {
    CVec message = instance_.alice * proof;
    if (message.norm() < 1e-12) {
      continue;
    }
    message.normalize();
    // Honest-looking chain (all registers = the emitted message).
    best_single = std::max(
        best_single, accept_one_rep(proof, uniform_proof(message, inner)));
    // Chain rotating from the emission toward Bob's favorite message.
    best_single = std::max(
        best_single,
        accept_one_rep(proof, rotation_attack(message, bob_top, inner)));
  }
  return std::pow(best_single, reps_);
}

Theorem46Report theorem46_costs(long long c, int r) {
  require(c >= 1 && r >= 1, "theorem46_costs: bad parameters");
  Theorem46Report rep;
  rep.source_cost_c = c;
  rep.qmacc_cost = 2 * c;  // inequality (1)
  // LSD dimension m = 2^{O(C)}: Lemma 44's reduction vector space. The
  // stored value saturates at 2^40; the log-scale quantities below use the
  // un-saturated exponent so the report stays meaningful for large C.
  const double log2_m = 2.0 * static_cast<double>(c);
  rep.lsd_ambient_dim = 1LL << std::min<long long>(2 * c, 40);
  // Finite-precision LSD input size O(m^2 log m), saturating at int64 max.
  const double input_bits_log2 = 2.0 * log2_m + std::log2(std::max(1.0, log2_m));
  rep.lsd_input_bits =
      input_bits_log2 >= 62.0
          ? (1LL << 62)
          : static_cast<long long>(std::ceil(std::exp2(input_bits_log2)));
  // Theorem 42 applied to the O(log m)-cost LSD one-way protocol:
  // O(r^2 (gamma + mu) log(n + r)) with gamma + mu = O(C); the log factor
  // is log2 of the LSD input size, i.e. O(C) itself.
  const double logs = input_bits_log2 + std::log2(1.0 + r);
  rep.per_node_proof_qubits = static_cast<long long>(
      std::ceil(static_cast<double>(r) * r * (2.0 * c) * logs));
  return rep;
}

}  // namespace dqma::protocol
