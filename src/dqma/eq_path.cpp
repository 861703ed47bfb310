#include "dqma/eq_path.hpp"

#include <algorithm>
#include <cmath>

#include "code/linear_code.hpp"
#include "dqma/attacks.hpp"
#include "dqma/runner.hpp"
#include "qtest/swap_test.hpp"
#include "util/require.hpp"

namespace dqma::protocol {

using linalg::CVec;
using util::require;

EqPathProtocol::EqPathProtocol(int n, int r, double delta, int reps,
                               EqPathMode mode, std::uint64_t seed)
    : r_(r), reps_(reps), mode_(mode), scheme_(n, delta, seed) {
  require(r >= 1, "EqPathProtocol: path length must be >= 1");
  require(reps >= 1, "EqPathProtocol: repetitions must be >= 1");
}

int EqPathProtocol::paper_reps(int r) {
  return static_cast<int>(std::ceil(2.0 * 81.0 * r * r / 4.0));
}

namespace {

CostProfile eq_path_costs(long long q, int r, int reps, EqPathMode mode) {
  CostProfile c;
  const long long inner = std::max(0, r - 1);
  if (mode == EqPathMode::kFgnpForwarding) {
    // One register per intermediate node and per repetition.
    c.local_proof_qubits = static_cast<long long>(reps) * q;
    c.total_proof_qubits = c.local_proof_qubits * inner;
  } else {
    // Two registers per intermediate node and per repetition (Algorithm 4).
    c.local_proof_qubits = 2LL * reps * q;
    c.total_proof_qubits = c.local_proof_qubits * inner;
  }
  c.local_message_qubits = static_cast<long long>(reps) * q;
  c.total_message_qubits = c.local_message_qubits * r;
  return c;
}

}  // namespace

CostProfile EqPathProtocol::costs() const {
  return eq_path_costs(scheme_.qubits(), r_, reps_, mode_);
}

int EqPathProtocol::fingerprint_qubits(int n, double delta) {
  const int m = code::recommended_block_length(n, delta);
  int q = 0;
  while ((1 << q) < m) {
    ++q;
  }
  return q;
}

CostProfile EqPathProtocol::costs_for(int n, int r, double delta, int reps,
                                      EqPathMode mode) {
  return eq_path_costs(fingerprint_qubits(n, delta), r, reps, mode);
}

PathProof EqPathProtocol::honest_rep(const Bitstring& x) const {
  return uniform_proof(scheme_.state(x), std::max(0, r_ - 1));
}

PathProofReps EqPathProtocol::honest_proof(const Bitstring& x) const {
  return replicate(honest_rep(x), reps_);
}

double EqPathProtocol::accept_one_rep(const Bitstring& x, const Bitstring& y,
                                      const PathProof& proof) const {
  const CVec hx = scheme_.state(x);
  const CVec hy = scheme_.state(y);
  const auto swap_test = [](const CVec& a, const CVec& b) {
    return qtest::swap_test_accept(a, b);
  };
  const auto final_test = [&hy](const CVec& received) {
    const double amp = std::abs(hy.dot(received));
    return amp * amp;
  };

  switch (mode_) {
    case EqPathMode::kSymmetrized:
      return chain_accept(hx, proof, swap_test, final_test);
    case EqPathMode::kNoSymmetrization: {
      // Deterministic forwarding: node j always keeps reg0 and sends reg1.
      double accept = swap_test(hx, proof.reg0.empty() ? hx : proof.reg0[0]);
      const int inner = proof.intermediate_nodes();
      if (inner == 0) {
        return final_test(hx);
      }
      for (int j = 1; j < inner; ++j) {
        accept *= swap_test(proof.reg1[static_cast<std::size_t>(j - 1)],
                            proof.reg0[static_cast<std::size_t>(j)]);
      }
      return accept *
             final_test(proof.reg1[static_cast<std::size_t>(inner - 1)]);
    }
    case EqPathMode::kFgnpForwarding:
      return accept_fgnp_rep(x, y, proof);
  }
  return 0.0;
}

double EqPathProtocol::accept_fgnp_rep(const Bitstring& x, const Bitstring& y,
                                       const PathProof& proof) const {
  // One register per intermediate node (reg0); reg1 is ignored. Nodes
  // v_1..v_{r-1} hold proofs, v_r holds the self-prepared |h_y>. Each of
  // v_1..v_r flips a fair coin c_j: on 1 it sends its register to the left
  // neighbor. Node v_j (j = 0..r-1) performs the SWAP test on
  // (own, received) iff it still holds its own register (c_j = 0; v_0
  // always holds |h_x>) and its right neighbor sent (c_{j+1} = 1).
  const CVec hx = scheme_.state(x);
  const CVec hy = scheme_.state(y);
  const int inner = proof.intermediate_nodes();
  require(inner == std::max(0, r_ - 1),
          "EqPathProtocol: proof size does not match path length");

  // own[j] for j = 0..r: v_0 -> h_x, v_j -> proof.reg0[j-1], v_r -> h_y.
  std::vector<const CVec*> own(static_cast<std::size_t>(r_) + 1);
  own[0] = &hx;
  for (int j = 1; j < r_; ++j) {
    own[static_cast<std::size_t>(j)] = &proof.reg0[static_cast<std::size_t>(j - 1)];
  }
  own[static_cast<std::size_t>(r_)] = &hy;

  // DP over coins c_1..c_r; the test at node j-1 is decided by
  // (c_{j-1}, c_j) with c_0 = 0 fixed.
  // f[c] = expected product of tests at nodes 0..j-1 given c_j = c.
  const auto test = [&](int j, int cj, int cj1) {
    // Test at node j active iff c_j == 0 and c_{j+1} == 1.
    if (cj != 0 || cj1 != 1) {
      return 1.0;
    }
    return qtest::swap_test_accept(*own[static_cast<std::size_t>(j)],
                                   *own[static_cast<std::size_t>(j + 1)]);
  };
  double f0 = 0.5 * test(0, 0, 0);
  double f1 = 0.5 * test(0, 0, 1);
  for (int j = 2; j <= r_; ++j) {
    const double n0 =
        0.5 * (f0 * test(j - 1, 0, 0) + f1 * test(j - 1, 1, 0));
    const double n1 =
        0.5 * (f0 * test(j - 1, 0, 1) + f1 * test(j - 1, 1, 1));
    f0 = n0;
    f1 = n1;
  }
  return f0 + f1;
}

double EqPathProtocol::single_rep_accept(const Bitstring& x,
                                         const Bitstring& y,
                                         const PathProof& proof) const {
  require(proof.intermediate_nodes() == std::max(0, r_ - 1),
          "EqPathProtocol: proof size does not match path length");
  return accept_one_rep(x, y, proof);
}

double EqPathProtocol::accept_probability(const Bitstring& x,
                                          const Bitstring& y,
                                          const PathProofReps& proof) const {
  require(static_cast<int>(proof.size()) == reps_,
          "EqPathProtocol: repetition count mismatch");
  double accept = 1.0;
  for (const auto& rep : proof) {
    require(rep.intermediate_nodes() == std::max(0, r_ - 1),
            "EqPathProtocol: proof size does not match path length");
    accept *= accept_one_rep(x, y, rep);
    if (accept == 0.0) {
      break;
    }
  }
  return accept;
}

double EqPathProtocol::completeness(const Bitstring& x) const {
  // Every honest repetition is the same: evaluate one, fold it k times.
  return fold_repetitions(accept_one_rep(x, x, honest_rep(x)), reps_);
}

double EqPathProtocol::best_attack_accept(const Bitstring& x,
                                          const Bitstring& y) const {
  const CVec hx = scheme_.state(x);
  const CVec hy = scheme_.state(y);
  const int inner = std::max(0, r_ - 1);
  // The attack proof is identical in every repetition, so the k-fold
  // acceptance is the single-repetition acceptance to the k-th power.
  double best = single_rep_accept(x, y, rotation_attack(hx, hy, inner));
  for (int cut = 0; cut <= inner; ++cut) {
    best = std::max(best, single_rep_accept(x, y, step_attack(hx, hy, inner, cut)));
  }
  return std::pow(best, reps_);
}

}  // namespace dqma::protocol
