// The paper's Theorem 32 (generalizing Theorem 30 / Algorithm 9): a dQMA
// protocol on a general graph for the multi-input predicate
//   forall_t f(x_1..x_t) = 1  iff  f(x_i, x_j) = 1 for all i, j,
// built from any one-way quantum communication protocol for f.
//
// One spanning tree per terminal, each rooted at that terminal. In tree
// T_j, messages flow root -> leaves: the root emits the honest one-way
// message for its own input, internal nodes hold (deg+1) prover-supplied
// copies, permute them uniformly at random, keep one (SWAP-tested against
// what the parent sent) and forward the rest, and every leaf runs Bob's
// verdict of the one-way protocol on its own input.
//
// Acceptance under product proofs is estimated by Monte-Carlo over the
// nodes' permutation choices (each sampled run multiplies exact
// closed-form test probabilities, so the only error is the sampling error
// of the permutation average, reported as a confidence interval);
// completeness of the honest proof is computed exactly.
//
// The Monte-Carlo path is precompute-then-sample: the message arriving at
// a node is always one of its parent's (deg+1) bundle copies (or the
// root's honest message), so every SWAP-test acceptance and every leaf
// verdict is tabulated once per tree — O(nodes * copies^2) inner products
// — and each shot only samples permutations and multiplies table entries.
// best_attack_accept's honest and attack proofs repeat one tree proof k
// times, so one table per tree is walked k times per shot;
// accept_probability takes an arbitrary proof and tabulates each (tree,
// repetition). Shot values and RNG draw order are identical either way.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "comm/one_way.hpp"
#include "dqma/model.hpp"
#include "dqma/runner.hpp"
#include "network/graph.hpp"
#include "network/tree.hpp"
#include "util/bitstring.hpp"
#include "util/rng.hpp"

namespace dqma::protocol {

using util::Bitstring;

class ForallFProtocol {
 public:
  /// `protocol` must outlive this object.
  ForallFProtocol(const network::Graph& graph, std::vector<int> terminals,
                  const comm::OneWayProtocol& protocol, int reps);

  int terminal_count() const { return static_cast<int>(terminals_.size()); }
  int reps() const { return reps_; }
  const network::SpanningTree& tree_for(int j) const;

  CostProfile costs() const;

  /// A one-way message: one pure state per protocol register.
  using Message = std::vector<linalg::CVec>;

  /// Proof of one tree repetition: for every tree node, the (deg+1)
  /// message copies of internal non-root nodes (empty for root/leaves).
  struct TreeProof {
    std::vector<std::vector<Message>> bundles;  ///< [tree node][copy]
  };
  /// proof[j][rep] is the TreeProof of repetition `rep` on tree T_j.
  using Proof = std::vector<std::vector<TreeProof>>;

  Proof honest_proof(const std::vector<Bitstring>& inputs) const;

  /// Ground truth forall_t f.
  bool predicate(const std::vector<Bitstring>& inputs) const;

  /// Exact completeness of the honest proof (all SWAP tests pass with
  /// certainty; only the leaves' Bob verdicts contribute, each one
  /// OneWayProtocol::honest_accept, a closed form for Hamming).
  double completeness(const std::vector<Bitstring>& inputs) const;

  /// Monte-Carlo acceptance of an arbitrary product proof.
  MonteCarloEstimate accept_probability(const std::vector<Bitstring>& inputs,
                                        const Proof& proof, util::Rng& rng,
                                        int samples = 2000) const;

  /// Strongest implemented attack: for each violated ordered pair
  /// (root j, leaf l), interpolate the messages along the tree path from
  /// psi(x_j) to psi(x_l) register-by-register.
  MonteCarloEstimate best_attack_accept(const std::vector<Bitstring>& inputs,
                                        util::Rng& rng,
                                        int samples = 2000) const;

 private:
  std::vector<int> terminals_;
  const comm::OneWayProtocol& protocol_;
  int reps_;
  std::vector<network::SpanningTree> trees_;

  /// Acceptance tables of one tree proof on tree T_`tree`: every test
  /// probability a shot can encounter, indexed by
  /// [node][arriving-copy][(own copy)]. The arriving-copy index addresses
  /// the parent's bundle (a single slot when the parent is the root, whose
  /// honest message is fixed).
  struct CompiledTreeProof {
    int tree = 0;
    std::vector<std::vector<std::vector<double>>> swap_accept;
    std::vector<std::vector<double>> leaf_accept;
  };

  /// One repetition of the honest proof on tree T_j.
  TreeProof honest_tree(int j, const std::vector<Bitstring>& inputs) const;

  CompiledTreeProof compile_tree(int j, const std::vector<Bitstring>& inputs,
                                 const TreeProof& proof) const;
  double sample_compiled_accept(const CompiledTreeProof& compiled,
                                util::Rng& rng,
                                std::vector<int>& perm_scratch,
                                std::vector<int>& arrived_scratch) const;
  /// Monte-Carlo over shots: each shot walks every table `walks` times, in
  /// order, multiplying the walks' acceptances and stopping at 0.
  MonteCarloEstimate sample_accept(
      const std::vector<const CompiledTreeProof*>& tables, int walks,
      util::Rng& rng, int samples) const;
};

/// SWAP-test acceptance for two product messages: 1/2 + |prod_i <a_i|b_i>|^2 / 2.
double message_swap_accept(const std::vector<linalg::CVec>& a,
                           const std::vector<linalg::CVec>& b);

}  // namespace dqma::protocol
