// The paper's Theorem 19: dQMA protocol for EQ between t terminals on a
// general network (Algorithm 5), via the spanning-tree construction of
// Sec. 3.3 and the permutation test at internal nodes.
//
// Key improvement over FGNP21 (ablation D2): internal nodes test ALL states
// received from their children together with their prover register using
// one permutation test, instead of SWAP-testing a uniformly random child
// and discarding the rest; this removes the factor-t from the local proof
// size. Both modes are implemented.
#pragma once

#include <cstdint>
#include <vector>

#include "dqma/model.hpp"
#include "fingerprint/fingerprint.hpp"
#include "network/graph.hpp"
#include "network/tree.hpp"
#include "util/bitstring.hpp"

namespace dqma::protocol {

class NoiseModel;  // dqma/noise.hpp

using util::Bitstring;

enum class GraphTestMode {
  kPermutationTest,  ///< Algorithm 5 (this paper)
  kRandomPairSwap,   ///< FGNP21-style: SWAP test against one random child
};

/// dQMA protocol for EQ^t_n on a general graph.
class EqGraphProtocol {
 public:
  /// `terminals` hold the inputs (one n-bit string each, in the same order).
  EqGraphProtocol(const network::Graph& graph, std::vector<int> terminals,
                  int n, double delta, int reps,
                  GraphTestMode mode = GraphTestMode::kPermutationTest,
                  std::uint64_t seed = 0x0ddba11);

  const network::SpanningTree& tree() const { return tree_; }
  int terminal_count() const { return static_cast<int>(terminals_.size()); }
  int reps() const { return reps_; }
  const fingerprint::FingerprintScheme& scheme() const { return scheme_; }

  /// One repetition of a tree proof: the two prover registers of every
  /// non-input tree node (entries of input nodes are unused).
  struct TreeProof {
    std::vector<linalg::CVec> reg0;  ///< indexed by tree node
    std::vector<linalg::CVec> reg1;
  };
  using TreeProofReps = std::vector<TreeProof>;

  CostProfile costs() const;

  /// Honest proof for the all-equal input x.
  TreeProofReps honest_proof(const Bitstring& x) const;

  /// Exact acceptance probability for inputs (per terminal, in terminal
  /// order) under an arbitrary product proof: a tree dynamic program over
  /// the symmetrization coins.
  double accept_probability(const std::vector<Bitstring>& inputs,
                            const TreeProofReps& proof) const;

  /// Exact acceptance of a single repetition (attack search uses this and
  /// raises to the k-th power for identical per-repetition proofs).
  double single_rep_accept(const std::vector<Bitstring>& inputs,
                           const TreeProof& proof) const;

  /// Acceptance of the honest proof on the all-equal input x: one
  /// repetition evaluated and folded k times, bit-identical to
  /// accept_probability(inputs, honest_proof(x)).
  double completeness(const Bitstring& x) const;

  /// Strongest implemented product attack when some input deviates:
  /// geodesic interpolation along the root-to-deviant-leaf path, plus step
  /// attacks, maximized over deviating terminals.
  double best_attack_accept(const std::vector<Bitstring>& inputs) const;

  /// Noisy variants: every register forwarded from tree node v to its
  /// parent passes a depolarizing channel of strength link_noise.rate(v)
  /// (links are indexed by the CHILD tree node; the root index is never
  /// queried). Per-link models must cover every tree node — give virtual
  /// leaves rate 0, they share a physical vertex with their original node.
  /// Exact: permutation tests use the depolarized closed form, SWAP tests
  /// the damped closed form. With a noiseless model these equal the
  /// noiseless methods bit for bit (same code path).
  double noisy_accept_probability(const std::vector<Bitstring>& inputs,
                                  const TreeProofReps& proof,
                                  const NoiseModel& link_noise) const;
  double noisy_single_rep_accept(const std::vector<Bitstring>& inputs,
                                 const TreeProof& proof,
                                 const NoiseModel& link_noise) const;
  double noisy_completeness(const Bitstring& x,
                            const NoiseModel& link_noise) const;
  double noisy_best_attack_accept(const std::vector<Bitstring>& inputs,
                                  const NoiseModel& link_noise) const;

  /// True iff the tree node carries an input (root terminal or a terminal
  /// leaf, including virtual leaves).
  bool is_input_node(int tree_node) const;

 private:
  std::vector<int> terminals_;
  int reps_;
  GraphTestMode mode_;
  fingerprint::FingerprintScheme scheme_;
  network::SpanningTree tree_;
  std::vector<int> input_of_node_;  ///< terminal index or -1 per tree node

  TreeProof honest_rep(const Bitstring& x) const;

  double accept_one_rep(const std::vector<Bitstring>& inputs,
                        const TreeProof& proof) const;

  /// Shared tree DP; `noise == nullptr` is the noiseless path (and must
  /// stay arithmetically identical to the historical noiseless code).
  double accept_one_rep_impl(const std::vector<Bitstring>& inputs,
                             const TreeProof& proof,
                             const NoiseModel* noise) const;

  double best_attack_accept_impl(const std::vector<Bitstring>& inputs,
                                 const NoiseModel* noise) const;
};

}  // namespace dqma::protocol
