#include "dqma/eq_graph.hpp"

#include <algorithm>
#include <cmath>

#include "dqma/attacks.hpp"
#include "dqma/noise.hpp"
#include "dqma/runner.hpp"
#include "qtest/permutation_test.hpp"
#include "qtest/swap_test.hpp"
#include "util/require.hpp"

namespace dqma::protocol {

using linalg::CVec;
using util::require;

EqGraphProtocol::EqGraphProtocol(const network::Graph& graph,
                                 std::vector<int> terminals, int n,
                                 double delta, int reps, GraphTestMode mode,
                                 std::uint64_t seed)
    : terminals_(std::move(terminals)),
      reps_(reps),
      mode_(mode),
      scheme_(n, delta, seed),
      tree_(network::SpanningTree::build(graph, terminals_)) {
  require(!terminals_.empty(), "EqGraphProtocol: need at least one terminal");
  require(reps >= 1, "EqGraphProtocol: repetitions must be >= 1");

  // Map tree nodes to terminal indices: the root and the leaf image of
  // every terminal are input nodes.
  input_of_node_.assign(static_cast<std::size_t>(tree_.size()), -1);
  for (int k = 0; k < terminal_count(); ++k) {
    const int leaf = tree_.leaf_of_terminal(terminals_[static_cast<std::size_t>(k)]);
    if (leaf == tree_.root() ||
        tree_.node(leaf).children.empty()) {
      input_of_node_[static_cast<std::size_t>(leaf)] = k;
    }
  }
  // The root terminal's input node is the root itself.
  for (int k = 0; k < terminal_count(); ++k) {
    if (tree_.node(tree_.root()).original ==
        terminals_[static_cast<std::size_t>(k)]) {
      input_of_node_[static_cast<std::size_t>(tree_.root())] = k;
    }
  }
}

bool EqGraphProtocol::is_input_node(int tree_node) const {
  return input_of_node_[static_cast<std::size_t>(tree_node)] >= 0;
}

CostProfile EqGraphProtocol::costs() const {
  const long long q = scheme_.qubits();
  long long non_input = 0;
  for (int v = 0; v < tree_.size(); ++v) {
    if (!is_input_node(v)) {
      ++non_input;
    }
  }
  CostProfile c;
  c.local_proof_qubits = 2LL * reps_ * q;
  c.total_proof_qubits = c.local_proof_qubits * non_input;
  c.local_message_qubits = static_cast<long long>(reps_) * q;
  // One message per tree edge (every non-root node sends to its parent).
  c.total_message_qubits = c.local_message_qubits * (tree_.size() - 1);
  return c;
}

EqGraphProtocol::TreeProof EqGraphProtocol::honest_rep(
    const Bitstring& x) const {
  TreeProof one;
  one.reg0.assign(static_cast<std::size_t>(tree_.size()), scheme_.state(x));
  one.reg1 = one.reg0;
  return one;
}

EqGraphProtocol::TreeProofReps EqGraphProtocol::honest_proof(
    const Bitstring& x) const {
  return TreeProofReps(static_cast<std::size_t>(reps_), honest_rep(x));
}

double EqGraphProtocol::accept_one_rep(const std::vector<Bitstring>& inputs,
                                       const TreeProof& proof) const {
  return accept_one_rep_impl(inputs, proof, nullptr);
}

double EqGraphProtocol::accept_one_rep_impl(const std::vector<Bitstring>& inputs,
                                            const TreeProof& proof,
                                            const NoiseModel* noise) const {
  require(static_cast<int>(inputs.size()) == terminal_count(),
          "EqGraphProtocol: input count mismatch");
  require(static_cast<int>(proof.reg0.size()) == tree_.size() &&
              static_cast<int>(proof.reg1.size()) == tree_.size(),
          "EqGraphProtocol: proof size mismatch");

  const bool noisy = noise != nullptr && !noise->is_noiseless();
  const double depol_swap = 0.5 + 0.5 / static_cast<double>(scheme_.dim());
  // Local test at node v holding `kept`, receiving `sents` from its
  // children (in child order; the register from child c traversed link c).
  const auto local_test = [&](int v, const CVec& kept,
                              const std::vector<CVec>& sents) {
    const auto& children = tree_.node(v).children;
    if (mode_ == GraphTestMode::kPermutationTest) {
      std::vector<CVec> factors;
      factors.reserve(sents.size() + 1);
      factors.push_back(kept);
      factors.insert(factors.end(), sents.begin(), sents.end());
      if (!noisy) {
        return qtest::permutation_test_accept(factors);
      }
      std::vector<double> rates;
      rates.reserve(factors.size());
      rates.push_back(0.0);  // `kept` never crossed a channel
      for (const int child : children) {
        rates.push_back(noise->rate(child));
      }
      return qtest::depolarized_permutation_test_accept(factors, rates);
    }
    // Random-pair SWAP baseline: test one uniformly chosen child.
    double acc = 0.0;
    for (std::size_t c = 0; c < sents.size(); ++c) {
      const double clean = qtest::swap_test_accept(kept, sents[c]);
      acc += noisy ? noise->damp(children[c], clean, depol_swap) : clean;
    }
    return sents.empty() ? 1.0 : acc / static_cast<double>(sents.size());
  };

  // Per-node DP options: (probability weight including own coin, state sent
  // upward). Input leaves have one option; non-input nodes have two.
  struct Option {
    double weight;
    const CVec* sent;
  };
  std::vector<std::vector<Option>> options(
      static_cast<std::size_t>(tree_.size()));

  // Enumerate child option combinations, accumulating sum over combos of
  // (product of child weights) * test(kept, sent states).
  const auto children_sum = [&](int v, const CVec* kept) {
    const auto& children = tree_.node(v).children;
    const int deg = static_cast<int>(children.size());
    std::vector<int> pick(static_cast<std::size_t>(deg), 0);
    double total = 0.0;
    for (;;) {
      double w = 1.0;
      std::vector<CVec> sents;
      sents.reserve(static_cast<std::size_t>(deg));
      for (int c = 0; c < deg; ++c) {
        const auto& opt =
            options[static_cast<std::size_t>(children[static_cast<std::size_t>(c)])]
                   [static_cast<std::size_t>(pick[static_cast<std::size_t>(c)])];
        w *= opt.weight;
        sents.push_back(*opt.sent);
      }
      if (w > 0.0) {
        total += w * (kept != nullptr ? local_test(v, *kept, sents) : 1.0);
      }
      // Next combination.
      int c = 0;
      while (c < deg) {
        if (++pick[static_cast<std::size_t>(c)] <
            static_cast<int>(
                options[static_cast<std::size_t>(
                            children[static_cast<std::size_t>(c)])]
                    .size())) {
          break;
        }
        pick[static_cast<std::size_t>(c)] = 0;
        ++c;
      }
      if (c == deg) {
        break;
      }
    }
    return total;
  };

  // Fingerprints of the inputs (computed once).
  std::vector<CVec> input_states;
  input_states.reserve(inputs.size());
  for (const auto& x : inputs) {
    input_states.push_back(scheme_.state(x));
  }

  for (const int v : tree_.post_order()) {
    if (v == tree_.root()) {
      continue;  // handled after the loop
    }
    const int input_idx = input_of_node_[static_cast<std::size_t>(v)];
    if (input_idx >= 0) {
      // Terminal leaf: sends its fingerprint; no test, no coin.
      options[static_cast<std::size_t>(v)] = {
          {1.0, &input_states[static_cast<std::size_t>(input_idx)]}};
      continue;
    }
    // Non-input node: coin 0 keeps reg0 / sends reg1; coin 1 swapped.
    const CVec* r0 = &proof.reg0[static_cast<std::size_t>(v)];
    const CVec* r1 = &proof.reg1[static_cast<std::size_t>(v)];
    const double w0 = 0.5 * children_sum(v, r0);
    const double w1 = 0.5 * children_sum(v, r1);
    options[static_cast<std::size_t>(v)] = {{w0, r1}, {w1, r0}};
  }

  // Root: performs the test with its own input fingerprint.
  const int root_input = input_of_node_[static_cast<std::size_t>(tree_.root())];
  require(root_input >= 0, "EqGraphProtocol: root must be a terminal");
  return children_sum(tree_.root(),
                      &input_states[static_cast<std::size_t>(root_input)]);
}

double EqGraphProtocol::single_rep_accept(const std::vector<Bitstring>& inputs,
                                          const TreeProof& proof) const {
  return accept_one_rep(inputs, proof);
}

double EqGraphProtocol::accept_probability(
    const std::vector<Bitstring>& inputs, const TreeProofReps& proof) const {
  require(static_cast<int>(proof.size()) == reps_,
          "EqGraphProtocol: repetition count mismatch");
  double accept = 1.0;
  for (const auto& rep : proof) {
    accept *= accept_one_rep(inputs, rep);
    if (accept == 0.0) {
      break;
    }
  }
  return accept;
}

double EqGraphProtocol::completeness(const Bitstring& x) const {
  const std::vector<Bitstring> inputs(
      static_cast<std::size_t>(terminal_count()), x);
  // Every honest repetition is the same: evaluate one, fold it k times.
  return fold_repetitions(accept_one_rep(inputs, honest_rep(x)), reps_);
}

double EqGraphProtocol::best_attack_accept(
    const std::vector<Bitstring>& inputs) const {
  return best_attack_accept_impl(inputs, nullptr);
}

double EqGraphProtocol::best_attack_accept_impl(
    const std::vector<Bitstring>& inputs, const NoiseModel* noise) const {
  require(static_cast<int>(inputs.size()) == terminal_count(),
          "EqGraphProtocol: input count mismatch");
  const int root_input = input_of_node_[static_cast<std::size_t>(tree_.root())];
  const CVec h_root = scheme_.state(inputs[static_cast<std::size_t>(root_input)]);

  double best = 0.0;
  for (int k = 0; k < terminal_count(); ++k) {
    if (inputs[static_cast<std::size_t>(k)] ==
        inputs[static_cast<std::size_t>(root_input)]) {
      continue;
    }
    const CVec h_dev = scheme_.state(inputs[static_cast<std::size_t>(k)]);
    const int leaf = tree_.leaf_of_terminal(terminals_[static_cast<std::size_t>(k)]);
    const auto path = tree_.path_between(tree_.root(), leaf);
    // Geodesic states along the path (excluding both endpoints).
    const int inner = static_cast<int>(path.size()) - 2;
    const auto states = geodesic_states(h_root, h_dev, std::max(0, inner));

    TreeProof cheat;
    cheat.reg0.assign(static_cast<std::size_t>(tree_.size()), h_root);
    cheat.reg1 = cheat.reg0;
    for (int p = 1; p + 1 < static_cast<int>(path.size()); ++p) {
      const int v = path[static_cast<std::size_t>(p)];
      if (!is_input_node(v)) {
        cheat.reg0[static_cast<std::size_t>(v)] =
            states[static_cast<std::size_t>(p - 1)];
        cheat.reg1[static_cast<std::size_t>(v)] =
            states[static_cast<std::size_t>(p - 1)];
      }
    }
    best = std::max(best, accept_one_rep_impl(inputs, cheat, noise));
  }
  return std::pow(best, reps_);
}

double EqGraphProtocol::noisy_accept_probability(
    const std::vector<Bitstring>& inputs, const TreeProofReps& proof,
    const NoiseModel& link_noise) const {
  require(static_cast<int>(proof.size()) == reps_,
          "EqGraphProtocol: repetition count mismatch");
  double accept = 1.0;
  for (const auto& rep : proof) {
    accept *= accept_one_rep_impl(inputs, rep, &link_noise);
    if (accept == 0.0) {
      break;
    }
  }
  return accept;
}

double EqGraphProtocol::noisy_single_rep_accept(
    const std::vector<Bitstring>& inputs, const TreeProof& proof,
    const NoiseModel& link_noise) const {
  return accept_one_rep_impl(inputs, proof, &link_noise);
}

double EqGraphProtocol::noisy_completeness(const Bitstring& x,
                                           const NoiseModel& link_noise) const {
  const std::vector<Bitstring> inputs(
      static_cast<std::size_t>(terminal_count()), x);
  return fold_repetitions(
      accept_one_rep_impl(inputs, honest_rep(x), &link_noise), reps_);
}

double EqGraphProtocol::noisy_best_attack_accept(
    const std::vector<Bitstring>& inputs, const NoiseModel& link_noise) const {
  return best_attack_accept_impl(inputs, &link_noise);
}

}  // namespace dqma::protocol
