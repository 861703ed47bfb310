#include "dqma/forall_f.hpp"

#include <algorithm>
#include <cmath>

#include "dqma/attacks.hpp"
#include "util/require.hpp"

namespace dqma::protocol {

using comm::qubits_for_dim;
using linalg::Complex;
using linalg::CVec;
using util::require;

double message_swap_accept(const std::vector<CVec>& a,
                           const std::vector<CVec>& b) {
  require(a.size() == b.size(), "message_swap_accept: register count mismatch");
  Complex overlap{1.0, 0.0};
  for (std::size_t i = 0; i < a.size(); ++i) {
    overlap *= a[i].dot(b[i]);
  }
  const double mag = std::abs(overlap);
  return 0.5 + 0.5 * mag * mag;
}

ForallFProtocol::ForallFProtocol(const network::Graph& graph,
                                 std::vector<int> terminals,
                                 const comm::OneWayProtocol& protocol,
                                 int reps)
    : terminals_(std::move(terminals)), protocol_(protocol), reps_(reps) {
  require(terminal_count() >= 2, "ForallFProtocol: need at least two terminals");
  require(reps >= 1, "ForallFProtocol: reps must be positive");
  trees_.reserve(terminals_.size());
  for (const int t : terminals_) {
    trees_.push_back(network::SpanningTree::build(graph, terminals_, t));
  }
}

const network::SpanningTree& ForallFProtocol::tree_for(int j) const {
  require(j >= 0 && j < terminal_count(), "ForallFProtocol: tree index");
  return trees_[static_cast<std::size_t>(j)];
}

CostProfile ForallFProtocol::costs() const {
  const long long mu = protocol_.message_qubits();
  CostProfile c;
  // Per tree: every internal non-root node holds (deg+1) message copies per
  // repetition; aggregate per ORIGINAL graph node across trees for local
  // sizes.
  std::vector<long long> per_node_proof;
  for (const auto& tree : trees_) {
    for (int v = 0; v < tree.size(); ++v) {
      const auto& node = tree.node(v);
      const bool internal = node.parent >= 0 && !node.children.empty();
      if (!internal) {
        continue;
      }
      const long long copies =
          static_cast<long long>(node.children.size()) + 1;
      const long long qubits = copies * reps_ * mu;
      const int orig = node.original;
      if (orig >= static_cast<int>(per_node_proof.size())) {
        per_node_proof.resize(static_cast<std::size_t>(orig) + 1, 0);
      }
      per_node_proof[static_cast<std::size_t>(orig)] += qubits;
      c.total_proof_qubits += qubits;
    }
    // Messages: one per tree edge per repetition.
    c.total_message_qubits += static_cast<long long>(tree.size() - 1) * reps_ * mu;
  }
  for (const long long p : per_node_proof) {
    c.local_proof_qubits = std::max(c.local_proof_qubits, p);
  }
  c.local_message_qubits =
      static_cast<long long>(terminal_count()) * reps_ * mu;
  return c;
}

ForallFProtocol::TreeProof ForallFProtocol::honest_tree(
    int j, const std::vector<Bitstring>& inputs) const {
  const auto& tree = trees_[static_cast<std::size_t>(j)];
  const Message honest =
      protocol_.honest_message(inputs[static_cast<std::size_t>(j)]);
  TreeProof one;
  one.bundles.resize(static_cast<std::size_t>(tree.size()));
  for (int v = 0; v < tree.size(); ++v) {
    const auto& node = tree.node(v);
    const bool internal = node.parent >= 0 && !node.children.empty();
    if (internal) {
      one.bundles[static_cast<std::size_t>(v)].assign(node.children.size() + 1,
                                                      honest);
    }
  }
  return one;
}

ForallFProtocol::Proof ForallFProtocol::honest_proof(
    const std::vector<Bitstring>& inputs) const {
  require(static_cast<int>(inputs.size()) == terminal_count(),
          "ForallFProtocol: input count mismatch");
  Proof proof(static_cast<std::size_t>(terminal_count()));
  for (int j = 0; j < terminal_count(); ++j) {
    proof[static_cast<std::size_t>(j)].assign(static_cast<std::size_t>(reps_),
                                              honest_tree(j, inputs));
  }
  return proof;
}

bool ForallFProtocol::predicate(const std::vector<Bitstring>& inputs) const {
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    for (std::size_t j = 0; j < inputs.size(); ++j) {
      if (i != j && !protocol_.predicate(inputs[i], inputs[j])) {
        return false;
      }
    }
  }
  return true;
}

double ForallFProtocol::completeness(
    const std::vector<Bitstring>& inputs) const {
  require(static_cast<int>(inputs.size()) == terminal_count(),
          "ForallFProtocol: input count mismatch");
  // Honest proof: every SWAP test passes with certainty (all copies equal);
  // each leaf of tree T_j runs Bob's verdict `reps` times on
  // (x_j, x_leaf).
  double accept = 1.0;
  for (int j = 0; j < terminal_count(); ++j) {
    const auto& tree = trees_[static_cast<std::size_t>(j)];
    for (int k = 0; k < terminal_count(); ++k) {
      if (k == j) {
        continue;
      }
      const int leaf =
          tree.leaf_of_terminal(terminals_[static_cast<std::size_t>(k)]);
      require(tree.node(leaf).children.empty(),
              "ForallFProtocol: terminal is not a leaf of its co-tree");
      const double p = protocol_.honest_accept(
          inputs[static_cast<std::size_t>(j)],
          inputs[static_cast<std::size_t>(k)]);
      accept *= std::pow(p, reps_);
    }
  }
  return accept;
}

ForallFProtocol::CompiledTreeProof ForallFProtocol::compile_tree(
    int j, const std::vector<Bitstring>& inputs, const TreeProof& proof) const {
  const auto& tree = trees_[static_cast<std::size_t>(j)];
  const Message root_message =
      protocol_.honest_message(inputs[static_cast<std::size_t>(j)]);

  CompiledTreeProof compiled;
  compiled.tree = j;
  compiled.swap_accept.resize(static_cast<std::size_t>(tree.size()));
  compiled.leaf_accept.resize(static_cast<std::size_t>(tree.size()));
  for (int v = 0; v < tree.size(); ++v) {
    const auto& node = tree.node(v);
    if (node.parent < 0) {
      continue;  // the root neither tests nor receives
    }
    // Messages that can arrive at v: the parent's bundle copies, or the
    // root's (fixed) honest message.
    const auto& parent = tree.node(node.parent);
    const bool from_root = parent.parent < 0;
    const std::vector<Message>* parent_bundle =
        from_root ? nullptr
                  : &proof.bundles[static_cast<std::size_t>(node.parent)];
    const int sources =
        from_root ? 1 : static_cast<int>(parent_bundle->size());
    const auto arriving = [&](int s) -> const Message& {
      return from_root ? root_message
                       : (*parent_bundle)[static_cast<std::size_t>(s)];
    };

    if (node.children.empty()) {
      // Leaf: Bob's verdict on its own input against every possible
      // arriving copy. Identify which terminal.
      int terminal_idx = -1;
      for (int k = 0; k < terminal_count(); ++k) {
        if (terminals_[static_cast<std::size_t>(k)] == node.original) {
          terminal_idx = k;
          break;
        }
      }
      require(terminal_idx >= 0, "ForallFProtocol: leaf is not a terminal");
      auto& row = compiled.leaf_accept[static_cast<std::size_t>(v)];
      row.resize(static_cast<std::size_t>(sources));
      for (int s = 0; s < sources; ++s) {
        row[static_cast<std::size_t>(s)] = protocol_.accept_product(
            inputs[static_cast<std::size_t>(terminal_idx)], arriving(s));
      }
      continue;
    }
    const auto& bundle = proof.bundles[static_cast<std::size_t>(v)];
    const int copies = static_cast<int>(bundle.size());
    require(copies == static_cast<int>(node.children.size()) + 1,
            "ForallFProtocol: bundle size mismatch");
    auto& table = compiled.swap_accept[static_cast<std::size_t>(v)];
    table.resize(static_cast<std::size_t>(sources));
    for (int s = 0; s < sources; ++s) {
      auto& row = table[static_cast<std::size_t>(s)];
      row.resize(static_cast<std::size_t>(copies));
      for (int c = 0; c < copies; ++c) {
        row[static_cast<std::size_t>(c)] = message_swap_accept(
            bundle[static_cast<std::size_t>(c)], arriving(s));
      }
    }
  }
  return compiled;
}

double ForallFProtocol::sample_compiled_accept(
    const CompiledTreeProof& compiled, util::Rng& rng,
    std::vector<int>& perm_scratch, std::vector<int>& arrived_scratch) const {
  const auto& tree = trees_[static_cast<std::size_t>(compiled.tree)];
  // arrived[v]: which of the parent's copies reached v (0 when the parent
  // is the root). Same walk, same Fisher-Yates draws, same multiplication
  // order as the former per-shot evaluation — only the probabilities come
  // from the precomputed tables.
  arrived_scratch.assign(static_cast<std::size_t>(tree.size()), 0);
  double accept = 1.0;
  // Pre-order: parents before children (tree nodes are emitted in BFS
  // order by construction, so ascending index order works).
  for (int v = 0; v < tree.size(); ++v) {
    const auto& node = tree.node(v);
    if (node.parent < 0) {
      continue;  // children keep arrived = 0: the root's honest message
    }
    const int src = arrived_scratch[static_cast<std::size_t>(v)];
    if (node.children.empty()) {
      accept *= compiled.leaf_accept[static_cast<std::size_t>(v)]
                                    [static_cast<std::size_t>(src)];
      continue;
    }
    // Internal node: uniform permutation of its (deg+1) copies; last slot
    // kept (SWAP-tested against the arriving copy), others forwarded to
    // children in order.
    const auto& row = compiled.swap_accept[static_cast<std::size_t>(v)]
                                          [static_cast<std::size_t>(src)];
    const int copies = static_cast<int>(row.size());
    perm_scratch.resize(static_cast<std::size_t>(copies));
    for (int c = 0; c < copies; ++c) {
      perm_scratch[static_cast<std::size_t>(c)] = c;
    }
    for (int c = copies - 1; c > 0; --c) {
      const int swap_with =
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(c) + 1));
      std::swap(perm_scratch[static_cast<std::size_t>(c)],
                perm_scratch[static_cast<std::size_t>(swap_with)]);
    }
    accept *= row[static_cast<std::size_t>(perm_scratch.back())];
    for (std::size_t c = 0; c < node.children.size(); ++c) {
      arrived_scratch[static_cast<std::size_t>(node.children[c])] =
          perm_scratch[c];
    }
  }
  return accept;
}

MonteCarloEstimate ForallFProtocol::sample_accept(
    const std::vector<const CompiledTreeProof*>& tables, int walks,
    util::Rng& rng, int samples) const {
  std::vector<int> perm_scratch;
  std::vector<int> arrived_scratch;
  RunningStat stat;
  for (int s = 0; s < samples; ++s) {
    double accept = 1.0;
    for (std::size_t t = 0; t < tables.size() && accept != 0.0; ++t) {
      for (int w = 0; w < walks; ++w) {
        accept *= sample_compiled_accept(*tables[t], rng, perm_scratch,
                                         arrived_scratch);
        if (accept == 0.0) {
          break;
        }
      }
    }
    stat.add(accept);
  }
  return stat.finalize();
}

MonteCarloEstimate ForallFProtocol::accept_probability(
    const std::vector<Bitstring>& inputs, const Proof& proof, util::Rng& rng,
    int samples) const {
  require(static_cast<int>(proof.size()) == terminal_count(),
          "ForallFProtocol: proof tree count mismatch");
  require(samples >= 1, "ForallFProtocol: need at least one sample");
  // An arbitrary proof may differ per repetition: compile every (tree,
  // repetition) once and walk each table once per shot, trees in order.
  std::vector<CompiledTreeProof> compiled;
  for (int j = 0; j < terminal_count(); ++j) {
    for (const auto& rep : proof[static_cast<std::size_t>(j)]) {
      compiled.push_back(compile_tree(j, inputs, rep));
    }
  }
  std::vector<const CompiledTreeProof*> tables;
  tables.reserve(compiled.size());
  for (const auto& table : compiled) {
    tables.push_back(&table);
  }
  return sample_accept(tables, 1, rng, samples);
}

MonteCarloEstimate ForallFProtocol::best_attack_accept(
    const std::vector<Bitstring>& inputs, util::Rng& rng, int samples) const {
  require(static_cast<int>(inputs.size()) == terminal_count(),
          "ForallFProtocol: input count mismatch");
  require(samples >= 1, "ForallFProtocol: need at least one sample");
  // Identify a violated ordered pair; cheat only on the corresponding tree
  // path (all other trees stay honest). Every repetition of a tree carries
  // the same proof, so each tree is compiled once and its table walked
  // `reps` times per shot — the same draws and multiplication order as
  // accept_probability on the k-copy proof.
  std::vector<TreeProof> honest;
  std::vector<CompiledTreeProof> honest_compiled;
  std::vector<const CompiledTreeProof*> tables;
  for (int j = 0; j < terminal_count(); ++j) {
    honest.push_back(honest_tree(j, inputs));
    honest_compiled.push_back(compile_tree(j, inputs, honest.back()));
  }
  for (const auto& table : honest_compiled) {
    tables.push_back(&table);
  }
  MonteCarloEstimate best;
  best.mean = -1.0;
  for (int j = 0; j < terminal_count(); ++j) {
    for (int k = 0; k < terminal_count(); ++k) {
      if (j == k || protocol_.predicate(inputs[static_cast<std::size_t>(j)],
                                        inputs[static_cast<std::size_t>(k)])) {
        continue;
      }
      // Interpolate messages from psi(x_j) to psi(x_k) down the path.
      const auto& tree = trees_[static_cast<std::size_t>(j)];
      const int leaf =
          tree.leaf_of_terminal(terminals_[static_cast<std::size_t>(k)]);
      const auto path = tree.path_between(tree.root(), leaf);
      const Message source =
          protocol_.honest_message(inputs[static_cast<std::size_t>(j)]);
      const Message target =
          protocol_.honest_message(inputs[static_cast<std::size_t>(k)]);
      // Per-register geodesics with one waypoint per inner path node.
      const int inner = static_cast<int>(path.size()) - 2;
      std::vector<std::vector<CVec>> geodesics;
      geodesics.reserve(source.size());
      for (std::size_t reg = 0; reg < source.size(); ++reg) {
        geodesics.push_back(geodesic_states(source[reg], target[reg], inner));
      }
      TreeProof cheat = honest[static_cast<std::size_t>(j)];
      for (int p = 1; p <= inner; ++p) {
        const int v = path[static_cast<std::size_t>(p)];
        const auto& node = tree.node(v);
        const bool internal = node.parent >= 0 && !node.children.empty();
        if (!internal) {
          continue;
        }
        Message waypoint;
        waypoint.reserve(source.size());
        for (const auto& states : geodesics) {
          waypoint.push_back(states[static_cast<std::size_t>(p - 1)]);
        }
        cheat.bundles[static_cast<std::size_t>(v)].assign(
            node.children.size() + 1, waypoint);
      }
      const CompiledTreeProof attacked = compile_tree(j, inputs, cheat);
      std::vector<const CompiledTreeProof*> attack_tables = tables;
      attack_tables[static_cast<std::size_t>(j)] = &attacked;
      const MonteCarloEstimate est =
          sample_accept(attack_tables, reps_, rng, samples);
      if (est.mean > best.mean) {
        best = est;
      }
    }
  }
  require(best.mean >= 0.0,
          "ForallFProtocol::best_attack_accept: inputs satisfy the predicate");
  return best;
}

}  // namespace dqma::protocol
