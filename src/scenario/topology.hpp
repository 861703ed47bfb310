// Seeded topology generation: the random network substrate of the scenario
// engine (ROADMAP item 3).
//
// The paper analyzes fixed worst-case networks (paths, and trees via the
// Sec. 3.3 construction); the scenario engine instead samples networks from
// parameterized families and measures the protocols across the sampled
// space. Every generated topology is a pure function of its 64-bit seed:
// the same (spec, seed) pair reproduces the identical graph, terminal set,
// and per-link noise rates on every platform, which is what lets the sweep
// engine shard and resume scenario sweeps with the same byte-identity
// guarantees as every other experiment.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "network/graph.hpp"

namespace dqma::scenario {

enum class TopologyFamily {
  kPath,               ///< v_0 - v_1 - ... - v_{n-1}
  kStar,               ///< center plus n-1 leaves (degree cap exempt)
  kCaterpillar,        ///< spine path with leaf legs
  kRandomTree,         ///< degree-capped random attachment tree
  kBoundedDegreeGraph, ///< random tree plus extra edges within the cap
};

/// Families in enumeration order (for sweep axes and tests).
const std::vector<TopologyFamily>& all_families();

/// Stable lowercase name ("path", "star", "caterpillar", "random_tree",
/// "bounded_degree") used as sweep axis values.
const char* family_name(TopologyFamily family);

/// Inverse of family_name; rejects unknown names loudly.
TopologyFamily family_from_name(const std::string& name);

/// Parameters of one topology draw.
struct TopologySpec {
  TopologyFamily family = TopologyFamily::kRandomTree;
  int nodes = 8;       ///< total node count (>= 2)
  int terminals = 2;   ///< number of terminal nodes (in [2, nodes])
  int max_degree = 4;  ///< degree cap (>= 2); kStar is exempt
  double max_noise = 0.0;  ///< per-link rates drawn uniformly from [0, this]
};

/// One generated network: graph, terminal set, and heterogeneous link
/// noise. `edges` lists every edge once in canonical (u < v, sorted) order;
/// `link_rates` is parallel to it.
struct Topology {
  network::Graph graph{1};  ///< placeholder until generated
  std::vector<int> terminals;
  std::vector<std::pair<int, int>> edges;
  std::vector<double> link_rates;

  /// Depolarizing rate of edge {u, v}; requires the edge to exist.
  double link_rate(int u, int v) const;
};

/// Draws a topology. Pure function of (spec, seed): generation consumes the
/// seeded stream in a pinned order (graph structure, then terminals, then
/// link rates), so adding families can never reshuffle existing draws.
/// Every generated graph is connected and, except for kStar, respects
/// spec.max_degree.
Topology generate_topology(const TopologySpec& spec, std::uint64_t seed);

}  // namespace dqma::scenario
