#include "serve/handlers.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "dqma/eq_graph.hpp"
#include "dqma/gt.hpp"
#include "dqma/hamming.hpp"
#include "network/graph.hpp"
#include "util/bitstring.hpp"
#include "util/require.hpp"

namespace dqma::serve {
namespace {

using util::Bitstring;
using util::Rng;

std::vector<Workload>& registry() {
  static std::vector<Workload> workloads;
  return workloads;
}

/// Integer request parameter with a default; doubles are rejected so a
/// request carrying 2.5 for a count fails loudly instead of truncating.
long long param_int(const Request& request, std::string_view name,
                    long long fallback) {
  const sweep::Value* value = request.params.find(name);
  if (value == nullptr) {
    return fallback;
  }
  util::require(std::holds_alternative<long long>(*value),
                "param '" + std::string(name) + "': expected an integer");
  return std::get<long long>(*value);
}

/// Floating request parameter with a default; integer literals widen.
double param_double(const Request& request, std::string_view name,
                    double fallback) {
  const sweep::Value* value = request.params.find(name);
  if (value == nullptr) {
    return fallback;
  }
  if (std::holds_alternative<long long>(*value)) {
    return static_cast<double>(std::get<long long>(*value));
  }
  util::require(std::holds_alternative<double>(*value),
                "param '" + std::string(name) + "': expected a number");
  return std::get<double>(*value);
}

int param_count(const Request& request, std::string_view name,
                long long fallback, long long lo, long long hi) {
  const long long value = param_int(request, name, fallback);
  util::require(value >= lo && value <= hi,
                "param '" + std::string(name) + "': out of range [" +
                    std::to_string(lo) + ", " + std::to_string(hi) + "]");
  return static_cast<int>(value);
}

/// Shape key fragment "name=value"; '/'-joined by the callers.
std::string kv(std::string_view name, const sweep::Value& value) {
  return std::string(name) + "=" + sweep::value_to_string(value);
}

// ---------------------------------------------------------------------------
// replicated_data_audit — examples/replicated_data_audit.cpp as a service:
// the general-graph EQ protocol on a seeded random tree. Params: nodes,
// replicas, n (replica bits), topo_seed (tree draw), delta, reps,
// tamper_bits (0 = honest world, >0 = flip that many bits in one replica
// and report the prover's best attack).
// ---------------------------------------------------------------------------

struct AuditShape {
  std::vector<int> replicas;
  protocol::EqGraphProtocol protocol;
};

sweep::Metrics run_replicated_data_audit(const Request& request,
                                         ShapeCache& cache, Rng& rng) {
  const int nodes = param_count(request, "nodes", 12, 2, 64);
  const int replicas = param_count(request, "replicas", 4, 2, nodes);
  const int n = param_count(request, "n", 256, 1, 1 << 16);
  const long long topo_seed = param_int(request, "topo_seed", 2024);
  const double delta = param_double(request, "delta", 0.3);
  const int reps = param_count(request, "reps", 64, 1, 1 << 20);
  const int tamper_bits = param_count(request, "tamper_bits", 0, 0, n);

  const std::string key =
      "replicated_data_audit/" + kv("nodes", nodes) + "/" +
      kv("replicas", replicas) + "/" + kv("n", n) + "/" +
      kv("topo_seed", topo_seed) + "/" + kv("delta", delta) + "/" +
      kv("reps", reps);
  const auto shape = cache.get_or_build<AuditShape>(key, [&] {
    // The topology is part of the shape: drawn from its own seed so two
    // requests with equal params verify against the same network.
    Rng topo_rng(static_cast<std::uint64_t>(topo_seed));
    const network::Graph graph = network::Graph::random_tree(nodes, topo_rng);
    std::vector<int> sites(replicas);
    for (int i = 0; i < replicas; ++i) {
      sites[i] = replicas == 1 ? 0 : i * (nodes - 1) / (replicas - 1);
    }
    return AuditShape{
        sites, protocol::EqGraphProtocol(graph, sites, n, delta, reps)};
  });

  const Bitstring blob = Bitstring::random(n, rng);
  sweep::Metrics metrics;
  metrics.set("tree_depth", shape->protocol.tree().depth());
  metrics.set("local_proof_qubits",
              shape->protocol.costs().local_proof_qubits);
  if (tamper_bits == 0) {
    metrics.set("equal", true);
    metrics.set("accept", shape->protocol.completeness(blob));
  } else {
    std::vector<Bitstring> inputs(shape->replicas.size(), blob);
    Bitstring& victim =
        inputs[rng.next_below(static_cast<std::uint64_t>(inputs.size()))];
    // Flip tamper_bits distinct positions.
    std::vector<int> positions(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      positions[static_cast<std::size_t>(i)] = i;
    }
    for (int i = 0; i < tamper_bits; ++i) {
      const auto j = static_cast<std::size_t>(i) +
                     rng.next_below(static_cast<std::uint64_t>(n - i));
      std::swap(positions[static_cast<std::size_t>(i)], positions[j]);
      victim.flip(positions[static_cast<std::size_t>(i)]);
    }
    metrics.set("equal", false);
    metrics.set("accept", shape->protocol.best_attack_accept(inputs));
  }
  return metrics;
}

// ---------------------------------------------------------------------------
// config_drift — examples/config_drift.cpp as a service: the Hamming
// drift predicate HAM^{<=d} between the two endpoints of a path. Params:
// n (flags), d (allowed drift), drift (actual), r (path length), delta,
// reps, samples (attack MC sample count when the predicate fails).
// ---------------------------------------------------------------------------

/// Largest config_drift shape built: the bytes of its block masks and code
/// (d may reach n, and 4 (d+1)^2 masks are built eagerly).
constexpr double kMaxDriftShapeBytes = 64.0 * (1 << 20);
/// Largest attack (drift > d) served, in amplitudes: one message per path
/// node. The attack holds several copies of each node's message, ~100-128
/// bytes of peak RSS per amplitude counted here: one dqma_serve answering one
/// request at this bound (n = 2048, d = 0, r = 3) peaks at 61 MiB, 14 idle.
constexpr double kMaxDriftAttackAmplitudes = 1 << 19;

sweep::Metrics run_config_drift(const Request& request, ShapeCache& cache,
                                Rng& rng) {
  const int n = param_count(request, "n", 32, 1, 1 << 12);
  const int d = param_count(request, "d", 2, 0, n);
  const int drift = param_count(request, "drift", 2, 0, n);
  const int r = param_count(request, "r", 2, 2, 64);
  const double delta = param_double(request, "delta", 0.35);
  const int reps = param_count(request, "reps", 40, 1, 1 << 20);
  const int samples = param_count(request, "samples", 200, 1, 1 << 20);
  // Checked before the cache builds anything; the closed-form honest run
  // holds no fingerprint, so only the attack is bounded by its proof.
  const double bytes = comm::HammingOneWayProtocol::stored_bytes(n, d, delta);
  util::require(bytes <= kMaxDriftShapeBytes,
                "config_drift: shape of " + sweep::value_to_string(bytes) +
                    " bytes exceeds the limit " +
                    sweep::value_to_string(kMaxDriftShapeBytes));
  if (drift > d) {
    const double amplitudes =
        protocol::HammingGraphProtocol::proof_amplitudes(n, d, delta, r + 1);
    util::require(amplitudes <= kMaxDriftAttackAmplitudes,
                  "config_drift: attack proof of " +
                      sweep::value_to_string(amplitudes) +
                      " amplitudes exceeds the limit " +
                      sweep::value_to_string(kMaxDriftAttackAmplitudes));
  }

  const std::string key = "config_drift/" + kv("n", n) + "/" + kv("d", d) +
                          "/" + kv("r", r) + "/" + kv("delta", delta) + "/" +
                          kv("reps", reps);
  const auto shape =
      cache.get_or_build<protocol::HammingGraphProtocol>(key, [&] {
        return protocol::HammingGraphProtocol(network::Graph::path(r),
                                              {0, r}, n, d, delta, reps);
      });

  const Bitstring golden = Bitstring::random(n, rng);
  const std::vector<Bitstring> inputs{
      golden, Bitstring::random_at_distance(golden, drift, rng)};
  const bool within = shape->predicate(inputs);

  sweep::Metrics metrics;
  metrics.set("within_tolerance", within);
  metrics.set("local_proof_qubits", shape->costs().local_proof_qubits);
  if (within) {
    metrics.set("accept", shape->completeness(inputs));
    metrics.set("half_width_95", 0.0);
  } else {
    const auto estimate = shape->best_attack_accept(inputs, rng, samples);
    metrics.set("accept", estimate.mean);
    metrics.set("half_width_95", estimate.half_width_95);
  }
  return metrics;
}

// ---------------------------------------------------------------------------
// auction_gt — examples/auction_gt.cpp as a service: the greater-than
// relay-chain protocol on sealed integer bids. Params: n (bid bits), r
// (relays), delta, reps (0 = the paper's prescription), bid, reserve.
// ---------------------------------------------------------------------------

sweep::Metrics run_auction_gt(const Request& request, ShapeCache& cache,
                              Rng& /*rng*/) {
  const int n = param_count(request, "n", 32, 1, 63);
  const int r = param_count(request, "r", 4, 1, 64);
  const double delta = param_double(request, "delta", 0.3);
  int reps = param_count(request, "reps", 0, 0, 1 << 20);
  if (reps == 0) {
    reps = protocol::GtProtocol::paper_reps(r);
  }
  const long long bid = param_int(request, "bid", 1'250'000);
  const long long reserve = param_int(request, "reserve", 1'000'000);
  util::require(bid >= 0 && reserve >= 0,
                "auction_gt: bid/reserve must be non-negative");

  const std::string key = "auction_gt/" + kv("n", n) + "/" + kv("r", r) +
                          "/" + kv("delta", delta) + "/" + kv("reps", reps);
  const auto shape = cache.get_or_build<protocol::GtProtocol>(key, [&] {
    return protocol::GtProtocol(n, r, delta, reps);
  });

  const Bitstring x =
      Bitstring::from_integer(static_cast<std::uint64_t>(bid), n);
  const Bitstring y =
      Bitstring::from_integer(static_cast<std::uint64_t>(reserve), n);
  const bool wins = protocol::gt_predicate(shape->variant(), x, y);

  sweep::Metrics metrics;
  metrics.set("bid_wins", wins);
  metrics.set("local_proof_qubits", shape->costs().local_proof_qubits);
  metrics.set("accept", wins ? shape->completeness(x, y)
                             : shape->best_attack_accept(x, y));
  return metrics;
}

}  // namespace

void register_workload(Workload workload) {
  util::require(!workload.name.empty(),
                "register_workload: empty workload name");
  for (const auto& existing : registry()) {
    util::require(existing.name != workload.name,
                  "register_workload: duplicate name " + workload.name);
  }
  registry().push_back(std::move(workload));
}

const std::vector<Workload>& workloads() { return registry(); }

const Workload* find_workload(std::string_view name) {
  for (const auto& workload : registry()) {
    if (workload.name == name) {
      return &workload;
    }
  }
  return nullptr;
}

void register_builtin_workloads() {
  static const bool registered = [] {
    register_workload(
        {"replicated_data_audit",
         "graph EQ audit of replicated blobs on a seeded random tree",
         run_replicated_data_audit});
    register_workload(
        {"config_drift",
         "Hamming drift predicate between path endpoints (forall_f)",
         run_config_drift});
    register_workload(
        {"auction_gt",
         "sealed-bid greater-than on a relay chain (prefix fingerprints)",
         run_auction_gt});
    return true;
  }();
  (void)registered;
}

std::string handle_request_line(std::string_view line, ShapeCache& cache,
                                bool* ok) {
  if (ok != nullptr) {
    *ok = false;
  }
  Request request;
  try {
    request = parse_request(line);
  } catch (const std::exception& error) {
    return error_response("", error.what());
  }
  try {
    const Workload* workload = find_workload(request.workload);
    util::require(workload != nullptr,
                  "unknown workload '" + request.workload + "'");
    // Seeded from (workload, seed) only: the response does not depend on
    // which thread runs it or on any other request in flight.
    util::Rng rng(util::derive_seed(sweep::fnv1a64(request.workload),
                                    request.seed));
    const std::string response =
        ok_response(request.id, workload->run(request, cache, rng));
    if (ok != nullptr) {
      *ok = true;
    }
    return response;
  } catch (const std::exception& error) {
    return error_response(request.id, error.what());
  }
}

}  // namespace dqma::serve
