// The paper's Theorem 30: dQMA protocol for the multi-party Hamming
// distance predicate HAM^{<=d}_{t,n} on a general graph — the flagship
// instantiation of the forall_t f construction (Algorithm 9) with the
// one-way Hamming-distance protocol as f.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "comm/hamming_protocol.hpp"
#include "dqma/forall_f.hpp"

namespace dqma::protocol {

class HammingGraphProtocol {
 public:
  HammingGraphProtocol(const network::Graph& graph,
                       std::vector<int> terminals, int n, int d, double delta,
                       int reps, std::uint64_t seed = 0xd15ea5e);

  /// Amplitudes of one honest message on each of `nodes` nodes, at the copy
  /// count this constructor picks, without building the protocol.
  static double proof_amplitudes(int n, int d, double delta, int nodes);

  const comm::HammingOneWayProtocol& one_way() const { return *one_way_; }
  const ForallFProtocol& forall() const { return *forall_; }

  int threshold() const { return one_way_->threshold(); }
  CostProfile costs() const { return forall_->costs(); }

  bool predicate(const std::vector<Bitstring>& inputs) const {
    return forall_->predicate(inputs);
  }
  double completeness(const std::vector<Bitstring>& inputs) const {
    return forall_->completeness(inputs);
  }
  MonteCarloEstimate best_attack_accept(const std::vector<Bitstring>& inputs,
                                        util::Rng& rng,
                                        int samples = 2000) const {
    return forall_->best_attack_accept(inputs, rng, samples);
  }

 private:
  std::unique_ptr<comm::HammingOneWayProtocol> one_way_;
  std::unique_ptr<ForallFProtocol> forall_;
};

}  // namespace dqma::protocol
