#include "dqma/hamming.hpp"

namespace dqma::protocol {

HammingGraphProtocol::HammingGraphProtocol(const network::Graph& graph,
                                           std::vector<int> terminals, int n,
                                           int d, double delta, int reps,
                                           std::uint64_t seed)
    : one_way_(std::make_unique<comm::HammingOneWayProtocol>(
          n, d, delta,
          comm::HammingOneWayProtocol::recommended_copies(d, delta), seed)),
      forall_(std::make_unique<ForallFProtocol>(graph, std::move(terminals),
                                                *one_way_, reps)) {}

double HammingGraphProtocol::proof_amplitudes(int n, int d, double delta,
                                              int nodes) {
  using comm::HammingOneWayProtocol;
  return nodes * HammingOneWayProtocol::message_amplitudes(
                     n, d, delta,
                     HammingOneWayProtocol::recommended_copies(d, delta));
}

}  // namespace dqma::protocol
