#include "dqma/circuit_sim.hpp"

#include <array>
#include <cmath>
#include <vector>

#include "util/require.hpp"
#include "util/tolerance.hpp"

namespace dqma::protocol {

using linalg::CVec;
using util::require;

MonteCarloEstimate circuit_eq_path_accept(const CVec& source,
                                          const CVec& target,
                                          const PathProof& proof,
                                          util::Rng& rng, int samples) {
  const int d = source.dim();
  require(target.dim() == d, "circuit_eq_path_accept: dimension mismatch");
  require(2 * d * d <= util::kMaxExactDim,
          "circuit_eq_path_accept: dimension too large for circuit simulation");
  for (const auto& v : proof.reg0) {
    require(v.dim() == d, "circuit_eq_path_accept: proof dimension mismatch");
  }
  for (const auto& v : proof.reg1) {
    require(v.dim() == d, "circuit_eq_path_accept: proof dimension mismatch");
  }
  require(samples >= 1, "circuit_eq_path_accept: need at least one sample");

  // Node j's SWAP test acts on (sent_{j-1}(prev_coin), kept_j(coin)) — four
  // (prev_coin, coin) combinations per node, two for the first node (the
  // source is fixed) — so all test probabilities are closed-form inner
  // products computed once. Each shot then replays Algorithm 3's draw
  // sequence against the tables.
  const int inner = proof.intermediate_nodes();
  const auto swap_p0 = [](const CVec& a, const CVec& b) {
    const double mag = std::abs(a.dot(b));
    return 0.5 + 0.5 * mag * mag;
  };
  // p0[j][prev][cur]: Pr[ancilla = 0] at node j given the previous node's
  // coin `prev` (which fixes the arriving register) and node j's own coin
  // `cur` (which fixes the kept register). Row prev is ignored at j = 0.
  std::vector<std::array<std::array<double, 2>, 2>> p0(
      static_cast<std::size_t>(inner));
  for (int j = 0; j < inner; ++j) {
    for (int prev = 0; prev < 2; ++prev) {
      const CVec& received =
          j == 0 ? source
                 : (prev == 0 ? proof.reg1[static_cast<std::size_t>(j - 1)]
                              : proof.reg0[static_cast<std::size_t>(j - 1)]);
      for (int cur = 0; cur < 2; ++cur) {
        const CVec& kept = cur == 0 ? proof.reg0[static_cast<std::size_t>(j)]
                                    : proof.reg1[static_cast<std::size_t>(j)];
        p0[static_cast<std::size_t>(j)][static_cast<std::size_t>(prev)]
          [static_cast<std::size_t>(cur)] = swap_p0(received, kept);
      }
    }
  }
  // Final projective measurement on sent_{r-1}(coin).
  std::array<double, 2> p_final = {0.0, 0.0};
  if (inner > 0) {
    const int last = inner - 1;
    p_final[0] =
        std::norm(target.dot(proof.reg1[static_cast<std::size_t>(last)]));
    p_final[1] =
        std::norm(target.dot(proof.reg0[static_cast<std::size_t>(last)]));
  } else {
    p_final[0] = p_final[1] = std::norm(target.dot(source));
  }

  RunningStat stat;
  for (int s = 0; s < samples; ++s) {
    int prev = 0;
    bool rejected = false;
    for (int j = 0; j < inner; ++j) {
      const bool coin = rng.next_bool(0.5);
      const int cur = coin ? 1 : 0;
      const double p =
          p0[static_cast<std::size_t>(j)][static_cast<std::size_t>(prev)]
            [static_cast<std::size_t>(cur)];
      if (rng.next_double() >= p) {
        rejected = true;  // this node rejects; later draws are skipped
        break;
      }
      prev = cur;
    }
    if (rejected) {
      stat.add(0.0);
      continue;
    }
    stat.add(rng.next_bool(p_final[static_cast<std::size_t>(prev)]) ? 1.0
                                                                    : 0.0);
  }
  return stat.finalize();
}

}  // namespace dqma::protocol
