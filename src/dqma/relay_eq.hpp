// The paper's Theorem 22: EQ on a long path with ~O(r n^{2/3}) TOTAL proof
// size via "relay points" (Algorithm 6).
//
// Relay nodes (every `spacing` positions) receive an n-qubit basis-state
// proof, measure it, and act as classical anchors; the stretches between
// anchors run the symmetrized fingerprint protocol of Algorithm 3 with
// enough parallel repetitions for per-segment soundness. The prover fully
// controls the measured relay strings, so the adversary model gives the
// prover (a) the relay strings and (b) product proofs inside each segment.
//
// The spacing sweep (DESIGN.md ablation D3) shows ceil(n^{1/3}) minimizes
// the total proof size, reproducing the paper's exponent.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dqma/eq_path.hpp"
#include "dqma/model.hpp"
#include "util/bitstring.hpp"

namespace dqma::protocol {

class RelayEqProtocol {
 public:
  /// n: input bits; r: path length; delta: fingerprint overlap; spacing:
  /// relay interval (paper: ceil(n^{1/3})); seg_reps: repetitions of the
  /// segment protocol (paper: 42 * spacing^2).
  RelayEqProtocol(int n, int r, double delta, int spacing, int seg_reps,
                  std::uint64_t seed = 0x0ddba11);

  /// Paper parameterization.
  static int paper_spacing(int n);
  static int paper_seg_reps(int n);

  int n() const { return n_; }
  int r() const { return r_; }
  int spacing() const { return spacing_; }
  int segment_count() const { return static_cast<int>(segments_.size()); }
  int relay_count() const { return static_cast<int>(relay_positions_.size()); }

  CostProfile costs() const;

  /// Formula-level cost accounting without constructing fingerprint codes
  /// (cost sweeps over large n; see EqPathProtocol::costs_for).
  static CostProfile costs_for(int n, int r, double delta, int spacing,
                               int seg_reps);

  /// A full adversarial strategy: the relay strings (one per relay, in
  /// order) and one PathProofReps per segment.
  struct Strategy {
    std::vector<Bitstring> relay_strings;
    std::vector<PathProofReps> segment_proofs;
  };

  Strategy honest_strategy(const Bitstring& x) const;

  /// Exact acceptance probability of a strategy on inputs (x, y).
  double accept_probability(const Bitstring& x, const Bitstring& y,
                            const Strategy& strategy) const;

  /// Acceptance of the honest strategy, bit-identical to
  /// accept_probability(x, x, honest_strategy(x)) without building it.
  double completeness(const Bitstring& x) const;

  /// Strongest implemented attack: relay strings interpolate from x to y in
  /// Hamming space (plus the single-jump variant), with per-segment best
  /// product attacks.
  double best_attack_accept(const Bitstring& x, const Bitstring& y) const;

 private:
  int n_;
  int r_;
  int spacing_;
  int seg_reps_;
  std::vector<int> relay_positions_;            ///< path indices of relays
  std::vector<std::unique_ptr<EqPathProtocol>> segments_;

  double strategy_accept(const std::vector<Bitstring>& anchors,
                         const Strategy& strategy, const Bitstring& x,
                         const Bitstring& y) const;
};

}  // namespace dqma::protocol
