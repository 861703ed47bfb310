// Channel-noise modelling for the verification protocols.
//
// The paper assumes noiseless communication; a practical deployment would
// not have it. Every forwarded register passes through a depolarizing
// channel D_p(rho) = (1-p) rho + p I/d, which admits exact closed forms for
// every test in the protocols:
//   * SWAP test on (noisy received, clean kept):
//       (1-p) * swap(a, b) + p * (1/2 + 1/(2d));
//   * final projector |h_y><h_y| on a noisy register:
//       (1-p) |<h_y|b>|^2 + p/d;
//   * permutation tests with several independently depolarized factors are
//     handled exactly by qtest::depolarized_permutation_test_accept.
// Depolarization damps every test statistic toward its mixed-state
// baseline, so it hurts whichever side relies on near-deterministic
// outcomes — primarily completeness, which needs ALL r*k tests to accept:
// it decays as ~(1 - p/2)^{r k}, making the paper's k = Theta(r^2)
// repetition count a genuine robustness liability.
//
// NoiseModel is the protocol-generic description of that noise: one
// depolarizing rate per link, with the uniform model (the same rate on
// every link) as a special case. Links are indexed by whatever integer the
// consuming protocol uses — path protocols use link j = channel v_j -> v_{j+1},
// tree protocols (EqGraphProtocol::noisy_accept_probability) use the child
// tree-node index of each upward edge, and the scenario engine
// (src/scenario/) maps seeded per-edge rates of a generated topology onto
// either convention.
#pragma once

#include <vector>

#include "dqma/eq_path.hpp"

namespace dqma::protocol {

/// Per-link depolarizing channel strengths. Default-constructed models are
/// noiseless; uniform models apply one rate to every link a protocol asks
/// about (any link index); per-link models hold an explicit rate table and
/// reject out-of-range links loudly.
class NoiseModel {
 public:
  /// Noiseless (rate 0 on every link).
  NoiseModel() = default;

  /// The same depolarizing rate on every link. Requires rate in [0, 1].
  static NoiseModel uniform(double rate);

  /// Heterogeneous rates, one per link in the consumer's link order.
  /// Requires every rate in [0, 1].
  static NoiseModel per_link(std::vector<double> rates);

  /// True when one rate applies to every link (including the default
  /// noiseless model).
  bool is_uniform() const { return rates_.empty(); }

  /// True when every link is noiseless (rate exactly 0).
  bool is_noiseless() const;

  /// Depolarizing rate of `link`. Uniform models accept any non-negative
  /// link index; per-link models require 0 <= link < link_count().
  double rate(int link) const;

  /// Number of explicit links, or -1 for uniform models (unbounded).
  int link_count() const {
    return rates_.empty() ? -1 : static_cast<int>(rates_.size());
  }

  /// Largest per-link rate (the uniform rate for uniform models).
  double max_rate() const;

  /// Every rate multiplied by `factor` and clamped to [0, 1]; used by
  /// threshold searches that scale a heterogeneous profile. Requires
  /// factor >= 0.
  NoiseModel scaled(double factor) const;

  /// Closed-form damping of a test statistic on `link`: with probability
  /// (1 - p) the register arrives intact (statistic `clean`), with
  /// probability p it is replaced by the maximally mixed state (statistic
  /// `baseline`).
  double damp(int link, double clean, double baseline) const {
    const double p = rate(link);
    return (1.0 - p) * clean + p * baseline;
  }

 private:
  double uniform_rate_ = 0.0;
  std::vector<double> rates_;  ///< empty => uniform model
};

/// Exact acceptance of a product proof where the register forwarded over
/// link j (channel v_j -> v_{j+1}) passes a depolarizing channel of
/// strength noise.rate(j); k repetitions multiply. Per-link models must
/// cover links 0..r-1.
double noisy_accept_probability(const EqPathProtocol& protocol,
                                const Bitstring& x, const Bitstring& y,
                                const PathProofReps& proof,
                                const NoiseModel& noise);

/// Completeness of the honest proof under noise.
double noisy_completeness(const EqPathProtocol& protocol, const Bitstring& x,
                          const NoiseModel& noise);

/// Best implemented product attack (rotation + step cuts) under noise.
double noisy_attack_accept(const EqPathProtocol& protocol, const Bitstring& x,
                           const Bitstring& y, const NoiseModel& noise);

/// Largest scale s (binary search over [0, 1], resolution `tol`) at which
/// the protocol under profile.scaled(s) still has completeness >= 2/3 AND
/// attack acceptance <= 1/3 simultaneously; returns 0 if the protocol
/// fails even noiselessly. With the default uniform unit profile the
/// returned scale IS the largest tolerable uniform rate.
///
/// Cost: the fingerprints and the test statistics of the honest chain and
/// of the r+1 attack chains are collected once (O(r^2) closed-form tests on
/// d-dimensional states); each of the ~log2(1/tol) bisection steps then
/// re-runs only the O(r) coin DP of every chain under the scaled profile and
/// folds the honest value k times. The result is bit-identical to bisecting
/// over noisy_completeness / noisy_attack_accept.
double noise_threshold(const EqPathProtocol& protocol, const Bitstring& x,
                       const Bitstring& y, double tol = 1e-3,
                       const NoiseModel& profile = NoiseModel::uniform(1.0));

}  // namespace dqma::protocol
