// The paper's Theorem 26: dQMA protocol for the greater-than function on a
// path (Algorithm 7), and the GT<, GT>=, GT<= variants of Corollary 28.
//
// GT(x, y) = 1 iff there is an index i with x_i = 1, y_i = 0 and
// x[i] = y[i] (equal proper prefixes). The prover broadcasts the index in
// classical index registers — every node measures and compares with its
// neighbor, so inconsistent indices are rejected with certainty and the
// adversary is reduced to choosing one index — and the EQ chain protocol
// runs on *prefix fingerprints*.
//
// Prefixes of different lengths are fingerprinted by zero-padding to n bits
// (prefix equality at a common index i is equivalent to padded-string
// equality, and index agreement is enforced separately). The i = 0 prefix
// is the all-zero padding, realizing the paper's |bot> state. For the >=
// and <= variants a sentinel index i = n means "the strings are equal" and
// the chain runs on full-string fingerprints.
#pragma once

#include <cstdint>

#include "dqma/model.hpp"
#include "fingerprint/fingerprint.hpp"
#include "util/bitstring.hpp"

namespace dqma::protocol {

using util::Bitstring;

enum class GtVariant { kGreater, kLess, kGeq, kLeq };

/// Evaluates the variant's predicate on integers encoded big-endian.
bool gt_predicate(GtVariant variant, const Bitstring& x, const Bitstring& y);

class GtProtocol {
 public:
  GtProtocol(int n, int r, double delta, int reps,
             GtVariant variant = GtVariant::kGreater,
             std::uint64_t seed = 0x0ddba11);

  /// Repetition count for soundness 1/3 (same analysis as the EQ chain:
  /// k = ceil(81 r^2 / 2)).
  static int paper_reps(int r);

  int n() const { return n_; }
  int r() const { return r_; }
  int reps() const { return reps_; }
  GtVariant variant() const { return variant_; }

  CostProfile costs() const;

  /// A full prover strategy: the broadcast index (0..n-1, or n for the
  /// equality sentinel in the >= / <= variants) plus the chain proof.
  struct Strategy {
    int index = 0;
    PathProofReps proof;
  };

  /// Honest strategy; requires the predicate to hold (throws otherwise).
  Strategy honest_strategy(const Bitstring& x, const Bitstring& y) const;

  /// Exact acceptance probability of a strategy.
  double accept_probability(const Bitstring& x, const Bitstring& y,
                            const Strategy& strategy) const;

  /// Acceptance of the honest strategy: one repetition evaluated and
  /// folded k times, bit-identical to accept_probability(x, y,
  /// honest_strategy(x, y)).
  double completeness(const Bitstring& x, const Bitstring& y) const;

  /// Strongest implemented attack: maximize over all admissible indices
  /// (endpoint bit checks satisfied) and the product attacks on the prefix
  /// EQ chain.
  double best_attack_accept(const Bitstring& x, const Bitstring& y) const;

  /// The fingerprint input used at index i for an input string (padded
  /// prefix, or the full string for the sentinel). Exposed for tests.
  Bitstring fingerprint_input(const Bitstring& s, int index) const;

 private:
  int n_;
  int r_;
  int reps_;
  GtVariant variant_;
  fingerprint::FingerprintScheme scheme_;

  bool sentinel_allowed() const {
    return variant_ == GtVariant::kGeq || variant_ == GtVariant::kLeq;
  }
  /// Endpoint bit conditions at a non-sentinel index.
  bool x_bit_ok(const Bitstring& x, int i) const;
  bool y_bit_ok(const Bitstring& y, int i) const;
  /// False when v_0 or v_r rejects index i deterministically.
  bool index_admissible(const Bitstring& x, const Bitstring& y, int i) const;
  /// The honest prover's index (throws unless the predicate holds).
  int honest_index(const Bitstring& x, const Bitstring& y) const;
  /// One repetition of the prefix EQ chain from `source` to `target`.
  double chain_rep(const linalg::CVec& source, const linalg::CVec& target,
                   const PathProof& rep) const;
};

}  // namespace dqma::protocol
