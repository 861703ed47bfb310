// One-way quantum protocol for the Hamming-distance predicate
// HAM_{<=d}(x, y) = [ d(x, y) <= d ].
//
// The paper cites the O(d log n) protocol of [LZ13]; that construction
// depends on structured combinatorial gadgets with no laptop-scale public
// reference implementation. We substitute a *block-isolation* protocol
// (GKdW04-style, documented in DESIGN.md): indices are hashed into
// B = Theta(d^2) blocks so that, with high probability over the (shared,
// seeded) hash, the at-most-(d or d+1) differing indices land in distinct
// blocks; Alice fingerprints x masked to each block (k copies each) and Bob
// counts blocks with at least one rejected copy, accepting iff at most d
// blocks are flagged.
//
// Properties (proved in tests):
//  * completeness is exactly 1: equal blocks are never flagged, and the
//    number of unequal blocks is at most d(x,y) <= d;
//  * soundness error <= (d+1) delta^{2k} + Pr[hash collision], driven below
//    1/3 by k = O(log d) copies and B >= 4 (d+1)^2 blocks;
//  * cost O(d^2 log d log n) qubits — a factor ~d log d above [LZ13], which
//    EXPERIMENTS.md reports next to every measurement that depends on it.
//
// The honest run builds no state: E is linear, so block b's overlap is
// 1 - 2 w(E((x xor y) & mask_b)) / m [BCWdW01], which honest_accept feeds to
// accept_product's DP (exactly 1 when at most d blocks differ).
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "comm/one_way.hpp"
#include "fingerprint/fingerprint.hpp"

namespace dqma::comm {

class HammingOneWayProtocol final : public OneWayProtocol {
 public:
  /// n: input length; d: distance threshold; delta: fingerprint overlap
  /// bound; copies: fingerprints per block (k); seed: shared randomness for
  /// both the index hash and the code.
  HammingOneWayProtocol(int n, int d, double delta, int copies,
                        std::uint64_t seed = 0xd15ea5e);

  /// Sizes of the shape (n, d, delta, copies) without building it, in
  /// doubles (at d = n = 4096 they near LLONG_MAX): the amplitudes of one
  /// honest message, blocks x copies x fingerprint dimension, and the bytes
  /// the constructor stores, the block masks plus the code's generator.
  static double message_amplitudes(int n, int d, double delta, int copies);
  static double stored_bytes(int n, int d, double delta);

  /// Copy count that brings the soundness error below `target`.
  static int recommended_copies(int d, double delta, double target = 1.0 / 3);

  std::string name() const override { return "HAM-block-isolation"; }
  int input_length() const override { return n_; }
  int threshold() const { return d_; }
  int block_count() const { return blocks_; }
  int copies() const { return copies_; }

  std::vector<int> message_dims() const override;
  std::vector<CVec> honest_message(const Bitstring& x) const override;
  double accept_product(const Bitstring& y,
                        const std::vector<CVec>& message) const override;
  /// Closed form from codeword weights (header comment); no state vector.
  double honest_accept(const Bitstring& x, const Bitstring& y) const override;
  bool predicate(const Bitstring& x, const Bitstring& y) const override;

  /// The mask of block b (which indices it owns); exposed for tests.
  const Bitstring& block_mask(int b) const;

 private:
  int n_;
  int d_;
  int blocks_;
  int copies_;
  fingerprint::FingerprintScheme scheme_;
  std::vector<Bitstring> masks_;  // one n-bit mask per block
  // Memo of Bob's per-block reference fingerprints — an immutable snapshot
  // behind an atomic shared_ptr, safe against concurrent accept_product
  // calls on a shared protocol object (see eq_protocol.hpp).
  struct Memo {
    Bitstring y;
    std::vector<CVec> refs;
  };
  mutable std::atomic<std::shared_ptr<const Memo>> memo_;

  /// Number of blocks B = 4 (d+1)^2 at threshold d.
  static double blocks_for(int d) { return 4.0 * (d + 1) * (d + 1); }

  /// Pr[at most d blocks flagged] given each block's all-copies pass odds.
  double accept_from_pass(const std::vector<double>& pass) const;
};

}  // namespace dqma::comm
