// One-way quantum communication protocols (paper Sec. 2.2.1).
//
// A protocol is described by the structure every construction in the paper
// consumes: Alice's message is a *product of pure registers* determined by
// her input, and Bob's verdict is an exactly computable function of
// per-register projective outcomes. This covers the EQ fingerprint protocol
// pi, the Hamming-distance protocol, and the LTF/XOR protocols, and gives
// the fast dQMA runner closed-form acceptance probabilities for arbitrary
// (possibly dishonest) product messages.
#pragma once

#include <string>
#include <vector>

#include "linalg/vector.hpp"
#include "util/bitstring.hpp"

namespace dqma::comm {

using linalg::CVec;
using util::Bitstring;

/// Interface of a (bounded-error or one-sided-error) one-way quantum
/// communication protocol for a predicate on pairs of n-bit strings.
class OneWayProtocol {
 public:
  virtual ~OneWayProtocol() = default;

  virtual std::string name() const = 0;

  /// Input length n of each party.
  virtual int input_length() const = 0;

  /// Dimensions of the message registers Alice sends.
  virtual std::vector<int> message_dims() const = 0;

  /// Alice's honest message on input x (one pure state per register).
  virtual std::vector<CVec> honest_message(const Bitstring& x) const = 0;

  /// Bob's exact acceptance probability on input y for an arbitrary
  /// *product* message (registers independent but not necessarily honest).
  virtual double accept_product(const Bitstring& y,
                                const std::vector<CVec>& message) const = 0;

  /// The predicate the protocol computes (ground truth for tests/benches).
  virtual bool predicate(const Bitstring& x, const Bitstring& y) const = 0;

  /// Total message cost in qubits: sum over registers of ceil(log2 dim).
  int message_qubits() const;

  /// Acceptance of the honest run. The default, accept_product(y,
  /// honest_message(x)), is the path of EQ and LTF; the Hamming protocol
  /// overrides it with a closed form that tests hold to this default.
  virtual double honest_accept(const Bitstring& x, const Bitstring& y) const;
};

/// ceil(log2(dim)) with qubits(1) = 0.
int qubits_for_dim(int dim);

}  // namespace dqma::comm
