// The paper's improved dQMA protocol for EQ on a path (Sec. 3.2):
// Algorithm 3 (protocol P_pi with the symmetrization step) and Algorithm 4
// (its k-fold parallel repetition P_pi[k]).
//
// Also implements two ablation baselines (DESIGN.md D1):
//  * kNoSymmetrization — Algorithm 3 with step 3 removed, demonstrating
//    that without symmetrization a product cheating proof achieves
//    acceptance 1 on no-instances (the kept and forwarded registers are
//    uncorrelated);
//  * kFgnpForwarding — the FGNP21-style protocol where each intermediate
//    node holds ONE register and forwards it left with probability 1/2, the
//    SWAP test occurring only when a node kept its register and received
//    its right neighbor's.
#pragma once

#include <cstdint>

#include "dqma/model.hpp"
#include "fingerprint/fingerprint.hpp"
#include "util/bitstring.hpp"
#include "util/rng.hpp"

namespace dqma::protocol {

using util::Bitstring;

enum class EqPathMode {
  kSymmetrized,      ///< Algorithm 3 (this paper)
  kNoSymmetrization, ///< ablation: step 3 removed
  kFgnpForwarding,   ///< FGNP21 probabilistic forwarding baseline
};

/// dQMA protocol for EQ between the endpoints of a path v_0 .. v_r.
class EqPathProtocol {
 public:
  /// n: input bits; r: path length (>= 1); delta: fingerprint overlap
  /// bound; reps: parallel repetitions k.
  EqPathProtocol(int n, int r, double delta, int reps,
                 EqPathMode mode = EqPathMode::kSymmetrized,
                 std::uint64_t seed = 0x0ddba11);

  /// Repetition count the paper's analysis prescribes for soundness 1/3:
  /// k = ceil(2 * 81 r^2 / 4).
  static int paper_reps(int r);

  int n() const { return scheme_.input_length(); }
  int r() const { return r_; }
  int reps() const { return reps_; }
  EqPathMode mode() const { return mode_; }
  const fingerprint::FingerprintScheme& scheme() const { return scheme_; }

  /// Definition 6 cost accounting for this instance.
  CostProfile costs() const;

  /// Formula-level cost accounting WITHOUT constructing the (potentially
  /// large) fingerprint code — used by cost sweeps over large n.
  static CostProfile costs_for(int n, int r, double delta, int reps,
                               EqPathMode mode = EqPathMode::kSymmetrized);

  /// Qubits of one fingerprint register for (n, delta).
  static int fingerprint_qubits(int n, double delta);

  /// The honest proof (every register the fingerprint |h_x>).
  PathProofReps honest_proof(const Bitstring& x) const;

  /// Exact acceptance probability on inputs (x, y) under an arbitrary
  /// product proof. The honest proof on x == y accepts with probability 1.
  double accept_probability(const Bitstring& x, const Bitstring& y,
                            const PathProofReps& proof) const;

  /// Exact acceptance of a single repetition. The k-fold protocol with the
  /// same proof in every repetition accepts with this value folded k times
  /// (fold_repetitions in dqma/runner.hpp, bit-identical to
  /// accept_probability on k copies); best_attack_accept raises its best
  /// single-repetition value to the k-th power with std::pow.
  double single_rep_accept(const Bitstring& x, const Bitstring& y,
                           const PathProof& proof) const;

  /// Completeness: acceptance of the honest run (exactly 1 in
  /// kSymmetrized / kNoSymmetrization; 1 in kFgnpForwarding as well since
  /// all fingerprints agree). Evaluates one repetition and folds it:
  /// bit-identical to accept_probability(x, x, honest_proof(x)).
  double completeness(const Bitstring& x) const;

  /// Acceptance under the strongest implemented product attack (see
  /// attacks.hpp): an upper-bound estimate of the soundness error for
  /// product (dQMA_sep,sep) provers.
  double best_attack_accept(const Bitstring& x, const Bitstring& y) const;

 private:
  int r_;
  int reps_;
  EqPathMode mode_;
  fingerprint::FingerprintScheme scheme_;

  /// One repetition of the honest proof.
  PathProof honest_rep(const Bitstring& x) const;
  double accept_one_rep(const Bitstring& x, const Bitstring& y,
                        const PathProof& proof) const;
  double accept_fgnp_rep(const Bitstring& x, const Bitstring& y,
                         const PathProof& proof) const;
};

}  // namespace dqma::protocol
