// The paper's Theorem 42 (Algorithm 10): converting a QMA one-way
// communication protocol into a dQMA protocol on a path, and the Theorem 46
// pipeline that turns ANY dQMA protocol (viewed through its QMA*
// communication cost C) into a 1-round dQMA_sep protocol of size
// ~O(r^2 C^2) via the LSD complete problem.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/history_state.hpp"
#include "comm/qma_one_way.hpp"
#include "dqma/model.hpp"
#include "dqma/runner.hpp"
#include "util/rng.hpp"

namespace dqma::protocol {

/// dQMA protocol on the path v_0..v_r carrying the messages of a QMA
/// one-way protocol instance (Algorithm 10): v_0 holds the proof and
/// applies Alice's contraction; intermediate nodes symmetrize-and-forward
/// message-dimension registers SWAP-tested pairwise; v_r applies Bob's
/// accept effect.
class QmaCcPathProtocol {
 public:
  QmaCcPathProtocol(comm::QmaOneWayInstance instance, int r, int reps);

  int r() const { return r_; }
  int reps() const { return reps_; }
  const comm::QmaOneWayInstance& instance() const { return instance_; }

  CostProfile costs() const;

  /// One repetition of a prover strategy: Merlin's proof for v_0 plus the
  /// chain registers.
  struct Strategy {
    std::vector<linalg::CVec> proofs;  ///< one per repetition (proof_dim)
    PathProofReps chain;               ///< message-dim registers
  };

  Strategy honest_strategy() const;

  /// Exact acceptance probability of a strategy. Alice's contraction folds
  /// her own accept/reject into the norm of the emitted message.
  double accept_probability(const Strategy& strategy) const;

  /// Acceptance of the honest strategy: one repetition evaluated and
  /// folded k times, bit-identical to accept_probability(honest_strategy()).
  double completeness() const;

  /// Strongest implemented attack: the proof maximizing Alice's pass
  /// probability, with the chain interpolating from Alice's emission to the
  /// top eigenvector of Bob's effect; plus the direct top-eigenvector proof
  /// with an honest-looking chain.
  double best_attack_accept() const;

 private:
  comm::QmaOneWayInstance instance_;
  int r_;
  int reps_;

  /// The honest chain of one repetition (every register Alice's
  /// normalized honest message); requires a yes instance.
  PathProof honest_chain() const;

  double accept_one_rep(const linalg::CVec& proof,
                        const PathProof& chain) const;
};

/// Cost report of the Theorem 46 simulation: a dQMA protocol of QMA*
/// communication cost C on a path of length r becomes a 1-round dQMA_sep
/// protocol via LSD with the listed parameters.
struct Theorem46Report {
  long long source_cost_c = 0;       ///< C = total proof + min cut message
  long long qmacc_cost = 0;          ///< <= 2C (inequality (1))
  long long lsd_ambient_dim = 0;     ///< m = 2^{O(C)}
  long long lsd_input_bits = 0;      ///< O(m^2 log m)
  long long per_node_proof_qubits = 0;  ///< O(r^2 C^2) up to logs
};

/// Computes the Theorem 46 cost accounting for a source protocol of QMA*
/// cost `c` on a path of length `r` (formula-level; the executable pipeline
/// is exercised end-to-end in tests/benches via lsd_from_qma_instance +
/// QmaCcPathProtocol on small instances).
Theorem46Report theorem46_costs(long long c, int r);

}  // namespace dqma::protocol
