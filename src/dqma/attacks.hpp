// Structured cheating provers used to *measure* soundness of the dQMA
// protocols under product (separable-between-nodes) proofs.
//
// Soundness statements quantify over all proofs; these families realize the
// known near-optimal strategies, and the exact engine (exact_runner.hpp)
// certifies on small instances that nothing much stronger exists:
//
//  * rotation attack — node j receives the normalized interpolation between
//    |h_x> and |h_y> at angle (j/r) theta, spreading the unavoidable
//    rejection probability evenly along the path (the quantum analog of the
//    classical "where does the proof flip?" argument);
//  * step attack — nodes up to a cut hold |h_x>, the rest |h_y>: a single
//    test absorbs the whole discrepancy (the naive cheat; strictly weaker);
//  * all-target attack — every node holds |h_y>: only v_1's test suffers.
#pragma once

#include <vector>

#include "dqma/model.hpp"
#include "fingerprint/fingerprint.hpp"
#include "util/bitstring.hpp"

namespace dqma::protocol {

using util::Bitstring;

/// Normalized interpolation path between two pure states: returns `count`
/// states |phi_j> = normalize(cos(t_j theta)|a> + sin(t_j theta)|b_perp>)
/// with t_j = (j+1)/(count+1), where |b_perp> completes |a>, |b> to an
/// orthonormal pair in their span, so that |phi> sweeps the geodesic from
/// |a> (t=0) to |b> (t=1).
std::vector<linalg::CVec> geodesic_states(const linalg::CVec& a,
                                          const linalg::CVec& b, int count);

/// Every register of the `inner` intermediate nodes holds `state`: the
/// honest proof of one repetition when `state` is the source's fingerprint.
PathProof uniform_proof(const linalg::CVec& state, int inner);

/// Rotation attack proof for a path protocol with `inner` intermediate
/// nodes: both registers of node j hold the geodesic state at fraction
/// j/(inner+1).
PathProof rotation_attack(const linalg::CVec& hx, const linalg::CVec& hy,
                          int inner);

/// Step attack: nodes 1..cut hold |h_x>, the rest |h_y>.
PathProof step_attack(const linalg::CVec& hx, const linalg::CVec& hy,
                      int inner, int cut);

/// All-target attack: every node holds |h_y>.
PathProof all_target_attack(const linalg::CVec& hy, int inner);

/// Replicates a single-repetition proof across k repetitions (the general
/// k-copy form; evaluators fold identical repetitions instead).
PathProofReps replicate(const PathProof& proof, int reps);

}  // namespace dqma::protocol
