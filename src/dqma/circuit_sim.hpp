// Circuit-level Monte-Carlo of the EQ path protocol (Algorithm 3): one
// repetition sampled shot by shot — symmetrization coins, one SWAP-test
// outcome per node (Algorithm 1), and a projective final measurement.
//
// This is the third, fully independent implementation of the protocol's
// semantics (next to the closed-form coin DP of runner.hpp and the
// acceptance-operator engine of exact_runner.hpp); the three are
// cross-checked in tests. Each node's four coin-conditioned SWAP-test
// acceptance probabilities are computed once via the closed form
// Pr[0] = (1 + |<a|b>|^2) / 2 — O(inner * d) total — and every shot is then
// O(inner) coin flips and table lookups. tests/circuit_noise_test.cpp keeps
// the per-shot state-vector circuit (ancilla + Hadamard + controlled-SWAP +
// measurement) as the reference: it draws in the same order, so from one
// seed both walk the same sample paths.
#pragma once

#include "dqma/model.hpp"
#include "dqma/runner.hpp"
#include "util/rng.hpp"

namespace dqma::protocol {

/// Simulates `samples` runs of one repetition of Algorithm 3 at circuit
/// level and returns the empirical acceptance probability.
///
/// * `source`: the state v_0 sends (e.g. |h_x>);
/// * `target`: v_r's reference state (accept projector |h_y><h_y|);
/// * `proof`: the intermediate nodes' registers (product proof).
/// Draw order per shot: a coin and an acceptance draw per node up to the
/// first rejection, then the final Bernoulli. The dimension is capped so a
/// SWAP-test circuit (one ancilla qubit and two d-registers) fits the
/// exact-engine limit.
MonteCarloEstimate circuit_eq_path_accept(const linalg::CVec& source,
                                          const linalg::CVec& target,
                                          const PathProof& proof,
                                          util::Rng& rng, int samples);

}  // namespace dqma::protocol
