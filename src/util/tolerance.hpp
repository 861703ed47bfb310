// Centralized numerical tolerances (DESIGN.md Sec. 5).
#pragma once

namespace dqma::util {

/// Tolerance for algebraic identities (unitarity checks, trace == 1, ...).
inline constexpr double kAlgebraTol = 1e-9;

/// Looser tolerance for iteratively computed quantities (eigenvalues,
/// trace norms) where O(dim) rounding accumulates.
inline constexpr double kSpectralTol = 1e-7;

/// Default convergence threshold for the Jacobi eigensolver: *squared*
/// off-diagonal Frobenius mass below this value terminates the sweep loop
/// (so residual off-diagonal entries are ~1e-11; convergence is quadratic,
/// making the extra sweeps cheap).
inline constexpr double kJacobiTol = 1e-22;

/// Maximum global Hilbert-space dimension the exact engine accepts. Raised
/// from 2^14 to 2^18 with the matrix-free local-operator layer
/// (quantum/local_ops.hpp): state-vector passes and structured acceptance
/// operators scale O(D * b) and never materialize a D x D embedding, so the
/// cap is now bounded by state-vector memory (2^18 amplitudes = 4 MiB), not
/// by a dense matrix. Code paths that do materialize dense operators guard
/// themselves with kMaxDenseExactDim (or their own tighter bound, e.g.
/// ExactEqPathAnalyzer::kMaxDenseProofDim).
inline constexpr int kMaxExactDim = 1 << 18;

/// Maximum dimension for code paths that materialize a dense D x D matrix
/// (density operators, amplified QMA instances): 2^14 keeps a single dense
/// complex matrix under 4 GiB — the bound kMaxExactDim itself enforced
/// before the matrix-free engine.
inline constexpr int kMaxDenseExactDim = 1 << 14;

}  // namespace dqma::util
