// Matrix-free application of local operators: the middle layer of the exact
// engine (linalg kernels -> local_ops -> protocol analyzers).
//
// Every local test and unitary in the protocols acts on a small subset of
// registers. Embedding such a k-register operator into the full Hilbert
// space (quantum::embed_operator) and multiplying dense D x D matrices
// costs O(D^3); applying it directly by stride arithmetic over the
// RegisterShape costs O(D * b) per state-vector pass and O(D^2 * b) per
// density-matrix pass, where b (<< D) is the local block dimension. This
// module provides those passes:
//
//   * LocalOpPlan      — precomputed gather/scatter offsets for (shape, regs);
//   * apply_local      — psi <- (op tensor I) psi, in place;
//   * expectation_local — <psi| E tensor I |psi> and tr((E tensor I) rho);
//   * apply_left/right_local — A <- (op tensor I) A and A <- A (op tensor I),
//     with an adjoint switch that never materializes op^dagger;
//   * sandwich_local   — rho <- U rho U^dagger through one reused workspace;
//   * project_local    — rho <- (E rho E^dagger) / tr(...), returning the
//     branch probability.
//
// State/density arguments are layout-aware views (linalg/complex_view.hpp):
// CVec / CMat convert implicitly (AoS), SplitBuffer converts to an SoA
// view, and no caller ever names a layout. Each kernel resolves the SIMD
// dispatch level once on the calling thread (linalg/simd.hpp) and picks a
// path: the scalar AoS loops walk the operator's nonzeros (SparseRows) as
// the kScalar reference (byte-identical to the pre-SIMD engine's zero-skip
// scans), the vector levels run gather / block-apply / scatter over
// split-complex buffers, and operators too sparse to pay for dense vector
// arithmetic (SparseRows::dense_enough) stay on the row walks. Every path
// fixes its summation order as a pure function of the shape, so each
// (level, layout) pair is deterministic across the kernel-thread axis.
//
// embed_operator remains as the reference implementation; the randomized
// property tests in tests/local_ops_test.cpp cross-validate every entry
// point against it on random shapes and register subsets.
#pragma once

#include <vector>

#include "linalg/complex_view.hpp"
#include "linalg/matrix.hpp"
#include "quantum/state.hpp"

namespace dqma::quantum {

/// Row-compressed nonzeros of a square local operator, the form every
/// zero-skip kernel walks: row i's entries are [start[i], start[i + 1]) of
/// col / val, columns ascending. A b x b block then costs O(nnz) instead of
/// O(b^2), and every output still sums the same products in the same order
/// as a full scan that skips exact zeros. The zero test is component-wise,
/// so subnormal entries are kept.
struct SparseRows {
  explicit SparseRows(const CMat& op);

  /// Whether dense vector arithmetic beats the row walk for `op`: at least
  /// a quarter of its entries are nonzero. Decided before either form is
  /// built, and stops scanning once that many are found.
  static bool dense_enough(const CMat& op);

  long long rows() const { return static_cast<long long>(start.size()) - 1; }

  std::vector<std::size_t> start;
  std::vector<int> col;
  std::vector<Complex> val;
};

/// Precomputed stride tables for applying operators on the listed registers
/// (in the listed order, which may be non-adjacent and permuted) of a
/// RegisterShape. Building a plan costs O(b + D/b + nregs); reuse it when
/// the same (shape, regs) pair is applied repeatedly.
class LocalOpPlan {
 public:
  LocalOpPlan(const RegisterShape& shape, std::vector<int> regs);

  /// Global Hilbert dimension D of the shape.
  long long total_dim() const { return total_; }

  /// Local block dimension b: the product of the target registers' dims.
  long long block() const { return block_; }

  const std::vector<int>& regs() const { return regs_; }

  /// Flat-offset contribution of each of the `block()` target assignments
  /// (target registers enumerated row-major in the listed order).
  const std::vector<long long>& target_offsets() const { return target_off_; }

  /// Base flat offset of every assignment of the non-target registers
  /// (size D / b).
  const std::vector<long long>& free_offsets() const { return free_off_; }

 private:
  std::vector<int> regs_;
  long long total_ = 1;
  long long block_ = 1;
  std::vector<long long> target_off_;
  std::vector<long long> free_off_;
};

/// psi <- (op tensor I) psi in place over a flat state view. O(D * b) on
/// the dense split path; operators too sparse for it walk their nonzero
/// rows in O(D * nnz / b) (a permutation block costs O(D)).
void apply_local(const LocalOpPlan& plan, const CMat& op,
                 linalg::MutComplexView psi);

/// Convenience overload that builds the plan on the fly.
void apply_local(const RegisterShape& shape, const CMat& op,
                 const std::vector<int>& regs, linalg::MutComplexView psi);

/// <psi| (effect tensor I) |psi> for a flat state view, or
/// tr((effect tensor I) rho) for a matrix-shaped view — dispatched on the
/// view's shape. Real part; O(D * b) resp. O(D^2 * b). Chunk partials are
/// combined in chunk order, so the value is thread-count invariant.
double expectation_local(const LocalOpPlan& plan, const CMat& effect,
                         linalg::ConstComplexView state);

/// a <- (op tensor I) a (rows mixed) over a matrix-shaped view. With
/// `adjoint_op`, uses op^dagger without materializing it.
/// O(D * b * cols(a)).
void apply_left_local(const LocalOpPlan& plan, const CMat& op,
                      linalg::MutComplexView a, bool adjoint_op = false);

/// a <- a (op tensor I) (columns mixed) over a matrix-shaped view. With
/// `adjoint_op`, uses op^dagger without materializing it.
/// O(D * b * rows(a)).
void apply_right_local(const LocalOpPlan& plan, const CMat& op,
                       linalg::MutComplexView a, bool adjoint_op = false);

/// rho <- (u tensor I) rho (u^dagger tensor I) in place through one reused
/// row workspace — no embedded operator, no adjoint copy, no temporaries of
/// the full matrix. O(D^2 * b).
void sandwich_local(const LocalOpPlan& plan, const CMat& u,
                    linalg::MutComplexView rho);

/// rho <- (E rho E^dagger) / p with p = tr(E rho E^dagger); returns p.
/// If p is ~0 the state is left untouched and 0 is returned (matching
/// Density::project's contract).
double project_local(const LocalOpPlan& plan, const CMat& effect,
                     linalg::MutComplexView rho);

}  // namespace dqma::quantum
