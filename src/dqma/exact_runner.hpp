// Exact worst-case prover analysis for the EQ path protocol (Algorithm 3).
//
// The protocol's acceptance probability is linear in the proof density
// operator: Pr[accept | rho] = tr(O rho) for the *acceptance operator*
//
//   O = E_coins  (<h_x| tensor I)  ProdTests(coins)  (|h_x> tensor I)
//
// where the coin average runs over the 2^{r-1} symmetrization patterns and
// ProdTests is the tensor product of the local accept effects (the tests
// act on pairwise-disjoint registers, so their product is a POVM element).
// Hence:
//   * worst-case acceptance over ALL (entangled) proofs = lambda_max(O);
//   * worst-case over product proofs (dQMA_sep,sep provers) is computed by
//     alternating optimization, which at each step maximizes the Rayleigh
//     quotient of a single register's conditional operator.
// Comparing the two quantifies how much entangled provers gain — the
// question behind the paper's Sec. 8 lower bounds.
//
// The chain. Each local effect depends on at most two neighbouring coins:
// the first test F(b_1) on kept_1, the swap test S_j(b_{j-1}, b_j) on
// (sent_{j-1}, kept_j), the final measurement Final(b_m) on sent_m, with
// m = r - 1. So O = 2^-m sum_b Final(b_m) S_m(b_{m-1}, b_m) ... F(b_1) is a
// 2 x 2 transfer chain (the operator form of runner.hpp's chain_dp): the
// matvec carries one D-vector per value of the current coin, v_1^b =
// F(b) psi, v_j^b' = sum_b S_j(b, b') v_{j-1}^b, O psi = 2^-m sum_b
// Final(b) v_m^b. For a product proof every effect is a scalar and the
// chain is 2^-m f^T T_2 ... T_m g, which is how product_accept and the
// conditional blocks are formed.
//
// Engine modes:
//   * kMatrixFree: O is never materialized. Each pass acts by closed form:
//     the first test as psi/2 + h_x (h_x^dagger psi)/2; a swap step, per
//     value of the incoming coin, as ((v^0 + P v^0) + (v^1 + P' v^1))/2,
//     reading both chain vectors through their register-swapped offsets;
//     the final measurement as h_y (h_y^dagger psi), fused into the last
//     swap step. worst_case_accept runs Lanczos on that action through a
//     per-solve operator that writes into the solver's vector and borrows
//     the chain's scratch from the thread's spectral workspace
//     (linalg/lanczos.hpp), so no matvec allocates;
//   * kDense (small proof spaces): O is additionally materialized from
//     chain matvecs on identity columns, so spectral routines and QMA*
//     reductions can consume the dense matrix.
// kAuto picks kDense up to kMaxDenseProofDim and kMatrixFree beyond.
//
// Cost. A matvec is 2(r-1) O(D) passes at r >= 3 (2r at r = 2): O(r D)
// instead of the O(2^(r-1) r D) of summing the coin patterns, with at most
// four scratch vectors (one at r = 2, two at r = 3). A matrix-free
// worst_case_accept is its Lanczos steps: per step one matvec plus three
// reorthogonalization sweeps over the j stored basis vectors, O(j * D),
// level-dispatched on the kernel pool; no step allocates or refills a
// borrowed vector. product_accept costs O(r d) and a conditional block
// O(r d + d^2); best_product_accept adds one d x d Lanczos solve per block.
//
// Determinism. The passes are real-arithmetic loops (additions, exact
// power-of-two scalings and the rank-one contractions in a fixed order)
// instantiated per SIMD dispatch level and compiled without FMA
// contraction: every amplitude sees the same operations in the same order
// at every level, so the matrix-free outputs are byte-identical across
// levels as well as across kernel thread counts (tests/determinism_test.cpp
// pins them).
//
// Dimensions: the proof space has dimension d^{2(r-1)} for fingerprint
// stand-ins of dimension d; constructors enforce the exact-engine cap
// (util::kMaxExactDim, which the matrix-free mode can actually reach).
#pragma once

#include <vector>

#include "linalg/lanczos.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "quantum/local_ops.hpp"
#include "quantum/state.hpp"
#include "util/rng.hpp"

namespace dqma::protocol {

using linalg::CMat;
using linalg::CVec;

/// Exact analyzer for one repetition of Algorithm 3 with endpoint states
/// |h_x> = `hx`, |h_y> = `hy` (any equal dimension d >= 2) on the path of
/// length `r`.
class ExactEqPathAnalyzer {
 public:
  enum class Mode {
    kAuto,        ///< dense up to kMaxDenseProofDim, matrix-free beyond
    kDense,       ///< materialize the acceptance operator (allowed up to
                  ///< util::kMaxDenseExactDim, the dense-matrix memory guard)
    kMatrixFree,  ///< structured form only; O(D) memory
  };

  /// Largest proof dimension for which kAuto materializes the operator
  /// (explicit kDense goes further, to util::kMaxDenseExactDim).
  static constexpr long long kMaxDenseProofDim = 1LL << 12;

  ExactEqPathAnalyzer(CVec hx, CVec hy, int r, Mode mode = Mode::kAuto);

  /// The full acceptance operator O on the proof space (dense modes only).
  const CMat& acceptance_operator() const;

  /// Whether the dense operator is materialized.
  bool dense() const { return dense_; }

  /// Proof-space dimension d^{2(r-1)}.
  long long proof_dim() const { return proof_dim_; }

  /// O |psi>: dense matvec when materialized, otherwise the matrix-free
  /// transfer chain, whose scratch is borrowed from the thread's spectral
  /// workspace (only the returned vector is allocated).
  CVec apply_acceptance(const CVec& psi) const;

  /// max over all (entangled) proofs of Pr[accept]. Top eigenvalue of the
  /// acceptance operator via the spectral dispatcher (linalg/lanczos.hpp:
  /// deterministic Lanczos, power fallback on tiny proof spaces);
  /// `max_iters` bounds the work (the estimate is a lower bound that is
  /// tight at convergence).
  double worst_case_accept(int max_iters = 2000) const;

  /// Same quantity with explicit solver options; fills *stats (matvec
  /// counts, iterations) when given, so callers can record solver cost as
  /// JSON metrics.
  double worst_case_accept(const linalg::SpectralOptions& opts,
                           linalg::SpectralStats* stats = nullptr) const;

  /// max over product proofs, by alternating optimization with `restarts`
  /// random restarts. A lower bound on worst_case_accept() that is tight in
  /// practice for these operators. Works in every mode: the conditional
  /// operators are contracted from the local effects, never from O.
  double best_product_accept(util::Rng& rng, int restarts = 8,
                             int sweeps = 60) const;

  /// Acceptance of an explicit product proof (one state per register, in
  /// order R_{1,0}, R_{1,1}, ..., R_{r-1,0}, R_{r-1,1}).
  double product_accept(const std::vector<CVec>& regs) const;

  /// Register k's d x d conditional operator given the other registers'
  /// states (regs as for product_accept; regs[k] is not read):
  /// M_k(i, j) = <psi_-k, e_i| O |psi_-k, e_j>.
  CMat conditional_operator(int k, const std::vector<CVec>& regs) const;

 private:
  int r_;
  int d_;
  CVec hx_;
  CVec hy_;
  int inner_ = 0;  // m = r - 1: one coin per intermediate node
  quantum::RegisterShape shape_;  // 2(r-1) registers of dimension d
  long long proof_dim_ = 1;
  bool dense_ = true;
  // Local effects of Algorithm 3, as d x d blocks.
  CMat first_;  // (I + |h_x><h_x|)/2 on kept_1
  CMat final_;  // |h_y><h_y| on sent_{r-1}
  CMat op_;     // dense modes (and the r == 1 scalar)

  // Stride plans of the chain's passes, built once: the first test on
  // R_{1,b} (first_plans_[b], which for r = 2 also measure R_{1,b}) and
  // the middle steps' swap passes for kept_j = R_{j,b'} on (R_{j-1,0},
  // R_{j-1,1}, R_{j,b'}) (step_plans_[2(j-2) + b'], 2 <= j < r-1). The
  // last step acts on the last four registers and needs no plan.
  std::vector<quantum::LocalOpPlan> first_plans_;
  std::vector<quantum::LocalOpPlan> step_plans_;

  /// Per-solve LinearOperator over the matrix-free action (defined in the
  /// .cpp): it borrows the chain's scratch once, so Lanczos matvecs
  /// allocate nothing.
  class MatrixFreeOperator;

  /// The chain's scratch vectors (1 at r = 2, 2 at r = 3, 4 beyond),
  /// borrowed from the thread's spectral workspace.
  std::vector<linalg::WorkspaceVec> borrow_scratch() const;

  /// out <- O psi by the chain's passes (out sized by the caller to
  /// proof_dim() and not aliasing psi; neither out's nor the scratch's
  /// contents are read before they are written).
  void apply_matrix_free(const CVec& psi, CVec& out,
                         std::vector<linalg::WorkspaceVec>& scratch) const;
  void build_operator();
};

}  // namespace dqma::protocol
