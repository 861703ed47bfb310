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
// Engine modes. The analyzer keeps O in *structured form* — the per-pattern
// lists of local effects — and streams them through the matrix-free
// local-operator layer (quantum/local_ops.hpp):
//   * kDense (small proof spaces): O is additionally materialized by
//     applying the local effects to an identity matrix (O(D^2 b) per
//     pattern instead of the former O(D^3) embedded products), so spectral
//     routines and QMA* reductions can consume the dense matrix;
//   * kMatrixFree (large proof spaces): O is never materialized; each
//     effect acts by its closed form in one O(D) pass (psi <- psi/2 +
//     h_x (h_x^dagger psi)/2, psi <- h_y (h_y^dagger psi), and (I + SWAP)/2
//     as the average of psi[..i..j..] and psi[..j..i..]), so a matvec costs
//     O(patterns * r * D). worst_case_accept runs Lanczos on that action
//     through a per-solve operator that writes into the solver's vector and
//     reuses one scratch from the thread's spectral workspace
//     (linalg/lanczos.hpp), so no matvec allocates; the product-prover
//     optimizer uses closed-form expectations (O(d)) and conditional blocks
//     (O(d^2)), and takes top eigenvectors by Lanczos.
// kAuto picks kDense up to kMaxDenseProofDim and kMatrixFree beyond.
//
// Cost. A matrix-free worst_case_accept is its Lanczos steps: per step one
// matvec, O(patterns * r * D), plus three reorthogonalization sweeps over
// the j stored basis vectors, O(j * D), level-dispatched on the kernel
// pool. What is left per step is O(D) on the pool (zeroing the matvec's
// output, scaling w) and the serial norm; no step allocates or refills a
// borrowed vector. At d = 16, r = 3 (D = 65536, 23 steps) the matvecs and
// the sweeps are most of a solve. best_product_accept's cost is its
// conditional blocks, O(patterns * d^2) each and accumulated in place, and
// one d x d Lanczos solve per block.
//
// Determinism. The rank-one passes are real-arithmetic tile loops (the
// stride-1 register as contiguous d-amplitude fibers) instantiated per SIMD
// dispatch level and compiled without FMA contraction: every amplitude sees
// the same operations in the same order at every level, so the matrix-free
// outputs are byte-identical across levels as well as across kernel thread
// counts (tests/determinism_test.cpp pins them).
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
  /// pattern-streamed application, whose scratch is borrowed from the
  /// thread's spectral workspace (only the returned vector is allocated).
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
  int inner_ = 0;
  int patterns_ = 1;
  quantum::RegisterShape shape_;  // 2(r-1) registers of dimension d
  long long proof_dim_ = 1;
  bool dense_ = true;
  // Local effects of Algorithm 3 (shared across patterns).
  CMat first_;        // (I + |h_x><h_x|)/2 on kept_1
  CMat swap_effect_;  // (I + SWAP)/2 on (sent_{j-1}, kept_j); dense mode only
  CMat final_;        // |h_y><h_y| on sent_{r-1}
  CMat op_;           // dense modes (and the r == 1 scalar)

  /// Which of the three local effects a pattern entry applies; resolved to
  /// the member matrix at use time so cached entries survive copies.
  enum class EffectKind { kFirst, kSwap, kFinal };

  /// One symmetrization pattern's local effect: operator kind, register
  /// list, and the index of its (deduplicated) stride plan in plans_.
  struct PatternEffect {
    EffectKind kind;
    std::vector<int> regs;
    std::size_t plan;
  };
  // Built once in the constructor: the effect lists of every pattern. The
  // register lists repeat across patterns, so the plans are deduplicated
  // (at most ~4r distinct ones) and the matrix-free hot loops never
  // rebuild offset tables.
  std::vector<std::vector<PatternEffect>> pattern_effects_;
  std::vector<quantum::LocalOpPlan> plans_;

  /// Per-solve LinearOperator over the matrix-free action (defined in the
  /// .cpp): it borrows one scratch vector from the spectral workspace, so
  /// Lanczos matvecs allocate nothing.
  class MatrixFreeOperator;

  /// out <- O psi by the closed-form passes; zero-fills out on the kernel
  /// pool and uses scratch as the pattern workspace (both sized by the
  /// caller to proof_dim(), neither aliasing psi; neither one's contents
  /// are read before they are written).
  void apply_matrix_free(const CVec& psi, CVec& out, CVec& scratch) const;
  const CMat& effect_matrix(EffectKind kind) const;
  /// Closed-form <w| effect |w> for the group's product state.
  double local_expectation(const PatternEffect& pe,
                           const std::vector<CVec>& regs) const;
  void build_pattern_effects();
  void build_operator();
};

}  // namespace dqma::protocol
