// Deterministic Krylov layer for the iterative spectral routines: a Lanczos
// eigensolver with full reorthogonalization against the stored basis, plus
// the shared power-iteration fallback and the dispatch glue between them.
//
// Determinism contract: the solver is byte-identical across the
// kernel-thread axis, and its own arithmetic is byte-identical across SIMD
// dispatch levels too, so its outputs differ between levels only where
// the operator's matvec does (linalg/simd.hpp). Two kinds of work run on
// the kernel pool: the operator application, thread-count invariant by the
// LinearOperator backends' own contract, and the reorthogonalization
// sweeps, which reduce their coefficients over a fixed element partition
// in chunk order (sweep/parallel.hpp) and subtract over disjoint element
// ranges. CGS2 costs three sweeps over the stored basis per step: project,
// then subtract-and-reproject fused per chunk, then subtract. The sweeps
// are instantiated per level with basis vectors in the vector lanes for
// the dots and elements in the lanes for the subtractions; each lane keeps
// the scalar loop's operations and order, and lanczos.cpp is compiled
// without FMA contraction. The start vector, the norm beta (one serial
// sum, whose order defines its bits) and the tridiagonal
// bisection/inverse iteration run on the calling thread; the scaling of w
// by 1/beta runs on the pool, entry by entry.
//
// Spectral workspace. A Lanczos solve at D = 2^16 stores ~27 basis vectors
// of 1 MiB; allocated fresh, each one costs its first-touch page faults on
// every solve. The solver (and the matrix-free operators' scratch) instead
// borrows vectors from a pool owned by the calling thread and returns them
// when the solve ends. A borrowed vector is resized within its storage,
// without writing the entries it regrows, so a smaller solve reuses a
// larger solve's pages instead of adding its own and a larger one regrows
// them for free.
// Retention rule: the bytes a thread's pool keeps idle never exceed the
// largest footprint (bytes on loan at once) that thread has needed; a
// returned vector that would break the cap is freed. So a thread never
// keeps idle more than it once needed at the same time, a solve that fits
// in the idle vectors allocates nothing, and which buffer a solve gets
// changes no arithmetic: outputs are byte-identical either way.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/eigen.hpp"
#include "linalg/vector.hpp"

namespace dqma::linalg {

/// Per-solve counters every spectral routine fills in, exposed so callers
/// (benchmarks, the exact engine) can record matvec counts as JSON metrics.
struct SpectralStats {
  long long matvecs = 0;  ///< LinearOperator::apply_into invocations
  int iterations = 0;     ///< outer iterations (Lanczos steps / power steps)
  bool converged = false;
  bool used_lanczos = false;
};

/// A vector on loan from the calling thread's spectral workspace, returned
/// by the destructor. Borrow and return on the same thread (a solve's
/// locals do).
class WorkspaceVec {
 public:
  /// Borrows a vector of `dim` entries with unspecified contents (whatever
  /// a previous borrower left): callers write every entry before reading
  /// it. The idle vector with the smallest storage that holds `dim`
  /// entries is taken; if none does, the largest idle one is freed and a
  /// vector of exactly `dim` entries allocated. Vectors under
  /// a page are allocated fresh and freed on return (counted as on loan,
  /// never kept idle).
  explicit WorkspaceVec(int dim);
  ~WorkspaceVec();
  WorkspaceVec(WorkspaceVec&& other) noexcept;
  WorkspaceVec(const WorkspaceVec&) = delete;
  WorkspaceVec& operator=(const WorkspaceVec&) = delete;
  WorkspaceVec& operator=(WorkspaceVec&&) = delete;

  CVec& operator*() { return v_; }
  const CVec& operator*() const { return v_; }
  CVec* operator->() { return &v_; }
  const CVec* operator->() const { return &v_; }

 private:
  CVec v_;
  std::size_t charge_ = 0;  ///< bytes counted as on loan; 0 once moved from
};

/// The calling thread's spectral-workspace accounting.
struct WorkspaceBytes {
  std::size_t retained = 0;    ///< storage of idle vectors kept for reuse
  std::size_t on_loan = 0;     ///< dim * sizeof(Complex) of borrowed vectors
  std::size_t high_water = 0;  ///< largest on_loan so far: the retention cap
};
WorkspaceBytes workspace_bytes();

/// Solver selection and stopping thresholds for top_eigenvalue_psd.
struct SpectralOptions {
  enum class Method {
    kAuto,     ///< Lanczos above kLanczosMinDim, power iteration below
    kPower,    ///< always power iteration
    kLanczos,  ///< always Lanczos (tiny dims handled by Krylov exhaustion)
  };
  Method method = Method::kAuto;
  int max_iters = 2000;
  double tol = 1e-10;  ///< residual threshold: ||A x - theta x|| <= tol * max(1, theta)
};

/// Below this dimension kAuto keeps power iteration: the Krylov machinery
/// cannot beat a handful of O(d^2) matvecs on operators this small.
inline constexpr int kLanczosMinDim = 17;

/// Lanczos basis cap: full reorthogonalization stores the basis, so memory
/// is (cap * dim) complex entries. Any PSD operator met in practice
/// converges at 1e-9 residual in far fewer steps.
inline constexpr int kMaxLanczosBasis = 350;

/// Largest eigenvalue (and optionally the matching normalized Ritz vector)
/// of a Hermitian PSD operator. Dispatches on opts.method; fills *stats
/// when given. This is the single entry point the legacy
/// max_eigenvalue_psd / top_eigenpair_psd wrappers route through.
double top_eigenvalue_psd(const LinearOperator& op, const SpectralOptions& opts,
                          CVec* vec_out = nullptr,
                          SpectralStats* stats = nullptr);

/// Deterministic start vector of every iterative spectral routine: equal
/// superposition with varying phases, so it overlaps any eigenvector with
/// overwhelming probability. Fixed recipe (no RNG), so solves are
/// reproducible across runs, threads and shards.
CVec spectral_start_vector(int n);

/// Largest eigenvalue of the symmetric tridiagonal matrix with diagonal
/// `alpha` and off-diagonal `beta` (beta.size() == alpha.size() - 1), by
/// bisection on the Sturm-sequence eigenvalue count inside the Gershgorin
/// bracket. Deterministic; accurate to ~1e-15 relative.
double tridiag_max_eigenvalue(const std::vector<double>& alpha,
                              const std::vector<double>& beta);

/// Unit top eigenvector of the same tridiagonal for its (already converged)
/// top eigenvalue `theta`, by two steps of inverse iteration: the Ritz
/// coefficients Lanczos combines its basis with. The shifted solve is
/// Gaussian elimination with partial pivoting on the tridiagonal (LAPACK
/// dgtsv's pivoting pattern, which fills in a second superdiagonal);
/// near-singular pivots (expected, theta is an eigenvalue) are replaced by a
/// tiny scale-relative value, which just boosts the amplification inverse
/// iteration relies on.
std::vector<double> tridiag_top_eigenvector(const std::vector<double>& alpha,
                                            const std::vector<double>& beta,
                                            double theta);

}  // namespace dqma::linalg
