#include "dqma/exact_runner.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/simd.hpp"
#include "quantum/random.hpp"
#include "quantum/unitary.hpp"
#include "sweep/parallel.hpp"
#include "util/require.hpp"
#include "util/tolerance.hpp"

namespace dqma::protocol {

using linalg::Complex;
using quantum::LocalOpPlan;
using quantum::RegisterShape;
namespace simd = linalg::simd;
using util::require;

namespace {

constexpr long long kTile = 64;  // rank-one pass: amplitudes per stack tile

/// body(base, len) over the plan's free offsets in runs of at most `run`
/// consecutive amplitudes (the registers below the targets), in disjoint
/// chunks on the kernel pool (~8 flops per target amplitude). No amplitude's
/// arithmetic depends on the split: the output is thread-count invariant.
template <typename Fn>
void for_each_run(const LocalOpPlan& plan, std::size_t run, const Fn& body) {
  const std::vector<long long>& foff = plan.free_offsets();
  sweep::parallel_for(
      foff.size(),
      sweep::grain_for_ops(8 * static_cast<std::size_t>(plan.block())),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t f = begin; f < end;) {
          const std::size_t stop = std::min(end, (f / run + 1) * run);
          body(foff[f], static_cast<long long>(stop - f));
          f = stop;
        }
      });
}

/// One rank-one pass: dst <- (keep I + w |h><h|) src along a plan's one
/// register, or dst += that with `accumulate`. keep = w = 1/2 is the first
/// test (I + |h_x><h_x|)/2; keep = 0 accumulates the final measurement
/// w |h_y><h_y|. Amplitudes are read and written as interleaved (re, im)
/// doubles; h = (hr, hi) likewise.
struct RankOne {
  const double* h;
  const long long* toff;  // target offsets, in amplitudes
  const long long* foff;  // free offsets, in amplitudes
  int d;
  long long run;  // free offsets per contiguous run (the target's stride)
  double keep;
  double w;
  const double* src;  // must not alias dst
  double* dst;
  bool accumulate;
};

/// o = v, or o += v when accumulating.
template <bool kAccumulate>
[[gnu::always_inline]] inline void put(double& o, double v) {
  if constexpr (kAccumulate) {
    o += v;
  } else {
    o = v;
  }
}

/// The complex products in real arithmetic: the same products and sums
/// std::complex forms, without the NaN-recovery branch that keeps its loops
/// from vectorizing. The contraction is c += conj(h_a) s, then v = keep s +
/// (w h_a) c is stored or added. Per amplitude the operation order does not
/// depend on the tile, the target ISA or the chunking, and this file is
/// compiled without FMA contraction, so every level rounds identically.
/// Every difference is spelled x + (-a) * b: gcc's SLP complex-multiply
/// patterns would otherwise fuse the add/subtract pairs into vfmaddsub even
/// with contraction off.
template <bool kAccumulate>
[[gnu::always_inline]] inline void rank_one_tile(const RankOne& k,
                                                 long long base, long long n) {
  const double* __restrict h = k.h;
  const double keep = k.keep;
  const double w = k.w;
  double cr[kTile];
  double ci[kTile];
  for (long long t = 0; t < n; ++t) {
    cr[t] = 0.0;
    ci[t] = 0.0;
  }
  for (int a = 0; a < k.d; ++a) {
    const double hr = h[2 * a];
    const double hi = h[2 * a + 1];
    const double* __restrict s = k.src + 2 * (base + k.toff[a]);
    for (long long t = 0; t < n; ++t) {
      cr[t] += hr * s[2 * t] + hi * s[2 * t + 1];
      ci[t] += hr * s[2 * t + 1] + (-hi) * s[2 * t];
    }
  }
  for (int a = 0; a < k.d; ++a) {
    const double wr = h[2 * a] * w;
    const double wi = h[2 * a + 1] * w;
    const double* __restrict s = k.src + 2 * (base + k.toff[a]);
    double* __restrict o = k.dst + 2 * (base + k.toff[a]);
    for (long long t = 0; t < n; ++t) {
      put<kAccumulate>(o[2 * t],
                       keep * s[2 * t] + (wr * cr[t] + (-wi) * ci[t]));
      put<kAccumulate>(o[2 * t + 1],
                       keep * s[2 * t + 1] + (wr * ci[t] + wi * cr[t]));
    }
  }
}

/// The stride-1 target: the d amplitudes at base .. base + d are one fiber,
/// contracted by one serial sum (the per-amplitude order of rank_one_tile).
template <bool kAccumulate>
[[gnu::always_inline]] inline void rank_one_fiber(const RankOne& k,
                                                  long long base) {
  const double* __restrict h = k.h;
  const double* __restrict s = k.src + 2 * base;
  double* __restrict o = k.dst + 2 * base;
  const double keep = k.keep;
  const double w = k.w;
  double cr = 0.0;
  double ci = 0.0;
  for (int a = 0; a < k.d; ++a) {
    const double hr = h[2 * a];
    const double hi = h[2 * a + 1];
    cr += hr * s[2 * a] + hi * s[2 * a + 1];
    ci += hr * s[2 * a + 1] + (-hi) * s[2 * a];
  }
  for (int a = 0; a < k.d; ++a) {
    const double wr = h[2 * a] * w;
    const double wi = h[2 * a + 1] * w;
    put<kAccumulate>(o[2 * a], keep * s[2 * a] + (wr * cr + (-wi) * ci));
    put<kAccumulate>(o[2 * a + 1], keep * s[2 * a + 1] + (wr * ci + wi * cr));
  }
}

/// Free offsets [begin, end): runs of at most k.run consecutive amplitudes
/// (the registers below the target), cut into tiles of kTile, or fibers
/// when the target has stride 1.
template <bool kAccumulate>
[[gnu::always_inline]] inline void rank_one_runs(const RankOne& k,
                                                 std::size_t begin,
                                                 std::size_t end) {
  const std::size_t run = static_cast<std::size_t>(k.run);
  if (run == 1) {
    for (std::size_t f = begin; f < end; ++f) {
      rank_one_fiber<kAccumulate>(k, k.foff[f]);
    }
    return;
  }
  for (std::size_t f = begin; f < end;) {
    const std::size_t stop = std::min(end, (f / run + 1) * run);
    const long long base = k.foff[f];
    const long long len = static_cast<long long>(stop - f);
    for (long long t0 = 0; t0 < len; t0 += kTile) {
      rank_one_tile<kAccumulate>(k, base + t0, std::min(kTile, len - t0));
    }
    f = stop;
  }
}

/// The one kernel body; the wrappers below instantiate it per level.
[[gnu::always_inline]] inline void rank_one_chunk(const RankOne& k,
                                                  std::size_t begin,
                                                  std::size_t end) {
  if (k.accumulate) {
    rank_one_runs<true>(k, begin, end);
  } else {
    rank_one_runs<false>(k, begin, end);
  }
}

void rank_one_chunk_scalar(const RankOne& k, std::size_t begin,
                           std::size_t end) {
  rank_one_chunk(k, begin, end);
}

#if DQMA_SIMD_X86
DQMA_TARGET_AVX2 void rank_one_chunk_avx2(const RankOne& k, std::size_t begin,
                                          std::size_t end) {
  rank_one_chunk(k, begin, end);
}

DQMA_TARGET_AVX512 void rank_one_chunk_avx512(const RankOne& k,
                                              std::size_t begin,
                                              std::size_t end) {
  rank_one_chunk(k, begin, end);
}
#endif

/// Runs one rank-one pass over the plan's register on the kernel pool
/// (~8 flops per target amplitude, disjoint chunks of free offsets). The
/// level is resolved on the calling thread and captured, per the
/// linalg/simd.hpp rule.
void rank_one_pass(const LocalOpPlan& plan, const CVec& h, double keep,
                   double w, const Complex* src, Complex* dst,
                   bool accumulate) {
  const std::vector<long long>& toff = plan.target_offsets();
  const std::vector<long long>& foff = plan.free_offsets();
  const RankOne k{
      reinterpret_cast<const double*>(linalg::ConstComplexView(h).aos_data()),
      toff.data(),
      foff.data(),
      h.dim(),
      toff[1],
      keep,
      w,
      reinterpret_cast<const double*>(src),
      reinterpret_cast<double*>(dst),
      accumulate};
  const simd::Level level = simd::active();
  sweep::parallel_for(
      foff.size(),
      sweep::grain_for_ops(8 * static_cast<std::size_t>(plan.block())),
      [&k, level](std::size_t begin, std::size_t end) {
        switch (level) {
#if DQMA_SIMD_X86
          case simd::Level::kAvx512:
            rank_one_chunk_avx512(k, begin, end);
            return;
          case simd::Level::kAvx2:
            rank_one_chunk_avx2(k, begin, end);
            return;
#endif
          default:
            rank_one_chunk_scalar(k, begin, end);
        }
      });
}

/// psi <- ((I + SWAP)/2) psi on the plan's register pair: psi[..i..j..] and
/// psi[..j..i..] both become their average. One O(D) sweep.
void swap_pass(const LocalOpPlan& plan, int d, Complex* psi) {
  const std::vector<long long>& toff = plan.target_offsets();
  const auto at = [&](int i, int j) {
    return toff[static_cast<std::size_t>(i * d + j)];
  };
  for_each_run(plan, std::min(at(0, 1), at(1, 0)),
               [&](long long base, long long len) {
                 for (int i = 0; i < d; ++i) {
                   for (int j = i + 1; j < d; ++j) {
                     Complex* x = psi + base + at(i, j);
                     Complex* y = psi + base + at(j, i);
                     for (long long t = 0; t < len; ++t) {
                       x[t] = y[t] = 0.5 * (x[t] + y[t]);
                     }
                   }
                 }
               });
}

}  // namespace

ExactEqPathAnalyzer::ExactEqPathAnalyzer(CVec hx, CVec hy, int r, Mode mode)
    : r_(r), d_(hx.dim()), hx_(std::move(hx)), hy_(std::move(hy)) {
  require(r >= 1, "ExactEqPathAnalyzer: path length must be >= 1");
  require(hx_.dim() == hy_.dim(), "ExactEqPathAnalyzer: state dim mismatch");
  require(d_ >= 2, "ExactEqPathAnalyzer: need dimension >= 2");

  const int regs = 2 * std::max(0, r_ - 1);
  long long dim = 1;
  for (int k = 0; k < regs; ++k) {
    dim *= d_;
    require(dim <= util::kMaxExactDim,
            "ExactEqPathAnalyzer: proof space exceeds exact-engine cap");
  }
  shape_ = RegisterShape(std::vector<int>(static_cast<std::size_t>(regs), d_));
  proof_dim_ = dim;

  if (r_ == 1) {
    // No intermediate nodes: v_0 sends |h_x>, v_1 measures {|h_y><h_y|}.
    op_ = CMat(1, 1);
    const double amp = std::abs(hy_.dot(hx_));
    op_(0, 0) = Complex{amp * amp, 0.0};
    dense_ = true;
    return;
  }

  inner_ = r_ - 1;
  patterns_ = 1 << inner_;

  // Local effects.
  // First test at v_1 with the fixed |h_x> slot contracted:
  // <h_x| (I + SWAP)/2 |h_x> = (I + |h_x><h_x|)/2 acting on kept_1.
  first_ = CMat::identity(d_);
  first_ += CMat::projector(hx_);
  first_ *= Complex{0.5, 0.0};
  // Final measurement on sent_{r-1}.
  final_ = CMat::projector(hy_);

  build_pattern_effects();
  dense_ = (mode == Mode::kDense) ||
           (mode == Mode::kAuto && proof_dim_ <= kMaxDenseProofDim);
  if (dense_) {
    // Explicit kDense may exceed the kAuto threshold up to the dense-matrix
    // memory guard (the seed engine's old cap), so consumers that need the
    // materialized operator on mid-size instances keep an escape hatch.
    require(proof_dim_ <= util::kMaxDenseExactDim,
            "ExactEqPathAnalyzer: proof space too large for the dense mode");
    // The d^2 x d^2 swap-test effect is only needed to materialize O, and
    // only when a pattern contains one (inner_ >= 2).
    if (inner_ >= 2) {
      swap_effect_ = quantum::swap_unitary(d_);
      swap_effect_ += CMat::identity(d_ * d_);
      swap_effect_ *= Complex{0.5, 0.0};
    }
    build_operator();
  }
}

const CMat& ExactEqPathAnalyzer::effect_matrix(EffectKind kind) const {
  return kind == EffectKind::kFirst   ? first_
         : kind == EffectKind::kSwap ? swap_effect_
                                     : final_;
}

void ExactEqPathAnalyzer::build_pattern_effects() {
  const auto plan_index = [&](const std::vector<int>& regs) {
    for (std::size_t i = 0; i < plans_.size(); ++i) {
      if (plans_[i].regs() == regs) {
        return i;
      }
    }
    plans_.emplace_back(shape_, regs);
    return plans_.size() - 1;
  };
  pattern_effects_.resize(static_cast<std::size_t>(patterns_));
  for (int pattern = 0; pattern < patterns_; ++pattern) {
    const auto kept = [&](int j) {  // j = 1..inner
      const int bit = (pattern >> (j - 1)) & 1;
      return 2 * (j - 1) + bit;
    };
    const auto sent = [&](int j) {
      const int bit = (pattern >> (j - 1)) & 1;
      return 2 * (j - 1) + (1 - bit);
    };
    auto& effects = pattern_effects_[static_cast<std::size_t>(pattern)];
    effects.reserve(static_cast<std::size_t>(inner_ + 1));
    const auto add = [&](EffectKind kind, std::vector<int> regs) {
      const std::size_t plan = plan_index(regs);
      effects.push_back({kind, std::move(regs), plan});
    };
    add(EffectKind::kFirst, {kept(1)});
    for (int j = 2; j <= inner_; ++j) {
      add(EffectKind::kSwap, {sent(j - 1), kept(j)});
    }
    add(EffectKind::kFinal, {sent(inner_)});
  }
}

void ExactEqPathAnalyzer::build_operator() {
  const long long dim = proof_dim_;
  CMat acc(static_cast<int>(dim), static_cast<int>(dim));
  // Stream each pattern's local effects through the matrix-free layer onto
  // an identity matrix: O(D^2 b) per pattern instead of multiplying D x D
  // embeddings (the effects act on disjoint registers, so the application
  // order is immaterial). The pattern loop stays serial — the O(D^2 b)
  // apply_left_local streaming pass inside is the parallel region, which
  // keeps peak memory at one D x D term regardless of thread count.
  for (int pattern = 0; pattern < patterns_; ++pattern) {
    CMat term = CMat::identity(static_cast<int>(dim));
    for (const PatternEffect& pe : pattern_effects_[static_cast<std::size_t>(pattern)]) {
      quantum::apply_left_local(plans_[pe.plan], effect_matrix(pe.kind), term);
    }
    acc += term;
  }
  acc *= Complex{1.0 / static_cast<double>(patterns_), 0.0};
  op_ = std::move(acc);
}

const CMat& ExactEqPathAnalyzer::acceptance_operator() const {
  require(dense_,
          "ExactEqPathAnalyzer: acceptance operator not materialized in "
          "matrix-free mode");
  return op_;
}

CVec ExactEqPathAnalyzer::apply_acceptance(const CVec& psi) const {
  require(static_cast<long long>(psi.dim()) == proof_dim_,
          "ExactEqPathAnalyzer: state dimension mismatch");
  if (r_ == 1) {
    return psi * op_(0, 0);
  }
  if (dense_) {
    return op_ * psi;
  }
  CVec out(static_cast<int>(proof_dim_));
  linalg::WorkspaceVec scratch(out.dim());
  apply_matrix_free(psi, out, *scratch);
  return out;
}

void ExactEqPathAnalyzer::apply_matrix_free(const CVec& psi, CVec& out,
                                            CVec& scratch) const {
  // The pattern loop stays serial (per-chunk D-dimensional partial sums
  // measured slower); each effect is one parallel O(D) pass by its closed
  // form. The first test reads psi into the scratch, the swap tests work in
  // place, and the final measurement accumulates into out, pre-scaled by
  // 1/patterns (a power of two, so the scaling is exact). out is zeroed on
  // the pool first (2 stores per amplitude).
  Complex* acc = linalg::MutComplexView(out).aos_data();
  sweep::parallel_for(static_cast<std::size_t>(out.dim()),
                      sweep::grain_for_ops(2),
                      [acc](std::size_t begin, std::size_t end) {
                        std::fill(acc + begin, acc + end, Complex{0.0, 0.0});
                      });
  const Complex* in = linalg::ConstComplexView(psi).aos_data();
  Complex* p = linalg::MutComplexView(scratch).aos_data();
  for (const std::vector<PatternEffect>& effects : pattern_effects_) {
    rank_one_pass(plans_[effects.front().plan], hx_, 0.5, 0.5, in, p, false);
    for (std::size_t e = 1; e + 1 < effects.size(); ++e) {
      swap_pass(plans_[effects[e].plan], d_, p);
    }
    rank_one_pass(plans_[effects.back().plan], hy_, 0.0, 1.0 / patterns_, p,
                  acc, true);
  }
}

/// The matrix-free action as a LinearOperator for one solve: apply_into
/// writes the caller's vector and reuses one scratch borrowed from the
/// thread's spectral workspace, so a Lanczos step allocates nothing. Like
/// DenseOperator, one instance must not be applied from two threads at
/// once; the analyzer itself stays immutable.
class ExactEqPathAnalyzer::MatrixFreeOperator final
    : public linalg::LinearOperator {
 public:
  explicit MatrixFreeOperator(const ExactEqPathAnalyzer& analyzer)
      : analyzer_(analyzer),
        scratch_(static_cast<int>(analyzer.proof_dim_)) {}

  int dim() const override {
    return static_cast<int>(analyzer_.proof_dim_);
  }

  CVec apply(const CVec& x) const override {
    CVec out(dim());
    apply_into(x, out);
    return out;
  }

  void apply_into(const CVec& x, CVec& out) const override {
    require(x.dim() == dim(), "ExactEqPathAnalyzer: state dimension mismatch");
    require(&x != &out, "ExactEqPathAnalyzer: apply_into input aliases output");
    if (out.dim() != dim()) {
      out = CVec(dim());
    }
    analyzer_.apply_matrix_free(x, out, *scratch_);
  }

 private:
  const ExactEqPathAnalyzer& analyzer_;
  mutable linalg::WorkspaceVec scratch_;
};

double ExactEqPathAnalyzer::worst_case_accept(int max_iters) const {
  linalg::SpectralOptions opts;
  opts.max_iters = max_iters;
  return worst_case_accept(opts);
}

double ExactEqPathAnalyzer::worst_case_accept(
    const linalg::SpectralOptions& opts, linalg::SpectralStats* stats) const {
  // Both operator forms feed the same spectral dispatcher: DenseOperator
  // packs op_ to split-complex once (SIMD matvec per iteration),
  // MatrixFreeOperator streams the closed-form passes into Lanczos's own
  // vectors.
  if (dense_) {
    const linalg::DenseOperator op(op_);
    return std::min(1.0, linalg::top_eigenvalue_psd(op, opts, nullptr, stats));
  }
  const MatrixFreeOperator op(*this);
  return std::min(1.0, linalg::top_eigenvalue_psd(op, opts, nullptr, stats));
}

double ExactEqPathAnalyzer::local_expectation(
    const PatternEffect& pe, const std::vector<CVec>& regs) const {
  const CVec& w = regs[static_cast<std::size_t>(pe.regs.front())];
  switch (pe.kind) {
    case EffectKind::kFirst:
      return 0.5 * (w.norm_sq() + std::norm(hx_.dot(w)));
    case EffectKind::kFinal:
      return std::norm(hy_.dot(w));
    default: {
      const CVec& v = regs[static_cast<std::size_t>(pe.regs.back())];
      return 0.5 * (w.norm_sq() * v.norm_sq() + std::norm(w.dot(v)));
    }
  }
}

double ExactEqPathAnalyzer::product_accept(const std::vector<CVec>& regs) const {
  require(static_cast<int>(regs.size()) == shape_.register_count(),
          "ExactEqPathAnalyzer: register count mismatch");
  if (shape_.register_count() == 0) {
    return op_(0, 0).real();
  }
  for (const CVec& v : regs) {
    require(v.dim() == d_, "ExactEqPathAnalyzer: register dimension mismatch");
  }
  // For a product proof each pattern term factorizes over its disjoint
  // effect groups, so the acceptance is a sum of products of closed-form
  // local expectations, O(d) each — no D-dimensional object is touched.
  double total = 0.0;
  for (const std::vector<PatternEffect>& effects : pattern_effects_) {
    double term = 1.0;
    for (const PatternEffect& pe : effects) {
      term *= local_expectation(pe, regs);
    }
    total += term;
  }
  return std::max(0.0, total / static_cast<double>(patterns_));
}

CMat ExactEqPathAnalyzer::conditional_operator(
    int k, const std::vector<CVec>& regs) const {
  // Per pattern, the group holding register k gives its d x d conditional
  // block and every other group a scalar factor. The rank-one tests' blocks
  // are the effects; the swap test's, with partner state v, is
  // (||v||^2 I + |v><v|)/2. Each block is accumulated straight into cond,
  // entry by entry, with the std::complex operations (and their order) of
  // forming it as a matrix expression: (I ||v||^2 + |v><v|) * 1/2 * scale.
  require(static_cast<int>(regs.size()) == shape_.register_count(),
          "ExactEqPathAnalyzer: register count mismatch");
  CMat cond(d_, d_);
  for (const std::vector<PatternEffect>& effects : pattern_effects_) {
    double scale = 1.0;
    const PatternEffect* own = nullptr;
    for (const PatternEffect& pe : effects) {
      if (std::find(pe.regs.begin(), pe.regs.end(), k) == pe.regs.end()) {
        scale *= local_expectation(pe, regs);
      } else {
        own = &pe;
      }
    }
    util::ensure(own != nullptr, "ExactEqPathAnalyzer: register not covered "
                                 "by any effect group");
    const Complex s{scale, 0.0};
    if (own->kind == EffectKind::kSwap) {
      const CVec& v = regs[static_cast<std::size_t>(
          own->regs.front() == k ? own->regs.back() : own->regs.front())];
      const Complex norm_sq{v.norm_sq(), 0.0};
      for (int i = 0; i < d_; ++i) {
        // CMat::outer leaves the rows of zero entries of v at zero.
        const bool zero_row = v[i] == Complex{0.0, 0.0};
        for (int j = 0; j < d_; ++j) {
          Complex part{i == j ? 1.0 : 0.0, 0.0};
          part *= norm_sq;
          part += zero_row ? Complex{0.0, 0.0} : v[i] * std::conj(v[j]);
          part *= Complex{0.5, 0.0};
          part *= s;
          cond(i, j) += part;
        }
      }
    } else {
      const CMat& effect = effect_matrix(own->kind);
      for (int i = 0; i < d_; ++i) {
        for (int j = 0; j < d_; ++j) {
          cond(i, j) += effect(i, j) * s;
        }
      }
    }
  }
  cond *= Complex{1.0 / static_cast<double>(patterns_), 0.0};
  return cond;
}

double ExactEqPathAnalyzer::best_product_accept(util::Rng& rng, int restarts,
                                                int sweeps) const {
  if (shape_.register_count() == 0) {
    return op_(0, 0).real();
  }
  const int nregs = shape_.register_count();
  const linalg::SpectralOptions top{
      .method = linalg::SpectralOptions::Method::kLanczos, .tol = 1e-13};
  double best = 0.0;
  for (int restart = 0; restart < restarts; ++restart) {
    std::vector<CVec> regs;
    regs.reserve(static_cast<std::size_t>(nregs));
    for (int k = 0; k < nregs; ++k) {
      regs.push_back(quantum::haar_state(d_, rng));
    }
    double value = product_accept(regs);
    for (int sweep = 0; sweep < sweeps; ++sweep) {
      for (int k = 0; k < nregs; ++k) {
        const CMat conditional = conditional_operator(k, regs);
        linalg::top_eigenvalue_psd(linalg::DenseOperator(conditional), top,
                                   &regs[static_cast<std::size_t>(k)]);
      }
      const double next = product_accept(regs);
      if (next <= value + 1e-12) {
        value = std::max(value, next);
        break;
      }
      value = next;
    }
    best = std::max(best, value);
  }
  return std::min(1.0, best);
}

}  // namespace dqma::protocol
