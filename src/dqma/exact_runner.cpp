#include "dqma/exact_runner.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/eigen.hpp"
#include "quantum/local_ops.hpp"
#include "quantum/random.hpp"
#include "quantum/unitary.hpp"
#include "sweep/parallel.hpp"
#include "util/require.hpp"
#include "util/tolerance.hpp"

namespace dqma::protocol {

using linalg::Complex;
using quantum::LocalOpPlan;
using quantum::RegisterShape;
using quantum::SparseRows;
using util::require;

namespace {

/// <w| effect |w> for the product state w = tensor of the listed registers'
/// states: the per-group factor of a product proof's acceptance. O(b + nnz)
/// for block dimension b, walking the effect's nonzero rows.
double local_expectation(const SparseRows& effect,
                         const std::vector<int>& group,
                         const std::vector<CVec>& states) {
  CVec w = states[static_cast<std::size_t>(group.front())];
  for (std::size_t k = 1; k < group.size(); ++k) {
    w = w.tensor(states[static_cast<std::size_t>(group[k])]);
  }
  Complex acc{0.0, 0.0};
  for (int i = 0; i < static_cast<int>(effect.rows()); ++i) {
    const Complex ci = std::conj(w[i]);
    Complex row{0.0, 0.0};
    for (std::size_t k = effect.start[static_cast<std::size_t>(i)];
         k < effect.start[static_cast<std::size_t>(i) + 1]; ++k) {
      row += effect.val[k] * w[effect.col[k]];
    }
    acc += ci * row;
  }
  return acc.real();
}

/// Partial contraction of a two-register effect, leaving the register at
/// `pos` (0 or 1) free: the d x d conditional block M with
///   pos == 0:  M(i, j) = sum_{a,b} conj(v[a]) E(i*d+a, j*d+b) v[b]
///   pos == 1:  M(a, b) = sum_{i,j} conj(u[i]) E(i*d+a, j*d+b) u[j]
/// contracted in an O(nnz) stage over the effect's nonzero rows (columns
/// ascending, so every sum keeps its ascending order) and an O(d^3) stage.
CMat pair_conditional(const SparseRows& effect, int pos, const CVec& other,
                      int d) {
  CMat m(d, d);
  if (pos == 0) {
    // Stage 1 over b: C(i*d+a, j) = sum_b E(i*d+a, j*d+b) other[b].
    CMat c(d * d, d);
    for (int row = 0; row < d * d; ++row) {
      for (std::size_t k = effect.start[static_cast<std::size_t>(row)];
           k < effect.start[static_cast<std::size_t>(row) + 1]; ++k) {
        const int col = effect.col[k];
        c(row, col / d) += effect.val[k] * other[col % d];
      }
    }
    // Stage 2 over a: M(i, j) = sum_a conj(other[a]) C(i*d+a, j).
    for (int i = 0; i < d; ++i) {
      for (int j = 0; j < d; ++j) {
        Complex acc{0.0, 0.0};
        for (int a = 0; a < d; ++a) {
          acc += std::conj(other[a]) * c(i * d + a, j);
        }
        m(i, j) = acc;
      }
    }
    return m;
  }
  // pos == 1: stage 1 over i: T(a, j*d+b) = sum_i conj(other[i]) E(i*d+a, .).
  CMat t(d, d * d);
  for (int a = 0; a < d; ++a) {
    for (int i = 0; i < d; ++i) {
      const Complex ci = std::conj(other[i]);
      const std::size_t row = static_cast<std::size_t>(i * d + a);
      for (std::size_t k = effect.start[row]; k < effect.start[row + 1]; ++k) {
        t(a, effect.col[k]) += ci * effect.val[k];
      }
    }
  }
  // Stage 2 over j: M(a, b) = sum_j T(a, j*d+b) other[j].
  for (int a = 0; a < d; ++a) {
    for (int b = 0; b < d; ++b) {
      Complex acc{0.0, 0.0};
      for (int j = 0; j < d; ++j) {
        acc += t(a, j * d + b) * other[j];
      }
      m(a, b) = acc;
    }
  }
  return m;
}

}  // namespace

ExactEqPathAnalyzer::ExactEqPathAnalyzer(CVec hx, CVec hy, int r, Mode mode)
    : r_(r), d_(hx.dim()) {
  require(r >= 1, "ExactEqPathAnalyzer: path length must be >= 1");
  require(hx.dim() == hy.dim(), "ExactEqPathAnalyzer: state dim mismatch");
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
    const double amp = std::abs(hy.dot(hx));
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
  first_ += CMat::projector(hx);
  first_ *= Complex{0.5, 0.0};
  // Middle swap-test effect on a register pair — only materialized when a
  // pattern can actually contain one (inner_ >= 2): r == 2 paths have a
  // single inner node and skipping the d^2 x d^2 build lets wide-d shallow
  // instances through without the quadratic blowup.
  if (inner_ >= 2) {
    swap_effect_ = quantum::swap_unitary(d_);
    swap_effect_ += CMat::identity(d_ * d_);
    swap_effect_ *= Complex{0.5, 0.0};
  }
  // Final measurement on sent_{r-1}.
  final_ = CMat::projector(hy);

  for (const CMat* effect : {&first_, &swap_effect_, &final_}) {
    effect_rows_.emplace_back(*effect);
  }
  build_pattern_effects();
  dense_ = (mode == Mode::kDense) ||
           (mode == Mode::kAuto && proof_dim_ <= kMaxDenseProofDim);
  if (dense_) {
    // Explicit kDense may exceed the kAuto threshold up to the dense-matrix
    // memory guard (the seed engine's old cap), so consumers that need the
    // materialized operator on mid-size instances keep an escape hatch.
    require(proof_dim_ <= util::kMaxDenseExactDim,
            "ExactEqPathAnalyzer: proof space too large for the dense mode");
    build_operator();
  }
}

const quantum::SparseRows& ExactEqPathAnalyzer::effect_rows(
    EffectKind kind) const {
  return effect_rows_[static_cast<std::size_t>(kind)];
}

const CMat& ExactEqPathAnalyzer::effect_matrix(EffectKind kind) const {
  switch (kind) {
    case EffectKind::kFirst:
      return first_;
    case EffectKind::kSwap:
      return swap_effect_;
    default:
      return final_;
  }
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
  // The pattern loop stays serial (reducing D-dimensional partial vectors
  // across pattern chunks measured strictly slower: each chunk would own a
  // proof-space-sized accumulator). The parallel region is the threaded
  // apply_local inside — D / b free-offset blocks per effect give every
  // kernel thread work at any realistic thread count, with no extra
  // allocation and the exact pre-threading summation order.
  CVec out(static_cast<int>(proof_dim_));
  for (int pattern = 0; pattern < patterns_; ++pattern) {
    CVec tmp = psi;
    for (const PatternEffect& pe :
         pattern_effects_[static_cast<std::size_t>(pattern)]) {
      quantum::apply_local(plans_[pe.plan], effect_matrix(pe.kind), tmp);
    }
    out += tmp;
  }
  out *= Complex{1.0 / static_cast<double>(patterns_), 0.0};
  return out;
}

double ExactEqPathAnalyzer::worst_case_accept(int max_iters) const {
  linalg::SpectralOptions opts;
  opts.max_iters = max_iters;
  return worst_case_accept(opts);
}

double ExactEqPathAnalyzer::worst_case_accept(
    const linalg::SpectralOptions& opts, linalg::SpectralStats* stats) const {
  // Both operator forms feed the same spectral dispatcher: DenseOperator
  // packs op_ to split-complex once (SIMD matvec per iteration),
  // CallbackOperator streams through apply_acceptance.
  if (dense_) {
    const linalg::DenseOperator op(op_);
    return std::min(1.0, linalg::top_eigenvalue_psd(op, opts, nullptr, stats));
  }
  const linalg::CallbackOperator op(
      [this](const CVec& psi) { return apply_acceptance(psi); },
      static_cast<int>(proof_dim_));
  return std::min(1.0, linalg::top_eigenvalue_psd(op, opts, nullptr, stats));
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
  // effect groups, so the acceptance is a sum of products of local
  // expectations, each O(nnz) of its effect — no D-dimensional object is
  // touched.
  double total = 0.0;
  for (int pattern = 0; pattern < patterns_; ++pattern) {
    double term = 1.0;
    for (const PatternEffect& pe : pattern_effects_[static_cast<std::size_t>(pattern)]) {
      term *= local_expectation(effect_rows(pe.kind), pe.regs, regs);
    }
    total += term;
  }
  return std::max(0.0, total / static_cast<double>(patterns_));
}

CMat ExactEqPathAnalyzer::conditional_operator(
    int k, const std::vector<CVec>& regs) const {
  // M_k(i, j) = <psi_-k, e_i| O |psi_-k, e_j>: per pattern, the group
  // containing register k contributes a partially contracted d x d block
  // and every other group a scalar factor (every proof register sits in
  // exactly one effect group of every pattern).
  CMat cond(d_, d_);
  for (int pattern = 0; pattern < patterns_; ++pattern) {
    double scale = 1.0;
    bool found = false;
    CMat part;
    for (const PatternEffect& pe :
         pattern_effects_[static_cast<std::size_t>(pattern)]) {
      const auto it = std::find(pe.regs.begin(), pe.regs.end(), k);
      if (it == pe.regs.end()) {
        scale *= local_expectation(effect_rows(pe.kind), pe.regs, regs);
        continue;
      }
      found = true;
      if (pe.regs.size() == 1) {
        part = effect_matrix(pe.kind);
      } else {
        const int pos = static_cast<int>(it - pe.regs.begin());
        const CVec& other =
            regs[static_cast<std::size_t>(pe.regs[pos == 0 ? 1 : 0])];
        part = pair_conditional(effect_rows(pe.kind), pos, other, d_);
      }
    }
    util::ensure(found, "ExactEqPathAnalyzer: register not covered by any "
                        "effect group");
    part *= Complex{scale, 0.0};
    cond += part;
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
        const auto es = linalg::eigh(conditional);
        CVec top(d_);
        for (int i = 0; i < d_; ++i) {
          top[i] = es.vectors(i, d_ - 1);
        }
        regs[static_cast<std::size_t>(k)] = std::move(top);
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
