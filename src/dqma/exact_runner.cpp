#include "dqma/exact_runner.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "linalg/simd.hpp"
#include "quantum/random.hpp"
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

[[gnu::always_inline]] inline void run_chunk(const RankOne& k,
                                             std::size_t begin,
                                             std::size_t end) {
  if (k.accumulate) {
    rank_one_runs<true>(k, begin, end);
  } else {
    rank_one_runs<false>(k, begin, end);
  }
}

/// Per real component of a swap-test step: ((a + a') + (c + c')) * 1/2.
/// Additions and one exact power-of-two scaling: no level or chunking can
/// change the bits.
[[gnu::always_inline]] inline double swap_sum(double a, double ap, double c,
                                              double cp) {
  return 0.5 * ((a + ap) + (c + cp));
}

/// One swap-test step of the coin chain for one value b' of coin j: out <-
/// S_j(0, b') v0 + S_j(1, b') v1 = ((I + SWAP_{a1,q})/2) v0 + ((I +
/// SWAP_{a0,q})/2) v1, where a0, a1 = R_{j-1,0}, R_{j-1,1} (coin b_{j-1} =
/// b sends R_{j-1,1-b}) and q = R_{j,b'}, the register node j keeps. With
/// digits (x, y, z) on (a0, a1, q), amplitude (x, y, z) reads v0 there and
/// at (x, z, y), and v1 there and at (z, y, x). Items are (run of the sq
/// consecutive free amplitudes below q, x); they write disjoint blocks.
/// The last step (j = m) is LastStep instead, so q never has stride 1.
struct SwapStep {
  const long long* foff;  // free offsets of the (a0, a1, q) plan
  long long sa;           // strides of a0, a1 and q, in amplitudes
  long long sb;
  long long sq;
  int d;
  const double* v0;  // neither input may alias out
  const double* v1;
  double* out;
};

[[gnu::always_inline]] inline void run_chunk(const SwapStep& k,
                                             std::size_t begin,
                                             std::size_t end) {
  const int d = k.d;
  const long long sa = k.sa;
  const long long sb = k.sb;
  const long long sq = k.sq;
  for (std::size_t item = begin; item < end; ++item) {
    const long long base = k.foff[item / static_cast<std::size_t>(d) *
                                  static_cast<std::size_t>(sq)];
    const long long x =
        static_cast<long long>(item % static_cast<std::size_t>(d));
    for (long long y = 0; y < d; ++y) {
      for (long long z = 0; z < d; ++z) {
        const long long own = 2 * (base + x * sa + y * sb + z * sq);
        const double* __restrict a = k.v0 + own;
        const double* __restrict ap =
            k.v0 + 2 * (base + x * sa + z * sb + y * sq);
        const double* __restrict c = k.v1 + own;
        const double* __restrict cp =
            k.v1 + 2 * (base + z * sa + y * sb + x * sq);
        double* __restrict o = k.out + own;
        for (long long t = 0; t < 2 * sq; ++t) {
          o[t] = swap_sum(a[t], ap[t], c[t], cp[t]);
        }
      }
    }
  }
}

/// Largest d of a path with a swap step: r >= 3 has d^4 <= kMaxExactDim.
constexpr int kMaxStepDim = 22;
static_assert(23LL * 23 * 23 * 23 > util::kMaxExactDim);

/// The last step fused with the final measurement, for one value b' of
/// coin m: out <- w |h_y><h_y| [S_m(0, b') v0 + S_m(1, b') v1] at b' = 0
/// and out += that at b' = 1, with the measurement on sent_m(b') =
/// R_{m,1-b'}. Node m's two
/// registers are the last two, so for digits x, y on a0, a1 = R_{m-1,0},
/// R_{m-1,1} its d x d block, digit q on R_{m,b'} and f on R_{m,1-b'}, is
/// summed into a tile as in SwapStep and then contracted with h_y along f,
/// in the per-amplitude order of the rank-one passes. Items are (block of
/// the four registers, x); the blocks are the leading registers' offsets,
/// multiples of d^4.
struct LastStep {
  const double* h;
  int d;
  double w;
  const double* v0;
  const double* v1;
  double* out;
  int coin;  // b'
};

/// kCoin = b' fixes the strides of q and f (d and 1, or 1 and d), so the
/// loops along the stride-1 digit are contiguous; every amplitude sees the
/// same operations in either loop order.
template <int kCoin>
[[gnu::always_inline]] inline void last_step_items(const LastStep& k,
                                                   std::size_t begin,
                                                   std::size_t end) {
  const long long d = k.d;
  const long long sb = d * d;  // strides of a0 and a1
  const long long sa = d * sb;
  const long long sq = kCoin == 0 ? d : 1;
  const long long sf = kCoin == 0 ? 1 : d;
  const double* __restrict v0 = k.v0;
  const double* __restrict v1 = k.v1;
  const double* __restrict h = k.h;
  double tile[2 * kMaxStepDim * kMaxStepDim];  // (f, q) at 2 (f d + q)
  double cr[kMaxStepDim];
  double ci[kMaxStepDim];
  const auto fill = [&](long long row, long long p0, long long p1, long long q,
                        long long f) {
    for (int c = 0; c < 2; ++c) {
      tile[2 * (f * d + q) + c] =
          swap_sum(v0[2 * (row + q * sq + f * sf) + c],
                   v0[2 * (p0 + q * sb + f * sf) + c],
                   v1[2 * (row + q * sq + f * sf) + c],
                   v1[2 * (p1 + q * sa + f * sf) + c]);
    }
  };
  for (std::size_t item = begin; item < end; ++item) {
    const long long base =
        static_cast<long long>(item / static_cast<std::size_t>(d)) * d * sa;
    const long long x =
        static_cast<long long>(item % static_cast<std::size_t>(d));
    for (long long y = 0; y < d; ++y) {
      const long long row = base + x * sa + y * sb;
      const long long p0 = base + x * sa + y * sq;  // + q sb
      const long long p1 = base + y * sb + x * sq;  // + q sa
      for (long long outer = 0; outer < d; ++outer) {
        for (long long inner = 0; inner < d; ++inner) {
          kCoin == 0 ? fill(row, p0, p1, outer, inner)
                     : fill(row, p0, p1, inner, outer);
        }
      }
      for (long long q = 0; q < d; ++q) {
        cr[q] = 0.0;
        ci[q] = 0.0;
      }
      for (long long f = 0; f < d; ++f) {
        const double hr = h[2 * f];
        const double hi = h[2 * f + 1];
        const double* __restrict t = tile + 2 * f * d;
        for (long long q = 0; q < d; ++q) {
          cr[q] += hr * t[2 * q] + hi * t[2 * q + 1];
          ci[q] += hr * t[2 * q + 1] + (-hi) * t[2 * q];
        }
      }
      const auto put_out = [&](long long q, long long f) {
        const double wr = h[2 * f] * k.w;
        const double wi = h[2 * f + 1] * k.w;
        double* __restrict o = k.out + 2 * (row + q * sq + f * sf);
        put<kCoin == 1>(o[0], wr * cr[q] + (-wi) * ci[q]);
        put<kCoin == 1>(o[1], wr * ci[q] + wi * cr[q]);
      };
      for (long long outer = 0; outer < d; ++outer) {
        for (long long inner = 0; inner < d; ++inner) {
          kCoin == 0 ? put_out(outer, inner) : put_out(inner, outer);
        }
      }
    }
  }
}

[[gnu::always_inline]] inline void run_chunk(const LastStep& k,
                                             std::size_t begin,
                                             std::size_t end) {
  if (k.coin == 0) {
    last_step_items<0>(k, begin, end);
  } else {
    last_step_items<1>(k, begin, end);
  }
}

/// The kernel bodies instantiated per dispatch level.
template <typename K>
void chunk_scalar(const K& k, std::size_t begin, std::size_t end) {
  run_chunk(k, begin, end);
}

#if DQMA_SIMD_X86
template <typename K>
DQMA_TARGET_AVX2 void chunk_avx2(const K& k, std::size_t begin,
                                 std::size_t end) {
  run_chunk(k, begin, end);
}

template <typename K>
DQMA_TARGET_AVX512 void chunk_avx512(const K& k, std::size_t begin,
                                     std::size_t end) {
  run_chunk(k, begin, end);
}
#endif

/// Runs a pass of `count` items on the kernel pool, in disjoint chunks
/// (~8 flops per amplitude, `amplitudes` amplitudes per item). The level is
/// resolved on the calling thread and captured, per the linalg/simd.hpp
/// rule. No amplitude's arithmetic depends on the split: the output is
/// thread-count invariant.
template <typename K>
void run_pass(const K& k, std::size_t count, long long amplitudes) {
  void (*body)(const K&, std::size_t, std::size_t) = chunk_scalar<K>;
#if DQMA_SIMD_X86
  switch (simd::active()) {
    case simd::Level::kAvx512:
      body = chunk_avx512<K>;
      break;
    case simd::Level::kAvx2:
      body = chunk_avx2<K>;
      break;
    default:
      break;
  }
#endif
  sweep::parallel_for(
      count, sweep::grain_for_ops(8 * static_cast<std::size_t>(amplitudes)),
      [&k, body](std::size_t begin, std::size_t end) { body(k, begin, end); });
}

const double* interleaved(const Complex* v) {
  return reinterpret_cast<const double*>(v);
}

/// dst <- (keep I + w |h><h|) src on the plan's one register, or dst +=
/// that with `accumulate`.
void rank_one_pass(const LocalOpPlan& plan, const CVec& h, double keep,
                   double w, const Complex* src, Complex* dst,
                   bool accumulate) {
  const std::vector<long long>& toff = plan.target_offsets();
  const std::vector<long long>& foff = plan.free_offsets();
  const RankOne k{interleaved(linalg::ConstComplexView(h).aos_data()),
                  toff.data(),
                  foff.data(),
                  h.dim(),
                  toff[1],
                  keep,
                  w,
                  interleaved(src),
                  reinterpret_cast<double*>(dst),
                  accumulate};
  run_pass(k, foff.size(), plan.block());
}

/// A product proof's chain: every effect is a scalar, so the coins reduce
/// to 2 x 2 transfer matrices. first(b) = <w_b| F |w_b> on R_{1,b};
/// step(j, b, b2) is the swap test on (sent_{j-1}(b), kept_j(b2)) =
/// (R_{j-1,1-b}, R_{j,b2}); final(b) = |<h_y|sent_m(b)>|^2 on R_{m,1-b}.
/// left(n) = f T_2 ... T_n and right(n) = T_{n+1} ... T_m g, so the
/// acceptance is 2^-m left(m) . g.
struct ProductChain {
  const CVec& hx;
  const CVec& hy;
  const std::vector<CVec>& regs;
  int m;

  const CVec& reg(int k) const { return regs[static_cast<std::size_t>(k)]; }

  double first(int b) const {
    return 0.5 * (reg(b).norm_sq() + std::norm(hx.dot(reg(b))));
  }
  double final(int b) const { return std::norm(hy.dot(reg(2 * m - 1 - b))); }
  double step(int j, int b, int b2) const {
    const CVec& w = reg(2 * j - 3 - b);
    const CVec& v = reg(2 * j - 2 + b2);
    return 0.5 * (w.norm_sq() * v.norm_sq() + std::norm(w.dot(v)));
  }

  std::array<double, 2> left(int n) const {
    std::array<double, 2> a{first(0), first(1)};
    for (int j = 2; j <= n; ++j) {
      a = {a[0] * step(j, 0, 0) + a[1] * step(j, 1, 0),
           a[0] * step(j, 0, 1) + a[1] * step(j, 1, 1)};
    }
    return a;
  }
  std::array<double, 2> right(int n) const {
    std::array<double, 2> g{final(0), final(1)};
    for (int j = m; j > n; --j) {
      g = {step(j, 0, 0) * g[0] + step(j, 0, 1) * g[1],
           step(j, 1, 0) * g[0] + step(j, 1, 1) * g[1]};
    }
    return g;
  }
};

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
  // Local effects.
  // First test at v_1 with the fixed |h_x> slot contracted:
  // <h_x| (I + SWAP)/2 |h_x> = (I + |h_x><h_x|)/2 acting on kept_1.
  first_ = CMat::identity(d_);
  first_ += CMat::projector(hx_);
  first_ *= Complex{0.5, 0.0};
  // Final measurement on sent_{r-1}.
  final_ = CMat::projector(hy_);

  for (int b = 0; b < 2; ++b) {
    first_plans_.emplace_back(shape_, std::vector<int>{b});
  }
  for (int j = 2; j < inner_; ++j) {
    for (int b = 0; b < 2; ++b) {
      step_plans_.emplace_back(
          shape_, std::vector<int>{2 * j - 4, 2 * j - 3, 2 * j - 2 + b});
    }
  }

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

std::vector<linalg::WorkspaceVec> ExactEqPathAnalyzer::borrow_scratch() const {
  // One vector per value of the current coin; the middle steps of r >= 4
  // alternate between two pairs.
  const int count = inner_ == 1 ? 1 : inner_ == 2 ? 2 : 4;
  std::vector<linalg::WorkspaceVec> scratch;
  scratch.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    scratch.emplace_back(static_cast<int>(proof_dim_));
  }
  return scratch;
}

void ExactEqPathAnalyzer::build_operator() {
  // O column by column: O e_c by the chain, exactly as apply_acceptance
  // would compute it.
  const int dim = static_cast<int>(proof_dim_);
  op_ = CMat(dim, dim);
  CVec column(dim);
  CVec applied(dim);
  std::vector<linalg::WorkspaceVec> scratch = borrow_scratch();
  for (int c = 0; c < dim; ++c) {
    column[c] = Complex{1.0, 0.0};
    apply_matrix_free(column, applied, scratch);
    column[c] = Complex{0.0, 0.0};
    for (int i = 0; i < dim; ++i) {
      op_(i, c) = applied[i];
    }
  }
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
  std::vector<linalg::WorkspaceVec> scratch = borrow_scratch();
  apply_matrix_free(psi, out, scratch);
  return out;
}

void ExactEqPathAnalyzer::apply_matrix_free(
    const CVec& psi, CVec& out,
    std::vector<linalg::WorkspaceVec>& scratch) const {
  // The coin chain: v_1^b = F(b) psi, v_j^b' = sum_b S_j(b, b') v_{j-1}^b,
  // O psi = 2^-m sum_b Final(b) v_m^b, each pass parallel on the kernel
  // pool. The measurement of v_m^b' is fused into the last step, pre-scaled
  // by 2^-m (exact); the first one writes out and the second adds to it.
  const auto data = [&](std::size_t i) {
    return linalg::MutComplexView(*scratch[i]).aos_data();
  };
  const Complex* in = linalg::ConstComplexView(psi).aos_data();
  Complex* acc = linalg::MutComplexView(out).aos_data();
  const double weight = std::ldexp(1.0, -inner_);
  if (inner_ == 1) {
    // Final(b) measures R_{1,1-b}.
    for (int b = 0; b < 2; ++b) {
      rank_one_pass(first_plans_[b], hx_, 0.5, 0.5, in, data(0), false);
      rank_one_pass(first_plans_[1 - b], hy_, 0.0, weight, data(0), acc,
                    b == 1);
    }
    return;
  }
  std::array<Complex*, 2> cur{data(0), data(1)};
  for (int b = 0; b < 2; ++b) {
    rank_one_pass(first_plans_[b], hx_, 0.5, 0.5, in, cur[b], false);
  }
  std::array<Complex*, 2> next{};
  if (inner_ > 2) {
    next = {data(2), data(3)};
  }
  for (int j = 2; j < inner_; ++j) {
    for (int b = 0; b < 2; ++b) {
      const LocalOpPlan& plan =
          step_plans_[static_cast<std::size_t>(2 * j - 4 + b)];
      const std::vector<long long>& toff = plan.target_offsets();
      const SwapStep k{plan.free_offsets().data(),
                       toff[static_cast<std::size_t>(d_ * d_)],
                       toff[static_cast<std::size_t>(d_)],
                       toff[1],
                       d_,
                       interleaved(cur[0]),
                       interleaved(cur[1]),
                       reinterpret_cast<double*>(next[b])};
      run_pass(k, plan.free_offsets().size() / toff[1] * d_,
               d_ * d_ * toff[1]);
    }
    std::swap(cur, next);
  }
  const long long block = static_cast<long long>(d_) * d_ * d_;
  for (int b = 0; b < 2; ++b) {
    const LastStep k{interleaved(linalg::ConstComplexView(hy_).aos_data()),
                     d_,
                     weight,
                     interleaved(cur[0]),
                     interleaved(cur[1]),
                     reinterpret_cast<double*>(acc),
                     b};
    run_pass(k, static_cast<std::size_t>(proof_dim_ / block), block);
  }
}

/// The matrix-free action as a LinearOperator for one solve: apply_into
/// writes the caller's vector and reuses the chain's scratch, borrowed from
/// the thread's spectral workspace, so a Lanczos step allocates nothing.
/// Like DenseOperator, one instance must not be applied from two threads at
/// once; the analyzer itself stays immutable.
class ExactEqPathAnalyzer::MatrixFreeOperator final
    : public linalg::LinearOperator {
 public:
  explicit MatrixFreeOperator(const ExactEqPathAnalyzer& analyzer)
      : analyzer_(analyzer), scratch_(analyzer.borrow_scratch()) {}

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
    analyzer_.apply_matrix_free(x, out, scratch_);
  }

 private:
  const ExactEqPathAnalyzer& analyzer_;
  mutable std::vector<linalg::WorkspaceVec> scratch_;
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
  // MatrixFreeOperator streams the chain's passes into Lanczos's own
  // vectors.
  if (dense_) {
    const linalg::DenseOperator op(op_);
    return std::min(1.0, linalg::top_eigenvalue_psd(op, opts, nullptr, stats));
  }
  const MatrixFreeOperator op(*this);
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
  const ProductChain chain{hx_, hy_, regs, inner_};
  const std::array<double, 2> a = chain.left(inner_);
  const double total = a[0] * chain.final(0) + a[1] * chain.final(1);
  return std::max(0.0, std::ldexp(total, -inner_));
}

CMat ExactEqPathAnalyzer::conditional_operator(
    int k, const std::vector<CVec>& regs) const {
  // Register k = R_{n,c} is kept when b_n = c (the first test, or step n's
  // swap test) and sent when b_n = 1 - c (step n+1's swap test, or the
  // final measurement). Each of its blocks is weighted by the chain on
  // both sides of its effect, which never touches register k. The swap
  // test's block with partner state v is (||v||^2 I + |v><v|)/2.
  require(static_cast<int>(regs.size()) == shape_.register_count(),
          "ExactEqPathAnalyzer: register count mismatch");
  require(k >= 0 && k < shape_.register_count(),
          "ExactEqPathAnalyzer: register out of range");
  const ProductChain chain{hx_, hy_, regs, inner_};
  const int n = k / 2 + 1;
  const int c = k % 2;
  const double scale = std::ldexp(1.0, -inner_);
  CMat cond(d_, d_);
  const auto add_block = [&](double weight, const CMat& effect) {
    for (int i = 0; i < d_; ++i) {
      for (int j = 0; j < d_; ++j) {
        cond(i, j) += weight * effect(i, j);
      }
    }
  };
  const auto add_swap_block = [&](double weight, int partner) {
    const CVec& v = chain.reg(partner);
    const double norm_sq = v.norm_sq();
    for (int i = 0; i < d_; ++i) {
      for (int j = 0; j < d_; ++j) {
        cond(i, j) += (0.5 * weight) * (v[i] * std::conj(v[j]) +
                                        Complex{i == j ? norm_sq : 0.0, 0.0});
      }
    }
  };
  const std::array<double, 2> left =
      n > 1 ? chain.left(n - 1) : std::array<double, 2>{};
  const std::array<double, 2> right =
      n < inner_ ? chain.right(n + 1) : std::array<double, 2>{};
  // Kept: the chain right of node n given b_n = c.
  const double kept = n == inner_ ? chain.final(c)
                                  : chain.step(n + 1, c, 0) * right[0] +
                                        chain.step(n + 1, c, 1) * right[1];
  if (n == 1) {
    add_block(scale * kept, first_);
  } else {
    for (int b = 0; b < 2; ++b) {
      add_swap_block(scale * left[b] * kept, 2 * n - 3 - b);
    }
  }
  // Sent: the chain left of node n given b_n = 1 - c.
  const double sent = n == 1 ? chain.first(1 - c)
                             : left[0] * chain.step(n, 0, 1 - c) +
                                   left[1] * chain.step(n, 1, 1 - c);
  if (n == inner_) {
    add_block(scale * sent, final_);
  } else {
    for (int b2 = 0; b2 < 2; ++b2) {
      add_swap_block(scale * sent * right[b2], 2 * n + b2);
    }
  }
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
