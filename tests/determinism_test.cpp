// Deterministic-seed guarantees of the RNG layer (DESIGN.md Sec. 5): the
// same seed must yield bit-identical streams within a run, across
// translation units, and through the quantum sampling layer. When a test
// elsewhere flakes, these suites establish whether the RNG can be blamed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dqma/exact_runner.hpp"
#include "linalg/eigen.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/simd.hpp"
#include "quantum/density.hpp"
#include "quantum/local_ops.hpp"
#include "quantum/partial_trace.hpp"
#include "quantum/random.hpp"
#include "quantum/unitary.hpp"
#include "support/test_support.hpp"
#include "sweep/parallel.hpp"
#include "sweep/sweep.hpp"
#include "sweep/thread_pool.hpp"
#include "util/rng.hpp"

namespace {

using dqma::linalg::CMat;
using dqma::linalg::Complex;
using dqma::linalg::CVec;
using dqma::util::Rng;

TEST(RngDeterminismTest, SameSeedSameStream) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64()) << "diverged at draw " << i;
  }
}

TEST(RngDeterminismTest, SameSeedSameStreamAcrossTranslationUnits) {
  // The reference stream is generated inside the support library's
  // translation unit; an inline-initialization or ODR bug in the seeding
  // path would show up as a mismatch here.
  const auto reference = dqma::test::reference_stream(0xfeedface, 256);
  Rng local(0xfeedface);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(local.next_u64(), reference[i]) << "diverged at draw " << i;
  }
}

TEST(RngDeterminismTest, DistinctSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(RngDeterminismTest, DerivedDrawsAreDeterministic) {
  // All derived draw types consume the base stream deterministically.
  Rng a(77);
  Rng b(77);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(a.next_below(97), b.next_below(97));
    ASSERT_EQ(a.next_int(-50, 50), b.next_int(-50, 50));
    ASSERT_EQ(a.next_double(), b.next_double());
    ASSERT_EQ(a.next_bool(0.3), b.next_bool(0.3));
    ASSERT_EQ(a.next_gaussian(), b.next_gaussian());
  }
}

TEST(RngDeterminismTest, SplitIsDeterministicAndIndependent) {
  Rng a(999);
  Rng b(999);
  Rng child_a = a.split();
  Rng child_b = b.split();
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(child_a.next_u64(), child_b.next_u64());
  }
  // Parent and child streams do not collide on a short window.
  std::set<std::uint64_t> parent_draws;
  for (int i = 0; i < 64; ++i) parent_draws.insert(a.next_u64());
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(parent_draws.count(child_a.next_u64()));
  }
}

TEST(QuantumRandomDeterminismTest, HaarStateSameSeedIdentical) {
  Rng a(424242);
  Rng b(424242);
  const CVec s1 = dqma::quantum::haar_state(16, a);
  const CVec s2 = dqma::quantum::haar_state(16, b);
  EXPECT_STATE_NEAR_TOL(s1, s2, 0.0);
}

TEST(QuantumRandomDeterminismTest, HaarStateMatchesCrossTuReference) {
  Rng local(0xabcdef);
  const CVec here = dqma::quantum::haar_state(8, local);
  const CVec there = dqma::test::reference_haar_state(8, 0xabcdef);
  EXPECT_STATE_NEAR_TOL(here, there, 0.0);
}

TEST(QuantumRandomDeterminismTest, HaarUnitaryAndDensitySameSeedIdentical) {
  Rng a(7);
  Rng b(7);
  const CMat u1 = dqma::quantum::haar_unitary(8, a);
  const CMat u2 = dqma::quantum::haar_unitary(8, b);
  EXPECT_DENSITY_NEAR_TOL(u1, u2, 0.0);
  const CMat d1 = dqma::quantum::random_density(8, a);
  const CMat d2 = dqma::quantum::random_density(8, b);
  EXPECT_DENSITY_NEAR_TOL(d1, d2, 0.0);
}

TEST(QuantumRandomDeterminismTest, HaarStateIsNormalized) {
  Rng rng(3);
  for (int dim : {2, 3, 8, 32}) {
    EXPECT_NORMALIZED(dqma::quantum::haar_state(dim, rng));
  }
}

// ---------------------------------------------------------------------------
// derive_seed: the per-job seed derivation of the parallel sweep engine.
// The values below are pinned against hand-derived SplitMix64 algebra (see
// rng.hpp for the definition); if derive_seed ever changes, every recorded
// benchmark trajectory silently reshuffles, so these must fail loudly.
// ---------------------------------------------------------------------------

TEST(DeriveSeedTest, MatchesHandComputedValues) {
  using dqma::util::derive_seed;
  // base 0, job 0: state = phi64 = 0x9e3779b97f4a7c15. One mix round gives
  // 0xe220a8397b1dcdaf (the canonical first SplitMix64 output for seed 0,
  // cross-checking the scrambler); the second round gives the result.
  EXPECT_EQ(derive_seed(0, 0), 0x48218226ff3cd4bfULL);
  // base 0, job 1: state = 2 * phi64 (mod 2^64) = 0x3c6ef372fe94f82a.
  EXPECT_EQ(derive_seed(0, 1), 0xcd73fe3de975ac26ULL);
  // base 0, job 2: state = 3 * phi64 (mod 2^64) = 0xdaa66d2c7ddf743f.
  EXPECT_EQ(derive_seed(0, 2), 0x7b476c5a5333d0ecULL);
  // base 1 shifts the state by exactly 1: state = phi64 + 1.
  EXPECT_EQ(derive_seed(1, 0), 0xdce423fc82c0d5b8ULL);
  // A composite case: base 0xdeadbeef, job 7 (state = base + 8 * phi64).
  EXPECT_EQ(derive_seed(0xdeadbeefULL, 7), 0xa60a721486aa7f53ULL);
  // Wrap-around cases: base 2^64 - 1 (state = phi64 - 1) and job index
  // 2^64 - 1 ((idx + 1) * phi64 wraps to 0, so state = base).
  EXPECT_EQ(derive_seed(0xffffffffffffffffULL, 0), 0x445018e305810b78ULL);
  EXPECT_EQ(derive_seed(42, 0xffffffffffffffffULL), 0x97ea87f7e45c00a5ULL);
}

TEST(DeriveSeedTest, PinsBenchSeriesSeedsOfTheLocalOpsEngine) {
  // Series seeds of the benchmark series introduced with the matrix-free
  // local-operator engine, at the default global seed 0. The registry
  // derives experiment seed = derive_seed(global, fnv1a64(experiment)) and
  // series seed = derive_seed(experiment_seed, fnv1a64(series)); pinning
  // the values here means a silent change to either hash or derivation
  // shows up as a test failure, not as a reshuffled BENCH_*.json trajectory.
  using dqma::sweep::fnv1a64;
  using dqma::util::derive_seed;
  const auto series_seed = [](const char* experiment, const char* series) {
    return derive_seed(derive_seed(0, fnv1a64(experiment)), fnv1a64(series));
  };
  EXPECT_EQ(series_seed("table3_lower", "matrix_free_large"),
            0xb886ab87dd07ad15ULL);
  EXPECT_EQ(series_seed("table2_eq", "exact_vs_dp_large"),
            0x5a7301dc55a800f9ULL);
  // First job of each series (what the sweep engine hands the job body).
  EXPECT_EQ(derive_seed(series_seed("table3_lower", "matrix_free_large"), 0),
            0xed7d97ba7b1b3da0ULL);
  EXPECT_EQ(derive_seed(series_seed("table2_eq", "exact_vs_dp_large"), 0),
            0xa21b20d93fb2ce37ULL);
}

TEST(DeriveSeedTest, PinsBenchSeriesSeedsOfTheParallelKernelLayer) {
  // Series introduced with the deterministic intra-instance parallelism PR,
  // pinned for the same reason as the local-ops series above.
  using dqma::sweep::fnv1a64;
  using dqma::util::derive_seed;
  const auto series_seed = [](const char* experiment, const char* series) {
    return derive_seed(derive_seed(0, fnv1a64(experiment)), fnv1a64(series));
  };
  EXPECT_EQ(series_seed("table2_eq", "circuit_mc"), 0x84204262021e6c11ULL);
  EXPECT_EQ(derive_seed(series_seed("table2_eq", "circuit_mc"), 0),
            0x8b68f72be803c4ffULL);
}

TEST(DeriveSeedTest, PinsBenchSeriesSeedsOfTheScenarioEngine) {
  // Series introduced with the scenario engine (exp_topology), pinned for
  // the same reason as the series above: the taxonomy counts are exact
  // integers, so a reshuffled seed stream changes the recorded baseline
  // rather than merely perturbing a float.
  using dqma::sweep::fnv1a64;
  using dqma::util::derive_seed;
  const auto series_seed = [](const char* experiment, const char* series) {
    return derive_seed(derive_seed(0, fnv1a64(experiment)), fnv1a64(series));
  };
  EXPECT_EQ(series_seed("exp_topology", "taxonomy"), 0x960926ad5a0d97c4ULL);
  EXPECT_EQ(series_seed("exp_topology", "gap_vs_reps"),
            0xb4ec2bfce3435957ULL);
  EXPECT_EQ(derive_seed(series_seed("exp_topology", "taxonomy"), 0),
            0xc59170b698b93c8fULL);
  EXPECT_EQ(derive_seed(series_seed("exp_topology", "gap_vs_reps"), 0),
            0xc8c8ccb6346585bcULL);
}

// ---------------------------------------------------------------------------
// Kernel thread-count invariance: every kernel threaded onto
// sweep::parallel_for / parallel_reduce must produce byte-identical results
// at any kernel thread count (fixed chunk partitioning, chunk-ordered
// reductions). Each pin runs the same computation under kernel pools of
// size 1, 3 and 8 and requires exact equality — not a tolerance.
// ---------------------------------------------------------------------------

using dqma::quantum::LocalOpPlan;
using dqma::quantum::RegisterShape;

/// Runs `compute` under kernel thread counts 1, 3 and 8 and requires the
/// returned matrices to match byte for byte (linf distance exactly 0).
void expect_threads_invariant_mat(
    const std::function<CMat()>& compute) {
  const auto at = [&](int threads) {
    const dqma::sweep::KernelThreadScope scope(threads);
    return compute();
  };
  const CMat serial = at(1);
  EXPECT_EQ(serial.linf_distance(at(3)), 0.0);
  EXPECT_EQ(serial.linf_distance(at(8)), 0.0);
}

void expect_threads_invariant_vec(
    const std::function<CVec()>& compute) {
  const auto at = [&](int threads) {
    const dqma::sweep::KernelThreadScope scope(threads);
    return compute();
  };
  const CVec serial = at(1);
  EXPECT_EQ(serial.linf_distance(at(3)), 0.0);
  EXPECT_EQ(serial.linf_distance(at(8)), 0.0);
}

void expect_threads_invariant_scalar(
    const std::function<double()>& compute) {
  const auto at = [&](int threads) {
    const dqma::sweep::KernelThreadScope scope(threads);
    return compute();
  };
  const double serial = at(1);
  EXPECT_EQ(serial, at(3));
  EXPECT_EQ(serial, at(8));
}

TEST(ThreadedKernelDeterminismTest, ApplyLocalStateVector) {
  // Large enough that the region actually splits into many chunks.
  const RegisterShape shape(std::vector<int>(7, 4));  // D = 16384
  Rng rng(11);
  const CMat u = dqma::quantum::haar_unitary(16, rng);
  const CVec psi0 = dqma::quantum::haar_state(16384, rng);
  const LocalOpPlan plan(shape, {1, 5});
  // (I + SWAP)/2 on the pair: 28 of 256 entries, so every level takes the
  // sparse row walk instead of the dense split path.
  CMat swap_effect = dqma::quantum::swap_unitary(4);
  swap_effect += CMat::identity(16);
  swap_effect *= Complex{0.5, 0.0};
  const CMat* ops[] = {&u, &swap_effect};
  for (const CMat* op : ops) {
    expect_threads_invariant_vec([&] {
      CVec psi = psi0;
      dqma::quantum::apply_local(plan, *op, psi);
      return psi;
    });
  }
}

TEST(ThreadedKernelDeterminismTest, ExpectationLocalPureAndDensity) {
  const RegisterShape shape({8, 4, 8});  // D = 256
  Rng rng(12);
  const CMat effect = dqma::quantum::random_density(4, rng);
  const CVec psi = dqma::quantum::haar_state(256, rng);
  const CMat rho = dqma::quantum::random_density(256, rng);
  const LocalOpPlan plan(shape, {1});
  expect_threads_invariant_scalar(
      [&] { return dqma::quantum::expectation_local(plan, effect, psi); });
  expect_threads_invariant_scalar(
      [&] { return dqma::quantum::expectation_local(plan, effect, rho); });
}

TEST(ThreadedKernelDeterminismTest, SandwichAndProjectLocal) {
  const RegisterShape shape({16, 4, 4});  // D = 256
  Rng rng(13);
  const CMat u = dqma::quantum::haar_unitary(4, rng);
  const CMat rho0 = dqma::quantum::random_density(256, rng);
  const LocalOpPlan plan(shape, {1});
  expect_threads_invariant_mat([&] {
    CMat rho = rho0;
    dqma::quantum::sandwich_local(plan, u, rho);
    return rho;
  });
  CMat e(4, 4);  // rank-deficient effect so project_local renormalizes
  e(0, 0) = Complex{1.0, 0.0};
  e(1, 1) = Complex{0.5, 0.0};
  expect_threads_invariant_mat([&] {
    CMat rho = rho0;
    dqma::quantum::project_local(plan, e, rho);
    return rho;
  });
}

TEST(ThreadedKernelDeterminismTest, BlockedGemmAndAdjointProducts) {
  Rng rng(14);
  const CMat a = dqma::quantum::haar_unitary(96, rng);
  const CMat b = dqma::quantum::haar_unitary(96, rng);
  expect_threads_invariant_mat([&] { return a * b; });
  expect_threads_invariant_mat([&] { return a.adjoint_times(b); });
  expect_threads_invariant_mat([&] { return a.times_adjoint(b); });
  const CVec v = dqma::quantum::haar_state(96, rng);
  expect_threads_invariant_vec([&] { return a * v; });
}

TEST(ThreadedKernelDeterminismTest, PartialTracePasses) {
  Rng rng(15);
  const RegisterShape shape({4, 8, 8});
  const dqma::quantum::Density rho(
      shape, dqma::quantum::random_density(256, rng));
  expect_threads_invariant_mat([&] {
    return dqma::quantum::partial_trace(rho, {1}).matrix();
  });
}

TEST(ThreadedKernelDeterminismTest, AnalyzerAssemblyAndMatrixFreeMatvec) {
  using dqma::protocol::ExactEqPathAnalyzer;
  Rng rng(16);
  const CVec hx = CVec::basis(3, 0);
  CVec hy(3);
  hy[0] = Complex{0.2, 0.0};
  hy[1] = Complex{std::sqrt(1.0 - 0.04), 0.0};
  const CVec probe = dqma::quantum::haar_state(729, rng);  // 3^6, r = 4
  // Dense streaming assembly (the apply_left_local pass inside).
  expect_threads_invariant_mat([&] {
    const ExactEqPathAnalyzer dense(hx, hy, 4, ExactEqPathAnalyzer::Mode::kDense);
    return dense.acceptance_operator();
  });
  // Matrix-free action and the power iteration on it.
  expect_threads_invariant_vec([&] {
    const ExactEqPathAnalyzer mf(hx, hy, 4,
                                 ExactEqPathAnalyzer::Mode::kMatrixFree);
    return mf.apply_acceptance(probe);
  });
  expect_threads_invariant_scalar([&] {
    const ExactEqPathAnalyzer mf(hx, hy, 4,
                                 ExactEqPathAnalyzer::Mode::kMatrixFree);
    return mf.worst_case_accept(/*max_iters=*/32);
  });
  // The D = 729 passes above fit one chunk; at d = 8, r = 3 (D = 4096)
  // every closed-form pass splits across kernel threads.
  const CVec wide_hx = dqma::quantum::haar_state(8, rng);
  const CVec wide_hy = dqma::quantum::haar_state(8, rng);
  const ExactEqPathAnalyzer wide(wide_hx, wide_hy, 3,
                                 ExactEqPathAnalyzer::Mode::kMatrixFree);
  const CVec wide_probe = dqma::quantum::haar_state(4096, rng);
  expect_threads_invariant_vec(
      [&] { return wide.apply_acceptance(wide_probe); });
}

// ---------------------------------------------------------------------------
// Byte pins of the matrix-free exact analyzer. The matvec runs Algorithm 3's
// coins as a transfer chain of closed-form passes (rank-one tests, fused
// swap-test steps) and the product optimizer uses the chain's 2 x 2 scalar
// form. The passes are instantiated per dispatch level but compiled without
// FMA contraction, and the Lanczos solve's reorthogonalization is
// level-free, so one recorded bit pattern per output must hold at every
// dispatch level and kernel thread count. The d = 8, r = 3 input runs full
// 8-lane vectors and the stride-1 fiber path of the rank-one kernel. Inputs
// avoid libm (uniform draws and sqrt only) except the optimizer's Haar
// restarts.
// ---------------------------------------------------------------------------

std::uint64_t double_bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// FNV-1a over the bit patterns of a vector's amplitudes.
std::uint64_t amplitude_hash(const CVec& v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int i = 0; i < v.dim(); ++i) {
    for (const double part : {v[i].real(), v[i].imag()}) {
      std::uint64_t u = double_bits(part);
      for (int k = 0; k < 8; ++k) {
        h = (h ^ (u & 0xffU)) * 0x100000001b3ULL;
        u >>= 8;
      }
    }
  }
  return h;
}

/// Normalized vector of uniform draws in [-1/2, 1/2) + i[-1/2, 1/2).
CVec uniform_state(int dim, Rng& rng) {
  CVec v(dim);
  for (int i = 0; i < dim; ++i) {
    const double re = rng.next_double() - 0.5;
    v[i] = Complex{re, rng.next_double() - 0.5};
  }
  v.normalize();
  return v;
}

TEST(ExactAnalyzerBytePinTest, MatrixFreeOutputsMatchRecordedBits) {
  using dqma::protocol::ExactEqPathAnalyzer;
  namespace simd = dqma::linalg::simd;
  struct Pin {
    int d;
    int r;
    std::uint64_t seed;
    std::uint64_t apply_hash;
    std::uint64_t product_accept;
    // Unset where the optimizer's d x d DenseOperator packs for SIMD (from
    // 8 columns): its Lanczos steps then round per level.
    std::optional<std::uint64_t> best_product_accept;
    std::uint64_t worst_case_accept;
    long long matvecs;
  };
  const Pin pins[] = {
      {5, 4, 0x5eed, 0x4d78e9e4e4da2ec3ULL, 0x3f75bd821d4185beULL,
       0x3fe96fa39238bed1ULL, 0x3fe9af2ac7f9555cULL, 32},
      {8, 3, 0x5eed8, 0x2b0e4bb81efa1581ULL, 0x3fae10c5298fb382ULL,
       std::nullopt, 0x3fe64a4f500743a6ULL, 25},
      // The perfbench exact_spectral shapes: D = 14641 and D = 65536, where
      // the reorthogonalization sweeps split into many chunks.
      {11, 3, 0x5eed11, 0x3070abebb3af1a5fULL, 0x3fa994d55fa9fec1ULL,
       std::nullopt, 0x3fe807e12c08c8c4ULL, 22},
      {16, 3, 0x5eed16, 0x06aec1ee754c0e83ULL, 0x3f72995e83c1188dULL,
       std::nullopt, 0x3fe805e2248517ccULL, 23},
  };
  for (const Pin& pin : pins) {
    Rng rng(pin.seed);
    const CVec hx = uniform_state(pin.d, rng);
    const CVec hy = uniform_state(pin.d, rng);
    const ExactEqPathAnalyzer analyzer(hx, hy, pin.r,
                                       ExactEqPathAnalyzer::Mode::kMatrixFree);
    const CVec probe = uniform_state(static_cast<int>(analyzer.proof_dim()), rng);
    std::vector<CVec> regs;
    for (int k = 0; k < 2 * (pin.r - 1); ++k) {
      regs.push_back(uniform_state(pin.d, rng));
    }
    for (const simd::Level level :
         {simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512}) {
      if (!simd::is_supported(level)) {
        continue;
      }
      const simd::LevelScope scope(level);
      for (const int threads : {1, 4}) {
        const dqma::sweep::KernelThreadScope pool(threads);
        const std::string where = "d " + std::to_string(pin.d) + ", " +
                                  simd::level_name(level) + ", threads " +
                                  std::to_string(threads);
        Rng optimizer(77);
        EXPECT_EQ(amplitude_hash(analyzer.apply_acceptance(probe)),
                  pin.apply_hash)
            << where;
        EXPECT_EQ(double_bits(analyzer.product_accept(regs)),
                  pin.product_accept)
            << where;
        if (pin.best_product_accept) {
          EXPECT_EQ(
              double_bits(analyzer.best_product_accept(optimizer, 2, 20)),
              *pin.best_product_accept)
              << where;
        }
        dqma::linalg::SpectralStats stats;
        EXPECT_EQ(double_bits(analyzer.worst_case_accept(
                      dqma::linalg::SpectralOptions{}, &stats)),
                  pin.worst_case_accept)
            << where;
        EXPECT_EQ(stats.matvecs, pin.matvecs) << where;
      }
    }
  }
}

TEST(ExactAnalyzerBytePinTest, ConditionalBlocksMatchRecordedBits) {
  // The product optimizer's d x d conditional blocks, every register's,
  // with one register holding an exact +0.0 and -0.0 entry. FNV-1a over
  // their entries' bits, as the 2 x 2 transfer chain forms them.
  using dqma::protocol::ExactEqPathAnalyzer;
  struct Pin {
    int d;
    int r;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {5, 4, 0x5eed, 0x67a283f10136d5e3ULL},
      {8, 3, 0x5eed8, 0x311756cbb9c634e0ULL},
      {11, 3, 0x5eed11, 0x1395dc3cffe120b0ULL},
      {16, 3, 0x5eed16, 0xd9635feaac275689ULL},
  };
  for (const Pin& pin : pins) {
    Rng rng(pin.seed);
    const CVec hx = uniform_state(pin.d, rng);
    const CVec hy = uniform_state(pin.d, rng);
    const ExactEqPathAnalyzer analyzer(hx, hy, pin.r,
                                       ExactEqPathAnalyzer::Mode::kMatrixFree);
    (void)uniform_state(static_cast<int>(analyzer.proof_dim()), rng);
    std::vector<CVec> regs;
    for (int k = 0; k < 2 * (pin.r - 1); ++k) {
      regs.push_back(uniform_state(pin.d, rng));
    }
    regs[1][0] = Complex{0.0, 0.0};
    regs[1][1] = Complex{-0.0, 0.0};
    std::vector<Complex> all;
    for (int k = 0; k < 2 * (pin.r - 1); ++k) {
      const CMat block = analyzer.conditional_operator(k, regs);
      for (int i = 0; i < pin.d; ++i) {
        for (int j = 0; j < pin.d; ++j) {
          all.push_back(block(i, j));
        }
      }
    }
    EXPECT_EQ(amplitude_hash(CVec(all)), pin.hash) << "d " << pin.d;
  }
}

TEST(ThreadedKernelDeterminismTest, IsAlsoInvariantInsideSweepJobs) {
  // A kernel inside a sweep job runs serially (nesting contract) — its
  // result must equal the kernel-parallel result from outside a job.
  Rng rng(17);
  const CMat a = dqma::quantum::haar_unitary(64, rng);
  const CMat b = dqma::quantum::haar_unitary(64, rng);
  CMat outside;
  {
    const dqma::sweep::KernelThreadScope scope(8);
    outside = a * b;
  }
  dqma::sweep::ThreadPool pool(4);
  std::vector<CMat> inside(4);
  pool.run_indexed(4, [&](std::size_t i) { inside[i] = a * b; });
  for (const CMat& m : inside) {
    EXPECT_EQ(outside.linf_distance(m), 0.0);
  }
}

TEST(DeriveSeedTest, IsAPureFunction) {
  using dqma::util::derive_seed;
  for (std::uint64_t base : {0ULL, 19ULL, 0x0ddba11ULL}) {
    for (std::uint64_t job = 0; job < 64; ++job) {
      ASSERT_EQ(derive_seed(base, job), derive_seed(base, job));
    }
  }
}

TEST(DeriveSeedTest, NeighbouringJobsGetDecorrelatedSeeds) {
  using dqma::util::derive_seed;
  // No collisions across a window of consecutive jobs and nearby bases,
  // and derived streams diverge immediately.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t base : {0ULL, 1ULL, 2ULL}) {
    for (std::uint64_t job = 0; job < 256; ++job) {
      seeds.insert(derive_seed(base, job));
    }
  }
  EXPECT_EQ(seeds.size(), 3u * 256u);
  Rng a(derive_seed(0, 0));
  Rng b(derive_seed(0, 1));
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

}  // namespace
