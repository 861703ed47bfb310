// Tests of the runtime-dispatched SIMD kernel engine (linalg/simd.hpp)
// and the layout-tagged view layer it sits behind (linalg/complex_view.hpp):
//  * level parsing / detection / clamping;
//  * AoS<->SoA conversion round-trips (exact);
//  * per-level kernel agreement with the scalar reference (tolerance);
//  * address-invariance of the vector tails (regression: auto-vectorized
//    scalar tails once made rounding depend on buffer addresses);
//  * per-level byte-determinism across the kernel-thread axis;
//  * SoA-view kernels against their AoS counterparts;
//  * the unified LinearOperator eigensolver front-end.
// Vector levels are exercised only where the host supports them, so the
// suite passes (with reduced coverage) on any x86-64 or non-x86 build.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "linalg/aligned.hpp"
#include "linalg/complex_view.hpp"
#include "linalg/eigen.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"
#include "linalg/vector.hpp"
#include "quantum/local_ops.hpp"
#include "quantum/random.hpp"
#include "support/test_support.hpp"
#include "sweep/parallel.hpp"

namespace {

using dqma::linalg::CMat;
using dqma::linalg::Complex;
using dqma::linalg::ConstComplexView;
using dqma::linalg::CVec;
using dqma::linalg::Layout;
using dqma::linalg::MutComplexView;
using dqma::linalg::SplitBuffer;
using dqma::quantum::haar_state;
using dqma::quantum::haar_unitary;
using dqma::quantum::LocalOpPlan;
using dqma::quantum::RegisterShape;
using dqma::util::Rng;
namespace simd = dqma::linalg::simd;

using dqma::test::supported_simd_levels;

CVec random_vec(long long n, Rng& rng) {
  CVec v(static_cast<int>(n));
  for (long long i = 0; i < n; ++i) {
    v[static_cast<int>(i)] =
        Complex{rng.next_double() - 0.5, rng.next_double() - 0.5};
  }
  return v;
}

TEST(SimdLevelTest, ParsesAndNamesLevels) {
  EXPECT_EQ(simd::parse_level("scalar"), simd::Level::kScalar);
  EXPECT_EQ(simd::parse_level("avx2"), simd::Level::kAvx2);
  EXPECT_EQ(simd::parse_level("avx512"), simd::Level::kAvx512);
  EXPECT_EQ(simd::parse_level("native"), simd::detect_best());
  EXPECT_THROW(simd::parse_level("sse9"), std::invalid_argument);
  EXPECT_THROW(simd::parse_level(""), std::invalid_argument);
  for (const simd::Level level :
       {simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512}) {
    EXPECT_EQ(simd::parse_level(simd::level_name(level)), level);
  }
}

TEST(SimdLevelTest, ScalarIsAlwaysSupportedAndClampNeverRaises) {
  EXPECT_TRUE(simd::is_supported(simd::Level::kScalar));
  EXPECT_TRUE(simd::is_supported(simd::detect_best()));
  for (const simd::Level level :
       {simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512}) {
    const simd::Level clamped = simd::clamp_to_supported(level);
    EXPECT_TRUE(simd::is_supported(clamped));
    EXPECT_LE(static_cast<int>(clamped), static_cast<int>(level));
  }
  // A supported level clamps to itself.
  for (const simd::Level level : supported_simd_levels()) {
    EXPECT_EQ(simd::clamp_to_supported(level), level);
  }
}

TEST(SimdLevelTest, LevelScopeOverridesActiveOnThisThread) {
  const simd::Level before = simd::active();
  {
    const simd::LevelScope scope(simd::Level::kScalar);
    EXPECT_EQ(simd::active(), simd::Level::kScalar);
    for (const simd::Level level : supported_simd_levels()) {
      const simd::LevelScope inner(level);
      EXPECT_EQ(simd::active(), level);
    }
    EXPECT_EQ(simd::active(), simd::Level::kScalar);
  }
  EXPECT_EQ(simd::active(), before);
}

TEST(SimdConvertTest, RoundTripsAosSoaExactlyAtEveryLevel) {
  Rng rng(21);
  for (const simd::Level level : supported_simd_levels()) {
    for (const long long n : {0LL, 1LL, 3LL, 7LL, 8LL, 13LL, 64LL, 129LL}) {
      const CVec original = random_vec(n, rng);
      SplitBuffer split(n);
      CVec back(static_cast<int>(n));
      simd::convert(level, original, split);
      simd::convert(level, split, back);
      for (long long i = 0; i < n; ++i) {
        EXPECT_EQ(original[static_cast<int>(i)], back[static_cast<int>(i)])
            << "level " << simd::level_name(level) << " n " << n << " i " << i;
      }
    }
  }
}

TEST(SimdConvertTest, MatrixShapeRidesThroughViews) {
  CMat m(3, 5);
  m(1, 2) = Complex{1.5, -0.5};
  const ConstComplexView mv = m;
  EXPECT_TRUE(mv.is_matrix());
  EXPECT_EQ(mv.rows(), 3);
  EXPECT_EQ(mv.cols(), 5);
  EXPECT_EQ(mv.extent(), 15);
  EXPECT_EQ(mv.load(1 * 5 + 2), (Complex{1.5, -0.5}));

  SplitBuffer split(3, 5);
  simd::convert(simd::Level::kScalar, m, split);
  const ConstComplexView sv = split;
  EXPECT_EQ(sv.layout(), Layout::kSoA);
  EXPECT_EQ(sv.rows(), 3);
  EXPECT_EQ(sv.cols(), 5);
  EXPECT_EQ(sv.load(1 * 5 + 2), (Complex{1.5, -0.5}));
}

TEST(SimdKernelTest, AxpyMatchesScalarWithinToleranceOnRaggedShapes) {
  Rng rng(22);
  for (const long long n :
       {1LL, 2LL, 3LL, 5LL, 7LL, 8LL, 9LL, 15LL, 16LL, 17LL, 100LL}) {
    const CVec x = random_vec(n, rng);
    const CVec y0 = random_vec(n, rng);
    const Complex a{rng.next_double() - 0.5, rng.next_double() - 0.5};
    SplitBuffer xs(n);
    simd::convert(simd::Level::kScalar, x, xs);
    std::vector<CVec> results;
    for (const simd::Level level : supported_simd_levels()) {
      SplitBuffer ys(n);
      CVec y = y0;
      simd::convert(simd::Level::kScalar, y, ys);
      simd::axpy(level, a.real(), a.imag(), xs.re(), xs.im(), ys.re(),
                 ys.im(), n);
      simd::convert(simd::Level::kScalar, ys, y);
      results.push_back(std::move(y));
    }
    for (std::size_t l = 1; l < results.size(); ++l) {
      EXPECT_LT(results[0].linf_distance(results[l]), 1e-12)
          << "n " << n << " level index " << l;
    }
  }
}

TEST(SimdKernelTest, DotMatchesScalarWithinToleranceBothConjModes) {
  Rng rng(23);
  for (const long long n : {1LL, 3LL, 7LL, 8LL, 9LL, 31LL, 64LL, 257LL}) {
    const CVec a = random_vec(n, rng);
    const CVec b = random_vec(n, rng);
    SplitBuffer as(n);
    SplitBuffer bs(n);
    simd::convert(simd::Level::kScalar, a, as);
    simd::convert(simd::Level::kScalar, b, bs);
    for (const bool conj_a : {false, true}) {
      const Complex reference = simd::dot(simd::Level::kScalar, conj_a,
                                          as.re(), as.im(), bs.re(), bs.im(),
                                          n);
      for (const simd::Level level : supported_simd_levels()) {
        const Complex got = simd::dot(level, conj_a, as.re(), as.im(),
                                      bs.re(), bs.im(), n);
        EXPECT_LT(std::abs(got - reference), 1e-11 * static_cast<double>(n))
            << "n " << n << " conj " << conj_a << " level "
            << simd::level_name(level);
      }
    }
  }
}

TEST(SimdKernelTest, BlockApplyMatchesDenseReferencePerOrientation) {
  Rng rng(24);
  const long long b = 6;  // not a vector multiple: exercises the tails
  const CMat op = haar_unitary(static_cast<int>(b), rng);
  const CVec in = random_vec(b, rng);
  SplitBuffer ins(b);
  simd::convert(simd::Level::kScalar, in, ins);
  for (const bool transpose : {false, true}) {
    for (const bool conjugate : {false, true}) {
      const simd::PackedOp packed =
          simd::pack_operator(op, transpose, conjugate);
      EXPECT_EQ(packed.rows, b);
      EXPECT_EQ(packed.cols, b);
      // Dense reference: out[o] = sum_s m(o, s) in[s] with the transforms
      // applied to op first.
      CVec expected(static_cast<int>(b));
      for (long long o = 0; o < b; ++o) {
        Complex acc{0.0, 0.0};
        for (long long s = 0; s < b; ++s) {
          Complex entry = transpose ? op(static_cast<int>(s),
                                         static_cast<int>(o))
                                    : op(static_cast<int>(o),
                                         static_cast<int>(s));
          if (conjugate) entry = std::conj(entry);
          acc += entry * in[static_cast<int>(s)];
        }
        expected[static_cast<int>(o)] = acc;
      }
      for (const simd::Level level : supported_simd_levels()) {
        SplitBuffer outs(b);
        simd::block_apply(level, packed, ins.re(), ins.im(), outs.re(),
                          outs.im());
        CVec out(static_cast<int>(b));
        simd::convert(simd::Level::kScalar, outs, out);
        EXPECT_LT(expected.linf_distance(out), 1e-12)
            << "transpose " << transpose << " conjugate " << conjugate
            << " level " << simd::level_name(level);
      }
    }
  }
}

TEST(SimdKernelTest, VectorTailsAreAddressInvariant) {
  // Regression: the axpy tails must be one fixed code path. When they were
  // plain scalar loops the compiler auto-vectorized them behind runtime
  // alias/alignment checks, so tail rounding depended on where the buffers
  // happened to be allocated — 1-ulp nondeterminism across identical runs.
  Rng rng(25);
  const long long n = 13;  // 1 full AVX-512 vector + 5-element tail
  const CVec x = random_vec(n, rng);
  const CVec y0 = random_vec(n, rng);
  constexpr long long kSlack = 8;
  for (const simd::Level level : supported_simd_levels()) {
    std::vector<CVec> results;
    for (long long offset = 0; offset < kSlack; ++offset) {
      // Same data, different alignment phase for every array.
      SplitBuffer xs(n + kSlack);
      SplitBuffer ys(n + kSlack);
      for (long long i = 0; i < n; ++i) {
        xs.re()[offset + i] = x[static_cast<int>(i)].real();
        xs.im()[offset + i] = x[static_cast<int>(i)].imag();
        ys.re()[offset + i] = y0[static_cast<int>(i)].real();
        ys.im()[offset + i] = y0[static_cast<int>(i)].imag();
      }
      simd::axpy(level, 0.3, -0.7, xs.re() + offset, xs.im() + offset,
                 ys.re() + offset, ys.im() + offset, n);
      CVec y(static_cast<int>(n));
      for (long long i = 0; i < n; ++i) {
        y[static_cast<int>(i)] =
            Complex{ys.re()[offset + i], ys.im()[offset + i]};
      }
      results.push_back(std::move(y));
    }
    for (std::size_t k = 1; k < results.size(); ++k) {
      EXPECT_EQ(results[0].linf_distance(results[k]), 0.0)
          << "level " << simd::level_name(level) << " offset " << k;
    }
  }
}

TEST(SimdDispatchTest, LocalOpsAgreeAcrossLevelsWithinTolerance) {
  Rng rng(26);
  const RegisterShape shape({8, 4, 8});  // D = 256
  const CMat u = haar_unitary(4, rng);
  const CVec psi0 = haar_state(256, rng);
  const CMat rho0 = dqma::quantum::random_density(256, rng);
  const LocalOpPlan plan(shape, {1});

  const auto state_at = [&](simd::Level level) {
    const simd::LevelScope scope(level);
    CVec psi = psi0;
    dqma::quantum::apply_local(plan, u, psi);
    return psi;
  };
  const auto sandwich_at = [&](simd::Level level) {
    const simd::LevelScope scope(level);
    CMat rho = rho0;
    dqma::quantum::sandwich_local(plan, u, rho);
    return rho;
  };
  const CVec psi_ref = state_at(simd::Level::kScalar);
  const CMat rho_ref = sandwich_at(simd::Level::kScalar);
  for (const simd::Level level : supported_simd_levels()) {
    EXPECT_LT(psi_ref.linf_distance(state_at(level)), 1e-10)
        << simd::level_name(level);
    EXPECT_LT(rho_ref.linf_distance(sandwich_at(level)), 1e-10)
        << simd::level_name(level);
  }
}

TEST(SimdDispatchTest, MatrixProductsAgreeAcrossLevelsWithinTolerance) {
  Rng rng(27);
  const CMat a = haar_unitary(48, rng);
  const CMat b = haar_unitary(48, rng);
  const auto products_at = [&](simd::Level level) {
    const simd::LevelScope scope(level);
    return std::vector<CMat>{a * b, a.adjoint_times(b), a.times_adjoint(b)};
  };
  const std::vector<CMat> reference = products_at(simd::Level::kScalar);
  for (const simd::Level level : supported_simd_levels()) {
    const std::vector<CMat> got = products_at(level);
    for (std::size_t k = 0; k < reference.size(); ++k) {
      EXPECT_LT(reference[k].linf_distance(got[k]), 1e-10)
          << "product " << k << " level " << simd::level_name(level);
    }
  }
}

TEST(SimdDispatchTest, EachLevelIsByteDeterministicAcrossKernelThreads) {
  // The determinism contract per (level, layout): for a FIXED dispatch
  // level the kernels are byte-identical at any kernel thread count.
  Rng rng(28);
  const RegisterShape shape(std::vector<int>(6, 4));  // D = 4096
  const CMat u = haar_unitary(16, rng);
  const CMat u4 = haar_unitary(4, rng);
  const CVec psi0 = haar_state(4096, rng);
  const CMat rho0 = dqma::quantum::random_density(256, rng);
  const LocalOpPlan state_plan(shape, {1, 4});
  const RegisterShape rho_shape({16, 4, 4});
  const LocalOpPlan rho_plan(rho_shape, {1});
  const CMat ga = haar_unitary(96, rng);
  const CMat gb = haar_unitary(96, rng);
  for (const simd::Level level : supported_simd_levels()) {
    const auto run_all = [&](int threads) {
      const simd::LevelScope level_scope(level);
      const dqma::sweep::KernelThreadScope thread_scope(threads);
      CVec psi = psi0;
      dqma::quantum::apply_local(state_plan, u, psi);
      CMat rho = rho0;
      dqma::quantum::sandwich_local(rho_plan, u4, rho);
      const CMat prod = ga * gb;
      return std::make_tuple(std::move(psi), std::move(rho),
                             std::move(prod));
    };
    const auto serial = run_all(1);
    for (const int threads : {3, 8}) {
      const auto threaded = run_all(threads);
      EXPECT_EQ(std::get<0>(serial).linf_distance(std::get<0>(threaded)), 0.0)
          << "apply_local, " << simd::level_name(level) << " x " << threads;
      EXPECT_EQ(std::get<1>(serial).linf_distance(std::get<1>(threaded)), 0.0)
          << "sandwich, " << simd::level_name(level) << " x " << threads;
      EXPECT_EQ(std::get<2>(serial).linf_distance(std::get<2>(threaded)), 0.0)
          << "gemm, " << simd::level_name(level) << " x " << threads;
    }
  }
}

TEST(SimdDispatchTest, SoaViewsAgreeWithAosViews) {
  // The same apply through an SoA-backed view lands within rounding of the
  // AoS path at every level (layouts are cross-validated, not byte-pinned).
  Rng rng(29);
  const RegisterShape shape({4, 4, 4, 4});  // D = 256
  const CMat u = haar_unitary(16, rng);
  const CVec psi0 = haar_state(256, rng);
  const LocalOpPlan plan(shape, {0, 2});
  for (const simd::Level level : supported_simd_levels()) {
    const simd::LevelScope scope(level);
    CVec aos = psi0;
    dqma::quantum::apply_local(plan, u, aos);

    SplitBuffer soa(256);
    simd::convert(level, psi0, soa);
    dqma::quantum::apply_local(plan, u, MutComplexView(soa));
    CVec back(256);
    simd::convert(level, soa, back);
    EXPECT_LT(aos.linf_distance(back), 1e-10) << simd::level_name(level);
  }
}

TEST(LinearOperatorTest, DenseAndCallbackBackendsAgreeWithEigh) {
  Rng rng(30);
  const CMat rho = dqma::quantum::random_density(64, rng);
  const double exact = dqma::linalg::eigh(rho).values.back();
  const dqma::linalg::DenseOperator dense(rho);
  EXPECT_EQ(dense.dim(), 64);
  const dqma::linalg::CallbackOperator callback(
      [&rho](const CVec& x) {
        const dqma::linalg::DenseOperator op(rho);
        return op.apply(x);
      },
      64);
  const double via_dense = dqma::linalg::max_eigenvalue_psd(dense);
  const double via_callback = dqma::linalg::max_eigenvalue_psd(callback);
  EXPECT_NEAR(via_dense, exact, 1e-8);
  EXPECT_NEAR(via_callback, exact, 1e-8);
  CVec vec(64);
  const double via_pair = dqma::linalg::top_eigenpair_psd(dense, vec);
  EXPECT_NEAR(via_pair, exact, 1e-8);
  EXPECT_NEAR(vec.norm(), 1.0, 1e-9);
  // The eigenvector satisfies rho v = lambda v.
  const CVec rv = dense.apply(vec);
  EXPECT_LT(rv.linf_distance(vec * Complex{via_pair, 0.0}), 1e-6);
  // Dense apply agrees with the scalar matvec at every level.
  const CVec x = haar_state(64, rng);
  CVec reference(64);
  {
    const simd::LevelScope scope(simd::Level::kScalar);
    reference = dqma::linalg::DenseOperator(rho).apply(x);
  }
  for (const simd::Level level : supported_simd_levels()) {
    const simd::LevelScope scope(level);
    const CVec got = dqma::linalg::DenseOperator(rho).apply(x);
    EXPECT_LT(reference.linf_distance(got), 1e-11)
        << simd::level_name(level);
  }
  // A ragged 515 x 515 operator: its row panels split into several kernel
  // chunks and each packed dot ends in a vector tail. Every level agrees
  // with the scalar matvec, and each level is byte-identical across kernel
  // thread counts.
  const int n = 515;
  CMat big(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      big(i, j) = Complex{rng.next_double() - 0.5, rng.next_double() - 0.5};
    }
  }
  const CVec big_x = haar_state(n, rng);
  const auto big_apply = [&](simd::Level level, int threads) {
    const simd::LevelScope scope(level);
    const dqma::sweep::KernelThreadScope thread_scope(threads);
    return dqma::linalg::DenseOperator(big).apply(big_x);
  };
  const CVec big_reference = big_apply(simd::Level::kScalar, 1);
  for (const simd::Level level : supported_simd_levels()) {
    const CVec serial = big_apply(level, 1);
    EXPECT_LT(big_reference.linf_distance(serial), 1e-11)
        << simd::level_name(level);
    EXPECT_EQ(serial.linf_distance(big_apply(level, 3)), 0.0)
        << simd::level_name(level);
  }
}

}  // namespace
