// Tests for the deterministic Lanczos eigensolver (linalg/lanczos.hpp):
// agreement with the dense Jacobi eigh at 1e-9, degenerate/rank-deficient
// PSD operators, dimension edges, byte-determinism across the kernel-thread
// and SIMD-level axes, matvec-count advantage over power iteration, the
// tightened power-iteration stop rule on a gap-1e-12 two-cluster spectrum,
// bit equality of the fused three-sweep CGS2 with the two-pass loop it
// replaced, and spectral-workspace reuse.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "dqma/exact_runner.hpp"
#include "linalg/eigen.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/simd.hpp"
#include "quantum/random.hpp"
#include "support/test_support.hpp"
#include "sweep/parallel.hpp"

namespace {

using dqma::linalg::CallbackOperator;
using dqma::linalg::CMat;
using dqma::linalg::Complex;
using dqma::linalg::CVec;
using dqma::linalg::DenseOperator;
using dqma::linalg::SpectralOptions;
using dqma::linalg::SpectralStats;
using dqma::linalg::top_eigenvalue_psd;
using dqma::test::Rng;
using dqma::test::SeededTest;
using Method = SpectralOptions::Method;
namespace simd = dqma::linalg::simd;

SpectralOptions options_for(Method method, int max_iters = 4000,
                            double tol = 1e-10) {
  SpectralOptions opts;
  opts.method = method;
  opts.max_iters = max_iters;
  opts.tol = tol;
  return opts;
}

class LanczosTest : public SeededTest {};

// ---------------------------------------------------------------------------
// Reference: the two-pass CGS2 loop the solver ran before its middle sweeps
// were fused (project, subtract, project, subtract: four basis sweeps per
// step). Same element partition and summation order as the solver, written
// one basis vector at a time; the fused solver must reproduce it bit for bit.
// ---------------------------------------------------------------------------

/// h[i] = <basis[i] | w>: per-chunk partial dots in element order over the
/// solver's partition, combined in chunk order.
std::vector<Complex> reference_project(const std::vector<CVec>& basis,
                                       const CVec& w) {
  const std::size_t m = basis.size();
  return dqma::sweep::parallel_reduce<std::vector<Complex>>(
      static_cast<std::size_t>(w.dim()), dqma::sweep::grain_for_ops(m),
      std::vector<Complex>(m),
      [&](std::size_t begin, std::size_t end) {
        std::vector<Complex> part(m);
        for (std::size_t i = 0; i < m; ++i) {
          double re = 0.0;
          double im = 0.0;
          for (std::size_t e = begin; e < end; ++e) {
            const Complex b = basis[i][static_cast<int>(e)];
            const Complex x = w[static_cast<int>(e)];
            re += b.real() * x.real() + b.imag() * x.imag();
            im += b.real() * x.imag() - b.imag() * x.real();
          }
          part[i] = Complex{re, im};
        }
        return part;
      },
      [](std::vector<Complex> acc, const std::vector<Complex>& part) {
        for (std::size_t i = 0; i < acc.size(); ++i) {
          acc[i] += part[i];
        }
        return acc;
      });
}

/// y += sum_t coeffs[t] * basis[t], each entry summed in ascending t.
void reference_add(const std::vector<Complex>& coeffs,
                   const std::vector<CVec>& basis, CVec& y) {
  for (int e = 0; e < y.dim(); ++e) {
    double yr = y[e].real();
    double yi = y[e].imag();
    for (std::size_t t = 0; t < coeffs.size(); ++t) {
      const Complex x = basis[t][e];
      yr += coeffs[t].real() * x.real() - coeffs[t].imag() * x.imag();
      yi += coeffs[t].real() * x.imag() + coeffs[t].imag() * x.real();
    }
    y[e] = Complex{yr, yi};
  }
}

double reference_lanczos(const dqma::linalg::LinearOperator& op,
                         const SpectralOptions& opts, CVec& vec_out,
                         SpectralStats& stats) {
  stats = SpectralStats{};
  stats.used_lanczos = true;
  const int dim = op.dim();
  std::vector<CVec> basis{dqma::linalg::spectral_start_vector(dim)};
  std::vector<double> alpha;
  std::vector<double> beta;
  std::vector<double> ritz;
  CVec w(dim);
  const int m_max = std::max(
      1, std::min({dim, opts.max_iters, dqma::linalg::kMaxLanczosBasis}));
  double theta = 0.0;
  for (int j = 0; j < m_max; ++j) {
    op.apply_into(basis[static_cast<std::size_t>(j)], w);
    ++stats.matvecs;
    double aj = 0.0;
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<Complex> h = reference_project(basis, w);
      aj += h[static_cast<std::size_t>(j)].real();
      for (Complex& c : h) {
        c = -c;
      }
      reference_add(h, basis, w);
    }
    alpha.push_back(aj);
    stats.iterations = j + 1;
    const double bj = w.norm();
    theta = dqma::linalg::tridiag_max_eigenvalue(alpha, beta);
    ritz = dqma::linalg::tridiag_top_eigenvector(alpha, beta, theta);
    const double scale = std::max(1.0, std::abs(theta));
    if (bj * std::abs(ritz.back()) <= opts.tol * scale || bj <= 1e-14 * scale) {
      stats.converged = true;
      break;
    }
    if (j + 1 >= m_max) {
      break;
    }
    beta.push_back(bj);
    basis.push_back(w * Complex{1.0 / bj, 0.0});
  }
  CVec x(dim);
  reference_add(std::vector<Complex>(ritz.begin(), ritz.end()), basis, x);
  const double nrm = x.norm();
  vec_out = (nrm > 1e-12) ? x * Complex{1.0 / nrm, 0.0} : basis.front();
  return theta;
}

TEST_F(LanczosTest, MatchesEighOnRandomDensities) {
  for (const int dim : {3, 8, 17, 24, 40}) {
    for (int trial = 0; trial < 3; ++trial) {
      const CMat rho = dqma::quantum::random_density(dim, rng());
      const double exact = dqma::linalg::eigh(rho).values.back();
      const DenseOperator op(rho);
      SpectralStats stats;
      const double via_lanczos =
          top_eigenvalue_psd(op, options_for(Method::kLanczos), nullptr, &stats);
      EXPECT_NEAR(via_lanczos, exact, 1e-9) << "dim " << dim;
      EXPECT_TRUE(stats.converged) << "dim " << dim;
      EXPECT_TRUE(stats.used_lanczos);
      // The default entry point agrees too (kAuto routes through Lanczos
      // above the tiny-dim threshold, power below it).
      EXPECT_NEAR(dqma::linalg::max_eigenvalue_psd(rho), exact, 1e-9);
    }
  }
}

TEST_F(LanczosTest, RitzVectorIsAnEigenvector) {
  const CMat rho = dqma::quantum::random_density(32, rng());
  const DenseOperator op(rho);
  CVec vec;
  SpectralStats stats;
  const double theta = top_eigenvalue_psd(op, options_for(Method::kLanczos),
                                          &vec, &stats);
  EXPECT_NEAR(vec.norm(), 1.0, 1e-12);
  const CVec image = op.apply(vec);
  EXPECT_LT(image.linf_distance(vec * Complex{theta, 0.0}), 1e-8);
}

TEST_F(LanczosTest, RankDeficientAndDegenerateOperators) {
  // Rank-3 mixture in a 24-dim space: Lanczos exhausts the (tiny) Krylov
  // space and must still match eigh.
  const auto states = dqma::test::haar_states(24, 3, rng());
  CMat low_rank(24, 24);
  for (const CVec& v : states) {
    CMat term = CMat::projector(v);
    term *= Complex{1.0 / 3.0, 0.0};
    low_rank += term;
  }
  const double exact = dqma::linalg::eigh(low_rank).values.back();
  SpectralStats stats;
  const double via_lanczos = top_eigenvalue_psd(
      DenseOperator(low_rank), options_for(Method::kLanczos), nullptr, &stats);
  EXPECT_NEAR(via_lanczos, exact, 1e-9);
  EXPECT_TRUE(stats.converged);

  // Degenerate top eigenvalue (multiplicity 3).
  const CMat basis = dqma::linalg::eigh(dqma::quantum::random_density(20, rng())).vectors;
  std::vector<Complex> diag(20, Complex{0.25, 0.0});
  diag[0] = diag[7] = diag[13] = Complex{1.0, 0.0};
  const CMat degenerate =
      (basis * CMat::diagonal(diag)).times_adjoint(basis);
  const double via_degenerate = top_eigenvalue_psd(
      DenseOperator(degenerate), options_for(Method::kLanczos));
  EXPECT_NEAR(via_degenerate, 1.0, 1e-9);

  // The zero operator: annihilation converges via Krylov breakdown.
  const CMat zero(16, 16);
  SpectralStats zero_stats;
  const double via_zero = top_eigenvalue_psd(
      DenseOperator(zero), options_for(Method::kLanczos), nullptr, &zero_stats);
  EXPECT_NEAR(via_zero, 0.0, 1e-12);
  EXPECT_TRUE(zero_stats.converged);
}

TEST_F(LanczosTest, DimensionEdges) {
  const CallbackOperator empty([](const CVec& x) { return x; }, 0);
  for (const Method method : {Method::kAuto, Method::kPower, Method::kLanczos}) {
    SpectralStats stats;
    EXPECT_EQ(top_eigenvalue_psd(empty, options_for(method), nullptr, &stats),
              0.0);
    EXPECT_TRUE(stats.converged);
  }
  CMat single(1, 1);
  single(0, 0) = Complex{0.7, 0.0};
  for (const Method method : {Method::kAuto, Method::kPower, Method::kLanczos}) {
    EXPECT_NEAR(top_eigenvalue_psd(DenseOperator(single), options_for(method)),
                0.7, 1e-12);
  }
}

TEST_F(LanczosTest, ByteDeterminismAcrossKernelThreads) {
  const CMat rho = dqma::quantum::random_density(64, rng());
  // 2^14 dims, so the reorthogonalization reductions split into several
  // chunks: diag(i / n) plus a rank-one spike 2 |v><v|, a PSD operator
  // with a clear top gap, applied serially by the callback.
  const int n = 1 << 14;
  const CVec spike = dqma::quantum::haar_state(n, rng());
  const CallbackOperator large(
      [&](const CVec& x) {
        CVec y = spike * (spike.dot(x) * 2.0);
        for (int i = 0; i < n; ++i) {
          y[i] += x[i] * (static_cast<double>(i) / n);
        }
        return y;
      },
      n);
  // The callback's matvec does not depend on the level, so its solves must
  // also match across levels: the sweeps are level-dispatched but round
  // identically at every level.
  std::vector<double> callback_bytes;
  for (const simd::Level level :
       {simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512}) {
    if (!simd::is_supported(level)) {
      continue;
    }
    const simd::LevelScope level_scope(level);
    for (const bool use_large : {false, true}) {
      std::vector<std::vector<double>> runs;
      std::vector<long long> matvecs;
      for (const int threads : {1, 3, 4, 8}) {
        const dqma::sweep::KernelThreadScope thread_scope(threads);
        // The dense operator packs at construction under the active level;
        // its parallel row panels and the reorthogonalization chunks are
        // what the thread axis probes.
        const DenseOperator dense(rho);
        const dqma::linalg::LinearOperator& op =
            use_large ? static_cast<const dqma::linalg::LinearOperator&>(large)
                      : dense;
        CVec vec;
        SpectralStats stats;
        const double theta = top_eigenvalue_psd(
            op, options_for(Method::kLanczos), &vec, &stats);
        std::vector<double> bytes;
        bytes.push_back(theta);
        for (int i = 0; i < vec.dim(); ++i) {
          bytes.push_back(vec[i].real());
          bytes.push_back(vec[i].imag());
        }
        runs.push_back(std::move(bytes));
        matvecs.push_back(stats.matvecs);
        EXPECT_TRUE(stats.converged);
      }
      if (use_large) {
        // Several basis vectors deep, the region is split into chunks.
        EXPECT_GT(dqma::sweep::plan_chunks(
                      static_cast<std::size_t>(n),
                      dqma::sweep::grain_for_ops(static_cast<std::size_t>(
                          matvecs[0])))
                      .chunks,
                  1u);
      }
      for (std::size_t k = 1; k < runs.size(); ++k) {
        ASSERT_EQ(runs[k].size(), runs[0].size());
        EXPECT_EQ(std::memcmp(runs[k].data(), runs[0].data(),
                              runs[0].size() * sizeof(double)),
                  0)
            << "thread-axis byte drift at level " << simd::level_name(level)
            << (use_large ? " (2^14 callback)" : " (dense 64)");
        EXPECT_EQ(matvecs[k], matvecs[0]);
      }
      if (use_large) {
        if (callback_bytes.empty()) {
          callback_bytes = runs[0];
        }
        ASSERT_EQ(runs[0].size(), callback_bytes.size());
        EXPECT_EQ(std::memcmp(runs[0].data(), callback_bytes.data(),
                              callback_bytes.size() * sizeof(double)),
                  0)
            << "level-axis byte drift at " << simd::level_name(level);
      }
    }
  }
}

TEST_F(LanczosTest, FusedSweepMatchesTwoPassReferenceBitForBit) {
  // At 40 dims every sweep is one chunk. At 20000 dims the sweeps split into
  // many chunks from the second basis vector on; a dense operator would
  // need 6.4 GB there, so that one is diag(u_i) + |a><a| + |b><b| with
  // seeded uniform u_i, applied serially by a callback. The 1001-dim one
  // has a dimension no register width divides, and every 13th entry of its
  // image is an exact +0.0 or -0.0: M (diag(u_i) + |c><c|) M with M the
  // diagonal mask that zeroes those coordinates. Every solve runs more than
  // 8 steps, so the basis count crosses the 2-, 4- and 8-lane groups of the
  // dots and the combine passes. The solver must match the reference bit
  // for bit at every SIMD level and kernel thread count.
  const CMat rho = dqma::quantum::random_density(40, rng());
  const int n = 20000;
  std::vector<double> diag(static_cast<std::size_t>(n));
  for (double& u : diag) {
    u = rng().next_double();
  }
  const CVec a = dqma::quantum::haar_state(n, rng());
  const CVec b = dqma::quantum::haar_state(n, rng());
  const CallbackOperator large(
      [&](const CVec& x) {
        CVec y = a * a.dot(x) + b * b.dot(x);
        for (int i = 0; i < n; ++i) {
          y[i] += x[i] * diag[static_cast<std::size_t>(i)];
        }
        return y;
      },
      n);
  const int odd = 1001;
  std::vector<double> odd_diag(static_cast<std::size_t>(odd));
  for (double& u : odd_diag) {
    u = rng().next_double();
  }
  const CVec c = dqma::quantum::haar_state(odd, rng());
  const auto masked_out = [](int i) { return i % 13 == 0; };
  const CallbackOperator masked(
      [&](const CVec& x) {
        CVec xm = x;
        for (int i = 0; i < odd; i += 13) {
          xm[i] = Complex{0.0, 0.0};
        }
        CVec y = c * c.dot(xm);
        for (int i = 0; i < odd; ++i) {
          y[i] += xm[i] * odd_diag[static_cast<std::size_t>(i)];
          if (masked_out(i)) {
            const bool negative = (i / 13) % 2 == 1;
            y[i] = Complex{negative ? -0.0 : 0.0, negative ? 0.0 : -0.0};
          }
        }
        return y;
      },
      odd);
  const DenseOperator dense(rho);
  const SpectralOptions opts = options_for(Method::kLanczos);
  struct Case {
    const dqma::linalg::LinearOperator* op;
    const char* name;
  };
  for (const Case& input : {Case{&dense, "dense 40"},
                            Case{&large, "diag + rank two, 20000"},
                            Case{&masked, "masked, signed zeros, 1001"}}) {
    const dqma::linalg::LinearOperator& op = *input.op;
    const char* name = input.name;
    CVec ref_vec;
    SpectralStats ref_stats;
    const double ref = reference_lanczos(op, opts, ref_vec, ref_stats);
    EXPECT_TRUE(ref_stats.converged) << name;
    EXPECT_GT(ref_stats.iterations, 8) << name;
    if (op.dim() == n) {
      EXPECT_GT(dqma::sweep::plan_chunks(
                    static_cast<std::size_t>(n),
                    dqma::sweep::grain_for_ops(
                        static_cast<std::size_t>(ref_stats.iterations)))
                    .chunks,
                8u);
    }
    for (const simd::Level level :
         {simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512}) {
      if (!simd::is_supported(level)) {
        continue;
      }
      const simd::LevelScope level_scope(level);
      for (const int threads : {1, 4}) {
        const dqma::sweep::KernelThreadScope thread_scope(threads);
        const std::string where = std::string(name) + ", " +
                                  simd::level_name(level) + ", threads " +
                                  std::to_string(threads);
        CVec vec;
        SpectralStats stats;
        const double theta = top_eigenvalue_psd(op, opts, &vec, &stats);
        EXPECT_EQ(std::memcmp(&theta, &ref, sizeof(double)), 0) << where;
        ASSERT_EQ(vec.dim(), ref_vec.dim());
        EXPECT_EQ(std::memcmp(&vec[0], &ref_vec[0],
                              static_cast<std::size_t>(vec.dim()) *
                                  sizeof(Complex)),
                  0)
            << where;
        EXPECT_EQ(stats.matvecs, ref_stats.matvecs) << where;
        EXPECT_EQ(stats.iterations, ref_stats.iterations) << where;
        EXPECT_EQ(stats.converged, ref_stats.converged) << where;
        EXPECT_EQ(stats.used_lanczos, ref_stats.used_lanczos) << where;
      }
    }
  }
}

TEST_F(LanczosTest, MatvecCountsBeatPowerIteration) {
  // Monotonicity on generic dense PSD operators...
  for (const int dim : {32, 64, 128}) {
    const CMat rho = dqma::quantum::random_density(dim, rng());
    const DenseOperator op(rho);
    SpectralStats lanczos_stats;
    SpectralStats power_stats;
    const double via_lanczos = top_eigenvalue_psd(
        op, options_for(Method::kLanczos, 20000, 1e-9), nullptr, &lanczos_stats);
    const double via_power = top_eigenvalue_psd(
        op, options_for(Method::kPower, 20000, 1e-9), nullptr, &power_stats);
    EXPECT_TRUE(lanczos_stats.converged);
    EXPECT_TRUE(power_stats.converged);
    EXPECT_NEAR(via_lanczos, via_power, 1e-9);
    EXPECT_LE(lanczos_stats.matvecs, power_stats.matvecs) << "dim " << dim;
  }
  // ...and the >= 3x advantage on an acceptance operator of the kind the
  // table3_lower benchmarks solve (r = 4 equality path, proof dim 64).
  const CVec hx = dqma::test::reference_haar_state(2, 11);
  const CVec hy = dqma::test::reference_haar_state(2, 12);
  const dqma::protocol::ExactEqPathAnalyzer analyzer(hx, hy, 4);
  SpectralStats lanczos_stats;
  SpectralStats power_stats;
  const double via_lanczos = analyzer.worst_case_accept(
      options_for(Method::kLanczos, 20000, 1e-9), &lanczos_stats);
  const double via_power = analyzer.worst_case_accept(
      options_for(Method::kPower, 20000, 1e-9), &power_stats);
  EXPECT_TRUE(lanczos_stats.converged);
  EXPECT_TRUE(power_stats.converged);
  EXPECT_NEAR(via_lanczos, via_power, 1e-9);
  EXPECT_LE(3 * lanczos_stats.matvecs, power_stats.matvecs);
}

TEST_F(LanczosTest, PowerResidualRuleHandlesTwoClusterSpectrum) {
  // Top cluster {1, 1 - 1e-12} with a 0.999 decoy underneath: the old
  // Rayleigh-delta-only rule could stop while the iterate still carried an
  // O(1e-4) decoy component (eigenvalue error far above 1e-9); the residual
  // check keeps iterating until the decoy is actually gone.
  std::vector<Complex> diag(32, Complex{0.3, 0.0});
  diag[0] = Complex{1.0, 0.0};
  diag[1] = Complex{1.0 - 1e-12, 0.0};
  diag[2] = Complex{0.999, 0.0};
  const CMat basis =
      dqma::linalg::eigh(dqma::quantum::random_density(32, rng())).vectors;
  const CMat two_cluster =
      (basis * CMat::diagonal(diag)).times_adjoint(basis);
  const DenseOperator op(two_cluster);
  SpectralStats power_stats;
  const double via_power = top_eigenvalue_psd(
      op, options_for(Method::kPower, 60000, 1e-10), nullptr, &power_stats);
  EXPECT_TRUE(power_stats.converged);
  EXPECT_NEAR(via_power, 1.0, 1e-9);
  // Lanczos needs orders of magnitude fewer applications on the same input.
  SpectralStats lanczos_stats;
  const double via_lanczos = top_eigenvalue_psd(
      op, options_for(Method::kLanczos, 20000, 1e-10), nullptr, &lanczos_stats);
  EXPECT_TRUE(lanczos_stats.converged);
  EXPECT_NEAR(via_lanczos, 1.0, 1e-9);
  EXPECT_LT(lanczos_stats.matvecs, 100);
  EXPECT_LT(10 * lanczos_stats.matvecs, power_stats.matvecs);
}

TEST_F(LanczosTest, WorkspaceReuseIsBitIdenticalAndCapped) {
  // A large solve, a smaller one (reusing the large one's vectors resized
  // within their storage), the product optimizer's 16-dim shape, then the
  // large one again on warm vectors. Every solve must match the same solve
  // on a fresh thread (empty workspace) bit for bit, and the warm thread's
  // idle bytes must stay within the largest footprint it needed.
  const CMat large = dqma::quantum::random_density(300, rng());
  const CMat smaller = dqma::quantum::random_density(120, rng());
  const CMat product_shape = dqma::quantum::random_density(16, rng());
  const std::vector<const CMat*> sequence = {&large, &smaller, &product_shape,
                                             &large};
  const SpectralOptions opts = options_for(Method::kLanczos);
  const SpectralOptions product_opts = options_for(Method::kLanczos, 2000, 1e-13);

  struct Solve {
    double theta = 0.0;
    CVec vec;
    SpectralStats stats;
    dqma::linalg::WorkspaceBytes bytes;  // after the solve
  };
  const auto solve = [&](const CMat& m) {
    const DenseOperator op(m);
    Solve out;
    out.theta = top_eigenvalue_psd(op, m.rows() == 16 ? product_opts : opts,
                                   &out.vec, &out.stats);
    out.bytes = dqma::linalg::workspace_bytes();
    return out;
  };

  std::vector<Solve> warm;
  std::thread([&] {
    for (const CMat* m : sequence) {
      warm.push_back(solve(*m));
    }
  }).join();

  std::size_t footprint = 0;
  for (std::size_t k = 0; k < sequence.size(); ++k) {
    Solve cold;
    std::thread([&] { cold = solve(*sequence[k]); }).join();
    const Solve& w = warm[k];
    const int dim = sequence[k]->rows();
    EXPECT_EQ(std::memcmp(&w.theta, &cold.theta, sizeof(double)), 0)
        << "solve " << k;
    ASSERT_EQ(w.vec.dim(), dim);
    ASSERT_EQ(cold.vec.dim(), dim);
    EXPECT_EQ(std::memcmp(&w.vec[0], &cold.vec[0],
                          static_cast<std::size_t>(dim) * sizeof(Complex)),
              0)
        << "solve " << k;
    EXPECT_EQ(w.stats.matvecs, cold.stats.matvecs) << "solve " << k;
    EXPECT_EQ(w.stats.iterations, cold.stats.iterations) << "solve " << k;
    EXPECT_EQ(w.stats.converged, cold.stats.converged) << "solve " << k;
    EXPECT_EQ(w.stats.used_lanczos, cold.stats.used_lanczos) << "solve " << k;
    EXPECT_TRUE(w.stats.converged) << "solve " << k;

    // A solve borrows its basis (one vector per iteration) plus w, and
    // returns all of them: the thread's high water is the largest such
    // footprint so far, and the idle bytes never exceed it.
    const std::size_t need = static_cast<std::size_t>(w.stats.iterations + 1) *
                             static_cast<std::size_t>(dim) * sizeof(Complex);
    footprint = std::max(footprint, need);
    EXPECT_EQ(cold.bytes.high_water, need) << "solve " << k;
    EXPECT_EQ(w.bytes.high_water, footprint) << "solve " << k;
    EXPECT_LE(w.bytes.retained, footprint) << "solve " << k;
    EXPECT_GT(w.bytes.retained, 0u) << "solve " << k;
    EXPECT_EQ(w.bytes.on_loan, 0u) << "solve " << k;
  }
}

TEST_F(LanczosTest, WorkspaceRegrowthAcrossAnalyzerShapesIsBitIdentical) {
  // Borrowed vectors are regrown without writing their new entries. A
  // d = 16 solve (D = 65536) leaves 1 MiB vectors idle, a d = 11 solve
  // (D = 14641) shrinks them, and a second d = 16 instance regrows them
  // within their storage, over entries the first instance wrote. Its
  // outputs must equal the same instance's on a fresh thread bit for bit.
  using dqma::protocol::ExactEqPathAnalyzer;
  const auto analyzer = [](int d, std::uint64_t seed) {
    Rng r(seed);
    return ExactEqPathAnalyzer(dqma::quantum::haar_state(d, r),
                               dqma::quantum::haar_state(d, r), 3,
                               ExactEqPathAnalyzer::Mode::kMatrixFree);
  };
  const ExactEqPathAnalyzer first = analyzer(16, 1);
  const ExactEqPathAnalyzer smaller = analyzer(11, 2);
  const ExactEqPathAnalyzer target = analyzer(16, 3);
  Rng probe_rng(4);
  const CVec probe = dqma::quantum::haar_state(
      static_cast<int>(target.proof_dim()), probe_rng);
  struct Outputs {
    double worst = 0.0;
    SpectralStats stats;
    CVec applied;
  };
  const auto run_target = [&] {
    Outputs out;
    out.worst = target.worst_case_accept(SpectralOptions{}, &out.stats);
    out.applied = target.apply_acceptance(probe);
    return out;
  };
  Outputs warm;
  std::thread([&] {
    (void)first.worst_case_accept();
    (void)smaller.worst_case_accept();
    warm = run_target();
  }).join();
  Outputs cold;
  std::thread([&] { cold = run_target(); }).join();
  EXPECT_EQ(std::memcmp(&warm.worst, &cold.worst, sizeof(double)), 0);
  EXPECT_EQ(warm.stats.matvecs, cold.stats.matvecs);
  EXPECT_TRUE(warm.stats.converged);
  ASSERT_EQ(warm.applied.dim(), cold.applied.dim());
  EXPECT_EQ(std::memcmp(&warm.applied[0], &cold.applied[0],
                        static_cast<std::size_t>(warm.applied.dim()) *
                            sizeof(Complex)),
            0);
}

TEST_F(LanczosTest, ApplyIntoReusesStorageAndMatchesApply) {
  const CMat rho = dqma::quantum::random_density(40, rng());
  const DenseOperator op(rho);
  const CVec x = dqma::quantum::haar_state(40, rng());
  const CVec via_apply = op.apply(x);
  CVec out;
  op.apply_into(x, out);
  EXPECT_EQ(std::memcmp(&out[0], &via_apply[0], 40 * sizeof(Complex)), 0);
  // Second call reuses `out`'s storage and the operator's input scratch.
  op.apply_into(x, out);
  EXPECT_EQ(std::memcmp(&out[0], &via_apply[0], 40 * sizeof(Complex)), 0);
}

// Unpacked operators (the scalar level, or fewer than 8 columns at any
// level) write through CMat::multiply_into: the bits of CMat * CVec, into
// the caller's storage.
TEST_F(LanczosTest, UnpackedApplyIntoMatchesProductAndReusesStorage) {
  const auto check = [&](int dim) {
    const CMat rho = dqma::quantum::random_density(dim, rng());
    const DenseOperator op(rho);
    CVec out;
    op.apply_into(dqma::quantum::haar_state(dim, rng()), out);
    const Complex* storage = &out[0];
    for (int call = 0; call < 3; ++call) {
      const CVec x = dqma::quantum::haar_state(dim, rng());
      const CVec expected = rho * x;
      op.apply_into(x, out);
      EXPECT_EQ(&out[0], storage) << "dim " << dim << ", call " << call;
      EXPECT_EQ(std::memcmp(&out[0], &expected[0],
                            static_cast<std::size_t>(dim) * sizeof(Complex)),
                0)
          << "dim " << dim << ", call " << call;
    }
  };
  {
    const simd::LevelScope scalar(simd::Level::kScalar);
    check(5);
    check(40);
  }
  check(5);  // d < 8 stays unpacked at the active level
}

}  // namespace
