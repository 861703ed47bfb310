// exact_spectral — a closed loop of one caller over a fixed, seeded list of
// exact worst-case analyses of the EQ path protocol (Algorithm 3): construct
// ExactEqPathAnalyzer in kMatrixFree mode, then worst_case_accept (Lanczos
// over the matrix-free acceptance operator, 4 kernel threads), then
// best_product_accept.
//
// Inputs: every solve draws a Haar unitary U from the seed and uses the
// endpoint fingerprints |h_x> = U|0>, |h_y> = U(0.3|0> + sqrt(0.91)|1>).
// The acceptance operator of a rotated instance is unitarily equivalent to
// the unrotated one, so both acceptance values depend only on (r, overlap):
// they are checked against stored references, while the seed still changes
// every input vector the engine sees.
#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include "common.hpp"
#include "dqma/exact_runner.hpp"
#include "linalg/lanczos.hpp"
#include "quantum/local_ops.hpp"
#include "quantum/random.hpp"
#include "sweep/parallel.hpp"
#include "sweep/sweep.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace dqma;
using protocol::ExactEqPathAnalyzer;

constexpr int kKernelThreads = 4;
constexpr int kSetupRepeats = 5;
constexpr double kOverlap = 0.3;
constexpr int kRestarts = 4;
constexpr int kSweeps = 40;
constexpr double kTolerance = 1e-9;  // the repo's exact-compare tolerance

struct Shape {
  int d;
  int r;
  int copies;  // solves of this shape per pass of the list
};

// Proof dimension d^(2(r-1)): 4096 (fits L2 with its Lanczos basis),
// 14641, 65536. All r = 3 (the references below assume it), whose Lanczos
// iteration counts barely depend on the rotation, so every seed costs about
// the same. A pass is short (~3 s), so a run makes several whole passes.
// Solves at 2^18 (~10 s each) would leave one or two samples per run.
constexpr Shape kFullList[] = {{8, 3, 2}, {11, 3, 2}, {16, 3, 1}};
constexpr Shape kTinyList[] = {{8, 3, 1}, {11, 3, 1}};

// Matvec timings (traced runs): the list's shapes plus 2^18, where the
// vector (4 MiB) exceeds a core's 2 MiB L2.
constexpr Shape kMatvecShapes[] = {{8, 3, 1}, {11, 3, 1}, {16, 3, 1}, {8, 4, 1}};
constexpr int kLargestListShape = 2;  // index of {16, 3} in kMatvecShapes

/// Reference acceptance values of every listed solve (r = 3, overlap 0.3);
/// every rotation gives the same values (see the file comment).
constexpr double kReferenceWorst = 0.74199400799335;
constexpr double kReferenceProduct = 0.72988030038590;

struct Instance {
  int d;
  int r;
  linalg::CVec hx;
  linalg::CVec hy;
  std::uint64_t product_seed;
};

Instance make_instance(const Shape& shape, util::Rng& rng) {
  const linalg::CMat u = quantum::haar_unitary(shape.d, rng);
  linalg::CVec y(shape.d);
  y[0] = linalg::Complex{kOverlap, 0.0};
  y[1] = linalg::Complex{std::sqrt(1.0 - kOverlap * kOverlap), 0.0};
  return {shape.d, shape.r, u * linalg::CVec::basis(shape.d, 0), u * y,
          rng.next_u64()};
}

/// Stated flop model of one matrix-free matvec: 8 flops per complex
/// multiply-add, D * b of them per local effect, where each of the 2^(r-1)
/// patterns applies one effect on a d-register, r-2 SWAP effects on d^2
/// blocks and one more d-register effect. Dense-block counts: zero-skipped
/// entries are counted too.
double matvec_flops(int d, int r, double dim) {
  const double per_pattern = 2.0 * d + (r - 2) * static_cast<double>(d) * d;
  return 8.0 * std::ldexp(1.0, r - 1) * dim * per_pattern;
}

double median_matvec_ms(const ExactEqPathAnalyzer& analyzer,
                        const linalg::CVec& psi, int repeats, Tracer& tracer) {
  (void)analyzer.apply_acceptance(psi);  // warm
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    const linalg::CVec out = analyzer.apply_acceptance(psi);
    const Clock::time_point t1 = Clock::now();
    tracer.record("exact.matvec", t0, t1);
    times.push_back(ms_between(t0, t1));
  }
  return median(times);
}

struct SolveRecord {
  std::size_t entry;  // index into the expanded list
  double ctor_ms;
  double worst_ms;
  double product_ms;
  long long matvecs;
  int iterations;
};

}  // namespace

Outcome run_exact_spectral(const Options& options, Tracer& tracer) {
  Outcome outcome;
  const bool tiny = options.size == Size::kTiny;
  std::vector<Shape> list;
  for (const Shape& shape : tiny ? std::vector<Shape>(std::begin(kTinyList),
                                                      std::end(kTinyList))
                                 : std::vector<Shape>(std::begin(kFullList),
                                                      std::end(kFullList))) {
    for (int c = 0; c < shape.copies; ++c) {
      list.push_back(shape);
    }
  }
  util::Rng rng(util::derive_seed(options.seed, sweep::fnv1a64("exact")));

  // Set-up, repeated: kernel pool start and one warm-up solve.
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point start = Clock::now();
    sweep::set_kernel_threads(kKernelThreads);
    util::Rng warm_rng(7);
    const Instance warm = make_instance(kTinyList[0], warm_rng);
    const ExactEqPathAnalyzer analyzer(warm.hx, warm.hy, warm.r,
                                       ExactEqPathAnalyzer::Mode::kMatrixFree);
    (void)analyzer.worst_case_accept();
    outcome.setup_s.push_back(ms_between(start, Clock::now()) / 1000.0);
  }

  // The closed loop: whole passes over the list until the time is up, so
  // every run solves the same mix of shapes. The first pass always runs; a
  // later one starts only if a pass as long as the last still fits.
  std::vector<SolveRecord> solves;
  const Clock::time_point start = Clock::now();
  const double budget_ms = 1000.0 * options.seconds;
  Clock::time_point pass_start = start;
  for (std::size_t k = 0;; ++k) {
    const std::size_t e = k % list.size();
    if (e == 0 && k > 0) {
      const Clock::time_point now = Clock::now();
      if (tiny || ms_between(start, now) + ms_between(pass_start, now) >
                      budget_ms) {
        break;
      }
      pass_start = now;
    }
    const Instance in = make_instance(list[e], rng);
    const Clock::time_point t0 = Clock::now();
    const ExactEqPathAnalyzer analyzer(in.hx, in.hy, in.r,
                                       ExactEqPathAnalyzer::Mode::kMatrixFree);
    const Clock::time_point t1 = Clock::now();
    linalg::SpectralStats stats;
    const double worst =
        analyzer.worst_case_accept(linalg::SpectralOptions{}, &stats);
    const Clock::time_point t2 = Clock::now();
    util::Rng product_rng(in.product_seed);
    const double product =
        analyzer.best_product_accept(product_rng, kRestarts, kSweeps);
    const Clock::time_point t3 = Clock::now();

    const long long id = tracer.record("exact.solve", t0, t3, -1,
                                       static_cast<long long>(k));
    tracer.record("exact.ctor", t0, t1, id, static_cast<long long>(k));
    tracer.record("exact.worst_case", t1, t2, id, static_cast<long long>(k));
    tracer.record("exact.product", t2, t3, id, static_cast<long long>(k));
    solves.push_back({e, ms_between(t0, t1), ms_between(t1, t2),
                      ms_between(t2, t3), stats.matvecs, stats.iterations});

    const std::string tag = "solve " + std::to_string(k) + " (d=" +
                            std::to_string(in.d) + ", r=" +
                            std::to_string(in.r) + "): ";
    if (!(worst >= 0.0 && worst <= 1.0 && product >= 0.0 && product <= 1.0)) {
      outcome.fail(tag + "acceptance outside [0, 1]");
    } else if (product > worst + kTolerance) {
      outcome.fail(tag + "best_product_accept exceeds worst_case_accept");
    } else if (std::abs(worst - kReferenceWorst) > kTolerance ||
               std::abs(product - kReferenceProduct) > kTolerance) {
      outcome.fail(tag + "worst " + std::to_string(worst) + ", product " +
                   std::to_string(product) + " differ from the reference");
    }
  }

  const double wall_ms = ms_between(start, Clock::now());
  outcome.peak_rss_mb = peak_rss_mb();  // the load, before the traced extras
  outcome.attempted = static_cast<long long>(solves.size());
  std::vector<double> solve_ms;
  for (const SolveRecord& s : solves) {
    solve_ms.push_back(s.ctor_ms + s.worst_ms + s.product_ms);
  }
  outcome.end_to_end = {
      {"latency_p50_ms", median(solve_ms), "ms"},
      {"latency_p99_ms", quantile(solve_ms, 0.99), "ms"},
      {"ops_per_s", static_cast<double>(solves.size()) / (wall_ms / 1000.0),
       "1/s"},
  };
  outcome.env = {{"kernel_threads", std::to_string(kKernelThreads)},
                 {"list_solves", std::to_string(list.size())},
                 {"solves", std::to_string(solves.size())}};
  if (!tracer.enabled()) {
    return outcome;
  }

  // Per-layer attribution: matvec times per proof dimension (4 kernel
  // threads), thread scaling 1 -> 4, and the apply_local kernel ceiling.
  util::Rng micro_rng(util::derive_seed(options.seed, 1));
  std::vector<double> matvec_ms;
  double scaling = 0.0;
  double model_gflops = 0.0;
  for (std::size_t i = 0; i < std::size(kMatvecShapes); ++i) {
    const Instance in = make_instance(kMatvecShapes[i], micro_rng);
    const ExactEqPathAnalyzer analyzer(in.hx, in.hy, in.r,
                                       ExactEqPathAnalyzer::Mode::kMatrixFree);
    const linalg::CVec psi = quantum::haar_state(
        static_cast<int>(analyzer.proof_dim()), micro_rng);
    const int repeats = analyzer.proof_dim() > (1 << 16) ? 3 : 5;
    matvec_ms.push_back(median_matvec_ms(analyzer, psi, repeats, tracer));
    if (static_cast<int>(i) == kLargestListShape) {
      const sweep::KernelThreadScope serial(1);
      scaling = median_matvec_ms(analyzer, psi, 3, tracer) / matvec_ms.back();
      model_gflops =
          matvec_flops(in.d, in.r, static_cast<double>(analyzer.proof_dim())) /
          (matvec_ms.back() * 1e6);
    }
    outcome.layers.push_back(
        {"exact.matvec_ms.d" + std::to_string(analyzer.proof_dim()),
         matvec_ms.back(), "ms"});
  }

  // apply_local at the largest list shape's D with b = d^2: a dense Haar
  // unitary on two registers, the ceiling for the matvec's SWAP effects.
  const Shape& big = kMatvecShapes[kLargestListShape];
  const quantum::RegisterShape reg_shape(
      std::vector<int>(static_cast<std::size_t>(2 * (big.r - 1)), big.d));
  const quantum::LocalOpPlan plan(reg_shape, {1, 2});
  const linalg::CMat u = quantum::haar_unitary(big.d * big.d, micro_rng);
  linalg::CVec psi = quantum::haar_state(
      static_cast<int>(plan.total_dim()), micro_rng);
  quantum::apply_local(plan, u, psi);  // warm
  std::vector<double> apply_ms;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point t0 = Clock::now();
    quantum::apply_local(plan, u, psi);
    const Clock::time_point t1 = Clock::now();
    tracer.record("kernel.apply_local", t0, t1);
    apply_ms.push_back(ms_between(t0, t1));
  }
  const double apply_flops = 8.0 * static_cast<double>(plan.total_dim()) *
                             static_cast<double>(plan.block());

  // Lanczos self time: worst_case_accept minus its matvecs at the measured
  // matvec time of the solve's shape (list shapes lead kMatvecShapes).
  const auto matvec_for = [&](const Shape& shape) {
    for (std::size_t i = 0; i < std::size(kMatvecShapes); ++i) {
      if (kMatvecShapes[i].d == shape.d && kMatvecShapes[i].r == shape.r) {
        return matvec_ms[i];
      }
    }
    return 0.0;
  };
  // Counts and times per pass: the first pass of the list.
  double matvecs = 0.0;
  double iterations = 0.0;
  double self_ms = 0.0;
  std::vector<double> ctor_ms;
  std::vector<double> product_ms;
  for (std::size_t k = 0; k < solves.size(); ++k) {
    const SolveRecord& s = solves[k];
    ctor_ms.push_back(s.ctor_ms);
    product_ms.push_back(s.product_ms);
    if (k < list.size()) {
      matvecs += static_cast<double>(s.matvecs);
      iterations += s.iterations;
      self_ms += s.worst_ms - static_cast<double>(s.matvecs) *
                                  matvec_for(list[s.entry]);
    }
  }
  outcome.layers.insert(
      outcome.layers.end(),
      {
          {"exact.ctor_ms", mean(ctor_ms), "ms"},
          {"exact.matvec_gflops", model_gflops, "GFLOP/s"},
          {"exact.matvec_scaling", scaling, "ratio"},
          {"lanczos.matvecs", matvecs, "count"},
          {"lanczos.iterations", iterations, "count"},
          {"lanczos.self_ms", self_ms, "ms"},
          {"product.ms", mean(product_ms), "ms"},
          {"kernel.apply_local_gflops",
           apply_flops / (median(apply_ms) * 1e6), "GFLOP/s"},
      });
  return outcome;
}

}  // namespace perfbench
