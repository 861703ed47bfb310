// table_sweep — a batch job: a fixed grid of Table-2 protocol jobs through
// sweep::run_sweep on a 4-thread ThreadPool, pass after pass until the time
// is up. Every job constructs its protocol fresh (no shape cache): the EQ
// graph protocol on a path and a star at the paper's repetition counts
// (completeness chunks and the best attack), Hamming Monte-Carlo soundness
// chunks, GT and relay-EQ completeness and soundness, and the noise
// threshold of the EQ path protocol. Inputs are drawn from the seed; each
// pass draws fresh ones.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "dqma/eq_graph.hpp"
#include "dqma/eq_path.hpp"
#include "dqma/gt.hpp"
#include "dqma/hamming.hpp"
#include "dqma/noise.hpp"
#include "dqma/relay_eq.hpp"
#include "network/graph.hpp"
#include "sweep/parallel.hpp"
#include "sweep/sweep.hpp"
#include "sweep/thread_pool.hpp"
#include "util/bitstring.hpp"

namespace perfbench {
namespace {

using namespace dqma;
using util::Bitstring;

constexpr int kPoolThreads = 4;
constexpr int kSetupRepeats = 5;
constexpr int kChunkReps = 243;  // EQ completeness repetitions per job
constexpr int kEqBits = 24;
constexpr int kGtBits = 12;
constexpr int kRelayBits = 8;
constexpr int kNoiseBits = 16;
constexpr int kHammingSamples = 60;
constexpr double kSoundness = 1.0 / 3.0;
constexpr double kCompletenessTolerance = 1e-12;

sweep::ParamPoint job(const std::string& kind, int size) {
  return sweep::ParamPoint().set("job", kind).set("size", size);
}

/// The fixed grid of one pass. `size` is the path length r, the star's
/// terminal count t, or the Hamming violation distance.
std::vector<sweep::ParamPoint> make_grid(bool tiny) {
  std::vector<sweep::ParamPoint> grid;
  const auto eq = [&](const std::string& topology, int size, int reps) {
    grid.push_back(job(topology + "_attack", size));
    for (int first = 0; first < reps; first += kChunkReps) {
      grid.push_back(job(topology + "_completeness", size)
                         .set("reps", std::min(kChunkReps, reps - first)));
    }
  };
  if (tiny) {
    eq("eq_path", 2, protocol::EqPathProtocol::paper_reps(2));
    grid.push_back(job("hamming_mc", 4));
    grid.push_back(job("gt", 2));
    grid.push_back(job("relay", 4));
    grid.push_back(job("noise_threshold", 2));
    return grid;
  }
  for (const int r : {4, 8}) {
    eq("eq_path", r, protocol::EqPathProtocol::paper_reps(r));
  }
  for (const int t : {3, 5}) {
    eq("eq_star", t, protocol::EqPathProtocol::paper_reps(3));
  }
  for (const int distance : {4, 7}) {
    for (int chunk = 0; chunk < 2; ++chunk) {
      grid.push_back(job("hamming_mc", distance));
    }
  }
  for (const int r : {4, 5}) {
    grid.push_back(job("gt", r));
  }
  for (const int r : {8, 10}) {
    grid.push_back(job("relay", r));
  }
  for (const int r : {4, 6, 8}) {
    grid.push_back(job("noise_threshold", r));
  }
  return grid;
}

Bitstring other_than(const Bitstring& x, util::Rng& rng) {
  Bitstring y = Bitstring::random(x.size(), rng);
  if (y == x) {
    y.flip(0);
  }
  return y;
}

/// Draws a (x, y) pair on which the GT predicate has the wanted value.
std::pair<Bitstring, Bitstring> gt_pair(bool holds, util::Rng& rng) {
  for (;;) {
    Bitstring x = Bitstring::random(kGtBits, rng);
    Bitstring y = Bitstring::random(kGtBits, rng);
    if (protocol::gt_predicate(protocol::GtVariant::kGreater, x, y) == holds) {
      return {x, y};
    }
  }
}

/// One job: construct the protocol (timed as ctor_ms), evaluate it (timed
/// as eval_ms), and return the values the output check reads.
sweep::Metrics run_job(const sweep::ParamPoint& p, util::Rng& rng,
                       Tracer& tracer) {
  const std::string& kind = p.get_string("job");
  const int size = static_cast<int>(p.get_int("size"));
  double completeness = 1.0;
  double attack = 0.0;
  double threshold = 1.0;
  Clock::time_point t0 = Clock::now();
  Clock::time_point t1 = t0;
  if (kind == "eq_path_attack" || kind == "eq_path_completeness" ||
      kind == "eq_star_attack" || kind == "eq_star_completeness") {
    const bool path = kind.rfind("eq_path", 0) == 0;
    const bool attack_job = kind.find("attack") != std::string::npos;
    const int reps = attack_job
                         ? protocol::EqPathProtocol::paper_reps(path ? size : 3)
                         : static_cast<int>(p.get_int("reps"));
    std::vector<int> terminals;
    if (path) {
      terminals = {0, size};
    } else {
      for (int i = 1; i <= size; ++i) terminals.push_back(i);
    }
    const network::Graph graph =
        path ? network::Graph::path(size) : network::Graph::star(size);
    const Bitstring x = Bitstring::random(kEqBits, rng);
    std::vector<Bitstring> inputs(terminals.size(), x);
    inputs[1] = other_than(x, rng);
    const protocol::EqGraphProtocol protocol(graph, terminals, kEqBits, 0.3,
                                             reps);
    t1 = Clock::now();
    if (attack_job) {
      attack = protocol.best_attack_accept(inputs);
    } else {
      completeness = protocol.completeness(x);
    }
  } else if (kind == "hamming_mc") {
    const Bitstring x = Bitstring::random(16, rng);
    const std::vector<Bitstring> inputs{
        x, Bitstring::random_at_distance(x, size, rng)};
    const protocol::HammingGraphProtocol protocol(network::Graph::path(2),
                                                  {0, 2}, 16, 1, 0.35, 40);
    t1 = Clock::now();
    attack = protocol.best_attack_accept(inputs, rng, kHammingSamples).mean;
  } else if (kind == "gt") {
    const auto [x, y] = gt_pair(true, rng);
    const auto [xn, yn] = gt_pair(false, rng);
    const protocol::GtProtocol protocol(kGtBits, size, 0.3,
                                        2 * 81 * size * size / 4 + 1);
    t1 = Clock::now();
    completeness = protocol.completeness(x, y);
    attack = protocol.best_attack_accept(xn, yn);
  } else if (kind == "relay") {
    const Bitstring x = Bitstring::random(kRelayBits, rng);
    const Bitstring y = other_than(x, rng);
    const protocol::RelayEqProtocol protocol(
        kRelayBits, size, 0.3, protocol::RelayEqProtocol::paper_spacing(kRelayBits),
        protocol::RelayEqProtocol::paper_seg_reps(kRelayBits));
    t1 = Clock::now();
    completeness = protocol.completeness(x);
    attack = protocol.best_attack_accept(x, y);
  } else if (kind == "noise_threshold") {
    const Bitstring x = Bitstring::random(kNoiseBits, rng);
    const Bitstring y = other_than(x, rng);
    const protocol::EqPathProtocol protocol(kNoiseBits, size, 0.3, 4 * size);
    t1 = Clock::now();
    threshold = protocol::noise_threshold(protocol, x, y, 1e-6);
  }
  const Clock::time_point t2 = Clock::now();
  const long long id = tracer.record("sweep.job", t0, t2);
  tracer.record("protocol.ctor", t0, t1, id);
  tracer.record("protocol.eval", t1, t2, id);
  return sweep::Metrics()
      .set("completeness", completeness)
      .set("attack", attack)
      .set("threshold", threshold)
      .set("ctor_ms", ms_between(t0, t1))
      .set("eval_ms", ms_between(t1, t2));
}

/// Evaluator family of a job kind, for the per-layer eval times.
std::string family(const std::string& kind) {
  if (kind.rfind("eq_", 0) == 0) return "eq";
  return kind;
}

}  // namespace

Outcome run_table_sweep(const Options& options, Tracer& tracer) {
  Outcome outcome;
  const bool tiny = options.size == Size::kTiny;
  const std::vector<sweep::ParamPoint> grid = make_grid(tiny);
  const sweep::JobFn job_fn = [&tracer](const sweep::ParamPoint& p,
                                        util::Rng& rng) {
    return run_job(p, rng, tracer);
  };

  // Set-up, repeated: pool start and one warm-up pass of the tiny grid
  // (first touch of every evaluator and its fingerprint construction).
  std::unique_ptr<sweep::ThreadPool> pool;
  const std::vector<sweep::ParamPoint> warm_grid = make_grid(true);
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    pool.reset();
    const Clock::time_point start = Clock::now();
    sweep::set_kernel_threads(1);  // jobs run kernels inline anyway
    pool = std::make_unique<sweep::ThreadPool>(kPoolThreads);
    Tracer quiet(false);
    (void)sweep::run_sweep(*pool, warm_grid, 7,
                           [&quiet](const sweep::ParamPoint& p, util::Rng& rng) {
                             return run_job(p, rng, quiet);
                           });
    outcome.setup_s.push_back(ms_between(start, Clock::now()) / 1000.0);
  }

  struct Pass {
    double wall_ms;
    std::vector<sweep::JobResult> results;
  };
  std::vector<Pass> passes;
  const Clock::time_point start = Clock::now();
  const double budget_ms = 1000.0 * options.seconds;
  for (std::uint64_t pass = 0;; ++pass) {
    const double elapsed = ms_between(start, Clock::now());
    if (pass > 0 && (tiny || elapsed + passes.back().wall_ms > budget_ms)) {
      break;
    }
    const Clock::time_point t0 = Clock::now();
    std::vector<sweep::JobResult> results = sweep::run_sweep(
        *pool, grid, util::derive_seed(options.seed, pass), job_fn);
    const Clock::time_point t1 = Clock::now();
    tracer.record("sweep.pass", t0, t1, -1, static_cast<long long>(pass));
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const sweep::Metrics& m = results[i].metrics;
      const std::string tag = "pass " + std::to_string(pass) + " job " +
                              std::to_string(i) + " (" +
                              grid[i].get_string("job") + "): ";
      const double completeness = m.get_double("completeness");
      const double attack = m.get_double("attack");
      const double threshold = m.get_double("threshold");
      if (std::abs(completeness - 1.0) > kCompletenessTolerance) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "completeness 1 %+.3g",
                      completeness - 1.0);
        outcome.fail(tag + buf);
      } else if (!(attack >= 0.0 && attack <= kSoundness)) {
        outcome.fail(tag + "attack acceptance " + std::to_string(attack));
      } else if (!(threshold > 0.0 && threshold <= 1.0)) {
        outcome.fail(tag + "noise threshold " + std::to_string(threshold));
      }
    }
    passes.push_back({ms_between(t0, t1), std::move(results)});
  }

  outcome.peak_rss_mb = peak_rss_mb();  // the load, before any check
  std::vector<double> job_ms;
  std::vector<double> rate;
  std::vector<double> busy;
  double ctor_total = 0.0;
  std::map<std::string, std::vector<double>> family_eval;
  for (const Pass& pass : passes) {
    double busy_ms = 0.0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const sweep::JobResult& result = pass.results[i];
      job_ms.push_back(result.wall_ms);
      busy_ms += result.wall_ms;
      ctor_total += result.metrics.get_double("ctor_ms");
      family_eval[family(grid[i].get_string("job"))].push_back(
          result.metrics.get_double("eval_ms"));
    }
    rate.push_back(static_cast<double>(grid.size()) / (pass.wall_ms / 1000.0));
    busy.push_back(busy_ms / (kPoolThreads * pass.wall_ms));
  }
  outcome.attempted = static_cast<long long>(job_ms.size());
  outcome.end_to_end = {
      {"latency_p50_ms", median(job_ms), "ms"},
      {"latency_p99_ms", quantile(job_ms, 0.99), "ms"},
      {"ops_per_s", median(rate), "1/s"},
  };
  outcome.env = {{"pool_threads", std::to_string(kPoolThreads)},
                 {"kernel_threads", "1"},
                 {"grid_jobs", std::to_string(grid.size())},
                 {"passes", std::to_string(passes.size())}};
  if (!tracer.enabled()) {
    return outcome;
  }
  outcome.layers = {
      {"sweep.job_ms.p50", median(job_ms), "ms"},
      {"sweep.job_ms.max", quantile(job_ms, 1.0), "ms"},
      {"sweep.busy_ratio", median(busy), "ratio"},
      {"protocol.ctor_share", ctor_total / sum(job_ms), "ratio"},
  };
  for (const auto& [name, times] : family_eval) {
    outcome.layers.push_back({"protocol.eval_ms." + name, mean(times), "ms"});
  }
  return outcome;
}

}  // namespace perfbench
