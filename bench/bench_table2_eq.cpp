// Table 2, row 1 — Theorem 19: dQMA_sep for EQ with t terminals, local
// proof O(r^2 log n), perfect completeness, soundness 1/3.
//
// Regenerated series:
//   (a) local proof size vs n at fixed (r, t): slope ~ log n;
//   (b) local proof size vs r at fixed (n, t): slope ~ r^2;
//   (c) local proof size vs t at fixed (n, r): flat (the paper's
//       improvement over the t-dependent FGNP21 bound);
//   (d) measured completeness (= 1) and attacked soundness (<= 1/3) at the
//       paper's repetition count — the chain-DP heavy section, run as
//       parallel sweep jobs.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "dqma/attacks.hpp"
#include "dqma/circuit_sim.hpp"
#include "dqma/eq_graph.hpp"
#include "dqma/eq_path.hpp"
#include "dqma/exact_runner.hpp"
#include "dqma/locc.hpp"
#include "dqma/runner.hpp"
#include "experiments.hpp"
#include "network/graph.hpp"
#include "qtest/swap_test.hpp"
#include "sweep/registry.hpp"
#include "util/bitstring.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace dqma::bench {
namespace {

using protocol::EqGraphProtocol;
using protocol::EqPathProtocol;
using util::Bitstring;
using util::Rng;
using util::Table;

void run(sweep::ExperimentContext& ctx) {
  std::ostream& out = ctx.out();

  {
    util::print_banner(out, "(a) local proof vs n  [r = 4, t = 2, k = paper]",
                       "Expected: growth ~ log n.");
    sweep::ParamGrid grid;
    grid.axis("n", std::vector<int>{16, 64, 256, 1024, 4096, 16384});
    const auto points = grid.enumerate();
    const auto results = ctx.sweep(
        "local_proof_vs_n", points,
        [](const sweep::ParamPoint& p, Rng&) {
          const int n = static_cast<int>(p.get_int("n"));
          const auto c = EqPathProtocol::costs_for(
              n, 4, 0.3, EqPathProtocol::paper_reps(4));
          return sweep::Metrics()
              .set("fingerprint_qubits",
                   EqPathProtocol::fingerprint_qubits(n, 0.3))
              .set("local_proof_qubits", c.local_proof_qubits);
        },
        // Closed-form cost curves (a)-(c): replicate so each shard
        // renders complete tables while recording only its own points.
        sweep::SweepPolicy::replicate());
    Table table({"n", "fingerprint qubits", "local proof (qubits)"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      table.add_row(
          {Table::fmt(points[i].get_int("n")),
           Table::fmt(results[i].metrics.get_int("fingerprint_qubits")),
           Table::fmt(results[i].metrics.get_int("local_proof_qubits"))});
    }
    table.print(out);
  }

  {
    util::print_banner(out, "(b) local proof vs r  [n = 256, t = 2]",
                       "Expected: growth ~ r^2 (repetition count k = "
                       "ceil(81 r^2 / 2)).");
    sweep::ParamGrid grid;
    grid.axis("r", std::vector<int>{2, 4, 8, 16, 32});
    const auto points = grid.enumerate();
    const auto results = ctx.sweep(
        "local_proof_vs_r", points,
        [](const sweep::ParamPoint& p, Rng&) {
          const int r = static_cast<int>(p.get_int("r"));
          const int k = EqPathProtocol::paper_reps(r);
          const auto c = EqPathProtocol::costs_for(256, r, 0.3, k);
          return sweep::Metrics().set("reps", k).set("local_proof_qubits",
                                                     c.local_proof_qubits);
        },
        sweep::SweepPolicy::replicate());
    Table table({"r", "k (reps)", "local proof (qubits)", "ratio to r=2"});
    const double base =
        static_cast<double>(results[0].metrics.get_int("local_proof_qubits"));
    for (std::size_t i = 0; i < points.size(); ++i) {
      const long long proof = results[i].metrics.get_int("local_proof_qubits");
      table.add_row({Table::fmt(points[i].get_int("r")),
                     Table::fmt(results[i].metrics.get_int("reps")),
                     Table::fmt(proof),
                     Table::fmt(static_cast<double>(proof) / base)});
    }
    table.print(out);
  }

  {
    util::print_banner(out, "(c) local proof vs t  [n = 256, stars]",
                       "Expected: FLAT in t (Theorem 19's improvement).");
    sweep::ParamGrid grid;
    grid.axis("t", std::vector<int>{2, 3, 4, 5, 6, 7, 8});
    const auto points = grid.enumerate();
    const auto results = ctx.sweep(
        "local_proof_vs_t", points,
        [](const sweep::ParamPoint& p, Rng&) {
          const int t = static_cast<int>(p.get_int("t"));
          const network::Graph g = network::Graph::star(t);
          std::vector<int> terminals;
          for (int i = 1; i <= t; ++i) terminals.push_back(i);
          const EqGraphProtocol protocol(g, terminals, 256, 0.3, 42);
          return sweep::Metrics().set("local_proof_qubits",
                                      protocol.costs().local_proof_qubits);
        },
        sweep::SweepPolicy::replicate());
    Table table({"t", "local proof (qubits)"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      table.add_row(
          {Table::fmt(points[i].get_int("t")),
           Table::fmt(results[i].metrics.get_int("local_proof_qubits"))});
    }
    table.print(out);
  }

  {
    util::print_banner(
        out, "(d) completeness / soundness at the paper parameters",
        "Expected: completeness exactly 1; attacked soundness <= 1/3.\n"
        "(product attacks: rotation + all step cuts; n = 24)");
    const int n = 24;
    // The chain-DP heavy section: completeness evaluates every one of the
    // paper's k = ceil(81 r^2 / 2) repetitions (1458 tree DPs at r = 6),
    // so the repetitions are chunked into parallel jobs — the k-fold
    // acceptance is the product of the chunk acceptances — with the attack
    // search as one more job per configuration. This is where the parallel
    // wall-clock win of the sweep engine lands.
    struct Config {
      std::string topology;
      int r;
      int t;
      int reps;
    };
    std::vector<Config> configs;
    for (int r : ctx.smoke_select(std::vector<int>{2, 4, 6}, {2, 4})) {
      configs.push_back({"path", r, 2, EqPathProtocol::paper_reps(r)});
    }
    for (int t : ctx.smoke_select(std::vector<int>{3, 5}, {3})) {
      configs.push_back({"star", 2, t, EqPathProtocol::paper_reps(3)});
    }

    constexpr int kChunkReps = 243;  // ~6 completeness chunks at r = 6
    std::vector<sweep::ParamPoint> points;
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const auto& cfg = configs[c];
      sweep::ParamPoint base;
      base.set("config", static_cast<int>(c))
          .set("topology", cfg.topology)
          .set("r", cfg.r)
          .set("t", cfg.t);
      points.push_back(sweep::ParamPoint(base).set("job", "attack"));
      for (int first = 0, chunk = 0; first < cfg.reps;
           first += kChunkReps, ++chunk) {
        points.push_back(
            sweep::ParamPoint(base)
                .set("job", "completeness_chunk")
                .set("chunk", chunk)
                .set("chunk_reps", std::min(kChunkReps, cfg.reps - first)));
      }
    }

    // All jobs of one configuration must see the same inputs, so they are
    // drawn from a config-indexed stream instead of the per-job one.
    const std::uint64_t input_seed = util::derive_seed(
        ctx.base_seed(), sweep::fnv1a64("soundness_paper_params/inputs"));
    const auto results = ctx.sweep(
        "soundness_paper_params_jobs", points,
        [n, input_seed, &configs](const sweep::ParamPoint& p, Rng&) {
          const auto& cfg = configs[static_cast<std::size_t>(
              p.get_int("config"))];
          Rng input_rng(util::derive_seed(
              input_seed, static_cast<std::uint64_t>(p.get_int("config"))));
          const bool attack_job = p.get_string("job") == "attack";
          const int reps = attack_job
                               ? cfg.reps
                               : static_cast<int>(p.get_int("chunk_reps"));
          if (cfg.topology == "path") {
            const network::Graph g = network::Graph::path(cfg.r);
            const EqGraphProtocol protocol(g, {0, cfg.r}, n, 0.3, reps);
            const Bitstring x = Bitstring::random(n, input_rng);
            Bitstring y = Bitstring::random(n, input_rng);
            if (x == y) y.flip(0);
            return sweep::Metrics().set(
                "accept", attack_job ? protocol.best_attack_accept({x, y})
                                     : protocol.completeness(x));
          }
          const network::Graph g = network::Graph::star(cfg.t);
          std::vector<int> terminals;
          for (int i = 1; i <= cfg.t; ++i) terminals.push_back(i);
          const EqGraphProtocol protocol(g, terminals, n, 0.3, reps);
          const Bitstring x = Bitstring::random(n, input_rng);
          std::vector<Bitstring> inputs(static_cast<std::size_t>(cfg.t), x);
          inputs[1] = Bitstring::random(n, input_rng);
          if (inputs[1] == x) inputs[1].flip(0);
          return sweep::Metrics().set(
              "accept", attack_job ? protocol.best_attack_accept(inputs)
                                   : protocol.completeness(x));
        },
        // All jobs of one configuration shard together, so the k-fold
        // recombination below stays computable in the shard owning it.
        sweep::SweepPolicy::group_by("config"));

    // Recombine: completeness of the k-fold protocol is the product of
    // its chunk acceptances; the attack job carries soundness directly.
    // Under --shard only the shard owning a configuration's group has its
    // chunk results; it records the derived point, the others declare it.
    Table table({"topology", "r", "t", "completeness", "attack accept",
                 "<= 1/3?"});
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const auto& cfg = configs[c];
      double completeness = 1.0;
      double attack = 0.0;
      bool local = true;
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (points[i].get_int("config") != static_cast<long long>(c)) {
          continue;
        }
        if (results[i].skipped) {
          local = false;
          break;
        }
        if (points[i].get_string("job") == "attack") {
          attack = results[i].metrics.get_double("accept");
        } else {
          completeness *= results[i].metrics.get_double("accept");
        }
      }
      if (!local) {
        ctx.skip_record("soundness_paper_params");
        continue;
      }
      ctx.record_owned("soundness_paper_params",
                       sweep::ParamPoint()
                           .set("topology", cfg.topology)
                           .set("r", cfg.r)
                           .set("t", cfg.t),
                       sweep::Metrics()
                           .set("completeness", completeness)
                           .set("attack_accept", attack)
                           .set("sound", attack <= 1.0 / 3.0));
      table.add_row({cfg.topology, Table::fmt(cfg.r), Table::fmt(cfg.t),
                     Table::fmt(completeness), Table::fmt(attack),
                     attack <= 1.0 / 3.0 ? "yes" : "NO"});
    }
    table.print(out);
  }

  {
    util::print_banner(
        out, "(e) Corollary 21: LOCC conversion costs",
        "Replacing the quantum verifier-to-verifier messages with classical\n"
        "communication (Lemma 20 / [GMN23a]): local proof\n"
        "O(dmax |V| r^4 log^2 n), classical message O(|V| r^4 log^2 n).");
    std::vector<sweep::ParamPoint> points;
    for (const auto& [v, r] : {std::pair{10, 2}, std::pair{10, 4},
                               std::pair{40, 2}, std::pair{40, 4}}) {
      points.push_back(sweep::ParamPoint().set("nodes", v).set("r", r));
    }
    const auto results = ctx.sweep(
        "corollary21_locc", points,
        [](const sweep::ParamPoint& p, Rng&) {
          const auto c = protocol::corollary21_eq_costs(
              256, static_cast<int>(p.get_int("r")),
              static_cast<int>(p.get_int("nodes")), 3);
          return sweep::Metrics()
              .set("local_proof_qubits", c.local_proof_qubits)
              .set("local_message_bits", c.local_message_bits);
        },
        sweep::SweepPolicy::replicate());
    Table table({"|V|", "r", "local proof (qubits)", "local message (bits)"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      table.add_row(
          {Table::fmt(points[i].get_int("nodes")),
           Table::fmt(points[i].get_int("r")),
           Table::fmt(results[i].metrics.get_int("local_proof_qubits")),
           Table::fmt(results[i].metrics.get_int("local_message_bits"))});
    }
    table.print(out);
  }

  {
    util::print_banner(
        out, "(f) exact engine vs chain DP at large (d, r)",
        "Cross-layer check on proof spaces beyond the old dense cap: the\n"
        "matrix-free acceptance engine's product-proof acceptance of one\n"
        "Algorithm 3 repetition must match the closed-form coin DP\n"
        "(endpoint overlap 0.3; every proof register = |h_x>).");
    std::vector<sweep::ParamPoint> all_points;
    for (const auto& [d, r] :
         {std::pair{2, 4}, std::pair{4, 3}, std::pair{6, 4}}) {
      all_points.push_back(sweep::ParamPoint().set("d", d).set("r", r));
    }
    const auto points =
        ctx.smoke_select(all_points,
                         {sweep::ParamPoint().set("d", 2).set("r", 4),
                          sweep::ParamPoint().set("d", 6).set("r", 4)});
    const auto results = ctx.sweep(
        "exact_vs_dp_large", points, [](const sweep::ParamPoint& p, Rng&) {
          const int d = static_cast<int>(p.get_int("d"));
          const int r = static_cast<int>(p.get_int("r"));
          linalg::CVec hx = linalg::CVec::basis(d, 0);
          linalg::CVec hy(d);
          hy[0] = linalg::Complex{0.3, 0.0};
          hy[1] = linalg::Complex{std::sqrt(1.0 - 0.09), 0.0};
          // Product proof: every register |h_x>.
          protocol::PathProof proof;
          proof.reg0.assign(static_cast<std::size_t>(r - 1), hx);
          proof.reg1.assign(static_cast<std::size_t>(r - 1), hx);
          const double dp = protocol::chain_accept(
              hx, proof,
              [](const linalg::CVec& a, const linalg::CVec& b) {
                return qtest::swap_test_accept(a, b);
              },
              [&hy](const linalg::CVec& v) { return std::norm(hy.dot(v)); });
          const protocol::ExactEqPathAnalyzer exact(
              hx, hy, r, protocol::ExactEqPathAnalyzer::Mode::kMatrixFree);
          std::vector<linalg::CVec> regs(
              static_cast<std::size_t>(2 * (r - 1)), hx);
          const double engine = exact.product_accept(regs);
          const protocol::ExactEqPathAnalyzer honest(
              hx, hx, r, protocol::ExactEqPathAnalyzer::Mode::kMatrixFree);
          return sweep::Metrics()
              .set("proof_dim", exact.proof_dim())
              .set("dp_accept", dp)
              .set("engine_accept", engine)
              .set("abs_diff", std::abs(dp - engine))
              .set("honest_accept", honest.product_accept(regs));
        });
    Table table({"d", "r", "proof dim", "chain DP", "exact engine",
                 "|diff|", "honest (= 1)"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (results[i].skipped) continue;  // owned by another --shard
      const auto& m = results[i].metrics;
      table.add_row({Table::fmt(points[i].get_int("d")),
                     Table::fmt(points[i].get_int("r")),
                     Table::fmt(m.get_int("proof_dim")),
                     Table::fmt(m.get_double("dp_accept")),
                     Table::fmt(m.get_double("engine_accept")),
                     Table::fmt(m.get_double("abs_diff")),
                     Table::fmt(m.get_double("honest_accept"))});
    }
    table.print(out);
  }

  {
    util::print_banner(
        out, "(g) circuit-level Monte-Carlo vs chain DP",
        "The third protocol implementation, cross-checked: Algorithm 3 run\n"
        "as sampled SWAP-test circuits under the rotation attack, against\n"
        "the exact coin DP. The coin-conditioned closed-form test\n"
        "probabilities are computed once (O(r d) total) and every shot\n"
        "replays the circuit's draw sequence against them (the per-shot\n"
        "state-vector circuit is the reference in circuit_noise_test).");
    const int samples = ctx.smoke_select(4000, 500);
    std::vector<sweep::ParamPoint> points;
    for (const auto& [d, r] :
         ctx.smoke_select(std::vector<std::pair<int, int>>{
                              {16, 4}, {64, 4}, {64, 6}},
                          {{16, 4}, {64, 4}})) {
      points.push_back(sweep::ParamPoint()
                           .set("d", d)
                           .set("r", r)
                           .set("strategy", "batched")
                           .set("samples", samples));
    }
    const auto results = ctx.sweep(
        "circuit_mc", points, [](const sweep::ParamPoint& p, Rng& rng) {
          const int d = static_cast<int>(p.get_int("d"));
          const int r = static_cast<int>(p.get_int("r"));
          const int samples = static_cast<int>(p.get_int("samples"));
          // Deterministic inputs (no rng): endpoint overlap 0.3, rotation
          // attack proof.
          linalg::CVec hx = linalg::CVec::basis(d, 0);
          linalg::CVec hy(d);
          hy[0] = linalg::Complex{0.3, 0.0};
          hy[1] = linalg::Complex{std::sqrt(1.0 - 0.09), 0.0};
          const protocol::PathProof proof =
              protocol::rotation_attack(hx, hy, r - 1);
          const double dp = protocol::chain_accept(
              hx, proof,
              [](const linalg::CVec& a, const linalg::CVec& b) {
                return qtest::swap_test_accept(a, b);
              },
              [&hy](const linalg::CVec& v) { return std::norm(hy.dot(v)); });
          const auto est =
              protocol::circuit_eq_path_accept(hx, hy, proof, rng, samples);
          return sweep::Metrics()
              .set("dp_accept", dp)
              .set("mc_accept", est.mean)
              .set("half_width_95", est.half_width_95)
              .set("abs_diff", std::abs(est.mean - dp))
              .set("within_ci", std::abs(est.mean - dp) <=
                                    est.half_width_95 + 1e-12);
        });
    Table table({"d", "r", "strategy", "samples", "chain DP", "circuit MC",
                 "|diff|", "in 95% CI?"});
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (results[i].skipped) continue;
      const auto& m = results[i].metrics;
      table.add_row({Table::fmt(points[i].get_int("d")),
                     Table::fmt(points[i].get_int("r")),
                     points[i].get_string("strategy"),
                     Table::fmt(points[i].get_int("samples")),
                     Table::fmt(m.get_double("dp_accept")),
                     Table::fmt(m.get_double("mc_accept")),
                     Table::fmt(m.get_double("abs_diff")),
                     m.get_bool("within_ci") ? "yes" : "NO"});
    }
    table.print(out);
  }
}

}  // namespace

void register_table2_eq() {
  sweep::register_experiment(
      {"table2_eq",
       "Table 2, row 1 (Theorem 19: EQ, t terminals, O(r^2 log n))", run});
}

}  // namespace dqma::bench
