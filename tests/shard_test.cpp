// Sharded, resumable sweep execution (sweep/shard.hpp, sweep/trajectory.hpp
// and the dqma_bench CLI glue): partition disjointness and coverage, the
// byte-identity of merged shard documents vs the monolithic run, resume
// from complete and truncated checkpoint logs and from real mid-run crashes
// (DQMA_FAULT's checkpoint site, in death-test children), and the
// baseline-comparison gate's tolerance policy and exit codes.
//
// The end-to-end tests register three small fake experiments covering
// every recording mode (partitioned/replicated/grouped sweeps,
// serial_sweep, ad-hoc and owned records) and drive them through cli_main
// exactly as CI drives the real registry.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sweep/registry.hpp"
#include "sweep/shard.hpp"
#include "sweep/sweep.hpp"
#include "sweep/trajectory.hpp"
#include "util/fault.hpp"
#include "util/json_reader.hpp"
#include "util/rng.hpp"

namespace {

using dqma::sweep::CompareOptions;
using dqma::sweep::ExperimentRecord;
using dqma::sweep::Metrics;
using dqma::sweep::ParamGrid;
using dqma::sweep::ParamPoint;
using dqma::sweep::ShardSpec;
using dqma::sweep::SinkPoint;
using dqma::sweep::SweepPolicy;
using dqma::sweep::Trajectory;
using dqma::util::Rng;

std::atomic<int> g_grid_jobs{0};

void register_fake_experiments() {
  static const bool once = [] {
    dqma::sweep::register_experiment(
        {"fake_alpha", "partitioned + replicated series",
         [](dqma::sweep::ExperimentContext& ctx) {
           // Partitioned "expensive" series: RNG-dependent metrics prove
           // seed stability across shard/resume paths.
           ParamGrid grid;
           grid.axis("x", std::vector<int>{0, 1, 2, 3, 4, 5});
           const auto points = grid.enumerate();
           const auto results = ctx.sweep(
               "grid", points, [](const ParamPoint& p, Rng& rng) {
                 g_grid_jobs.fetch_add(1, std::memory_order_relaxed);
                 return Metrics()
                     .set("value", static_cast<double>(p.get_int("x")) +
                                       rng.next_double())
                     .set("draws", static_cast<long long>(
                                       rng.next_below(1000)));
               });
           for (std::size_t i = 0; i < points.size(); ++i) {
             if (results[i].skipped) continue;
             ctx.out() << "grid " << i << "\n";
           }

           // Replicated cheap series + derived records reading across
           // points (the ratio-to-first idiom the real benches use).
           ParamGrid cheap;
           cheap.axis("n", std::vector<int>{8, 16, 32});
           const auto cheap_points = cheap.enumerate();
           const auto cheap_results = ctx.sweep(
               "cheap", cheap_points,
               [](const ParamPoint& p, Rng&) {
                 return Metrics().set("cost", 3 * p.get_int("n"));
               },
               SweepPolicy::replicate());
           const double base =
               static_cast<double>(cheap_results[0].metrics.get_int("cost"));
           for (std::size_t i = 0; i < cheap_points.size(); ++i) {
             ctx.record(
                 "cheap_ratio",
                 ParamPoint().set("n", cheap_points[i].get_int("n")),
                 Metrics().set(
                     "ratio",
                     static_cast<double>(
                         cheap_results[i].metrics.get_int("cost")) /
                         base));
           }
         }});

    dqma::sweep::register_experiment(
        {"fake_beta", "grouped series + reduce, serial_sweep",
         [](dqma::sweep::ExperimentContext& ctx) {
           // Grouped series: 2 configs x 3 chunks, recombined per config.
           std::vector<ParamPoint> points;
           for (int cfg = 0; cfg < 2; ++cfg) {
             for (int chunk = 0; chunk < 3; ++chunk) {
               points.push_back(
                   ParamPoint().set("cfg", cfg).set("chunk", chunk));
             }
           }
           const auto results = ctx.sweep(
               "chunks", points,
               [](const ParamPoint& p, Rng& rng) {
                 return Metrics().set(
                     "mean", 0.1 * static_cast<double>(p.get_int("cfg")) +
                                 0.01 * rng.next_double());
               },
               SweepPolicy::group_by("cfg"));
           for (int cfg = 0; cfg < 2; ++cfg) {
             const std::size_t base = static_cast<std::size_t>(3 * cfg);
             if (results[base].skipped) {
               ctx.skip_record("combined");
               continue;
             }
             double sum = 0.0;
             for (std::size_t c = 0; c < 3; ++c) {
               sum += results[base + c].metrics.get_double("mean");
             }
             ctx.record_owned("combined", ParamPoint().set("cfg", cfg),
                              Metrics().set("mean", sum / 3.0));
           }

           // serial_sweep: the heavy-point path.
           std::vector<ParamPoint> serial_points;
           serial_points.push_back(ParamPoint().set("d", 4));
           serial_points.push_back(ParamPoint().set("d", 6));
           ctx.serial_sweep("serial", serial_points,
                            [](const ParamPoint& p, Rng& rng) {
                              return Metrics().set(
                                  "v", p.get_int("d") + rng.next_double());
                            });
         }});
    return true;
  }();
  (void)once;
}

int run_cli(const std::vector<std::string>& args) {
  register_fake_experiments();
  std::vector<const char*> argv{"dqma_bench"};
  for (const std::string& arg : args) {
    argv.push_back(arg.c_str());
  }
  return dqma::sweep::cli_main(static_cast<int>(argv.size()), argv.data());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

TEST(ShardSpecTest, ParsesValidSpecs) {
  EXPECT_EQ(ShardSpec::parse("0/1"), (ShardSpec{0, 1}));
  EXPECT_EQ(ShardSpec::parse("3/4"), (ShardSpec{3, 4}));
  EXPECT_EQ(ShardSpec::parse("3/4").label(), "3/4");
  EXPECT_FALSE(ShardSpec::parse("0/1").active());
  EXPECT_TRUE(ShardSpec::parse("0/2").active());
}

TEST(ShardSpecTest, RejectsInvalidSpecs) {
  for (const char* bad :
       {"", "2", "4/4", "-1/2", "a/b", "1/0", "1/-3", "1/2/3", "1/2 "}) {
    EXPECT_THROW(ShardSpec::parse(bad), std::invalid_argument) << bad;
  }
}

TEST(ShardSpecTest, ShardsPartitionTheKeySpace) {
  // Every key belongs to exactly one of the N shards: disjoint, and the
  // union is the full set.
  for (int count : {1, 2, 4, 7}) {
    for (std::uint64_t key = 0; key < 500; ++key) {
      int owners = 0;
      for (int index = 0; index < count; ++index) {
        owners += ShardSpec{index, count}.contains(key) ? 1 : 0;
      }
      EXPECT_EQ(owners, 1) << "key " << key << " count " << count;
    }
  }
}

TEST(ShardEndToEndTest, ShardsAreDisjointAndMergeByteIdentical) {
  const std::string full = temp_path("e2e_full.json");
  ASSERT_EQ(run_cli({"--threads", "2", "--json", full}), 0);

  // Shard runs execute a strict subset of the partitioned jobs, and each
  // partitioned job runs in exactly one shard.
  std::vector<std::string> shard_files;
  g_grid_jobs.store(0);
  for (int i = 0; i < 3; ++i) {
    const std::string path =
        temp_path("e2e_shard" + std::to_string(i) + ".json");
    shard_files.push_back(path);
    ASSERT_EQ(run_cli({"--threads", "2", "--shard",
                       std::to_string(i) + "/3", "--json", path}),
              0);
  }
  EXPECT_EQ(g_grid_jobs.load(), 6)
      << "each partitioned job must execute in exactly one of the shards";

  // Orders recorded across shards are disjoint per experiment.
  std::set<std::pair<std::string, std::size_t>> seen;
  std::size_t total_points = 0;
  for (const std::string& path : shard_files) {
    const Trajectory shard = Trajectory::load(path);
    EXPECT_TRUE(shard.shard.active());
    for (const ExperimentRecord& experiment : shard.experiments) {
      for (const SinkPoint& point : experiment.points) {
        EXPECT_TRUE(seen.insert({experiment.name, point.order}).second)
            << experiment.name << " order " << point.order
            << " recorded by two shards";
        ++total_points;
      }
    }
  }
  const Trajectory complete = Trajectory::load(full);
  std::size_t expected_points = 0;
  for (const ExperimentRecord& experiment : complete.experiments) {
    expected_points += experiment.points.size();
  }
  EXPECT_EQ(total_points, expected_points)
      << "the union of the shards must be the full point set";

  // The reassembled document is byte-identical to the monolithic run.
  const std::string merged = temp_path("e2e_merged.json");
  std::vector<std::string> merge_args{"--merge"};
  merge_args.insert(merge_args.end(), shard_files.begin(),
                    shard_files.end());
  merge_args.insert(merge_args.end(), {"--json", merged});
  ASSERT_EQ(run_cli(merge_args), 0);
  EXPECT_EQ(read_file(merged), read_file(full));
}

TEST(ShardEndToEndTest, ResumeReproducesBytesAndSkipsFinishedPoints) {
  const std::string full = temp_path("resume_full.json");
  ASSERT_EQ(run_cli({"--threads", "2", "--json", full}), 0);

  // A fresh run with a checkpoint log produces the same bytes and leaves
  // a replayable log behind.
  const std::string log = temp_path("resume_log.jsonl");
  std::remove(log.c_str());
  const std::string first = temp_path("resume_first.json");
  ASSERT_EQ(
      run_cli({"--threads", "2", "--resume", log, "--json", first}), 0);
  EXPECT_EQ(read_file(first), read_file(full));

  // Truncate the log mid-stream, with a torn final line (the crash
  // shape): the resumed run must still reproduce the bytes.
  const std::string log_text = read_file(log);
  std::vector<std::string> lines;
  std::istringstream stream(log_text);
  for (std::string line; std::getline(stream, line);) {
    lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 4u);
  const std::string truncated = temp_path("resume_trunc.jsonl");
  {
    std::ofstream out(truncated, std::ios::binary);
    for (std::size_t i = 0; i < 4; ++i) {
      out << lines[i] << "\n";
    }
    out << R"({"experiment":"fake_al)";  // torn mid-write
  }
  const std::string second = temp_path("resume_second.json");
  ASSERT_EQ(run_cli({"--threads", "2", "--resume", truncated, "--json",
                     second}),
            0);
  EXPECT_EQ(read_file(second), read_file(full));

  // The torn fragment must have been truncated before appending, so a
  // SECOND crash/resume cycle on the same log still works: tear the log
  // again and resume again.
  {
    std::ofstream out(truncated, std::ios::binary | std::ios::app);
    out << R"({"experiment":"torn_again)";
  }
  const std::string again = temp_path("resume_again.json");
  ASSERT_EQ(run_cli({"--threads", "2", "--resume", truncated, "--json",
                     again}),
            0);
  EXPECT_EQ(read_file(again), read_file(full));

  // Resuming from the complete log re-executes no sweep job at all.
  g_grid_jobs.store(0);
  const std::string third = temp_path("resume_third.json");
  ASSERT_EQ(
      run_cli({"--threads", "2", "--resume", log, "--json", third}), 0);
  EXPECT_EQ(read_file(third), read_file(full));
  EXPECT_EQ(g_grid_jobs.load(), 0);

  // A log from a different configuration is refused.
  EXPECT_EQ(run_cli({"--threads", "2", "--seed", "9", "--resume", log}), 1);
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::istringstream stream(read_file(path));
  for (std::string line; std::getline(stream, line);) {
    lines.push_back(line);
  }
  return lines;
}

// Kills a --resume run of the fake experiments through the checkpoint
// fault site (exit 137, no destructors) and returns the log it left. One
// thread, so the crash lands at a known append. The threadsafe death-test
// child re-runs its test body up to the death statement, so each test makes
// exactly one crash, first.
std::string crash_resume_run(const char* spec, const std::string& name) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string log = temp_path(name);
  std::remove(log.c_str());
  EXPECT_EXIT(
      {
        dqma::util::fault::reset_for_test(spec);
        run_cli({"--threads", "1", "--resume", log, "--json",
                 temp_path("crash_never.json")});
      },
      ::testing::ExitedWithCode(137), "");
  return log;
}

// Resuming from a crashed run's log reproduces the monolithic bytes; sweep
// jobs the resumed run executes are counted in g_grid_jobs.
void expect_resume_reproduces_monolithic(const std::string& log) {
  const std::string full = temp_path("crash_full.json");
  ASSERT_EQ(run_cli({"--threads", "2", "--json", full}), 0);
  g_grid_jobs.store(0);
  const std::string resumed = temp_path("crash_resumed.json");
  ASSERT_EQ(run_cli({"--threads", "2", "--resume", log, "--json", resumed}),
            0);
  EXPECT_EQ(read_file(resumed), read_file(full));
}

TEST(ShardEndToEndTest, ResumeRecoversFromTornCheckpointWrite) {
  // torn_write: the first append persists half a line, then dies.
  const std::string log =
      crash_resume_run("checkpoint:torn_write", "crash_torn.jsonl");
  const std::string text = read_file(log);
  ASSERT_EQ(read_lines(log).size(), 2u) << "header + torn fragment";
  EXPECT_NE(text.back(), '\n') << "the fragment has no newline";
  expect_resume_reproduces_monolithic(log);
  EXPECT_EQ(g_grid_jobs.load(), 6) << "nothing was committed";
}

TEST(ShardEndToEndTest, ResumeRecoversFromCrashBetweenAppends) {
  // crash_after:3: two appends commit, the third probe kills the run.
  const std::string log =
      crash_resume_run("checkpoint:crash_after:3", "crash_after.jsonl");
  ASSERT_EQ(read_lines(log).size(), 3u) << "header + two entries";
  expect_resume_reproduces_monolithic(log);
  EXPECT_EQ(g_grid_jobs.load(), 4) << "the two logged grid points replay";
}

TEST(ShardEndToEndTest, ShardedResumeComposes) {
  const std::string full = temp_path("shres_full.json");
  ASSERT_EQ(run_cli({"--threads", "2", "--json", full}), 0);
  const std::string log = temp_path("shres_log.jsonl");
  std::remove(log.c_str());
  const std::string a = temp_path("shres_a.json");
  ASSERT_EQ(run_cli({"--threads", "2", "--shard", "1/2", "--resume", log,
                     "--json", a}),
            0);
  // Re-run the same shard from its log, then merge with the other shard.
  const std::string b = temp_path("shres_b.json");
  ASSERT_EQ(run_cli({"--threads", "2", "--shard", "1/2", "--resume", log,
                     "--json", b}),
            0);
  EXPECT_EQ(read_file(a), read_file(b));
  const std::string other = temp_path("shres_other.json");
  ASSERT_EQ(
      run_cli({"--threads", "2", "--shard", "0/2", "--json", other}), 0);
  const std::string merged = temp_path("shres_merged.json");
  ASSERT_EQ(run_cli({"--merge", other, b, "--json", merged}), 0);
  EXPECT_EQ(read_file(merged), read_file(full));
}

TEST(ShardEndToEndTest, CompareGateDetectsPerturbations) {
  const std::string full = temp_path("cmp_full.json");
  ASSERT_EQ(run_cli({"--threads", "2", "--json", full}), 0);

  // Self-comparison passes, both for a run and through --merge.
  EXPECT_EQ(run_cli({"--threads", "2", "--compare", full}), 0);
  EXPECT_EQ(run_cli({"--merge", full, "--compare", full}), 0);

  // An injected metric perturbation fails the gate.
  std::string perturbed_text = read_file(full);
  const std::string needle = "\"cost\": 24";
  const std::size_t at = perturbed_text.find(needle);
  ASSERT_NE(at, std::string::npos);
  perturbed_text.replace(at, needle.size(), "\"cost\": 25");
  const std::string perturbed = temp_path("cmp_perturbed.json");
  {
    std::ofstream out(perturbed, std::ios::binary);
    out << perturbed_text;
  }
  EXPECT_EQ(run_cli({"--merge", full, "--compare", perturbed}), 1);

  // A different seed is a different workload: the gate refuses outright.
  const std::string other_seed = temp_path("cmp_seed1.json");
  ASSERT_EQ(
      run_cli({"--threads", "2", "--seed", "1", "--json", other_seed}), 0);
  EXPECT_EQ(run_cli({"--merge", other_seed, "--compare", full}), 1);
}

TEST(ShardEndToEndTest, FailsFastOnBadOutputPath) {
  g_grid_jobs.store(0);
  EXPECT_EQ(run_cli({"--json", "/nonexistent_dir_for_sure/out.json"}), 2);
  EXPECT_EQ(run_cli({"--resume", "/nonexistent_dir_for_sure/log.jsonl"}), 2);
  EXPECT_EQ(run_cli({"--compare", "/nonexistent_dir_for_sure/base.json"}),
            2);
  EXPECT_EQ(run_cli({"--shard", "5/4"}), 2);
  EXPECT_EQ(run_cli({"--merge", "--json", temp_path("never.json")}), 2);
  EXPECT_EQ(run_cli({"--shard", "0/2", "--compare", "whatever.json"}), 2);
  // Removed flags (elastic workers, scratch tiles) are not part of the
  // CLI: each is an unknown option, not a silently ignored one.
  for (const auto& [name, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"coordinate", "x"},
           {"worker", "w"},
           {"lease-timeout", "5"},
           {"scratch", "/tmp"}}) {
    const std::string flag = "--" + name;
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(run_cli({flag, value}), 2) << flag;
    EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                  "unknown option " + flag),
              std::string::npos)
        << flag;
  }
  EXPECT_EQ(g_grid_jobs.load(), 0)
      << "validation failures must not start any experiment work";
}

TEST(CheckpointLogTest, FsyncsByDefaultWithEnvOptOut) {
  using dqma::sweep::CheckpointLog;
  using dqma::sweep::JobResult;

  const auto make_log = [](const std::string& name) {
    const std::string path = temp_path(name);
    std::remove(path.c_str());
    return std::make_unique<CheckpointLog>(path, /*base_seed=*/7,
                                           /*smoke=*/true, ShardSpec{});
  };

#if defined(__unix__) || defined(__APPLE__)
  // Regression: append() used to only flush, so a committed line could die
  // with the host. The default now fsyncs every append...
  {
    const auto log = make_log("fsync_default.jsonl");
    EXPECT_TRUE(log->syncing());
    // The containing directory is fsynced at open too: a crash right after
    // creation cannot lose the log file's very existence.
    EXPECT_TRUE(log->directory_synced());
  }
  // ...and DQMA_CHECKPOINT_FSYNC=0 restores flush-only appends for
  // throughput (0 / "off" / "false"; anything else keeps the default).
  ::setenv("DQMA_CHECKPOINT_FSYNC", "0", 1);
  {
    const auto log = make_log("fsync_off.jsonl");
    EXPECT_FALSE(log->syncing());
    EXPECT_FALSE(log->directory_synced());
  }
  ::setenv("DQMA_CHECKPOINT_FSYNC", "1", 1);
  {
    const auto log = make_log("fsync_on.jsonl");
    EXPECT_TRUE(log->syncing());
    EXPECT_TRUE(log->directory_synced());
  }
  ::unsetenv("DQMA_CHECKPOINT_FSYNC");
#endif

  // Entries appended in either mode are committed and reload identically.
  const std::string path = temp_path("fsync_reload.jsonl");
  std::remove(path.c_str());
  {
    CheckpointLog log(path, 7, true, ShardSpec{});
    JobResult result;
    result.metrics.set("value", 0.5);
    log.append("exp", "series", /*order=*/0, /*key=*/42,
               ParamPoint().set("x", 1), result);
  }
  CheckpointLog reloaded(path, 7, true, ShardSpec{});
  ASSERT_EQ(reloaded.loaded_entries(), 1u);
  const CheckpointLog::Entry* entry = reloaded.find("exp", 0);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->key, 42u);
  EXPECT_EQ(entry->metrics.get_double("value"), 0.5);
}

TEST(TrajectoryTest, NonFiniteMetricsRoundTripThroughWriterAndReader) {
  // The writer emits null for inf/nan (json.cpp: RFC 8259 has no non-finite
  // literals); the reader maps null back to NaN; the comparison gate treats
  // NaN == NaN as equivalent. This pins the full cycle: the FIRST
  // serialization collapses every non-finite to null, and from then on the
  // round trip is exact — resumed/merged/compared documents never drift.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

  Trajectory original;
  original.base_seed = 3;
  ExperimentRecord record;
  record.name = "exp";
  record.description = "non-finite metrics";
  SinkPoint point;
  point.params.set("n", 1);
  point.metrics.set("nan_metric", kNaN)
      .set("pos_inf", kInf)
      .set("neg_inf", -kInf)
      .set("finite", 0.25);
  record.points.push_back(point);
  original.experiments.push_back(record);

  const std::string bytes = original.to_json().dump_compact();
  // All three non-finites serialize as null; the finite value survives.
  EXPECT_NE(bytes.find("\"nan_metric\":null"), std::string::npos) << bytes;
  EXPECT_NE(bytes.find("\"pos_inf\":null"), std::string::npos);
  EXPECT_NE(bytes.find("\"neg_inf\":null"), std::string::npos);
  EXPECT_NE(bytes.find("\"finite\":0.25"), std::string::npos);

  const Trajectory parsed =
      Trajectory::from_json(dqma::util::json::parse(bytes));
  const auto& metrics = parsed.experiments.at(0).points.at(0).metrics;
  EXPECT_TRUE(std::isnan(metrics.get_double("nan_metric")));
  EXPECT_TRUE(std::isnan(metrics.get_double("pos_inf")));
  EXPECT_EQ(metrics.get_double("finite"), 0.25);

  std::ostringstream diag;
  // NaN round-trips losslessly; the infinities collapsed to NaN, so
  // comparing the in-memory original against its round trip flags exactly
  // the two inf metrics and nothing else.
  EXPECT_EQ(compare_trajectories(original, parsed, CompareOptions{}, diag),
            2u)
      << diag.str();

  // After the first pass the cycle is a fixed point: bytes are stable and
  // the comparison gate reports zero differences.
  const std::string bytes_again = parsed.to_json().dump_compact();
  EXPECT_EQ(bytes, bytes_again);
  const Trajectory reparsed =
      Trajectory::from_json(dqma::util::json::parse(bytes_again));
  EXPECT_EQ(compare_trajectories(parsed, reparsed, CompareOptions{}, diag),
            0u)
      << diag.str();
}

TEST(CompareTrajectoriesTest, TolerancePolicyPerMetricType) {
  const auto make = [](double floating, long long counter) {
    Trajectory t;
    ExperimentRecord record;
    record.name = "exp";
    record.description = "d";
    SinkPoint point;
    point.params.set("n", 1);
    point.metrics.set("floating", floating).set("counter", counter);
    record.points.push_back(point);
    t.experiments.push_back(record);
    return t;
  };

  std::ostringstream diag;
  // Within relative tolerance: equivalent.
  EXPECT_EQ(compare_trajectories(make(1.0, 5), make(1.0 + 1e-12, 5),
                                 CompareOptions{}, diag),
            0u);
  // Beyond it: flagged.
  EXPECT_EQ(compare_trajectories(make(1.0, 5), make(1.0 + 1e-6, 5),
                                 CompareOptions{}, diag),
            1u);
  // Integer metrics are exact, however small the drift.
  EXPECT_EQ(compare_trajectories(make(1.0, 5), make(1.0, 6),
                                 CompareOptions{}, diag),
            1u);
  // A custom tolerance loosens the floating policy only.
  CompareOptions loose;
  loose.tolerance = 1e-3;
  EXPECT_EQ(compare_trajectories(make(1.0, 5), make(1.0 + 1e-6, 5), loose,
                                 diag),
            0u);
}

TEST(TrajectoryTest, RejectsMalformedDocuments) {
  using dqma::util::json::parse;
  EXPECT_THROW(Trajectory::from_json(parse("[]")), std::invalid_argument);
  EXPECT_THROW(Trajectory::from_json(parse("{\"schema_version\": 2}")),
               std::invalid_argument);
  EXPECT_THROW(
      Trajectory::from_json(parse("{\"schema_version\": 1, \"config\": "
                                  "{\"smoke\": true}}")),
      std::invalid_argument);
  EXPECT_THROW(Trajectory::load(temp_path("does_not_exist.json")),
               std::invalid_argument);
}

TEST(TrajectoryTest, MergeRejectsDuplicateAndMissingShards) {
  const std::string s0 = temp_path("mt_s0.json");
  const std::string s1 = temp_path("mt_s1.json");
  ASSERT_EQ(run_cli({"--threads", "2", "--shard", "0/2", "--json", s0}), 0);
  ASSERT_EQ(run_cli({"--threads", "2", "--shard", "1/2", "--json", s1}), 0);

  std::vector<Trajectory> duplicate;
  duplicate.push_back(Trajectory::load(s0));
  duplicate.push_back(Trajectory::load(s0));
  duplicate.push_back(Trajectory::load(s1));
  EXPECT_THROW(merge_trajectories(std::move(duplicate)),
               std::invalid_argument);

  std::vector<Trajectory> missing;
  missing.push_back(Trajectory::load(s0));
  EXPECT_THROW(merge_trajectories(std::move(missing)),
               std::invalid_argument);
}

}  // namespace
