#include "sweep/registry.hpp"

#include "sweep/parallel.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <ostream>
#include <string>
#include <system_error>

#include "linalg/simd.hpp"
#include "sweep/trajectory.hpp"
#include "util/require.hpp"
#include "util/table.hpp"

namespace dqma::sweep {
namespace {

std::vector<Experiment>& registry() {
  static std::vector<Experiment> experiments;
  return experiments;
}

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

void register_experiment(Experiment experiment) {
  util::require(!experiment.name.empty(),
                "register_experiment: empty experiment name");
  for (const auto& existing : registry()) {
    util::require(existing.name != experiment.name,
                  "register_experiment: duplicate name " + experiment.name);
  }
  registry().push_back(std::move(experiment));
}

const std::vector<Experiment>& experiments() { return registry(); }

ExperimentContext::ExperimentContext(const Experiment& experiment,
                                     ThreadPool& pool, ResultSink& sink,
                                     std::ostream& out, bool smoke,
                                     std::uint64_t global_seed,
                                     const RunControls* controls)
    : name_(experiment.name),
      pool_(pool),
      sink_(sink),
      out_(out),
      smoke_(smoke),
      base_seed_(util::derive_seed(global_seed, fnv1a64(experiment.name))),
      controls_(controls != nullptr ? *controls : RunControls{}) {}

ExperimentContext::Claim ExperimentContext::claim(
    std::size_t order, std::uint64_t key, const ParamPoint* params) const {
  Claim result;
  result.mine = controls_.shard.contains(key);
  if (result.mine && params != nullptr && controls_.checkpoint != nullptr) {
    result.cached = controls_.checkpoint->find(name_, order);
    util::require(result.cached == nullptr ||
                      (result.cached->key == key &&
                       serialize_identically(result.cached->params, *params)),
                  "resume: checkpoint entry for " + name_ + "[" +
                      std::to_string(order) +
                      "] does not match this run's job (the log belongs "
                      "to a different workload)");
  }
  return result;
}

std::vector<JobResult> ExperimentContext::sweep(
    const std::string& series, const std::vector<ParamPoint>& points,
    const JobFn& fn, const SweepPolicy& policy) {
  return run_series(series, points, fn, policy, /*serial=*/false);
}

std::vector<JobResult> ExperimentContext::sweep(const std::string& series,
                                                const ParamGrid& grid,
                                                const JobFn& fn,
                                                const SweepPolicy& policy) {
  return sweep(series, grid.enumerate(), fn, policy);
}

std::vector<JobResult> ExperimentContext::serial_sweep(
    const std::string& series, const std::vector<ParamPoint>& points,
    const JobFn& fn) {
  return run_series(series, points, fn, SweepPolicy::partition(),
                    /*serial=*/true);
}

std::vector<JobResult> ExperimentContext::run_series(
    const std::string& series, const std::vector<ParamPoint>& points,
    const JobFn& fn, const SweepPolicy& policy, bool serial) {
  const std::uint64_t seed = series_seed(series);
  const std::size_t first_order = next_order_;
  next_order_ += points.size();

  // Partition keys. kPartition/kReplicate key each point by its RNG seed;
  // kGroupBy keys the whole group by its parameter value so the group is
  // all-or-nothing per shard. Seeding is identical in every mode.
  std::vector<std::uint64_t> keys(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (policy.mode == SweepPolicy::Mode::kGroupBy) {
      const Value* group = points[i].find(policy.group_param);
      util::require(group != nullptr,
                    "sweep '" + series + "': group_by param '" +
                        policy.group_param + "' missing from point");
      keys[i] = util::derive_seed(seed, fnv1a64(value_to_string(*group)));
    } else {
      keys[i] = util::derive_seed(seed, i);
    }
  }

  std::vector<JobResult> results(points.size());
  std::vector<char> mine(points.size(), 1);
  std::vector<std::size_t> to_run;
  to_run.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Claim claimed = claim(first_order + i, keys[i], &points[i]);
    mine[i] = claimed.mine ? 1 : 0;
    if (claimed.cached != nullptr) {
      results[i] = {claimed.cached->metrics, claimed.cached->wall_ms};
    } else if (claimed.mine ||
               policy.mode == SweepPolicy::Mode::kReplicate) {
      to_run.push_back(i);
    } else {
      results[i].skipped = true;
    }
  }

  CheckpointLog* log = controls_.checkpoint;
  JobCompleteFn on_complete;
  if (log != nullptr) {
    on_complete = [&](std::size_t i, const JobResult& result) {
      if (mine[i] != 0) {
        log->append(name_, series, first_order + i, keys[i], points[i],
                    result);
      }
    };
  }
  if (serial) {
    // On the calling thread, outside the sweep pool, with the per-job
    // seeding and timing of run_sweep_selected.
    for (const std::size_t i : to_run) {
      util::Rng rng(keys[i]);
      const auto start = std::chrono::steady_clock::now();
      results[i].metrics = fn(points[i], rng);
      results[i].wall_ms = elapsed_ms(start);
      if (on_complete) {
        on_complete(i, results[i]);
      }
    }
  } else {
    run_sweep_selected(pool_, points, seed, fn, to_run, results,
                       on_complete);
  }

  for (std::size_t i = 0; i < points.size(); ++i) {
    if (mine[i] != 0) {
      add_to_sink(series, points[i], results[i].metrics, results[i].wall_ms,
                  first_order + i);
    }
  }
  return results;
}

std::uint64_t ExperimentContext::series_seed(const std::string& series) const {
  return util::derive_seed(base_seed_, fnv1a64(series));
}

std::uint64_t ExperimentContext::next_record_key(const std::string& series) {
  return util::derive_seed(series_seed(series), record_counts_[series]++);
}

void ExperimentContext::add_to_sink(const std::string& series,
                                    const ParamPoint& params, Metrics metrics,
                                    double wall_ms, std::size_t order) {
  ParamPoint prefixed;
  prefixed.set("series", series);
  for (const auto& [name, value] : params.entries()) {
    prefixed.set(name, value);
  }
  sink_.add_point(std::move(prefixed), std::move(metrics), wall_ms, order);
}

void ExperimentContext::record(const std::string& series, ParamPoint params,
                               Metrics metrics, double wall_ms) {
  const std::uint64_t key = next_record_key(series);
  const std::size_t order = next_order_++;
  if (claim(order, key, nullptr).mine) {
    add_to_sink(series, params, std::move(metrics), wall_ms, order);
  }
}

void ExperimentContext::record_owned(const std::string& series,
                                     ParamPoint params, Metrics metrics,
                                     double wall_ms) {
  next_record_key(series);
  add_to_sink(series, params, std::move(metrics), wall_ms, next_order_++);
}

void ExperimentContext::skip_record(const std::string& series) {
  next_record_key(series);
  ++next_order_;
}

namespace {

void print_usage(std::ostream& os) {
  os << "Usage: dqma_bench [options]\n\n"
        "Options:\n"
        "  --experiment <name|all>  experiment(s) to run (repeatable; "
        "default all)\n"
        "  --list                   list registered experiments and exit\n"
        "  --json <path>            write structured results (schema v1); "
        "'-' for stdout\n"
        "  --threads <N>            sweep threads (default: hardware "
        "concurrency)\n"
        "  --smoke                  shrink heavy sweeps\n"
        "  --seed <N>               global base seed (default 0)\n"
        "  --timings                include nondeterministic wall_ms fields "
        "in JSON\n"
        "  --shard <i/N>            run shard i of N (0-based): a "
        "deterministic,\n"
        "                           disjoint slice of the job space; "
        "--merge of all\n"
        "                           N shard JSONs == the unsharded document\n"
        "  --resume <log.jsonl>     checkpoint log: completed points are "
        "appended as\n"
        "                           they finish and skipped on the next run\n"
        "  --merge <a.json> <b.json> ...\n"
        "                           reassemble shard documents into the "
        "canonical\n"
        "                           trajectory (write it with --json)\n"
        "  --compare <baseline.json>\n"
        "                           diff the produced document against a "
        "baseline\n"
        "                           (exact for int/bool/string metrics, "
        "relative\n"
        "                           tolerance for floating ones); exit 1 on "
        "any diff\n"
        "  --tolerance <x>          floating tolerance for --compare "
        "(default 1e-9)\n"
        "  --simd <level>           kernel dispatch level: scalar|avx2|"
        "avx512|native\n"
        "                           (default: DQMA_SIMD env var, else CPU "
        "detection)\n"
        "  --help                   this message\n";
}

bool parse_cli(int argc, const char* const* argv, CliOptions& options,
               std::string& error) {
  bool merge_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        error = std::string(flag) + " requires a value";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--experiment") {
      const char* value = next_value("--experiment");
      if (value == nullptr) return false;
      if (std::strcmp(value, "all") != 0) {
        options.experiments.emplace_back(value);
      }
    } else if (arg == "--list") {
      options.list_only = true;
    } else if (arg == "--json") {
      const char* value = next_value("--json");
      if (value == nullptr) return false;
      options.json_path = value;
    } else if (arg == "--threads") {
      const char* value = next_value("--threads");
      if (value == nullptr) return false;
      options.threads = std::atoi(value);
      if (options.threads <= 0) {
        error = "--threads requires a positive integer";
        return false;
      }
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--timings") {
      options.timings = true;
    } else if (arg == "--seed") {
      const char* value = next_value("--seed");
      if (value == nullptr) return false;
      options.seed = std::strtoull(value, nullptr, 0);
    } else if (arg == "--shard") {
      const char* value = next_value("--shard");
      if (value == nullptr) return false;
      options.shard = value;
    } else if (arg == "--resume") {
      const char* value = next_value("--resume");
      if (value == nullptr) return false;
      options.resume_path = value;
    } else if (arg == "--simd") {
      const char* value = next_value("--simd");
      if (value == nullptr) return false;
      options.simd = value;
    } else if (arg == "--compare") {
      const char* value = next_value("--compare");
      if (value == nullptr) return false;
      options.compare_path = value;
    } else if (arg == "--tolerance") {
      const char* value = next_value("--tolerance");
      if (value == nullptr) return false;
      const std::string_view text(value);
      auto [end, ec] = std::from_chars(
          text.data(), text.data() + text.size(), options.tolerance);
      if (ec != std::errc() || end != text.data() + text.size() ||
          options.tolerance < 0.0) {
        error = "--tolerance requires a non-negative number";
        return false;
      }
    } else if (arg == "--merge") {
      merge_mode = true;
    } else if (arg.rfind("--", 0) != 0 && merge_mode) {
      options.merge_inputs.push_back(arg);
    } else if (arg == "--help" || arg == "-h") {
      options.list_only = false;
      error = "help";
      return false;
    } else {
      error = "unknown option " + arg;
      return false;
    }
  }
  if (merge_mode && options.merge_inputs.empty()) {
    error = "--merge requires at least one input document";
    return false;
  }
  return true;
}

/// Fail-fast validation of paths and flag combinations, before any
/// experiment runs: a long sweep must not discover at write time that its
/// --json directory never existed.
bool validate_options(const CliOptions& options, std::string& error) {
  namespace fs = std::filesystem;
  const auto parent_exists = [](const std::string& path) {
    const fs::path parent = fs::path(path).parent_path();
    std::error_code ec;
    return parent.empty() || fs::is_directory(parent, ec);
  };

  if (!options.shard.empty()) {
    try {
      ShardSpec::parse(options.shard);
    } catch (const std::invalid_argument& e) {
      error = e.what();
      return false;
    }
  }
  if (!options.json_path.empty() && options.json_path != "-" &&
      !parent_exists(options.json_path)) {
    error = "--json: directory of '" + options.json_path +
            "' does not exist";
    return false;
  }
  if (!options.resume_path.empty() && !parent_exists(options.resume_path)) {
    error = "--resume: directory of '" + options.resume_path +
            "' does not exist";
    return false;
  }
  if (!options.compare_path.empty()) {
    std::error_code ec;
    if (!fs::is_regular_file(options.compare_path, ec)) {
      error = "--compare: baseline '" + options.compare_path +
              "' does not exist";
      return false;
    }
  }
  for (const std::string& input : options.merge_inputs) {
    std::error_code ec;
    if (!fs::is_regular_file(input, ec)) {
      error = "--merge: input '" + input + "' does not exist";
      return false;
    }
  }
  if (!options.merge_inputs.empty()) {
    if (!options.experiments.empty() || options.list_only ||
        !options.shard.empty() || !options.resume_path.empty()) {
      error = "--merge cannot be combined with --experiment/--list/--shard/"
              "--resume";
      return false;
    }
    if (options.json_path.empty() && options.compare_path.empty()) {
      error = "--merge needs --json (write the merged document) and/or "
              "--compare (diff it)";
      return false;
    }
  } else if (!options.compare_path.empty() && !options.shard.empty()) {
    error = "--compare needs a complete document; a shard run cannot be "
            "compared (merge the shards first)";
    return false;
  }
  return true;
}

/// Shared by the run and merge paths: diff `current` against the baseline
/// file, report to stderr, and return the process exit code.
int run_compare(const Trajectory& current, const CliOptions& options) {
  const Trajectory baseline = Trajectory::load(options.compare_path);
  CompareOptions compare_options;
  compare_options.tolerance = options.tolerance;
  compare_options.allow_missing_experiments = !options.experiments.empty();
  const std::size_t differences =
      compare_trajectories(baseline, current, compare_options, std::cerr);
  if (differences != 0) {
    std::cerr << "dqma_bench: " << differences
              << " difference(s) vs baseline " << options.compare_path
              << "\n";
    return 1;
  }
  std::cerr << "dqma_bench: no differences vs baseline "
            << options.compare_path << " (tolerance "
            << options.tolerance << ")\n";
  return 0;
}

int run_merge(const CliOptions& options) {
  std::vector<Trajectory> inputs;
  inputs.reserve(options.merge_inputs.size());
  for (const std::string& path : options.merge_inputs) {
    inputs.push_back(Trajectory::load(path));
  }
  const Trajectory merged = merge_trajectories(std::move(inputs));
  if (!options.json_path.empty()) {
    const Json document = merged.to_json();
    if (options.json_path == "-") {
      document.write(std::cout);
    } else {
      std::ofstream file(options.json_path);
      util::require(static_cast<bool>(file),
                    "cannot open " + options.json_path + " for writing");
      document.write(file);
      std::cout << "Merged " << options.merge_inputs.size()
                << " document(s) into " << options.json_path << "\n";
    }
  }
  if (!options.compare_path.empty()) {
    return run_compare(merged, options);
  }
  return 0;
}

}  // namespace

int cli_main(int argc, const char* const* argv) {
  CliOptions options;
  std::string error;
  if (!parse_cli(argc, argv, options, error)) {
    if (error == "help") {
      print_usage(std::cout);
      return 0;
    }
    std::cerr << "dqma_bench: " << error << "\n";
    print_usage(std::cerr);
    return 2;
  }
  if (!validate_options(options, error)) {
    std::cerr << "dqma_bench: " << error << "\n";
    return 2;
  }
  // SIMD dispatch resolution (--simd over DQMA_SIMD over CPU detection),
  // up front so a bad level name or an unsupported request fails here with
  // a readable message instead of inside a kernel.
  try {
    linalg::simd::resolve_startup(options.simd);
  } catch (const std::exception& e) {
    std::cerr << "dqma_bench: " << e.what() << "\n";
    return 2;
  }
  if (!options.merge_inputs.empty()) {
    try {
      return run_merge(options);
    } catch (const std::exception& e) {
      std::cerr << "dqma_bench: " << e.what() << "\n";
      return 1;
    }
  }

  if (options.list_only) {
    for (const auto& experiment : experiments()) {
      std::cout << experiment.name << "  " << experiment.description << "\n";
    }
    return 0;
  }

  // Resolve the selection (default: all, in registration order).
  std::vector<const Experiment*> selected;
  if (options.experiments.empty()) {
    for (const auto& experiment : experiments()) {
      selected.push_back(&experiment);
    }
  } else {
    for (const auto& name : options.experiments) {
      const Experiment* found = nullptr;
      for (const auto& experiment : experiments()) {
        if (experiment.name == name) {
          found = &experiment;
          break;
        }
      }
      if (found == nullptr) {
        std::cerr << "dqma_bench: unknown experiment '" << name
                  << "' (--list shows the registry)\n";
        return 2;
      }
      // Dedup repeated selections: experiment names are the JSON
      // document's only identifier, so each may appear at most once.
      if (std::find(selected.begin(), selected.end(), found) ==
          selected.end()) {
        selected.push_back(found);
      }
    }
  }

  ThreadPool pool(options.threads);
  // Second parallelism level: kernels dispatched OUTSIDE sweep jobs (serial
  // heavy-point loops, analyzer construction on the main thread) fan out
  // across the same --threads budget; kernels inside sweep jobs stay serial
  // (sweep/parallel.hpp nesting contract), so the two levels never
  // oversubscribe each other.
  set_kernel_threads(options.threads);

  ResultSink sink;
  const bool json_to_stdout = options.json_path == "-";
  std::ostream& out = std::cout;

  RunControls controls;
  std::optional<CheckpointLog> checkpoint;
  if (!options.shard.empty()) {
    controls.shard = ShardSpec::parse(options.shard);
  }
  if (!options.resume_path.empty()) {
    try {
      checkpoint.emplace(options.resume_path, options.seed, options.smoke,
                         controls.shard);
    } catch (const std::exception& e) {
      std::cerr << "dqma_bench: " << e.what() << "\n";
      return 1;
    }
    controls.checkpoint = &*checkpoint;
    if (checkpoint->loaded_entries() > 0 && !json_to_stdout) {
      out << "Resuming from " << options.resume_path << ": "
          << checkpoint->loaded_entries() << " completed point(s)\n";
    }
  }

  util::Table summary({"experiment", "points", "wall (ms)"});
  for (const Experiment* experiment : selected) {
    if (!json_to_stdout) {
      out << "==== experiment: " << experiment->name << " ====\n"
          << experiment->description << "\n";
    }
    sink.begin_experiment(experiment->name, experiment->description);
    const std::size_t points_before = sink.point_count();
    const auto start = std::chrono::steady_clock::now();
    if (json_to_stdout) {
      // Suppress ASCII tables so stdout stays a valid JSON document.
      std::ofstream null_stream;
      null_stream.setstate(std::ios_base::badbit);
      ExperimentContext context(*experiment, pool, sink, null_stream,
                                options.smoke, options.seed, &controls);
      experiment->run(context);
    } else {
      ExperimentContext context(*experiment, pool, sink, out, options.smoke,
                                options.seed, &controls);
      experiment->run(context);
    }
    const double wall = elapsed_ms(start);
    sink.end_experiment(wall);
    summary.add_row({experiment->name,
                     util::Table::fmt(static_cast<long long>(
                         sink.point_count() - points_before)),
                     util::Table::fmt(static_cast<long long>(wall + 0.5))});
  }

  if (!json_to_stdout) {
    out << "\n";
    util::print_banner(out, "summary",
                       "Wall-clock per experiment at --threads " +
                           std::to_string(pool.thread_count()) +
                           (options.smoke ? " (smoke mode)" : "") + ".");
    summary.print(out);
  }

  if (!options.json_path.empty()) {
    const ResultSink::WriteOptions write_options{
        options.smoke,          options.seed,
        options.timings,        controls.shard.index,
        controls.shard.count};
    if (json_to_stdout) {
      sink.write_json(std::cout, write_options);
    } else {
      std::ofstream file(options.json_path);
      if (!file) {
        std::cerr << "dqma_bench: cannot open " << options.json_path
                  << " for writing\n";
        return 1;
      }
      sink.write_json(file, write_options);
      out << "\nWrote " << sink.point_count() << " points ("
          << selected.size() << " experiments) to " << options.json_path
          << (controls.shard.active()
                  ? " (shard " + controls.shard.label() + ")"
                  : "")
          << "\n";
    }
  }

  if (!options.compare_path.empty()) {
    Trajectory current;
    current.smoke = options.smoke;
    current.base_seed = options.seed;
    current.has_timings = options.timings;
    current.experiments = sink.experiments();
    try {
      return run_compare(current, options);
    } catch (const std::exception& e) {
      std::cerr << "dqma_bench: " << e.what() << "\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace dqma::sweep
