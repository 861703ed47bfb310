// The experiment registry behind the unified `dqma_bench` driver: every
// bench/ table harness registers itself here as a named experiment, and
// the driver runs them through cli_main.
//
// Seed namespacing: every experiment gets base seed
// derive_seed(global_seed, fnv1a64(name)), and every sweep within it
// derive_seed(experiment_seed, fnv1a64(series)). Seeds therefore depend
// only on (global seed, experiment name, series name, job index) — never
// on which experiments are selected, how many threads run, or the order
// sections execute — so `--experiment all` and `--experiment table2_eq`
// agree on every recorded value.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sweep/result_sink.hpp"
#include "sweep/shard.hpp"
#include "sweep/sweep.hpp"
#include "sweep/thread_pool.hpp"

namespace dqma::sweep {

class ExperimentContext;

/// Shard/resume state shared by every experiment of one driver run. The
/// default (an inactive ShardSpec, which contains every key, and no
/// checkpoint log) is the monolithic run, whose behavior and bytes are
/// unchanged.
struct RunControls {
  ShardSpec shard;
  CheckpointLog* checkpoint = nullptr;
};

/// How a series partitions across shards (`--shard i/N`). Every mode
/// preserves per-job seeding exactly; they differ only in which shard
/// EXECUTES and which shard RECORDS each point.
struct SweepPolicy {
  enum class Mode {
    /// Each point is its own shard unit, keyed by its RNG seed
    /// derive_seed(series_seed, index). Other shards skip the point
    /// entirely; its JobResult comes back `skipped` with empty metrics,
    /// so table-rendering loops must guard before reading. The default,
    /// and the right choice for every expensive self-contained series.
    kPartition,
    /// Every shard executes all points but records only the ones it owns
    /// (same per-point keys). For cheap closed-form series whose results
    /// feed cross-point post-processing in the experiment body (ratio
    /// columns, derived ctx.record points): the body sees complete
    /// results in every shard, while each point still lands in exactly
    /// one document.
    kReplicate,
    /// Points sharing a value of `group_param` form one all-or-nothing
    /// shard unit (key = derive_seed(series_seed, fnv1a64(value))), so a
    /// reduction over the group can run — and record_owned() its derived
    /// point — in the one shard that has the whole group.
    kGroupBy,
  };

  Mode mode = Mode::kPartition;
  std::string group_param;

  static SweepPolicy partition() { return {}; }
  static SweepPolicy replicate() { return {Mode::kReplicate, {}}; }
  static SweepPolicy group_by(std::string param) {
    return {Mode::kGroupBy, std::move(param)};
  }
};

/// A registered experiment: a stable name (used in CLI selection, JSON and
/// seed derivation), a one-line description, and the body.
struct Experiment {
  std::string name;
  std::string description;
  std::function<void(ExperimentContext&)> run;
};

/// Registers an experiment. Duplicate names are rejected.
void register_experiment(Experiment experiment);

/// All registered experiments, in registration order.
const std::vector<Experiment>& experiments();

/// Everything an experiment body needs: the smoke switch, the output
/// stream for ASCII tables, and recording into the sink (directly or via
/// sweeps on the shared thread pool).
class ExperimentContext {
 public:
  ExperimentContext(const Experiment& experiment, ThreadPool& pool,
                    ResultSink& sink, std::ostream& out, bool smoke,
                    std::uint64_t global_seed,
                    const RunControls* controls = nullptr);

  bool smoke() const { return smoke_; }
  std::ostream& out() { return out_; }
  std::uint64_t base_seed() const { return base_seed_; }

  /// smoke() ? smoke_variant : full — mirrors util::smoke_select but keyed
  /// off the context (the driver's --smoke flag).
  template <typename T>
  T smoke_select(T full, T smoke_variant) const {
    return smoke_ ? smoke_variant : full;
  }

  /// Runs fn over the points on the pool (deterministic per-job seeding
  /// namespaced by `series`), records every point into the sink with the
  /// series name prepended to its params, and returns the ordered results
  /// for ASCII rendering. Under --shard, `policy` decides which points
  /// this process executes and records (see SweepPolicy); under --resume,
  /// points found in the checkpoint log are loaded instead of re-run, and
  /// every newly completed in-shard point is appended to the log.
  std::vector<JobResult> sweep(const std::string& series,
                               const std::vector<ParamPoint>& points,
                               const JobFn& fn,
                               const SweepPolicy& policy = {});
  std::vector<JobResult> sweep(const std::string& series,
                               const ParamGrid& grid, const JobFn& fn,
                               const SweepPolicy& policy = {});

  /// sweep()'s counterpart for series with a few huge points: runs fn over
  /// the points SERIALLY on the calling thread — outside the sweep pool,
  /// so the threaded kernels inside fn fan out across the kernel pool
  /// instead of being serialized by the nesting contract. Seeding, wall
  /// timing, recording and result order match sweep() exactly; a series
  /// can switch between the two without reshuffling any recorded value.
  std::vector<JobResult> serial_sweep(const std::string& series,
                                      const std::vector<ParamPoint>& points,
                                      const JobFn& fn);

  /// Records one serially-computed point (wall time optional). Under
  /// --shard the point is assigned to a shard by its own key
  /// derive_seed(series_seed, per-series record index) — correct for
  /// values every shard computes anyway (inline closed forms, replicated
  /// post-processing): each lands in exactly one document.
  void record(const std::string& series, ParamPoint params, Metrics metrics,
              double wall_ms = 0.0);

  /// record() for a derived point only THIS shard can compute (a
  /// reduction over a kGroupBy series it owns): records unconditionally.
  /// Every other shard must call skip_record() for the same series at the
  /// same place so canonical point numbering stays aligned across shards.
  void record_owned(const std::string& series, ParamPoint params,
                    Metrics metrics, double wall_ms = 0.0);

  /// Declares a point that record_owned() publishes in some other shard:
  /// advances the canonical counters without recording anything.
  void skip_record(const std::string& series);

 private:
  /// Where one point's result comes from in this process: run it here
  /// (mine, nothing cached), replay it from the checkpoint log (mine,
  /// cached), or leave it to another shard (not mine).
  struct Claim {
    bool mine = true;
    const CheckpointLog::Entry* cached = nullptr;
  };
  /// The one ownership decision behind every recording path: the shard
  /// test on the point's partition `key`, then — for checkpointed points
  /// (`params` non-null) of this shard under --resume — the log lookup at
  /// canonical `order`, verified against the job's key and params.
  Claim claim(std::size_t order, std::uint64_t key,
              const ParamPoint* params) const;
  /// sweep() and serial_sweep(): claims every point, runs the ones to run
  /// (on the pool, or serially on the calling thread), checkpoints them,
  /// and records this shard's points.
  std::vector<JobResult> run_series(const std::string& series,
                                    const std::vector<ParamPoint>& points,
                                    const JobFn& fn, const SweepPolicy& policy,
                                    bool serial);
  /// derive_seed(base_seed, fnv1a64(series)): the series' seed namespace.
  std::uint64_t series_seed(const std::string& series) const;
  /// The canonical point key of record()-style points; advances the
  /// per-series record index (shared with record_owned/skip_record so the
  /// counters agree across shards).
  std::uint64_t next_record_key(const std::string& series);
  /// Prefixes the series name and records into the sink at `order`.
  void add_to_sink(const std::string& series, const ParamPoint& params,
                   Metrics metrics, double wall_ms, std::size_t order);

  std::string name_;
  ThreadPool& pool_;
  ResultSink& sink_;
  std::ostream& out_;
  bool smoke_;
  std::uint64_t base_seed_;
  RunControls controls_;
  /// Position the NEXT recorded point would take in the canonical
  /// (unsharded) run of this experiment. Advances for every declared
  /// point — executed, resumed, or owned by another shard — so orders
  /// agree across all shards of a run.
  std::size_t next_order_ = 0;
  /// Per-series record() indices (key derivation for ad-hoc points).
  std::map<std::string, std::uint64_t> record_counts_;
};

/// Options parsed from the dqma_bench command line.
struct CliOptions {
  std::vector<std::string> experiments;  ///< empty => all
  std::string json_path;                 ///< empty => no JSON output
  int threads = 0;                       ///< 0 => hardware concurrency
  bool smoke = false;
  bool timings = false;
  std::uint64_t seed = 0;
  bool list_only = false;
  std::string shard;                      ///< "i/N"; empty => unsharded
  std::string resume_path;                ///< JSONL checkpoint log
  std::vector<std::string> merge_inputs;  ///< --merge mode when non-empty
  std::string compare_path;               ///< baseline document
  double tolerance = 1e-9;                ///< --compare floating tolerance
  std::string simd;  ///< SIMD level override; empty => DQMA_SIMD / native
};

/// Driver main: parses argv, runs the selected experiments, writes JSON
/// when requested, prints a per-experiment wall-time summary. Returns a
/// process exit code.
int cli_main(int argc, const char* const* argv);

}  // namespace dqma::sweep
