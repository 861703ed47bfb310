// Collects sweep results across experiments and renders them as the
// structured JSON document the CI perf trajectory consumes (the ASCII
// tables stay with the experiments themselves, printed via util::Table as
// the rows come back from run_sweep).
//
// JSON schema (schema_version 1, documented in README.md):
//   {
//     "schema_version": 1,
//     "generator": "dqma_bench",
//     "config": {"smoke": bool, "base_seed": int},
//     "experiments": [
//       {
//         "name": str, "description": str,
//         "points": [
//           {"params": {...}, "metrics": {...}(, "wall_ms": num)}
//         ](, "wall_ms": num)
//       }
//     ]
//   }
// The wall_ms fields appear only when timings are requested: they are the
// sole nondeterministic values, and omitting them by default keeps the
// document byte-identical across `--threads` settings.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sweep/json.hpp"
#include "sweep/sweep.hpp"

namespace dqma::sweep {

/// One recorded parameter point. `order` is the point's position in the
/// CANONICAL (unsharded) run of its experiment: a complete document holds
/// orders 0..n-1 in sequence, a shard document a disjoint subset of them.
/// Shard documents serialize the order (config carries "shard") so --merge
/// can reassemble the canonical sequence; complete documents omit it.
struct SinkPoint {
  ParamPoint params;
  Metrics metrics;
  double wall_ms = 0.0;
  std::size_t order = 0;
};

/// All points recorded by one experiment run.
struct ExperimentRecord {
  std::string name;
  std::string description;
  std::vector<SinkPoint> points;
  double wall_ms = 0.0;  ///< whole-experiment wall time
};

/// Accumulates experiment records and writes the JSON document. Not thread
/// safe: the sweep engine returns ordered results to the experiment thread,
/// which records them serially.
class ResultSink {
 public:
  /// Opens a new experiment; subsequent add_point calls attach to it.
  void begin_experiment(std::string name, std::string description);

  /// Records one point into the currently open experiment, with order =
  /// its position in that experiment (the unsharded case).
  void add_point(ParamPoint params, Metrics metrics, double wall_ms);

  /// Records one point with an explicit canonical order (shard runs, where
  /// positions owned by other shards leave holes in the local sequence).
  void add_point(ParamPoint params, Metrics metrics, double wall_ms,
                 std::size_t order);

  /// Closes the current experiment, recording its total wall time.
  void end_experiment(double wall_ms);

  const std::vector<ExperimentRecord>& experiments() const {
    return experiments_;
  }
  std::size_t point_count() const;

  struct WriteOptions {
    bool smoke = false;
    std::uint64_t base_seed = 0;
    bool include_timings = false;
    /// shard_count > 1 marks a shard document: config gains
    /// "shard": "index/count" and every point carries its canonical
    /// "order". The default (1) produces the canonical complete document,
    /// byte-identical to what pre-shard builds wrote.
    int shard_index = 0;
    int shard_count = 1;
  };

  /// Builds the schema_version-1 document described above.
  Json to_json(const WriteOptions& options) const;
  void write_json(std::ostream& os, const WriteOptions& options) const;

 private:
  std::vector<ExperimentRecord> experiments_;
  bool open_ = false;
};

/// The document builder behind ResultSink::to_json, shared with the merge
/// path (sweep/trajectory.hpp), which reassembles ExperimentRecords parsed
/// from shard files and must reproduce the canonical bytes exactly.
Json trajectory_to_json(const std::vector<ExperimentRecord>& experiments,
                        const ResultSink::WriteOptions& options);

}  // namespace dqma::sweep
