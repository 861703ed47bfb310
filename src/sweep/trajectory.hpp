// The schema_version-1 trajectory document as data: parsing (via the
// dependency-free util/json_reader), shard merging, and the baseline
// comparison behind `dqma_bench --compare`.
//
// Round-trip contract: Trajectory::from_json(parse(bytes)).to_json()
// reproduces `bytes` for any document this repo's writer emitted —
// integers stay integers, doubles re-serialize to the identical shortest
// form, key order is preserved. That is what makes the CI gate
// "merge of N shards == unsharded run, byte for byte" a plain `cmp`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sweep/result_sink.hpp"
#include "sweep/shard.hpp"
#include "sweep/sweep.hpp"

namespace dqma::util::json {
class Node;
}  // namespace dqma::util::json

namespace dqma::sweep {

/// Converts a parsed JSON scalar to the matching sweep Value. Integral
/// literals map to long long, fraction/exponent literals to double,
/// null to NaN (the writer emits null for non-finite doubles, so this is
/// the inverse that keeps re-serialization byte-stable).
Value value_from_json(const util::json::Node& node);

/// An object of scalars -> NamedValues, document order preserved.
NamedValues named_values_from_json(const util::json::Node& node);

/// A parsed (or about-to-be-written) trajectory document.
struct Trajectory {
  bool smoke = false;
  std::uint64_t base_seed = 0;
  /// True when the document carries wall_ms fields (--timings runs).
  bool has_timings = false;
  /// count > 1 for shard documents; points then carry canonical orders.
  ShardSpec shard;
  std::vector<ExperimentRecord> experiments;

  /// Validates schema_version 1 and the document shape; throws
  /// std::invalid_argument (util::require) on anything unexpected.
  static Trajectory from_json(const util::json::Node& document);
  /// Reads and parses a file; errors mention the path.
  static Trajectory load(const std::string& path);

  Json to_json() const;
};

/// Reassembles shard documents into the canonical complete trajectory:
/// experiments must agree across inputs, configs must match, and the
/// union of point orders per experiment must be exactly 0..n-1 (missing
/// or duplicated orders — a lost or double-counted shard — throw).
/// Passing a single complete document is the identity, which is what lets
/// `--merge one.json --compare baseline.json` act as a file-vs-file diff.
Trajectory merge_trajectories(std::vector<Trajectory> shards);

struct CompareOptions {
  /// Tolerance for floating-point metrics: |a - b| <= tol * max(1, |a|,
  /// |b|) — relative above magnitude 1, absolute below it (so an exact
  /// 0.0 baseline tolerates another toolchain's 1e-17). Integer, boolean
  /// and string metrics always compare exactly (checksums, counters,
  /// labels); a metric is floating when either side carries a fractional
  /// literal.
  double tolerance = 1e-9;
  /// When a subset of experiments was selected (--experiment <name>),
  /// baseline experiments absent from the current run are skipped instead
  /// of failing the comparison.
  bool allow_missing_experiments = false;
};

/// Diffs `current` against `baseline` point by point: configs must match,
/// params must match exactly, metrics compare under the tolerance policy.
/// wall_ms fields (the nondeterministic ones) are ignored. Returns the
/// number of differences, writing one diagnostic line each to `diag`.
std::size_t compare_trajectories(const Trajectory& baseline,
                                 const Trajectory& current,
                                 const CompareOptions& options,
                                 std::ostream& diag);

}  // namespace dqma::sweep
