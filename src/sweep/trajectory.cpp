#include "sweep/trajectory.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>

#include "util/json_reader.hpp"
#include "util/require.hpp"

namespace dqma::sweep {

using util::json::Node;

Value value_from_json(const Node& node) {
  switch (node.kind()) {
    case Node::Kind::kBool:
      return Value(node.as_bool());
    case Node::Kind::kInt:
      return Value(node.as_int());
    case Node::Kind::kDouble:
      return Value(node.as_double());
    case Node::Kind::kString:
      return Value(node.as_string());
    case Node::Kind::kNull:
      // The writer emits null for non-finite doubles; NaN maps back to
      // null on re-serialization, closing the round trip.
      return Value(std::numeric_limits<double>::quiet_NaN());
    default:
      util::require(false,
                    "trajectory: unsupported value kind (nested or uint64 "
                    "param/metric)");
      return Value(false);
  }
}

NamedValues named_values_from_json(const Node& node) {
  NamedValues values;
  for (const auto& [name, value] : node.members()) {
    values.set(name, value_from_json(value));
  }
  return values;
}

Trajectory Trajectory::from_json(const Node& document) {
  Trajectory trajectory;
  util::require(document.is_object() &&
                    document.find("schema_version") != nullptr,
                "trajectory: not a trajectory document");
  util::require(document.at("schema_version").as_int() == 1,
                "trajectory: unsupported schema_version");

  const Node& config = document.at("config");
  trajectory.smoke = config.at("smoke").as_bool();
  trajectory.base_seed = config.at("base_seed").as_uint();
  if (const Node* shard = config.find("shard")) {
    trajectory.shard = ShardSpec::parse(shard->as_string());
  }

  for (const Node& record : document.at("experiments").items()) {
    ExperimentRecord experiment;
    experiment.name = record.at("name").as_string();
    experiment.description = record.at("description").as_string();
    if (const Node* wall = record.find("wall_ms")) {
      experiment.wall_ms = wall->as_double();
      trajectory.has_timings = true;
    }
    const auto& points = record.at("points").items();
    experiment.points.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Node& point = points[i];
      SinkPoint sink_point;
      sink_point.order =
          point.find("order") != nullptr
              ? static_cast<std::size_t>(point.at("order").as_uint())
              : i;
      sink_point.params = named_values_from_json(point.at("params"));
      sink_point.metrics = named_values_from_json(point.at("metrics"));
      if (const Node* wall = point.find("wall_ms")) {
        sink_point.wall_ms = wall->as_double();
        trajectory.has_timings = true;
      }
      experiment.points.push_back(std::move(sink_point));
    }
    trajectory.experiments.push_back(std::move(experiment));
  }
  return trajectory;
}

Trajectory Trajectory::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  util::require(static_cast<bool>(in), "cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return from_json(util::json::parse(buffer.str()));
  } catch (const std::invalid_argument& error) {
    util::require(false, path + ": " + error.what());
    throw;  // unreachable
  }
}

Json Trajectory::to_json() const {
  ResultSink::WriteOptions options;
  options.smoke = smoke;
  options.base_seed = base_seed;
  options.include_timings = has_timings;
  options.shard_index = shard.index;
  options.shard_count = shard.count;
  return trajectory_to_json(experiments, options);
}

Trajectory merge_trajectories(std::vector<Trajectory> shards) {
  util::require(!shards.empty(), "merge: no input documents");
  Trajectory merged = std::move(shards.front());

  for (std::size_t s = 1; s < shards.size(); ++s) {
    Trajectory& shard = shards[s];
    util::require(shard.smoke == merged.smoke &&
                      shard.base_seed == merged.base_seed,
                  "merge: shard configs disagree (smoke/base_seed)");
    util::require(shard.has_timings == merged.has_timings,
                  "merge: cannot mix --timings and untimed shards");
    util::require(shard.shard.count == merged.shard.count,
                  "merge: shard counts disagree");
    util::require(shard.experiments.size() == merged.experiments.size(),
                  "merge: shards ran different experiment selections");
    for (std::size_t e = 0; e < merged.experiments.size(); ++e) {
      ExperimentRecord& into = merged.experiments[e];
      ExperimentRecord& from = shard.experiments[e];
      util::require(into.name == from.name &&
                        into.description == from.description,
                    "merge: experiment sequence mismatch at '" + into.name +
                        "' vs '" + from.name + "'");
      into.wall_ms += from.wall_ms;
      into.points.insert(into.points.end(),
                         std::make_move_iterator(from.points.begin()),
                         std::make_move_iterator(from.points.end()));
    }
  }

  for (ExperimentRecord& experiment : merged.experiments) {
    std::sort(experiment.points.begin(), experiment.points.end(),
              [](const SinkPoint& a, const SinkPoint& b) {
                return a.order < b.order;
              });
    for (std::size_t i = 0; i < experiment.points.size(); ++i) {
      const std::size_t order = experiment.points[i].order;
      util::require(order >= i,
                    "merge: duplicate point order " + std::to_string(order) +
                        " in experiment " + experiment.name +
                        " (same shard merged twice?)");
      util::require(order <= i,
                    "merge: missing point order " + std::to_string(i) +
                        " in experiment " + experiment.name +
                        " (a shard is absent from the merge)");
    }
  }

  merged.shard = ShardSpec{};  // the canonical complete document
  return merged;
}

namespace {

const char* value_type_name(const Value& value) {
  switch (value.index()) {
    case 0:
      return "bool";
    case 1:
      return "int";
    case 2:
      return "double";
    default:
      return "string";
  }
}

bool is_numeric(const Value& value) {
  return value.index() == 1 || value.index() == 2;
}

/// The per-metric tolerance policy: exact for bool/string and for
/// integer-vs-integer (counters, integer checksums); relative tolerance as
/// soon as either side is floating.
bool values_equivalent(const Value& baseline, const Value& current,
                       double tolerance) {
  if (baseline.index() == current.index() && !is_numeric(baseline)) {
    return baseline == current;
  }
  if (!is_numeric(baseline) || !is_numeric(current)) {
    return false;
  }
  if (baseline.index() == 1 && current.index() == 1) {
    return std::get<long long>(baseline) == std::get<long long>(current);
  }
  const double a = baseline.index() == 1
                       ? static_cast<double>(std::get<long long>(baseline))
                       : std::get<double>(baseline);
  const double b = current.index() == 1
                       ? static_cast<double>(std::get<long long>(current))
                       : std::get<double>(current);
  if (std::isnan(a) || std::isnan(b)) {
    return std::isnan(a) && std::isnan(b);
  }
  if (a == b) {
    return true;
  }
  // Relative above magnitude 1, absolute below: a baseline value of
  // exactly 0.0 must tolerate another toolchain's 1e-17, and acceptance
  // probabilities / soundness errors all live on the O(1) scale.
  return std::abs(a - b) <=
         tolerance * std::max({1.0, std::abs(a), std::abs(b)});
}

/// Emits at most kMaxDiagnostics lines; the return value still counts
/// every difference.
constexpr std::size_t kMaxDiagnostics = 50;

class DiffReporter {
 public:
  explicit DiffReporter(std::ostream& diag) : diag_(diag) {}

  void report(const std::string& message) {
    ++count_;
    if (count_ <= kMaxDiagnostics) {
      diag_ << "compare: " << message << "\n";
    } else if (count_ == kMaxDiagnostics + 1) {
      diag_ << "compare: (further differences suppressed)\n";
    }
  }

  std::size_t count() const { return count_; }

 private:
  std::ostream& diag_;
  std::size_t count_ = 0;
};

std::string point_label(const ExperimentRecord& experiment,
                        const SinkPoint& point) {
  std::string label = experiment.name + "[" + std::to_string(point.order) +
                      "] (";
  bool first = true;
  for (const auto& [name, value] : point.params.entries()) {
    if (!first) {
      label += ", ";
    }
    first = false;
    label += name + "=" + value_to_string(value);
  }
  return label + ")";
}

void compare_points(const ExperimentRecord& baseline_experiment,
                    const SinkPoint& baseline, const SinkPoint& current,
                    const CompareOptions& options, DiffReporter& reporter) {
  const std::string label = point_label(baseline_experiment, baseline);
  // serialize_identically, not ==: params that came through a JSON round
  // trip carry the int/double ambiguity (0.0 reads back as 0).
  if (!serialize_identically(baseline.params, current.params)) {
    reporter.report(label + ": params changed");
    return;
  }
  for (const auto& [name, baseline_value] : baseline.metrics.entries()) {
    const Value* current_value = current.metrics.find(name);
    if (current_value == nullptr) {
      reporter.report(label + ": metric '" + name + "' disappeared");
      continue;
    }
    if (!values_equivalent(baseline_value, *current_value,
                           options.tolerance)) {
      reporter.report(label + ": metric '" + name + "' " +
                      value_to_string(baseline_value) + " (" +
                      value_type_name(baseline_value) + ") -> " +
                      value_to_string(*current_value) + " (" +
                      value_type_name(*current_value) + ")");
    }
  }
  for (const auto& [name, value] : current.metrics.entries()) {
    if (baseline.metrics.find(name) == nullptr) {
      reporter.report(label + ": new metric '" + name +
                      "' absent from the baseline");
    }
  }
}

}  // namespace

std::size_t compare_trajectories(const Trajectory& baseline,
                                 const Trajectory& current,
                                 const CompareOptions& options,
                                 std::ostream& diag) {
  DiffReporter reporter(diag);

  if (baseline.smoke != current.smoke ||
      baseline.base_seed != current.base_seed) {
    reporter.report(
        "config mismatch: baseline (smoke " +
        std::string(baseline.smoke ? "true" : "false") + ", seed " +
        std::to_string(baseline.base_seed) + ") vs current (smoke " +
        std::string(current.smoke ? "true" : "false") + ", seed " +
        std::to_string(current.base_seed) +
        ") — these are different workloads");
    return reporter.count();
  }
  if (baseline.shard.active() || current.shard.active()) {
    reporter.report("shard documents cannot be compared (merge them first)");
    return reporter.count();
  }

  for (const ExperimentRecord& baseline_experiment : baseline.experiments) {
    const ExperimentRecord* current_experiment = nullptr;
    for (const ExperimentRecord& candidate : current.experiments) {
      if (candidate.name == baseline_experiment.name) {
        current_experiment = &candidate;
        break;
      }
    }
    if (current_experiment == nullptr) {
      if (!options.allow_missing_experiments) {
        reporter.report("experiment '" + baseline_experiment.name +
                        "' missing from the current run");
      }
      continue;
    }
    if (baseline_experiment.points.size() !=
        current_experiment->points.size()) {
      reporter.report(
          "experiment '" + baseline_experiment.name + "': point count " +
          std::to_string(baseline_experiment.points.size()) + " -> " +
          std::to_string(current_experiment->points.size()));
      continue;
    }
    for (std::size_t i = 0; i < baseline_experiment.points.size(); ++i) {
      compare_points(baseline_experiment, baseline_experiment.points[i],
                     current_experiment->points[i], options, reporter);
    }
  }

  for (const ExperimentRecord& current_experiment : current.experiments) {
    bool known = false;
    for (const ExperimentRecord& candidate : baseline.experiments) {
      if (candidate.name == current_experiment.name) {
        known = true;
        break;
      }
    }
    if (!known) {
      reporter.report("experiment '" + current_experiment.name +
                      "' absent from the baseline (refresh it?)");
    }
  }

  return reporter.count();
}

}  // namespace dqma::sweep
