#include "sweep/result_sink.hpp"

#include <ostream>
#include <utility>

#include "util/require.hpp"

namespace dqma::sweep {

void ResultSink::begin_experiment(std::string name, std::string description) {
  util::require(!open_, "ResultSink: previous experiment still open");
  ExperimentRecord record;
  record.name = std::move(name);
  record.description = std::move(description);
  experiments_.push_back(std::move(record));
  open_ = true;
}

void ResultSink::add_point(ParamPoint params, Metrics metrics,
                           double wall_ms) {
  util::require(open_, "ResultSink::add_point: no open experiment");
  add_point(std::move(params), std::move(metrics), wall_ms,
            experiments_.back().points.size());
}

void ResultSink::add_point(ParamPoint params, Metrics metrics, double wall_ms,
                           std::size_t order) {
  util::require(open_, "ResultSink::add_point: no open experiment");
  experiments_.back().points.push_back(
      {std::move(params), std::move(metrics), wall_ms, order});
}

void ResultSink::end_experiment(double wall_ms) {
  util::require(open_, "ResultSink::end_experiment: no open experiment");
  experiments_.back().wall_ms = wall_ms;
  open_ = false;
}

std::size_t ResultSink::point_count() const {
  std::size_t total = 0;
  for (const auto& experiment : experiments_) {
    total += experiment.points.size();
  }
  return total;
}

Json ResultSink::to_json(const WriteOptions& options) const {
  return trajectory_to_json(experiments_, options);
}

Json trajectory_to_json(const std::vector<ExperimentRecord>& records,
                        const ResultSink::WriteOptions& options) {
  // A shard document records a subset of the canonical points, so each
  // must carry its order.
  const bool sharded = options.shard_count > 1;
  Json config = Json::object();
  config.add("smoke", Json(options.smoke));
  config.add("base_seed", Json(options.base_seed));
  if (sharded) {
    config.add("shard", Json(std::to_string(options.shard_index) + "/" +
                             std::to_string(options.shard_count)));
  }

  Json experiments = Json::array();
  for (const auto& experiment : records) {
    Json points = Json::array();
    for (const auto& point : experiment.points) {
      Json entry = Json::object();
      if (sharded) {
        entry.add("order", Json(static_cast<std::uint64_t>(point.order)));
      }
      entry.add("params", Json::from_named_values(point.params));
      entry.add("metrics", Json::from_named_values(point.metrics));
      if (options.include_timings) {
        entry.add("wall_ms", Json(point.wall_ms));
      }
      points.push_back(std::move(entry));
    }
    Json record = Json::object();
    record.add("name", Json(experiment.name));
    record.add("description", Json(experiment.description));
    record.add("points", std::move(points));
    if (options.include_timings) {
      record.add("wall_ms", Json(experiment.wall_ms));
    }
    experiments.push_back(std::move(record));
  }

  Json document = Json::object();
  document.add("schema_version", Json(1));
  document.add("generator", Json("dqma_bench"));
  document.add("config", std::move(config));
  document.add("experiments", std::move(experiments));
  return document;
}

void ResultSink::write_json(std::ostream& os,
                            const WriteOptions& options) const {
  to_json(options).write(os);
}

}  // namespace dqma::sweep
