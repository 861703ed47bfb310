#include "sweep/sweep.hpp"

#include <charconv>
#include <chrono>

#include "util/require.hpp"

namespace dqma::sweep {

std::string value_to_string(const Value& value) {
  switch (value.index()) {
    case 0:
      return std::get<bool>(value) ? "true" : "false";
    case 1:
      return std::to_string(std::get<long long>(value));
    case 2: {
      // Shortest round-trip form: deterministic across runs and thread
      // counts, and re-parses to the identical double.
      char buffer[32];
      const double d = std::get<double>(value);
      const auto [end, ec] =
          std::to_chars(buffer, buffer + sizeof(buffer), d);
      util::require(ec == std::errc(), "value_to_string: to_chars failed");
      return std::string(buffer, end);
    }
    default:
      return std::get<std::string>(value);
  }
}

NamedValues& NamedValues::set(std::string name, Value value) {
  entries_.emplace_back(std::move(name), std::move(value));
  return *this;
}
NamedValues& NamedValues::set(std::string name, bool value) {
  return set(std::move(name), Value(value));
}
NamedValues& NamedValues::set(std::string name, int value) {
  return set(std::move(name), Value(static_cast<long long>(value)));
}
NamedValues& NamedValues::set(std::string name, long long value) {
  return set(std::move(name), Value(value));
}
NamedValues& NamedValues::set(std::string name, double value) {
  return set(std::move(name), Value(value));
}
NamedValues& NamedValues::set(std::string name, const char* value) {
  return set(std::move(name), Value(std::string(value)));
}
NamedValues& NamedValues::set(std::string name, std::string value) {
  return set(std::move(name), Value(std::move(value)));
}

const Value* NamedValues::find(std::string_view name) const {
  for (const auto& [key, value] : entries_) {
    if (key == name) {
      return &value;
    }
  }
  return nullptr;
}

bool NamedValues::get_bool(std::string_view name) const {
  const Value* v = find(name);
  util::require(v != nullptr && std::holds_alternative<bool>(*v),
          "NamedValues::get_bool: missing or non-bool entry");
  return std::get<bool>(*v);
}

long long NamedValues::get_int(std::string_view name) const {
  const Value* v = find(name);
  util::require(v != nullptr && std::holds_alternative<long long>(*v),
          "NamedValues::get_int: missing or non-integer entry");
  return std::get<long long>(*v);
}

double NamedValues::get_double(std::string_view name) const {
  const Value* v = find(name);
  util::require(v != nullptr, "NamedValues::get_double: missing entry");
  if (std::holds_alternative<long long>(*v)) {
    return static_cast<double>(std::get<long long>(*v));
  }
  util::require(std::holds_alternative<double>(*v),
          "NamedValues::get_double: non-numeric entry");
  return std::get<double>(*v);
}

const std::string& NamedValues::get_string(std::string_view name) const {
  const Value* v = find(name);
  util::require(v != nullptr && std::holds_alternative<std::string>(*v),
          "NamedValues::get_string: missing or non-string entry");
  return std::get<std::string>(*v);
}

ParamGrid& ParamGrid::axis(std::string name, std::vector<Value> values) {
  util::require(!values.empty(), "ParamGrid::axis: empty axis");
  axes_.emplace_back(std::move(name), std::move(values));
  return *this;
}
ParamGrid& ParamGrid::axis(std::string name, std::vector<int> values) {
  std::vector<Value> converted;
  converted.reserve(values.size());
  for (int v : values) converted.emplace_back(static_cast<long long>(v));
  return axis(std::move(name), std::move(converted));
}
ParamGrid& ParamGrid::axis(std::string name, std::vector<long long> values) {
  std::vector<Value> converted(values.begin(), values.end());
  return axis(std::move(name), std::move(converted));
}
ParamGrid& ParamGrid::axis(std::string name, std::vector<double> values) {
  std::vector<Value> converted(values.begin(), values.end());
  return axis(std::move(name), std::move(converted));
}
ParamGrid& ParamGrid::axis(std::string name,
                           std::vector<std::string> values) {
  std::vector<Value> converted;
  converted.reserve(values.size());
  for (auto& v : values) converted.emplace_back(std::move(v));
  return axis(std::move(name), std::move(converted));
}

std::size_t ParamGrid::size() const {
  std::size_t total = axes_.empty() ? 0 : 1;
  for (const auto& [name, values] : axes_) {
    total *= values.size();
  }
  return total;
}

std::vector<ParamPoint> ParamGrid::enumerate() const {
  std::vector<ParamPoint> points;
  const std::size_t total = size();
  points.reserve(total);
  for (std::size_t index = 0; index < total; ++index) {
    // Mixed-radix decomposition, last axis fastest.
    ParamPoint point;
    std::size_t stride = total;
    std::size_t rest = index;
    for (const auto& [name, values] : axes_) {
      stride /= values.size();
      point.set(name, values[rest / stride]);
      rest %= stride;
    }
    points.push_back(std::move(point));
  }
  return points;
}

std::vector<JobResult> run_sweep(ThreadPool& pool,
                                 const std::vector<ParamPoint>& points,
                                 std::uint64_t base_seed, const JobFn& fn) {
  std::vector<JobResult> results(points.size());
  std::vector<std::size_t> all(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    all[i] = i;
  }
  run_sweep_selected(pool, points, base_seed, fn, all, results);
  return results;
}

void run_sweep_selected(ThreadPool& pool,
                        const std::vector<ParamPoint>& points,
                        std::uint64_t base_seed, const JobFn& fn,
                        const std::vector<std::size_t>& selected,
                        std::vector<JobResult>& results,
                        const JobCompleteFn& on_complete) {
  util::require(results.size() == points.size(),
                "run_sweep_selected: results/points size mismatch");
  pool.run_indexed(selected.size(), [&](std::size_t slot) {
    const std::size_t i = selected[slot];
    util::Rng rng(util::derive_seed(base_seed, i));
    const auto start = std::chrono::steady_clock::now();
    results[i].metrics = fn(points[i], rng);
    results[i].wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    results[i].skipped = false;
    if (on_complete) {
      on_complete(i, results[i]);
    }
  });
}

bool serialize_identically(const NamedValues& a, const NamedValues& b) {
  if (a.size() != b.size()) {
    return false;
  }
  const auto numeric = [](const Value& v) {
    return v.index() == 1 || v.index() == 2;
  };
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& [a_name, a_value] = a.entries()[i];
    const auto& [b_name, b_value] = b.entries()[i];
    if (a_name != b_name) {
      return false;
    }
    if (a_value.index() == b_value.index()) {
      if (!(a_value == b_value)) {
        return false;
      }
    } else if (!numeric(a_value) || !numeric(b_value) ||
               value_to_string(a_value) != value_to_string(b_value)) {
      // Cross-type values serialize identically only in the int/double
      // ambiguity case (strings are quoted, booleans are keywords).
      return false;
    }
  }
  return true;
}

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace dqma::sweep
