// The sweep job model: named parameter/metric values, Cartesian parameter
// grids, and the parallel executor that fans a grid out across a
// ThreadPool with deterministic per-job RNG seeding.
//
// Determinism contract (the reason this layer exists): job i of a sweep
// draws from Rng(util::derive_seed(base_seed, i)) and writes its result
// into slot i of the output vector. Neither the thread count nor the
// scheduling order can influence any recorded value, so `--threads 1` and
// `--threads 8` produce byte-identical JSON.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "sweep/thread_pool.hpp"
#include "util/rng.hpp"

namespace dqma::sweep {

/// A single parameter or metric value. long long before double so integer
/// literals pick the integral alternative.
using Value = std::variant<bool, long long, double, std::string>;

/// Deterministic text form (JSON-compatible): booleans as true/false,
/// integers in decimal, doubles via shortest round-trip (std::to_chars),
/// strings verbatim (NOT quoted/escaped — json.hpp handles that).
std::string value_to_string(const Value& value);

/// An ordered list of named values; the order is insertion order and is
/// preserved through JSON serialization (stable bytes across runs).
/// Used both for parameter points and for per-job metric sets.
class NamedValues {
 public:
  NamedValues& set(std::string name, Value value);
  NamedValues& set(std::string name, bool value);
  NamedValues& set(std::string name, int value);
  NamedValues& set(std::string name, long long value);
  NamedValues& set(std::string name, double value);
  NamedValues& set(std::string name, const char* value);
  NamedValues& set(std::string name, std::string value);

  /// nullptr when absent.
  const Value* find(std::string_view name) const;

  /// Typed accessors; require() the name to exist with the exact type.
  bool get_bool(std::string_view name) const;
  long long get_int(std::string_view name) const;
  double get_double(std::string_view name) const;
  const std::string& get_string(std::string_view name) const;

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  const std::vector<std::pair<std::string, Value>>& entries() const {
    return entries_;
  }

  bool operator==(const NamedValues& other) const = default;

 private:
  std::vector<std::pair<std::string, Value>> entries_;
};

/// One point of a parameter grid.
using ParamPoint = NamedValues;
/// One job's recorded metrics.
using Metrics = NamedValues;

/// A Cartesian product of named axes, enumerated row-major with the FIRST
/// axis slowest — i.e. axis("n", ...).axis("r", ...) yields (n0,r0),
/// (n0,r1), ..., (n1,r0), ... matching the nesting order of the serial
/// loops the benches used to write.
class ParamGrid {
 public:
  ParamGrid& axis(std::string name, std::vector<Value> values);
  ParamGrid& axis(std::string name, std::vector<int> values);
  ParamGrid& axis(std::string name, std::vector<long long> values);
  ParamGrid& axis(std::string name, std::vector<double> values);
  ParamGrid& axis(std::string name, std::vector<std::string> values);

  std::size_t size() const;
  std::vector<ParamPoint> enumerate() const;

 private:
  std::vector<std::pair<std::string, std::vector<Value>>> axes_;
};

/// Result of one sweep job. wall_ms is the only nondeterministic field and
/// is excluded from JSON unless timings are explicitly requested. skipped
/// marks a job another shard owns (--shard): its metrics are empty and
/// table-rendering loops must not read them.
struct JobResult {
  Metrics metrics;
  double wall_ms = 0.0;
  bool skipped = false;
};

using JobFn = std::function<Metrics(const ParamPoint&, util::Rng&)>;

/// Runs one job per point on the pool. Job i receives points[i] and a
/// private Rng(derive_seed(base_seed, i)); results come back in point
/// order. Exceptions from jobs propagate (first one wins).
std::vector<JobResult> run_sweep(ThreadPool& pool,
                                 const std::vector<ParamPoint>& points,
                                 std::uint64_t base_seed, const JobFn& fn);

/// Called as each job completes (from whichever pool thread ran it, under
/// no lock — the callee synchronizes). The checkpoint log hangs off this.
using JobCompleteFn = std::function<void(std::size_t, const JobResult&)>;

/// run_sweep restricted to the jobs listed in `selected` (ascending point
/// indices): job i keeps its full-sweep seed derive_seed(base_seed, i) and
/// writes results[i], so executing a subset — a shard's slice, or the
/// points a resume log is missing — reproduces exactly the values the full
/// sweep would have produced for those slots. Slots not selected are left
/// untouched (the caller pre-fills cached metrics or marks them skipped).
void run_sweep_selected(ThreadPool& pool,
                        const std::vector<ParamPoint>& points,
                        std::uint64_t base_seed, const JobFn& fn,
                        const std::vector<std::size_t>& selected,
                        std::vector<JobResult>& results,
                        const JobCompleteFn& on_complete = nullptr);

/// True when the two value sets serialize identically through the JSON
/// writer — the equivalence a JSON round trip preserves. Value equality is
/// too strict for cached-vs-recomputed comparisons: an integral-valued
/// double (0.0 -> "0") parses back as an integer.
bool serialize_identically(const NamedValues& a, const NamedValues& b);

/// FNV-1a hash of a string — used to give experiments and series stable
/// seed namespaces independent of registration or execution order.
std::uint64_t fnv1a64(std::string_view text);

}  // namespace dqma::sweep
