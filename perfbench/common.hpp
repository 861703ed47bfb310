// Shared plumbing of the perfbench program: run options, the metric record
// every workload returns, order statistics, process memory, and the
// in-memory span recorder behind the traced mode.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Input size of a run: the measured load, or the tiny inputs of the fast
/// check mode (also used for the short probes a traced run adds).
enum class Size { kFull, kTiny };

struct Options {
  std::uint64_t seed = 1;
  double seconds = 20.0;
  Size size = Size::kFull;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Records spans (name, start, end, parent span, request id) in memory from
/// any thread; written out once, when the run ends. Every method is a no-op
/// on a disabled tracer, so untraced runs pay one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (-1 when disabled).
  long long record(const char* name, Clock::time_point start,
                   Clock::time_point end, long long parent = -1,
                   long long request = -1);

  std::size_t size() const;

  /// Chrome trace-event JSON (viewable in Perfetto); false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    long long parent;
    long long request;
  };

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// What one workload run reports back to main.
struct Outcome {
  std::vector<Metric> end_to_end;  ///< every end-to-end metric but setup_s
  std::vector<Metric> layers;      ///< per-layer metrics (traced runs)
  std::vector<std::pair<std::string, std::string>> env;
  long long attempted = 0;
  long long failed = 0;             ///< failed, refused or wrong output
  std::vector<std::string> errors;  ///< first few failure messages
  std::vector<double> setup_s;      ///< each repeated set-up
  double peak_rss_mb = 0.0;         ///< sampled when the timed load ends

  void fail(const std::string& message);
};

/// Linear-interpolation quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double sum(const std::vector<double>& values);
double mean(const std::vector<double>& values);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Workload entry points (serve_load.cpp, exact_load.cpp, sweep_load.cpp).
Outcome run_serve_poisson(const Options& options, Tracer& tracer);
Outcome run_exact_spectral(const Options& options, Tracer& tracer);
Outcome run_table_sweep(const Options& options, Tracer& tracer);

}  // namespace perfbench
