// perfbench — the repository benchmark. Drives the dqma library through its
// public functions on one of three seeded workloads and prints every metric
// by name and unit; the last stdout line is one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
//
//   perfbench --workload <serve_poisson|exact_spectral|table_sweep>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//   perfbench --check [--seed <n>]
//
// --trace 0 reports the end-to-end metrics. --trace 1 is the separate
// traced run: it times the calls into each layer from outside the library,
// keeps the spans in memory (written to --spans at exit), and reports the
// per-layer metrics. The result line of every traced run holds every
// per-layer metric; layers the chosen workload does not exercise come from
// a short tiny-input probe of the workload that does, and the readable
// lines mark them as probe figures. Cite a layer from the traced run of the
// workload that exercises it. --check runs every workload briefly on tiny
// inputs and exits non-zero on any output mismatch.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "linalg/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using WorkloadFn = Outcome (*)(const Options&, Tracer&);

struct WorkloadEntry {
  const char* name;
  WorkloadFn run;
};

constexpr WorkloadEntry kWorkloads[] = {
    {"serve_poisson", run_serve_poisson},
    {"exact_spectral", run_exact_spectral},
    {"table_sweep", run_table_sweep},
};

/// Seconds a traced run gives each tiny probe of another workload.
constexpr double kProbeSeconds = 3.0;

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\n"
               "       perfbench --check [--seed <n>]\n",
               message);
  std::exit(2);
}

const WorkloadEntry* find(const std::string& name) {
  for (const WorkloadEntry& entry : kWorkloads) {
    if (name == entry.name) {
      return &entry;
    }
  }
  return nullptr;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

long cache_kib(int which) {
  const long bytes = sysconf(which);
  return bytes > 0 ? bytes / 1024 : 0;
}

/// The run environment: results taken at different SIMD levels, thread
/// counts or build types are not comparable.
void print_env(const std::string& workload, const Options& options,
               const Outcome& outcome) {
  std::string line = "# env {\"workload\":" + json_string(workload) +
                     ",\"seed\":" + std::to_string(options.seed) +
                     ",\"seconds\":" + json_number(options.seconds) +
                     ",\"trace\":" + (options.trace ? "1" : "0") +
                     ",\"simd\":" +
                     json_string(dqma::linalg::simd::level_name(
                         dqma::linalg::simd::active())) +
                     ",\"nproc\":" +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ",\"l1d_kib\":" +
                     std::to_string(cache_kib(_SC_LEVEL1_DCACHE_SIZE)) +
                     ",\"l2_kib\":" +
                     std::to_string(cache_kib(_SC_LEVEL2_CACHE_SIZE)) +
                     ",\"l3_kib\":" +
                     std::to_string(cache_kib(_SC_LEVEL3_CACHE_SIZE)) +
                     ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
                     ",\"compiler\":" + json_string(__VERSION__);
  for (const auto& [key, value] : outcome.env) {
    line += ',' + json_string(key) + ':' + json_string(value);
  }
  std::printf("%s}\n", line.c_str());
}

/// One readable line per metric; `notes` (possibly shorter) annotates them.
void print_metric_lines(const std::vector<Metric>& metrics,
                        const std::vector<std::string>& notes = {}) {
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("# %-36s %14.6g %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), i < notes.size() ? notes[i].c_str() : "");
  }
}

void print_errors(const char* workload, const Outcome& outcome) {
  for (const std::string& error : outcome.errors) {
    std::printf("# %s: FAILED %s\n", workload, error.c_str());
  }
}

int run_one(const WorkloadEntry& entry, const Options& options,
            const std::string& spans_path) {
  Tracer tracer(options.trace);
  Outcome outcome = entry.run(options, tracer);
  std::vector<std::string> notes(outcome.layers.size());
  if (options.trace) {
    // Probes of the layers this workload does not exercise: tiny inputs,
    // so not the layer's figures on the workload that exercises it.
    for (const WorkloadEntry& other : kWorkloads) {
      if (&other == &entry) {
        continue;
      }
      Options probe = options;
      probe.size = Size::kTiny;
      probe.seconds = kProbeSeconds;
      Outcome extra = other.run(probe, tracer);
      outcome.layers.insert(outcome.layers.end(), extra.layers.begin(),
                            extra.layers.end());
      notes.resize(outcome.layers.size(),
                   std::string("  (tiny probe of ") + other.name + ")");
      outcome.attempted += extra.attempted;
      outcome.failed += extra.failed;
      outcome.errors.insert(outcome.errors.end(), extra.errors.begin(),
                            extra.errors.end());
    }
  }

  std::vector<Metric> metrics;
  if (options.trace) {
    metrics = outcome.layers;
    // The traced run's own end-to-end figures: compared with an untraced
    // run of the same seed they give the tracing overhead.
    for (const Metric& m : outcome.end_to_end) {
      if (m.name == "ops_per_s" || m.name == "latency_p50_ms") {
        metrics.push_back({"trace." + m.name, m.value, m.unit});
      }
    }
    metrics.push_back(
        {"trace.spans", static_cast<double>(tracer.size()), "count"});
  } else {
    metrics.push_back({"setup_s", median(outcome.setup_s), "s"});
    metrics.insert(metrics.end(), outcome.end_to_end.begin(),
                   outcome.end_to_end.end());
    metrics.push_back({"peak_rss_mb", outcome.peak_rss_mb, "MiB"});
  }

  print_env(entry.name, options, outcome);
  print_metric_lines(metrics, notes);
  const double error_rate =
      outcome.attempted > 0 ? static_cast<double>(outcome.failed) /
                                  static_cast<double>(outcome.attempted)
                            : 1.0;
  std::printf("# %-36s %14.6g (%lld of %lld operations)\n", "error_rate",
              error_rate, outcome.failed, outcome.attempted);
  print_errors(entry.name, outcome);
  if (options.trace && !spans_path.empty() && !tracer.write_json(spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
  }

  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(outcome.attempted) +
                     ", \"failed\": " + std::to_string(outcome.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "" : ", ") + json_string(metrics[i].name) +
            ": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  std::printf("%s}}\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// Every workload on tiny inputs, untraced; non-zero on any mismatch.
int run_check(std::uint64_t seed) {
  int status = 0;
  for (const WorkloadEntry& entry : kWorkloads) {
    Options options;
    options.seed = seed;
    options.size = Size::kTiny;
    options.seconds = kProbeSeconds;
    Tracer tracer(false);
    const Outcome outcome = entry.run(options, tracer);
    const bool ok = outcome.failed == 0 && outcome.attempted > 0;
    std::printf("check %-16s %s (%lld operations, %lld failed)\n", entry.name,
                ok ? "ok" : "FAILED", outcome.attempted, outcome.failed);
    print_errors(entry.name, outcome);
    status |= ok ? 0 : 1;
  }
  return status;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string spans_path;
  Options options;
  bool check = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check") {
      check = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = options.seconds > 0.0;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") {
          usage("--trace takes 0 or 1");
        }
        options.trace = value == "1";
        have_trace = true;
      } else if (arg == "--spans") {
        spans_path = value;
      } else {
        usage(("unknown option " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }

  try {
    // Resolve the SIMD level once (DQMA_SIMD or CPU detection) and pin it
    // for the whole run; the env line records it.
    dqma::linalg::simd::resolve_startup("");
    dqma::linalg::simd::set_global_level(dqma::linalg::simd::active());
    if (check) {
      return run_check(options.seed);
    }
    const WorkloadEntry* entry = find(workload);
    if (entry == nullptr) {
      usage(("unknown workload '" + workload + "'").c_str());
    }
    if (!have_seed || !have_seconds || !have_trace) {
      usage("--seed, --seconds and --trace are required");
    }
    return run_one(*entry, options, spans_path);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
