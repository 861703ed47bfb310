// serve_poisson — an open-loop client of the in-process dqma_serve engine.
//
// A seeded Poisson schedule at kRate requests/s feeds serve::Server (3
// threads) from the generator thread (the 4th). The stream mixes the three
// built-in workloads: light requests (0.2-4 ms of handler time) beside heavy
// config_drift requests outside tolerance (~50 ms). 90% reuse five shapes
// warmed during set-up; 10% carry a novel shape (a fresh delta or
// topo_seed), so cache builds run beside cache hits. Latency runs from each
// request's scheduled send time to its response callback.
//
// Variance control: the schedule is stratified in blocks of kBlock
// requests. Each block holds a fixed deck of request classes in seeded
// order, and its exponential gaps are rescaled to span exactly
// kBlock / kRate seconds, so every seed offers the same load and the same
// heavy share; only the arrangement varies. Within a block the arrivals
// stay Poisson-like, so heavy requests of neighbouring blocks can land
// close together and pile up, as they would from an open-loop client.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "serve/handlers.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "sweep/parallel.hpp"
#include "sweep/thread_pool.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace dqma;

constexpr double kRate = 50.0;     // requests per second
constexpr int kServerThreads = 3;  // plus the generator thread: 4 in total
constexpr int kBlock = 20;
constexpr int kTinyRequests = 2 * kBlock;
constexpr int kSetupRepeats = 5;
constexpr int kParseSampleEvery = 10;

/// Request classes: everything that sets a request's cost is fixed by its
/// class, so every block offers the same work.
enum class Class {
  kAuctionWin,    // r = 2, bid above reserve: completeness
  kAuctionLose,   // r = 3, bid at or below reserve: best attack
  kAuctionLose2,  // r = 2, best attack
  kAuditHonest,   // 6 nodes, no tamper: completeness
  kAuditTamper,   // 8 nodes, 1-3 tampered bits: best attack
  kDrift0,        // within tolerance: completeness
  kDrift1,
  kDrift2,
  kDriftHeavy,    // drift 3 or 4 > d = 2: Monte-Carlo attack (~50 ms)
  kNovel,         // a fresh shape key beside warm parameters
};

/// The classes of one block, shuffled per block by the seed.
constexpr Class kDeck[kBlock] = {
    Class::kAuctionWin,  Class::kAuctionWin,   Class::kAuctionLose,
    Class::kAuctionLose, Class::kAuctionLose2, Class::kAuditHonest,
    Class::kAuditTamper, Class::kDrift0,       Class::kDrift0,
    Class::kDrift0,      Class::kDrift1,       Class::kDrift1,
    Class::kDrift1,      Class::kDrift1,       Class::kDrift2,
    Class::kDrift2,      Class::kDrift2,       Class::kDriftHeavy,
    Class::kNovel,       Class::kNovel,
};

std::string auction_params(int r, double delta, long long bid,
                           long long reserve) {
  return "{\"n\":16,\"r\":" + std::to_string(r) + ",\"delta\":" +
         sweep::value_to_string(delta) + ",\"reps\":8,\"bid\":" +
         std::to_string(bid) + ",\"reserve\":" + std::to_string(reserve) +
         "}";
}

std::string audit_params(int nodes, long long topo_seed, int tamper) {
  return "{\"n\":48,\"nodes\":" + std::to_string(nodes) +
         ",\"replicas\":3,\"reps\":4,\"topo_seed\":" +
         std::to_string(topo_seed) +
         ",\"tamper_bits\":" + std::to_string(tamper) + "}";
}

std::string drift_params(int drift, double delta) {
  return "{\"n\":16,\"d\":2,\"drift\":" + std::to_string(drift) +
         ",\"r\":2,\"delta\":" + sweep::value_to_string(delta) +
         ",\"reps\":6,\"samples\":30}";
}

std::string request_line(const std::string& workload, const std::string& id,
                         std::uint64_t seed, const std::string& params) {
  return "{\"workload\":\"" + workload + "\",\"id\":\"" + id +
         "\",\"seed\":" + std::to_string(seed) + ",\"params\":" + params + "}";
}

/// The warm-up stream, sent through the server: one request per warm
/// shape, then one heavy request per server thread. The light requests keep
/// the dispatcher busy while the heavy ones queue into one batch, so every
/// server thread runs a heavy request once and its allocator holds the
/// memory one needs; otherwise peak RSS would depend on how many distinct
/// threads happened to draw a heavy request during the run.
std::vector<std::string> warm_lines() {
  std::vector<std::string> lines = {
      request_line("auction_gt", "w0", 1, auction_params(2, 0.3, 500, 400)),
      request_line("auction_gt", "w1", 1, auction_params(3, 0.3, 500, 400)),
      request_line("replicated_data_audit", "w2", 1, audit_params(6, 2024, 0)),
      request_line("replicated_data_audit", "w3", 1, audit_params(8, 2024, 0)),
      request_line("config_drift", "w4", 1, drift_params(1, 0.35)),
  };
  for (int t = 0; t < kServerThreads; ++t) {
    std::string id = "h";
    id += std::to_string(t);
    lines.push_back(request_line("config_drift", id,
                                 static_cast<std::uint64_t>(t),
                                 drift_params(3 + t % 2, 0.35)));
  }
  return lines;
}

struct Stream {
  std::vector<std::string> lines;
  std::vector<std::string> workload;  // per request
  std::vector<bool> novel;
  std::vector<double> due_s;  // offset from the schedule start
};

Stream make_stream(std::uint64_t seed, int requests) {
  util::Rng rng(util::derive_seed(seed, sweep::fnv1a64("serve_poisson")));
  Stream s;
  int novel_count = 0;
  const double block_span = kBlock / kRate;
  for (int block = 0; block * kBlock < requests; ++block) {
    std::vector<Class> deck(std::begin(kDeck), std::end(kDeck));
    for (int i = kBlock - 1; i > 0; --i) {
      std::swap(deck[static_cast<std::size_t>(i)],
                deck[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
    }
    std::vector<double> gaps(kBlock);
    for (double& gap : gaps) {
      gap = -std::log(1.0 - rng.next_double());
    }
    const double scale = block_span / sum(gaps);
    double t = block * block_span;
    for (int k = 0; k < kBlock; ++k) {
      t += gaps[static_cast<std::size_t>(k)] * scale;
      const int index = block * kBlock + k;
      std::string id = "q";
      id += std::to_string(index);
      const std::uint64_t req_seed = rng.next_u64() >> 11;
      // A bid/reserve pair with bid > reserve (win) or bid <= reserve.
      const long long low = rng.next_int(0, 65534);
      const long long high = rng.next_int(low + 1, 65535);
      std::string workload;
      std::string params;
      switch (deck[static_cast<std::size_t>(k)]) {
        case Class::kAuctionWin:
          workload = "auction_gt";
          params = auction_params(2, 0.3, high, low);
          break;
        case Class::kAuctionLose:
          workload = "auction_gt";
          params = auction_params(3, 0.3, low, high);
          break;
        case Class::kAuctionLose2:
          workload = "auction_gt";
          params = auction_params(2, 0.3, low, high);
          break;
        case Class::kAuditHonest:
          workload = "replicated_data_audit";
          params = audit_params(6, 2024, 0);
          break;
        case Class::kAuditTamper:
          workload = "replicated_data_audit";
          params = audit_params(8, 2024, 1 + static_cast<int>(rng.next_below(3)));
          break;
        case Class::kDrift0:
        case Class::kDrift1:
        case Class::kDrift2:
          workload = "config_drift";
          params = drift_params(
              static_cast<int>(deck[static_cast<std::size_t>(k)]) -
                  static_cast<int>(Class::kDrift0),
              0.35);
          break;
        case Class::kDriftHeavy:
          workload = "config_drift";
          params = drift_params(3 + block % 2, 0.35);
          break;
        case Class::kNovel: {
          ++novel_count;
          const double fresh_delta = 1e-5 * novel_count;
          switch (novel_count % 3) {
            case 0:
              workload = "auction_gt";
              params = auction_params(2, 0.3 + fresh_delta, high, low);
              break;
            case 1:
              workload = "replicated_data_audit";
              params = audit_params(8, 100000 + novel_count, 0);
              break;
            default:
              workload = "config_drift";
              params = drift_params(1, 0.35 + fresh_delta);
              break;
          }
          break;
        }
      }
      s.lines.push_back(request_line(workload, id, req_seed, params));
      s.workload.push_back(workload);
      s.novel.push_back(deck[static_cast<std::size_t>(k)] == Class::kNovel);
      s.due_s.push_back(t);
    }
  }
  s.lines.resize(static_cast<std::size_t>(requests));
  s.workload.resize(static_cast<std::size_t>(requests));
  s.novel.resize(static_cast<std::size_t>(requests));
  s.due_s.resize(static_cast<std::size_t>(requests));
  return s;
}

bool is_ok_response(const std::string& response) {
  return response.find("\"ok\":true") != std::string::npos;
}

/// Times one call; returns milliseconds.
template <typename Fn>
double time_ms(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return ms_between(start, Clock::now());
}

}  // namespace

Outcome run_serve_poisson(const Options& options, Tracer& tracer) {
  Outcome outcome;
  const int requests =
      options.size == Size::kTiny
          ? kTinyRequests
          : std::max(kBlock, static_cast<int>(std::lround(
                                 kRate * options.seconds / kBlock)) *
                                 kBlock);
  const Stream stream = make_stream(options.seed, requests);
  const auto n = static_cast<std::size_t>(requests);

  // Set-up, repeated: registration, server and pool start, cache warm-up.
  // Handlers run inside the server's batches, where kernel regions are
  // serial; one kernel thread keeps the process at four threads anyway.
  dqma::sweep::set_kernel_threads(1);
  std::unique_ptr<serve::Server> server;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    server.reset();
    const Clock::time_point start = Clock::now();
    serve::register_builtin_workloads();
    server = std::make_unique<serve::Server>(
        serve::ServerConfig{kServerThreads, 4096});
    // Callbacks run on the dispatcher thread, one at a time; drain()
    // orders them before the reads below.
    std::vector<std::string> warm_responses;
    for (const std::string& line : warm_lines()) {
      server->submit(line, [&warm_responses](std::string response) {
        warm_responses.push_back(std::move(response));
      });
    }
    server->drain();
    for (const std::string& response : warm_responses) {
      if (!is_ok_response(response)) {
        outcome.fail("warm-up request failed: " + response);
      }
    }
    outcome.setup_s.push_back(ms_between(start, Clock::now()) / 1000.0);
  }
  const serve::ShapeCache::Stats warm_stats = server->cache().stats();

  // The open loop: submit each request at its scheduled time, whatever the
  // server's state.
  std::vector<std::string> responses(n);
  std::vector<Clock::time_point> done(n);
  std::vector<Clock::time_point> submitted(n);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<Clock::time_point> due(n);
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(stream.due_s[i]));
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(due[i]);
    submitted[i] = Clock::now();
    // The callback runs on the dispatcher thread; drain() orders its
    // writes before the reads below.
    server->submit(stream.lines[i], [&responses, &done, i](std::string r) {
      done[i] = Clock::now();
      responses[i] = std::move(r);
    });
  }
  server->drain();
  outcome.peak_rss_mb = peak_rss_mb();  // the load, before any check
  const serve::ServerStats stats = server->stats();
  server->shutdown();

  std::vector<double> latency_ms(n);
  std::vector<double> lag_ms(n);
  Clock::time_point last = start;
  for (std::size_t i = 0; i < n; ++i) {
    latency_ms[i] = ms_between(due[i], done[i]);
    lag_ms[i] = ms_between(due[i], submitted[i]);
    last = std::max(last, done[i]);
    const long long id = tracer.record("serve.request", due[i], done[i], -1,
                                       static_cast<long long>(i));
    tracer.record("loadgen.submit", due[i], submitted[i], id,
                  static_cast<long long>(i));
  }
  outcome.attempted = requests;
  outcome.end_to_end = {
      {"latency_p50_ms", median(latency_ms), "ms"},
      {"latency_p99_ms", quantile(latency_ms, 0.99), "ms"},
      {"ops_per_s", requests / (ms_between(start, last) / 1000.0), "1/s"},
  };
  outcome.env = {{"rate_per_s", std::to_string(kRate)},
                 {"server_threads", std::to_string(kServerThreads)},
                 {"kernel_threads", "1"},
                 {"requests", std::to_string(requests)},
                 {"overloaded", std::to_string(stats.overloaded)}};

  // Output check: every response is ok and byte-equal to a replay of the
  // same line through handle_request_line (the serve determinism contract:
  // bytes do not depend on thread count, batching or cache temperature).
  std::vector<std::string> replay(n);
  std::vector<double> service_ms(n, 0.0);
  if (!tracer.enabled()) {
    // Each line replayed by one independent call on a fresh cache; four
    // threads only to keep the check short.
    server.reset();
    serve::ShapeCache cold;
    sweep::ThreadPool pool(4);
    pool.run_indexed(n, [&](std::size_t i) {
      replay[i] = serve::handle_request_line(stream.lines[i], cold);
    });
  } else {
    // Serial replay on the server's warm cache: the handler (service) time
    // of every request, free of queueing.
    for (std::size_t i = 0; i < n; ++i) {
      const Clock::time_point t0 = Clock::now();
      replay[i] = serve::handle_request_line(stream.lines[i], server->cache());
      const Clock::time_point t1 = Clock::now();
      service_ms[i] = ms_between(t0, t1);
      tracer.record("serve.handle", t0, t1, -1, static_cast<long long>(i));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_ok_response(responses[i])) {
      outcome.fail("request " + std::to_string(i) + ": " + responses[i]);
    } else if (responses[i] != replay[i]) {
      outcome.fail("request " + std::to_string(i) +
                   " differs from its replay: " + responses[i] + " vs " +
                   replay[i]);
    }
  }
  if (!tracer.enabled()) {
    return outcome;
  }

  // serve/shape_cache: handler time of each novel request on a fresh cache
  // (a miss), minus the same line's time right after it (a hit).
  std::vector<double> build_ms;
  serve::ShapeCache fresh;
  for (std::size_t i = 0; i < n; ++i) {
    if (!stream.novel[i]) {
      continue;
    }
    std::string cold_response;
    const double cold_ms = time_ms([&] {
      cold_response = serve::handle_request_line(stream.lines[i], fresh);
    });
    const double warm_ms = time_ms(
        [&] { (void)serve::handle_request_line(stream.lines[i], fresh); });
    build_ms.push_back(cold_ms - warm_ms);
    if (cold_response != responses[i]) {
      outcome.fail("request " + std::to_string(i) + " differs on a cold cache");
    }
  }

  // serve/request: parse_request plus ok_response on a sample of lines,
  // framing only (the replay check above covers the response bytes).
  std::vector<double> parse_us;
  for (std::size_t i = 0; i < n; i += kParseSampleEvery) {
    const Clock::time_point t0 = Clock::now();
    const serve::Request request = serve::parse_request(stream.lines[i]);
    const double parse_ms = ms_between(t0, Clock::now());
    util::Rng rng(i);
    const sweep::Metrics metrics = serve::find_workload(request.workload)
                                       ->run(request, server->cache(), rng);
    const double serialize_ms = time_ms(
        [&] { (void)serve::ok_response(request.id, metrics); });
    parse_us.push_back(1000.0 * (parse_ms + serialize_ms));
  }

  std::vector<double> wait_ms(n);
  for (std::size_t i = 0; i < n; ++i) {
    wait_ms[i] = latency_ms[i] - service_ms[i];
  }
  const auto kind_mean = [&](const std::string& workload) {
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i) {
      if (stream.workload[i] == workload) {
        v.push_back(service_ms[i]);
      }
    }
    return mean(v);
  };
  const double hits = static_cast<double>(stats.cache.hits - warm_stats.hits);
  const double misses =
      static_cast<double>(stats.cache.misses - warm_stats.misses);
  outcome.layers = {
      {"serve.service_ms.p50", median(service_ms), "ms"},
      {"serve.service_ms.p99", quantile(service_ms, 0.99), "ms"},
      {"serve.service_ms.auction_gt", kind_mean("auction_gt"), "ms"},
      {"serve.service_ms.config_drift", kind_mean("config_drift"), "ms"},
      {"serve.service_ms.replicated_data_audit",
       kind_mean("replicated_data_audit"), "ms"},
      {"serve.wait_ms.p50", median(wait_ms), "ms"},
      {"serve.wait_ms.p99", quantile(wait_ms, 0.99), "ms"},
      {"serve.cache.hit_ratio", hits / std::max(1.0, hits + misses), "ratio"},
      {"serve.cache.misses", misses, "count"},
      {"serve.build_ms", median(build_ms), "ms"},
      {"serve.parse_us", median(parse_us), "us"},
      {"loadgen.lag_p99_ms", quantile(lag_ms, 0.99), "ms"},
  };
  return outcome;
}

}  // namespace perfbench
