// The dqma_serve subsystem (src/serve/): request parsing and response
// framing, the single-flight shape cache and its deterministic counters,
// handler byte-determinism across cache temperature, and the server
// engine's ordering, backpressure, and drain guarantees.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dqma/hamming.hpp"
#include "network/graph.hpp"
#include "serve/framing.hpp"
#include "serve/handlers.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "serve/shape_cache.hpp"
#include "sweep/sweep.hpp"
#include "util/json_reader.hpp"
#include "util/rng.hpp"

namespace {

using dqma::serve::parse_request;
using dqma::serve::Request;
using dqma::serve::Server;
using dqma::serve::ServerConfig;
using dqma::serve::ShapeCache;

struct RegisterWorkloads {
  RegisterWorkloads() { dqma::serve::register_builtin_workloads(); }
};
const RegisterWorkloads g_register;

TEST(RequestTest, ParsesAllFields) {
  const Request request = parse_request(
      R"({"workload":"auction_gt","id":"r-1","seed":99,)"
      R"("params":{"n":16,"delta":0.25,"label":"x","flag":true}})");
  EXPECT_EQ(request.workload, "auction_gt");
  EXPECT_EQ(request.id, "r-1");
  EXPECT_EQ(request.seed, 99u);
  EXPECT_EQ(request.params.get_int("n"), 16);
  EXPECT_EQ(request.params.get_double("delta"), 0.25);
  EXPECT_EQ(request.params.get_string("label"), "x");
  EXPECT_TRUE(request.params.get_bool("flag"));
}

TEST(RequestTest, DefaultsAndRejections) {
  const Request minimal = parse_request(R"({"workload":"w"})");
  EXPECT_EQ(minimal.id, "");
  EXPECT_EQ(minimal.seed, 0u);
  EXPECT_TRUE(minimal.params.empty());

  EXPECT_THROW(parse_request("not json"), std::exception);
  EXPECT_THROW(parse_request("[1,2]"), std::exception);
  EXPECT_THROW(parse_request(R"({"id":"no-workload"})"), std::exception);
  // Unknown fields are rejected, not ignored: a typo must not silently
  // fall back to workload defaults.
  EXPECT_THROW(parse_request(R"({"workload":"w","sede":1})"),
               std::exception);
}

TEST(RequestTest, ResponseFraming) {
  dqma::sweep::Metrics metrics;
  metrics.set("accept", 0.5).set("count", 3);
  EXPECT_EQ(dqma::serve::ok_response("a", metrics),
            R"({"id":"a","ok":true,"metrics":{"accept":0.5,"count":3}})");
  EXPECT_EQ(dqma::serve::error_response("b", "bad"),
            R"({"id":"b","ok":false,"error":"bad"})");
  EXPECT_EQ(dqma::serve::error_response("c", "busy", /*retry=*/true),
            R"({"id":"c","ok":false,"error":"busy","retry":true})");
}

TEST(LineDecoderTest, SplitsLinesAcrossArbitraryChunkBoundaries) {
  dqma::serve::LineDecoder decoder;
  decoder.feed("first");
  EXPECT_FALSE(decoder.next().has_value());
  decoder.feed(" line\nsec");
  auto line = decoder.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->text, "first line");
  EXPECT_FALSE(line->oversized);
  EXPECT_FALSE(decoder.next().has_value());
  decoder.feed("ond\n\n");  // empty lines are legal frames
  EXPECT_EQ(decoder.next()->text, "second");
  EXPECT_EQ(decoder.next()->text, "");
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(LineDecoderTest, FinishFlushesUnterminatedTail) {
  dqma::serve::LineDecoder decoder;
  decoder.feed("tail without newline");
  EXPECT_FALSE(decoder.next().has_value());
  auto tail = decoder.finish();
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->text, "tail without newline");
  EXPECT_FALSE(decoder.finish().has_value());  // nothing left
}

TEST(LineDecoderTest, OversizedLineIsOneEventAndMemoryStaysBounded) {
  dqma::serve::LineDecoder decoder(16);
  // The oversize event fires the moment the cap is crossed — before the
  // line's newline ever arrives — so the daemon can answer while the
  // attacker is still streaming.
  decoder.feed(std::string(17, 'x'));
  auto event = decoder.next();
  ASSERT_TRUE(event.has_value());
  EXPECT_TRUE(event->oversized);
  EXPECT_TRUE(event->text.empty());

  // The rest of the flood is discarded without buffering or new events,
  // and the decoder resynchronizes at the next newline.
  decoder.feed(std::string(1 << 20, 'x'));
  EXPECT_FALSE(decoder.next().has_value());
  decoder.feed("x\nback to normal\n");
  auto line = decoder.next();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->text, "back to normal");
  EXPECT_FALSE(line->oversized);
  // A tail belonging to a discarded oversized line never resurfaces.
  decoder.feed(std::string(17, 'y'));
  EXPECT_TRUE(decoder.next()->oversized);
  EXPECT_FALSE(decoder.finish().has_value());
}

TEST(LineDecoderTest, LineExactlyAtTheCapIsDelivered) {
  dqma::serve::LineDecoder decoder(8);
  decoder.feed("12345678\n123456789\n");
  auto ok = decoder.next();
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->text, "12345678");
  EXPECT_FALSE(ok->oversized);
  EXPECT_TRUE(decoder.next()->oversized);
}

TEST(ShapeCacheTest, SingleFlightBuildsOnceAndCountsDeterministically) {
  ShapeCache cache;
  std::atomic<int> builds{0};

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const int>> seen(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      seen[static_cast<std::size_t>(t)] = cache.get_or_build<int>("k", [&] {
        builds.fetch_add(1);
        return 41 + 1;
      });
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  // Single-flight: one build, every caller sees the same instance, and the
  // counters are a pure function of the request multiset (misses ==
  // distinct keys) — NOT of scheduling.
  EXPECT_EQ(builds.load(), 1);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]);
    EXPECT_EQ(*seen[static_cast<std::size_t>(t)], 42);
  }
  const ShapeCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ShapeCacheTest, ThrowingBuilderRetriesOnNextLookup) {
  ShapeCache cache;
  int attempts = 0;
  EXPECT_THROW(cache.get_or_build<int>("k",
                                       [&]() -> int {
                                         ++attempts;
                                         throw std::runtime_error("boom");
                                       }),
               std::runtime_error);
  const auto value = cache.get_or_build<int>("k", [&] {
    ++attempts;
    return 7;
  });
  EXPECT_EQ(*value, 7);
  EXPECT_EQ(attempts, 2);
}

TEST(HandlersTest, ResponseBytesAreAPureFunctionOfTheRequestLine) {
  const std::string line =
      R"({"workload":"config_drift","id":"d","seed":5,)"
      R"("params":{"n":16,"d":2,"drift":4,"reps":6,"samples":30}})";
  ShapeCache cold;
  ShapeCache warm;
  bool ok = false;
  const std::string first = handle_request_line(line, warm, &ok);
  EXPECT_TRUE(ok);
  const std::string second = handle_request_line(line, warm, &ok);
  const std::string fresh = handle_request_line(line, cold, &ok);
  // Warm == cold cache, call after call: the cache can change latency,
  // never bytes.
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, fresh);
  EXPECT_NE(first.find("\"ok\":true"), std::string::npos) << first;
}

TEST(HandlersTest, BuiltinWorkloadsComputeSensibleMetrics) {
  ShapeCache cache;
  // A winning bid accepts with certainty (perfect completeness).
  const std::string win = handle_request_line(
      R"({"workload":"auction_gt","id":"w","seed":1,)"
      R"("params":{"n":12,"r":2,"reps":8,"bid":900,"reserve":100}})",
      cache);
  EXPECT_NE(win.find("\"bid_wins\":true"), std::string::npos) << win;
  const dqma::util::json::Node parsed = dqma::util::json::parse(win);
  double accept = -1.0;
  for (const auto& [key, value] : parsed.members()) {
    if (key == "metrics") {
      for (const auto& [name, metric] : value.members()) {
        if (name == "accept") {
          accept = metric.as_double();
        }
      }
    }
  }
  EXPECT_GT(accept, 0.99) << win;
  // A losing bid is an attack bounded well below 1.
  const std::string lose = handle_request_line(
      R"({"workload":"auction_gt","id":"l","seed":1,)"
      R"("params":{"n":12,"r":2,"reps":8,"bid":100,"reserve":900}})",
      cache);
  EXPECT_NE(lose.find("\"bid_wins\":false"), std::string::npos) << lose;

  // Errors come back as responses, never as exceptions.
  bool ok = true;
  const std::string unknown = handle_request_line(
      R"({"workload":"nope","id":"u"})", cache, &ok);
  EXPECT_FALSE(ok);
  EXPECT_NE(unknown.find("\"ok\":false"), std::string::npos);
  const std::string bad_param = handle_request_line(
      R"({"workload":"auction_gt","id":"b","params":{"n":9999}})", cache,
      &ok);
  EXPECT_FALSE(ok);
  EXPECT_NE(bad_param.find("out of range"), std::string::npos) << bad_param;
}

// d may be as large as n <= 4096. At n = d = 4096 the protocol would hold
// 4 (d+1)^2 = 67M block masks, so the shape is rejected from its size alone,
// before the cache builds anything. Only an attack (drift > d) builds
// fingerprints, so only it is bounded by its proof's amplitudes.
TEST(HandlersTest, OversizedDriftShapeIsRejectedBeforeConstruction) {
  ShapeCache cache;
  bool ok = true;
  const std::string huge = handle_request_line(
      R"({"workload":"config_drift","id":"huge","seed":1,)"
      R"("params":{"n":4096,"d":4096,"drift":0}})",
      cache, &ok);
  EXPECT_FALSE(ok);
  EXPECT_NE(huge.find("bytes exceeds the limit 67108864"), std::string::npos)
      << huge;

  // n = 2048, d = 0: 4 blocks x 1 copy x 32768 = 2^17 amplitudes a node, so
  // an attack may span 4 nodes (r = 3) but not 5.
  const std::string long_path = handle_request_line(
      R"({"workload":"config_drift","id":"long","seed":1,)"
      R"("params":{"n":2048,"d":0,"drift":1,"r":4}})",
      cache, &ok);
  EXPECT_FALSE(ok);
  EXPECT_NE(long_path.find("attack proof of 655360 amplitudes exceeds the "
                           "limit 524288"),
            std::string::npos)
      << long_path;

  // A tiny delta asks for a code longer than 2^30: rejected, not spun on.
  const std::string tiny = handle_request_line(
      R"({"workload":"config_drift","id":"tiny","seed":1,)"
      R"("params":{"n":16,"d":2,"drift":1,"delta":0.000001}})",
      cache, &ok);
  EXPECT_FALSE(ok);
  EXPECT_NE(tiny.find("block length above 2^30"), std::string::npos) << tiny;
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);

  const std::string edge = handle_request_line(
      R"({"workload":"config_drift","id":"edge","seed":1,)"
      R"("params":{"n":2048,"d":0,"drift":1,"r":3,"reps":1,"samples":5}})",
      cache, &ok);
  EXPECT_TRUE(ok) << edge;
  EXPECT_NE(edge.find("\"within_tolerance\":false"), std::string::npos)
      << edge;

  // 3 x 36 x 2 x 65536 amplitudes, past the attack bound, but within
  // tolerance the closed form answers it without a fingerprint.
  const std::string wide = handle_request_line(
      R"({"workload":"config_drift","id":"wide","seed":1,)"
      R"("params":{"n":4096,"d":2,"drift":2,"r":2,"reps":1}})",
      cache, &ok);
  EXPECT_TRUE(ok) << wide;
  EXPECT_NE(wide.find("\"accept\":1,"), std::string::npos) << wide;
}

// The bound's arithmetic counts the shape the protocol really builds.
TEST(HandlersTest, DriftProofAmplitudesMatchTheBuiltProtocol) {
  for (const auto& [n, d] : {std::pair{2048, 0}, std::pair{16, 2}}) {
    const dqma::protocol::HammingGraphProtocol protocol(
        dqma::network::Graph::path(3), {0, 3}, n, d, 0.35, 1);
    double message = 0.0;
    for (const int dim : protocol.one_way().message_dims()) {
      message += dim;
    }
    EXPECT_EQ(dqma::protocol::HammingGraphProtocol::proof_amplitudes(
                  n, d, 0.35, 4),
              4 * message);
  }
  EXPECT_EQ(dqma::protocol::HammingGraphProtocol::proof_amplitudes(
                2048, 0, 0.35, 4),
            1 << 19);
}

TEST(ServerTest, DeliversResponsesInSubmissionOrder) {
  Server server(ServerConfig{4, 256});
  std::vector<std::string> responses;
  std::mutex mutex;
  constexpr int kRequests = 32;
  for (int i = 0; i < kRequests; ++i) {
    server.submit(
        R"({"workload":"auction_gt","id":"q)" + std::to_string(i) +
            R"(","seed":)" + std::to_string(i) +
            R"(,"params":{"n":12,"r":2,"reps":6,"bid":900,"reserve":100}})",
        [&](std::string response) {
          const std::lock_guard<std::mutex> lock(mutex);
          responses.push_back(std::move(response));
        });
  }
  server.drain();
  ASSERT_EQ(responses.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_NE(responses[static_cast<std::size_t>(i)].find(
                  "\"id\":\"q" + std::to_string(i) + "\""),
              std::string::npos)
        << "response " << i << " out of order: "
        << responses[static_cast<std::size_t>(i)];
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.ok, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.overloaded, 0u);
}

TEST(ServerTest, OverloadProducesRetryableErrorResponse) {
  // A test workload that blocks until released lets us fill the queue
  // deterministically: dispatcher busy on the blocker, max_pending queued,
  // the next submission must bounce with "retry": true.
  static std::promise<void> started;
  static std::promise<void> release;
  static std::shared_future<void> release_future(release.get_future());
  dqma::serve::register_workload(
      {"test_block", "blocks until released (test only)",
       [](const Request&, ShapeCache&, dqma::util::Rng&) {
         started.set_value();
         release_future.wait();
         return dqma::sweep::Metrics().set("done", true);
       }});

  Server server(ServerConfig{2, /*max_pending=*/2});
  std::atomic<int> delivered{0};
  server.submit(R"({"workload":"test_block","id":"blocker"})",
                [&](std::string) { delivered.fetch_add(1); });
  started.get_future().wait();  // dispatcher is now busy on the blocker

  server.submit(R"({"workload":"auction_gt","id":"f1","params":{"n":8,"r":2,"reps":4,"bid":200,"reserve":50}})",
                [&](std::string) { delivered.fetch_add(1); });
  server.submit(R"({"workload":"auction_gt","id":"f2","params":{"n":8,"r":2,"reps":4,"bid":200,"reserve":50}})",
                [&](std::string) { delivered.fetch_add(1); });

  std::string overload;
  const bool accepted = server.submit(
      R"({"workload":"auction_gt","id":"f3","params":{"n":8,"r":2,"reps":4,"bid":200,"reserve":50}})",
      [&](std::string response) { overload = std::move(response); });
  EXPECT_FALSE(accepted);
  // The rejection is immediate, carries the request id, and asks the
  // client to retry.
  EXPECT_EQ(overload,
            R"({"id":"f3","ok":false,"error":"server overloaded","retry":true})");

  release.set_value();
  server.drain();
  EXPECT_EQ(delivered.load(), 3);
  const auto stats = server.stats();
  EXPECT_EQ(stats.overloaded, 1u);
  EXPECT_EQ(stats.accepted, 3u);
}

TEST(ServerTest, ShutdownDrainsAcceptedRequestsAndRejectsNewOnes) {
  auto server = std::make_unique<Server>(ServerConfig{2, 64});
  std::atomic<int> delivered{0};
  for (int i = 0; i < 8; ++i) {
    server->submit(
        R"({"workload":"auction_gt","id":"s)" + std::to_string(i) +
            R"(","seed":)" + std::to_string(i) +
            R"(,"params":{"n":10,"r":2,"reps":4,"bid":500,"reserve":60}})",
        [&](std::string) { delivered.fetch_add(1); });
  }
  server->shutdown();
  EXPECT_EQ(delivered.load(), 8) << "shutdown must drain accepted work";

  std::string rejected;
  EXPECT_FALSE(server->submit(R"({"workload":"auction_gt","id":"late"})",
                              [&](std::string response) {
                                rejected = std::move(response);
                              }));
  EXPECT_NE(rejected.find("shutting down"), std::string::npos);
  server.reset();  // double-shutdown via the destructor must be safe
}

}  // namespace
