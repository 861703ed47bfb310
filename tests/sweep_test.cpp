// The parallel sweep engine (src/sweep/): thread-pool lifecycle and
// correctness, grid enumeration, and the determinism guarantee the whole
// subsystem exists for — identical results (and identical JSON bytes) at
// any thread count on a fixed seed.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sweep/json.hpp"
#include "sweep/parallel.hpp"
#include "sweep/result_sink.hpp"
#include "sweep/sweep.hpp"
#include "sweep/thread_pool.hpp"
#include "util/rng.hpp"

namespace {

using dqma::sweep::Json;
using dqma::sweep::JobResult;
using dqma::sweep::Metrics;
using dqma::sweep::ParamGrid;
using dqma::sweep::ParamPoint;
using dqma::sweep::ResultSink;
using dqma::sweep::run_sweep;
using dqma::sweep::ThreadPool;
using dqma::util::Rng;

TEST(ThreadPoolTest, ConstructsAndShutsDownWithoutWork) {
  // Idle pools must join cleanly — including pools torn down immediately
  // and pools created repeatedly (worker threads park on the batch
  // condvar and must all observe the stop flag).
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
  }
}

TEST(ThreadPoolTest, ZeroJobsIsANoOp) {
  ThreadPool pool(4);
  int calls = 0;
  pool.run_indexed(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, RunsEveryJobExactlyOnce) {
  ThreadPool pool(8);
  constexpr std::size_t kJobs = 5000;
  std::vector<std::atomic<int>> hits(kJobs);
  pool.run_indexed(kJobs, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kJobs; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "job " << i;
  }
}

TEST(ThreadPoolTest, SurvivesManyConsecutiveBatches) {
  ThreadPool pool(4);
  for (int batch = 0; batch < 50; ++batch) {
    std::atomic<int> sum{0};
    pool.run_indexed(17, [&](std::size_t i) {
      sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 17 * 16 / 2);
  }
}

TEST(ThreadPoolTest, PropagatesJobExceptionsAndStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.run_indexed(64,
                       [](std::size_t i) {
                         if (i == 13) {
                           throw std::runtime_error("boom");
                         }
                       }),
      std::runtime_error);
  // The failed batch must not wedge the pool.
  std::atomic<int> ok{0};
  pool.run_indexed(8, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 8);
}

TEST(ThreadPoolTest, SingleThreadedPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  std::vector<std::size_t> order;
  pool.run_indexed(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ReentrantRunIndexedRunsInlineInsteadOfDeadlocking) {
  // Regression: a job calling run_indexed on its own pool used to publish
  // a nested batch into the already-claimed batch state and deadlock
  // waiting for workers that were all busy inside the outer batch. The
  // nesting contract now matches parallel_for: nested regions run
  // serially inline on the calling thread.
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 8;
  std::vector<std::atomic<int>> inner_hits(kOuter * kInner);
  pool.run_indexed(kOuter, [&](std::size_t outer) {
    pool.run_indexed(kInner, [&](std::size_t inner) {
      EXPECT_TRUE(ThreadPool::executing_batch());
      inner_hits[outer * kInner + inner].fetch_add(
          1, std::memory_order_relaxed);
    });
  });
  for (std::size_t i = 0; i < inner_hits.size(); ++i) {
    ASSERT_EQ(inner_hits[i].load(), 1) << "inner job " << i;
  }
  // The pool must stay usable after reentrant batches.
  std::atomic<int> ok{0};
  pool.run_indexed(8, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 8);
}

TEST(ThreadPoolTest, ReentrantCallAcrossPoolsRunsInline) {
  // The guard is per-thread, not per-pool: a job of pool A dispatching on
  // pool B would park A's worker inside B's batch — B's jobs could in turn
  // hold A's state, so any cross-pool dispatch from inside a batch runs
  // inline too.
  ThreadPool outer(3);
  ThreadPool inner(3);
  std::atomic<int> nested{0};
  outer.run_indexed(9, [&](std::size_t) {
    inner.run_indexed(5, [&](std::size_t) {
      nested.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(nested.load(), 9 * 5);
}

TEST(ThreadPoolTest, ReentrantExceptionsFollowTheBatchContract) {
  // Nested inline batches keep run_indexed's failure semantics: every job
  // runs, the first exception is rethrown after the nested batch drains.
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.run_indexed(1,
                       [&](std::size_t) {
                         pool.run_indexed(6, [&](std::size_t i) {
                           ran.fetch_add(1, std::memory_order_relaxed);
                           if (i == 2) {
                             throw std::runtime_error("nested boom");
                           }
                         });
                       }),
      std::runtime_error);
  EXPECT_EQ(ran.load(), 6);
}

// Longer than ThreadPool::kSpinWindow, so idle workers (and a waiting
// owner) have parked before the next batch arrives.
constexpr auto kPastSpinWindow = 4 * ThreadPool::kSpinWindow;

TEST(ThreadPoolTest, BackToBackTinyBatchesTakeTheSpinPath) {
  // Batches far shorter than the spin window, back to back: workers never
  // park between them. Every batch must still run each job exactly once
  // and return only after all of them finished.
  ThreadPool pool(4);
  std::vector<int> hits(4, 0);
  for (int batch = 0; batch < 10000; ++batch) {
    pool.run_indexed(4, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], batch + 1) << "batch " << batch << ", job " << i;
    }
  }
}

TEST(ThreadPoolTest, BatchesAfterIdleGapsWakeParkedWorkers) {
  // Each batch follows a sleep longer than the spin window, so it is
  // published to parked workers. The jobs sleep too, so the owner cannot
  // drain a batch before a woken worker claims a job: across the batches
  // more than one thread must have run jobs.
  ThreadPool pool(4);
  std::mutex mutex;
  std::set<std::thread::id> runners;
  for (int batch = 0; batch < 10; ++batch) {
    std::this_thread::sleep_for(kPastSpinWindow);
    std::vector<std::atomic<int>> hits(8);
    pool.run_indexed(hits.size(), [&](std::size_t i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      hits[i].fetch_add(1);
      const std::lock_guard<std::mutex> lock(mutex);
      runners.insert(std::this_thread::get_id());
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "batch " << batch << ", job " << i;
    }
  }
  EXPECT_GT(runners.size(), 1u);
}

TEST(ThreadPoolTest, JobExceptionsPropagateOnSpinAndParkPaths) {
  ThreadPool pool(4);
  for (const bool park : {false, true}) {
    for (int round = 0; round < 50; ++round) {
      if (park) {
        std::this_thread::sleep_for(kPastSpinWindow);
      }
      // Every job throws, so workers and the owner all record failures;
      // exactly one exception reaches the caller, after every job ran.
      std::atomic<int> ran{0};
      EXPECT_THROW(pool.run_indexed(16,
                                    [&](std::size_t) {
                                      ran.fetch_add(1);
                                      throw std::runtime_error("boom");
                                    }),
                   std::runtime_error)
          << (park ? "park" : "spin") << " round " << round;
      EXPECT_EQ(ran.load(), 16);
      // The next batch must not inherit the failure.
      std::atomic<int> ok{0};
      pool.run_indexed(16, [&](std::size_t) { ok.fetch_add(1); });
      EXPECT_EQ(ok.load(), 16);
    }
  }
}

TEST(ThreadPoolTest, DestroyingASpinningPoolJoinsPromptly) {
  // Right after a batch every worker is inside its spin window; the
  // destructor must stop them without waiting for a batch that never
  // comes. Bounded generously: a lost wake-up would hang, not run late.
  for (int round = 0; round < 100; ++round) {
    auto pool = std::make_unique<ThreadPool>(4);
    std::atomic<int> ran{0};
    pool->run_indexed(8, [&](std::size_t) { ran.fetch_add(1); });
    ASSERT_EQ(ran.load(), 8);
    const auto start = std::chrono::steady_clock::now();
    pool.reset();
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(5))
        << "round " << round;
  }
}

TEST(ParallelForTest, ChunkBoundariesDependOnlyOnProblemSize) {
  using dqma::sweep::plan_chunks;
  // The determinism contract: the partition is a pure function of
  // (count, grain) — probing it under different kernel-pool sizes must not
  // change it (it takes no thread-count input at all, by construction).
  const auto plan = plan_chunks(1000, 1);
  EXPECT_EQ(plan.chunk_size, 16u);  // ceil(1000 / 64)
  EXPECT_EQ(plan.chunks, 63u);
  const auto coarse = plan_chunks(1000, 300);
  EXPECT_EQ(coarse.chunk_size, 300u);  // grain dominates the 64-chunk cap
  EXPECT_EQ(coarse.chunks, 4u);
  EXPECT_EQ(plan_chunks(0, 8).chunks, 0u);
  EXPECT_EQ(plan_chunks(5, 100).chunks, 1u);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  const dqma::sweep::KernelThreadScope scope(8);
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  dqma::sweep::parallel_for(kCount, 1,
                            [&](std::size_t begin, std::size_t end) {
                              for (std::size_t i = begin; i < end; ++i) {
                                hits[i].fetch_add(1,
                                                  std::memory_order_relaxed);
                              }
                            });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, PropagatesChunkExceptions) {
  const dqma::sweep::KernelThreadScope scope(4);
  EXPECT_THROW(dqma::sweep::parallel_for(
                   256, 1,
                   [](std::size_t begin, std::size_t) {
                     if (begin >= 128) {
                       throw std::runtime_error("chunk failure");
                     }
                   }),
               std::runtime_error);
  // The pool must stay usable after a failed region.
  std::atomic<int> ok{0};
  dqma::sweep::parallel_for(64, 1, [&](std::size_t begin, std::size_t end) {
    ok.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(ok.load(), 64);
}

TEST(ParallelForTest, RegionsCoverTheirRangeBackToBackAndAfterIdleGaps) {
  // The kernel pool's two hand-offs: regions issued back to back (workers
  // spinning) and regions after idle gaps (workers parked).
  const dqma::sweep::KernelThreadScope scope(4);
  std::vector<int> hits(64, 0);
  for (int region = 0; region < 2000; ++region) {
    if (region % 100 == 0) {
      std::this_thread::sleep_for(kPastSpinWindow);
    }
    dqma::sweep::parallel_for(hits.size(), 1,
                              [&](std::size_t begin, std::size_t end) {
                                for (std::size_t i = begin; i < end; ++i) {
                                  ++hits[i];
                                }
                              });
  }
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 2000) << "index " << i;
  }
}

TEST(ParallelForTest, NestedRegionsRunSeriallyWithoutDeadlock) {
  const dqma::sweep::KernelThreadScope scope(4);
  std::atomic<int> inner_total{0};
  dqma::sweep::parallel_for(8, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      // Nested region: must execute inline (the calling thread is inside a
      // batch) and still cover its whole range.
      dqma::sweep::parallel_for(
          10, 1, [&](std::size_t b, std::size_t e) {
            inner_total.fetch_add(static_cast<int>(e - b),
                                  std::memory_order_relaxed);
          });
    }
  });
  EXPECT_EQ(inner_total.load(), 80);
}

TEST(ParallelForTest, InsideSweepJobRunsSeriallyWithoutDeadlock) {
  // Kernels called from sweep jobs must fall back to inline execution —
  // same results, no interaction with the job-level pool.
  ThreadPool pool(4);
  std::vector<double> results(16, 0.0);
  pool.run_indexed(16, [&](std::size_t job) {
    results[job] = dqma::sweep::parallel_reduce<double>(
        100, 1, 0.0,
        [job](std::size_t begin, std::size_t end) {
          double acc = 0.0;
          for (std::size_t i = begin; i < end; ++i) {
            acc += static_cast<double>(i * (job + 1));
          }
          return acc;
        },
        [](double a, double b) { return a + b; });
  });
  for (std::size_t job = 0; job < results.size(); ++job) {
    EXPECT_DOUBLE_EQ(results[job], 4950.0 * static_cast<double>(job + 1));
  }
}

TEST(ParallelReduceTest, CombinesPartialsInChunkOrder) {
  // A non-commutative combine exposes the ordering: concatenation must
  // come out in ascending chunk order at any thread count.
  const auto run = [](int threads) {
    const dqma::sweep::KernelThreadScope scope(threads);
    return dqma::sweep::parallel_reduce<std::string>(
        26, 2, std::string(),
        [](std::size_t begin, std::size_t end) {
          std::string s;
          for (std::size_t i = begin; i < end; ++i) {
            s.push_back(static_cast<char>('a' + i));
          }
          return s;
        },
        [](std::string a, std::string b) { return a + b; });
  };
  const std::string serial = run(1);
  EXPECT_EQ(serial, "abcdefghijklmnopqrstuvwxyz");
  EXPECT_EQ(run(3), serial);
  EXPECT_EQ(run(8), serial);
}

TEST(ParallelReduceTest, EmptyRangeReturnsIdentity) {
  const double value = dqma::sweep::parallel_reduce<double>(
      0, 1, 42.0, [](std::size_t, std::size_t) { return 0.0; },
      [](double a, double b) { return a + b; });
  EXPECT_DOUBLE_EQ(value, 42.0);
}

TEST(ParamGridTest, EnumeratesRowMajorFirstAxisSlowest) {
  ParamGrid grid;
  grid.axis("n", std::vector<int>{16, 64});
  grid.axis("r", std::vector<int>{2, 4, 8});
  ASSERT_EQ(grid.size(), 6u);
  const auto points = grid.enumerate();
  ASSERT_EQ(points.size(), 6u);
  // Matches the nesting order of the serial loops the benches replaced:
  // for n { for r { ... } }.
  const std::vector<std::pair<long long, long long>> expected{
      {16, 2}, {16, 4}, {16, 8}, {64, 2}, {64, 4}, {64, 8}};
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].get_int("n"), expected[i].first) << i;
    EXPECT_EQ(points[i].get_int("r"), expected[i].second) << i;
  }
}

TEST(ParamGridTest, EmptyGridHasNoPoints) {
  ParamGrid grid;
  EXPECT_EQ(grid.size(), 0u);
  EXPECT_TRUE(grid.enumerate().empty());
}

TEST(ParamGridTest, MixedAxisTypes) {
  ParamGrid grid;
  grid.axis("mode", std::vector<std::string>{"fast", "exact"});
  grid.axis("delta", std::vector<double>{0.1, 0.3});
  const auto points = grid.enumerate();
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].get_string("mode"), "fast");
  EXPECT_DOUBLE_EQ(points[1].get_double("delta"), 0.3);
  EXPECT_EQ(points[3].get_string("mode"), "exact");
}

TEST(NamedValuesTest, TypedAccessorsAndLookup) {
  Metrics metrics;
  metrics.set("count", 7).set("rate", 0.25).set("ok", true).set("tag", "x");
  EXPECT_EQ(metrics.get_int("count"), 7);
  EXPECT_DOUBLE_EQ(metrics.get_double("rate"), 0.25);
  // get_double accepts integer entries (cost metrics are often integral).
  EXPECT_DOUBLE_EQ(metrics.get_double("count"), 7.0);
  EXPECT_TRUE(metrics.get_bool("ok"));
  EXPECT_EQ(metrics.get_string("tag"), "x");
  EXPECT_EQ(metrics.find("missing"), nullptr);
  EXPECT_THROW(metrics.get_int("rate"), std::invalid_argument);
}

std::vector<JobResult> sweep_with_threads(int threads) {
  ParamGrid grid;
  grid.axis("a", std::vector<int>{1, 2, 3, 4, 5, 6, 7});
  grid.axis("b", std::vector<int>{10, 20, 30});
  ThreadPool pool(threads);
  return run_sweep(pool, grid.enumerate(), /*base_seed=*/42,
                   [](const ParamPoint& p, Rng& rng) {
                     Metrics m;
                     // Mix grid parameters with per-job random draws: any
                     // cross-thread seed leakage or result misordering
                     // changes a metric.
                     m.set("sum", p.get_int("a") + p.get_int("b"));
                     m.set("draw", static_cast<long long>(rng.next_u64()));
                     m.set("unit", rng.next_double());
                     return m;
                   });
}

TEST(RunSweepTest, ResultsIdenticalAcrossThreadCounts) {
  const auto serial = sweep_with_threads(1);
  const auto parallel = sweep_with_threads(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].metrics, parallel[i].metrics) << "job " << i;
  }
}

TEST(RunSweepTest, DistinctJobsGetDistinctStreams) {
  const auto results = sweep_with_threads(2);
  std::set<long long> draws;
  for (const auto& result : results) {
    draws.insert(result.metrics.get_int("draw"));
  }
  EXPECT_EQ(draws.size(), results.size());
}

std::string json_bytes_with_threads(int threads) {
  ResultSink sink;
  sink.begin_experiment("determinism_probe", "threads-invariance fixture");
  ParamGrid grid;
  grid.axis("x", std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  const auto points = grid.enumerate();
  ThreadPool pool(threads);
  const auto results = run_sweep(
      pool, points, /*base_seed=*/7, [](const ParamPoint& p, Rng& rng) {
        Metrics m;
        m.set("value", rng.next_double() * p.get_double("x"));
        m.set("draw", static_cast<long long>(rng.next_u64()));
        return m;
      });
  for (std::size_t i = 0; i < points.size(); ++i) {
    sink.add_point(points[i], results[i].metrics, results[i].wall_ms);
  }
  sink.end_experiment(123.0);
  // Default options: timings excluded, exactly like the dqma_bench default.
  return sink.to_json({/*smoke=*/false, /*base_seed=*/7,
                       /*include_timings=*/false})
      .dump();
}

TEST(RunSweepTest, JsonBytesIdenticalAcrossThreadCounts) {
  // The acceptance criterion of the sweep subsystem, in miniature: same
  // seed, --threads 1 vs --threads 8, byte-identical JSON.
  const std::string serial = json_bytes_with_threads(1);
  const std::string parallel = json_bytes_with_threads(8);
  EXPECT_EQ(serial, parallel);
  // Sanity: the document is non-trivial and carries the schema tag.
  EXPECT_NE(serial.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(serial.find("determinism_probe"), std::string::npos);
}

TEST(ResultSinkTest, TimingsAreOptIn) {
  ResultSink sink;
  sink.begin_experiment("exp", "d");
  sink.add_point(ParamPoint().set("n", 1), Metrics().set("m", 2), 3.5);
  sink.end_experiment(9.0);
  const std::string without =
      sink.to_json({false, 0, /*include_timings=*/false}).dump();
  const std::string with =
      sink.to_json({false, 0, /*include_timings=*/true}).dump();
  EXPECT_EQ(without.find("wall_ms"), std::string::npos);
  EXPECT_NE(with.find("wall_ms"), std::string::npos);
}

TEST(JsonTest, EscapesAndFormatsDeterministically) {
  Json obj = Json::object();
  obj.add("text", Json("line\n\"quoted\"\\"));
  obj.add("tenth", Json(0.1));
  obj.add("count", Json(42));
  const std::string dumped = obj.dump();
  EXPECT_NE(dumped.find("\"line\\n\\\"quoted\\\"\\\\\""), std::string::npos);
  // Shortest round-trip double formatting: exactly "0.1".
  EXPECT_NE(dumped.find("\"tenth\": 0.1"), std::string::npos);
  EXPECT_NE(dumped.find("\"count\": 42"), std::string::npos);
}

TEST(Fnv1a64Test, MatchesReferenceVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(dqma::sweep::fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(dqma::sweep::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(dqma::sweep::fnv1a64("table2_eq"),
            dqma::sweep::fnv1a64("table2_relay"));
}

}  // namespace
