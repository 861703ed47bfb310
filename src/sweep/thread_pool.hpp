// A fixed-size thread pool for the parallel sweep engine (DESIGN: the
// sweep layer fans parameter grids out across threads; determinism comes
// from per-job seeding in sweep.hpp, never from execution order).
//
// Deliberately work-stealing-free: sweeps are index-addressed batches, so
// a single shared atomic cursor distributes jobs with one fetch_add per
// job and no per-job locking.
//
// Spin-then-park hand-off. The kernel pool's regions are short (a few
// chunks of tens of microseconds, back to back with short serial gaps), so
// a futex wake per region would cost as much as the region. A worker that
// finishes a batch therefore spins on the batch generation (pause
// instruction, steady_clock deadline) for kSpinWindow before it parks on a
// condition variable, and the owner likewise spins for the batch to drain
// before it parks. Publishing, attaching and detaching are atomic
// operations; the mutex and condition variables are touched only to park,
// to wake a parked thread and at shutdown.
//
// What an idle pool costs: after each batch every worker burns at most
// kSpinWindow of CPU, then sleeps at zero CPU until the next batch or
// destruction. A pool whose batches arrive within the window never sleeps
// and never takes the mutex.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dqma::sweep {

/// Persistent pool of worker threads executing index-addressed batches.
///
/// The caller's thread participates in every batch, so ThreadPool(1) spawns
/// no workers at all and runs jobs inline — handy both for determinism
/// baselines (`--threads 1`) and for keeping the smoke path allocation-free.
/// run_indexed has one caller at a time (the batch state is single-owner);
/// distinct pools are independent.
class ThreadPool {
 public:
  /// How long an idle worker (or a waiting owner) spins before it parks.
  static constexpr std::chrono::microseconds kSpinWindow{100};

  /// `threads` <= 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(int threads = 0);

  /// Joins all workers, spinning or parked. Pending batches must have
  /// completed (run_indexed only returns once its batch is drained, so this
  /// holds by construction).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads applied to a batch (workers + the calling thread).
  int thread_count() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs job(0) .. job(count - 1), each exactly once, distributed across
  /// the pool; returns when all have finished. If any job throws, the first
  /// exception (in completion order) is rethrown here after the batch
  /// drains. Reentrant calls — a job calling run_indexed, on its own pool
  /// or any other — run the nested batch serially inline on the calling
  /// thread (matching parallel_for's nested-region fallback) instead of
  /// deadlocking on the already-claimed batch state.
  void run_indexed(std::size_t count,
                   const std::function<void(std::size_t)>& job);

  /// True while the calling thread is executing jobs of some ThreadPool
  /// batch — as a pool worker or as the owner thread participating in its
  /// own batch, for any pool in the process. The kernel-parallelism layer
  /// (sweep/parallel.hpp) consults this to run nested regions serially
  /// instead of deadlocking or oversubscribing.
  static bool executing_batch();

 private:
  /// RAII marker backing executing_batch().
  struct BatchMark {
    BatchMark();
    ~BatchMark();
    BatchMark(const BatchMark&) = delete;
    BatchMark& operator=(const BatchMark&) = delete;
  };

  using Job = std::function<void(std::size_t)>;

  void worker_loop();
  /// Leaves the current batch; wakes the owner if it parked waiting for
  /// the last attached worker.
  void detach();
  /// Claims and runs jobs of the batch identified by `job`/`count`.
  void claim_and_run(const Job& job, std::size_t count);
  /// Serial fallback with the pooled failure contract (every job runs, the
  /// first exception is rethrown after the batch drains): single-threaded
  /// pools and reentrant run_indexed calls.
  static void run_inline(std::size_t count, const Job& job);

  // Parking and shutdown only. A thread parks while holding mutex_ after
  // announcing itself in parked_workers_ / owner_parked_; the other side
  // changes the awaited atomic first, then reads that announcement and, if
  // set, locks mutex_ before notifying, so no wake-up is lost.
  std::mutex mutex_;
  std::condition_variable batch_ready_;
  std::condition_variable batch_done_;
  std::atomic<int> parked_workers_{0};
  std::atomic<bool> owner_parked_{false};
  std::atomic<bool> stop_{false};

  // The batch hand-off. The owner writes batch_count_ and resets
  // next_index_ and failed_ before it publishes batch_job_, then bumps
  // generation_ to wake spinning or parked workers. A worker attaches
  // (attached_ + 1) BEFORE it reads batch_job_; the owner closes the batch
  // (batch_job_ = nullptr) BEFORE it waits for attached_ == 0. With both
  // sequentially consistent, a worker either attached in time to be waited
  // for or reads nullptr (or a later batch) — never a drained batch the
  // owner has recycled. Every index has been claimed once the owner's own
  // claim loop ends, so attached_ == 0 after the close means done.
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<const Job*> batch_job_{nullptr};
  std::atomic<std::size_t> batch_count_{0};
  std::atomic<std::size_t> next_index_{0};
  std::atomic<int> attached_{0};
  // The first failing job claims failed_ and stores its exception; the
  // owner reads it after the batch drains.
  std::atomic<bool> failed_{false};
  std::exception_ptr first_error_;

  std::vector<std::thread> workers_;  // last: workers use every member above
};

}  // namespace dqma::sweep
