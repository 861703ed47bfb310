#include "sweep/thread_pool.hpp"

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace dqma::sweep {

namespace {
thread_local int t_batch_depth = 0;

/// Tells the core this is a spin-wait loop (x86 `pause`): saves power and
/// leaves the sibling hyperthread the pipeline.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spins until `ready()` holds or ThreadPool::kSpinWindow has elapsed;
/// returns ready()'s last value. The clock is read every few pauses only.
template <typename Ready>
bool spin_until(const Ready& ready) {
  const auto deadline =
      std::chrono::steady_clock::now() + ThreadPool::kSpinWindow;
  for (unsigned i = 1;; ++i) {
    if (ready()) {
      return true;
    }
    cpu_relax();
    if (i % 32 == 0 && std::chrono::steady_clock::now() >= deadline) {
      return ready();
    }
  }
}
}  // namespace

ThreadPool::BatchMark::BatchMark() { ++t_batch_depth; }
ThreadPool::BatchMark::~BatchMark() { --t_batch_depth; }

bool ThreadPool::executing_batch() { return t_batch_depth > 0; }

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  threads = std::max(threads, 1);
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int i = 0; i < threads - 1; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true);
  {
    // Spinning workers see stop_ directly; a worker between its parking
    // check and its wait holds mutex_, so it is asleep before this notify.
    std::lock_guard<std::mutex> lock(mutex_);
    batch_ready_.notify_all();
  }
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::run_inline(std::size_t count, const Job& job) {
  const BatchMark mark;
  std::exception_ptr error;
  for (std::size_t i = 0; i < count; ++i) {
    try {
      job(i);
    } catch (...) {
      if (!error) {
        error = std::current_exception();
      }
    }
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

void ThreadPool::run_indexed(std::size_t count, const Job& job) {
  if (count == 0) {
    return;
  }
  if (executing_batch()) {
    // Reentrant dispatch: the calling thread is already running a batch
    // job (of this pool or any other). Publishing a second batch on the
    // same pool would deadlock — the owner path below waits for workers
    // that are themselves waiting on this job — so nested batches run
    // serially inline, mirroring parallel_for's nested-region fallback.
    run_inline(count, job);
    return;
  }
  if (workers_.empty()) {
    // Single-threaded pool: inline is the pooled path.
    run_inline(count, job);
    return;
  }
  // Publish. No worker is attached here (the previous batch drained), so
  // the plain writes are ordered before any worker's reads by the
  // batch_job_ store.
  batch_count_.store(count);
  next_index_.store(0);
  failed_.store(false);
  first_error_ = nullptr;
  batch_job_.store(&job);
  generation_.fetch_add(1);
  if (parked_workers_.load() > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    batch_ready_.notify_all();
  }
  claim_and_run(job, count);  // the owner works too

  // Close, then wait for the attached workers to finish their last jobs.
  batch_job_.store(nullptr);
  const auto drained = [this] { return attached_.load() == 0; };
  if (!spin_until(drained)) {
    std::unique_lock<std::mutex> lock(mutex_);
    owner_parked_.store(true);
    batch_done_.wait(lock, drained);
    owner_parked_.store(false);
  }
  if (failed_.load()) {
    std::exception_ptr error = std::move(first_error_);
    first_error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    const auto woken = [this, &seen_generation] {
      return stop_.load() || generation_.load() != seen_generation;
    };
    if (!spin_until(woken)) {
      std::unique_lock<std::mutex> lock(mutex_);
      parked_workers_.fetch_add(1);
      batch_ready_.wait(lock, woken);
      parked_workers_.fetch_sub(1);
    }
    if (stop_.load()) {
      return;
    }
    seen_generation = generation_.load();
    attached_.fetch_add(1);
    const Job* job = batch_job_.load();
    if (job != nullptr) {
      claim_and_run(*job, batch_count_.load());
    }
    detach();
  }
}

void ThreadPool::detach() {
  if (attached_.fetch_sub(1) == 1 && owner_parked_.load()) {
    std::lock_guard<std::mutex> lock(mutex_);
    batch_done_.notify_one();
  }
}

void ThreadPool::claim_and_run(const Job& job, std::size_t count) {
  const BatchMark mark;
  for (;;) {
    const std::size_t i = next_index_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) {
      break;
    }
    try {
      job(i);
    } catch (...) {
      if (!failed_.exchange(true)) {
        first_error_ = std::current_exception();
      }
    }
  }
}

}  // namespace dqma::sweep
