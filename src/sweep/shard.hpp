// Sharded, resumable sweep execution: the job-space partition behind
// `dqma_bench --shard i/N` and the append-only JSONL checkpoint log behind
// `--resume <log>`.
//
// Partition contract: every (experiment, series, point) job already owns a
// namespaced 64-bit key — derive_seed(series_seed, index), the exact seed
// (or would-be seed) of its private RNG stream. A shard selects the jobs
// with key % N == i. Because the key depends only on (global seed,
// experiment name, series name, index), the partition is deterministic and
// seed-stable, the N shards are disjoint by construction, and their union
// is provably the full job set — while every job's RNG stream is untouched,
// so shard runs reproduce exactly the values the unsharded run records.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "sweep/sweep.hpp"

namespace dqma::sweep {

/// A shard selection "index/count" (0-based). The default (0/1) selects
/// every job — the unsharded run.
struct ShardSpec {
  int index = 0;
  int count = 1;

  bool active() const { return count > 1; }

  /// True when this shard owns the job with partition key `key`.
  bool contains(std::uint64_t key) const {
    return !active() ||
           key % static_cast<std::uint64_t>(count) ==
               static_cast<std::uint64_t>(index);
  }

  /// "index/count", e.g. "2/4"; "0/1" for the unsharded run.
  std::string label() const;

  /// Parses "i/N" with 0 <= i < N; throws std::invalid_argument otherwise.
  static ShardSpec parse(const std::string& text);

  bool operator==(const ShardSpec& other) const = default;
};

/// The append-only JSONL result log: one header line pinning the run
/// configuration, then one compact JSON line per completed point. Opening
/// an existing log indexes its entries so the run skips finished points
/// (`--resume`); every newly completed point is appended, flushed, and —
/// unless DQMA_CHECKPOINT_FSYNC=0 — fsync()ed, so even a host crash (not
/// just a killed process) loses at most the point in flight. Only
/// newline-terminated lines count as committed: a torn final line (the
/// crash case) is dropped AND truncated from the file before appending
/// resumes, so the log stays replayable across repeated crash/resume
/// cycles. Corruption anywhere else, or a header from a different
/// (seed, smoke, shard) configuration, fails loudly rather than resuming
/// into a mismatched run.
class CheckpointLog {
 public:
  struct Entry {
    std::uint64_t key = 0;
    ParamPoint params;
    Metrics metrics;
    double wall_ms = 0.0;
  };

  /// Loads `path` if it exists (validating the header against the given
  /// configuration) and opens it for appending, writing the header first
  /// when the file is new or empty.
  ///
  /// Durability: every append is fsync()ed by default, so a line the
  /// process reported durable survives a host crash, not just a process
  /// kill. Set DQMA_CHECKPOINT_FSYNC=0 to trade that guarantee for append
  /// throughput (flush-only, the pre-fix behavior).
  CheckpointLog(std::string path, std::uint64_t base_seed, bool smoke,
                const ShardSpec& shard);
  ~CheckpointLog();

  CheckpointLog(const CheckpointLog&) = delete;
  CheckpointLog& operator=(const CheckpointLog&) = delete;

  /// The completed entry for (experiment, canonical order), or nullptr.
  /// The caller verifies the entry's key against the job's partition key —
  /// a mismatch means the log belongs to a different workload shape.
  /// Pointers stay valid across append() (map nodes are stable); append()
  /// also indexes the new line, so find() sees points completed this run.
  const Entry* find(const std::string& experiment, std::size_t order) const;

  /// Appends one completed point, flushes, and indexes it for find().
  /// Thread-safe: sweeps report completions from pool threads.
  void append(const std::string& experiment, const std::string& series,
              std::size_t order, std::uint64_t key, const ParamPoint& params,
              const JobResult& result);

  /// Committed entries (loaded at open plus appended since).
  std::size_t loaded_entries() const;
  /// True when appends are fsync()ed (the default; DQMA_CHECKPOINT_FSYNC=0
  /// disables). False also on platforms without fsync.
  bool syncing() const { return sync_fd_ >= 0; }
  /// True when the containing directory was fsync()ed at open, making the
  /// log file's very existence crash-durable (same knob as syncing()).
  bool directory_synced() const { return directory_synced_; }

 private:
  /// Commits buffered bytes to the OS (flush) and, when syncing, to stable
  /// storage (fsync). Callers hold mutex_.
  void commit_locked();

  std::string path_;
  std::map<std::pair<std::string, std::size_t>, Entry> entries_;
  mutable std::mutex mutex_;
  std::ofstream out_;
  int sync_fd_ = -1;  ///< second fd on path_ used only for fsync()
  bool directory_synced_ = false;
};

}  // namespace dqma::sweep
