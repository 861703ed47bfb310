// Deterministic fault injection for crash-tolerance tests.
//
// The layer is compiled in always and armed through the DQMA_FAULT
// environment variable; when the variable is unset every probe is a single
// relaxed atomic load, so production paths pay nothing. A spec is a
// comma-separated list of clauses
//
//   [site:]action[:arg]
//
// where `site` narrows the clause to one instrumented subsystem
// (checkpoint, serve; omitted = every site) and `action` is one of
//
//   crash_after:N   _exit(137) on the N-th matching probe (SIGKILL-style:
//                   no destructors, no atexit, buffers not flushed)
//   stall:MS        sleep MS milliseconds at every matching probe
//   torn_write      tear the next matching write: the caller persists a
//                   strict prefix of the record, then crashes
//
// Examples: DQMA_FAULT=checkpoint:crash_after:3 kills a --resume run at its
// third checkpoint append; DQMA_FAULT=checkpoint:torn_write leaves a
// half-written JSONL line for the resume path to tolerate.
//
// Instrumented code calls point() at protocol steps (crash_after / stall
// fire there) and asks should_tear() before durable writes. Probe
// counters are process-wide and thread-safe; which concurrent probe hits N
// is scheduling dependent, which is the point — recovery must be byte-exact
// for any kill schedule.
#pragma once

namespace dqma::util::fault {

enum class Site { kCheckpoint = 0, kServe };

/// Probe at a protocol step: may stall, may never return (crash_after).
void point(Site site);

/// True when the next durable write at `site` should be torn. The caller
/// writes a strict prefix of the record, flushes it, then calls
/// crash_now() — the torn record must be observable by the recovery path.
bool should_tear(Site site);

/// Immediate SIGKILL-style process exit (status 137), skipping destructors
/// and atexit handlers. Used by torn-write call sites after the partial
/// flush; exposed so tests can assert on the exit status.
[[noreturn]] void crash_now();

/// Re-parses the given spec in place of the environment (nullptr or ""
/// disarms). Test-only: call while no other thread is probing.
void reset_for_test(const char* spec);

}  // namespace dqma::util::fault
