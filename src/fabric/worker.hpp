// The sweep fabric worker.
//
// Connects to a coordinator (fabric/coordinator.hpp), announces its slot
// count, and executes leased work units on that many threads, streaming
// each unit's CaseResult back as it completes -- or, when the unit throws,
// the error, which fails the coordinator's sweep.  A heartbeat thread keeps
// the coordinator's death detector fed; when the worker sits idle it
// politely asks for work (steal frames) instead of busy-polling.
//
// A lost connection is retried with bounded exponential backoff -- the
// coordinator re-issues whatever the worker held, so reconnecting is
// always safe -- and a shutdown frame ends the process cleanly.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace dynvote::fabric {

struct WorkerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Concurrent units this worker executes; 0 resolves to DV_JOBS
  /// (falling back to hardware concurrency).
  std::uint64_t slots = 0;
  /// Bounded reconnect policy: exponential backoff from
  /// `backoff_initial_ms` doubling to `backoff_max_ms`, giving up after
  /// `max_connect_attempts` consecutive failures.
  std::size_t max_connect_attempts = 20;
  std::uint64_t backoff_initial_ms = 250;
  std::uint64_t backoff_max_ms = 4000;
  /// Test hook: after sending this many results, fall silent -- stop
  /// heartbeating, reading, and executing, but keep the socket open -- so
  /// the coordinator can only detect the death through heartbeat silence
  /// and must re-issue whatever this worker still held.  0 = never.
  std::uint64_t die_after_units = 0;
  /// External stop flag, checked while backing off or playing dead; lets
  /// a test reap an in-process worker thread.  May be null.
  std::atomic<bool>* stop = nullptr;
};

enum class WorkerExit {
  /// Coordinator announced the sweep drained; clean goodbye.
  kShutdown,
  /// The die_after_units test hook fired.
  kDied,
  /// The external stop flag was raised.
  kStopped,
  /// Could not (re)connect -- or could not complete the handshake --
  /// within the attempt budget.
  kConnectFailed,
};

const char* to_string(WorkerExit exit_code);

/// Run the worker until shutdown, death, stop, or connection exhaustion.
WorkerExit run_worker(const WorkerOptions& options);

}  // namespace dynvote::fabric
