// The sweep fabric coordinator.
//
// Owns a sweep end to end: binds a TCP port, leases work units to workers
// that connect, and runs units on executor threads of its own.  Every
// scheduling decision -- the split, claims, first-result-wins acceptance,
// the run-order merge -- lives in the runner's UnitBoard (runner/sweep.hpp),
// the same board run_sweep drains, so a coordinator produces the exact
// `results_fingerprint` a single-process `run_sweep` of the same spec
// produces.  With no workers connected it behaves like a plain in-process
// sweep; with workers, placement is just scheduling.
//
// What the coordinator adds is remote leasing, and robustness is
// first-class:
//  * every remote lease carries a deadline; a unit not returned in time is
//    re-issued to whoever asks next (the straggler's late result, should
//    it still arrive, is dropped idempotently by unit id);
//  * workers must heartbeat; a connection silent past the heartbeat
//    timeout -- or one that errors or closes mid-sweep -- is declared
//    dead and its leased units re-issued;
//  * duplicate results are safe by construction: units are deterministic,
//    so the first accepted result for a unit id is as good as any other;
//  * a unit that throws fails the sweep, whether it ran on an executor
//    thread or on a worker (which reports the error in its result frame):
//    run() drains the connections and rethrows.
#pragma once

#include <cstdint>
#include <memory>

#include "runner/sweep.hpp"

namespace dynvote::fabric {

struct CoordinatorOptions {
  /// TCP port to listen on; 0 picks an ephemeral port (read it back via
  /// Coordinator::port()).  The dvdispatch tool defaults this from
  /// DV_FABRIC_PORT.
  std::uint16_t port = 0;
  /// Executor threads on the coordinator itself.  kAutoLocalJobs resolves
  /// to the sweep's jobs setting (DV_JOBS fallback); 0 is honored and
  /// means "dispatch only" -- every unit then waits for a remote worker.
  static constexpr std::uint64_t kAutoLocalJobs = UINT64_MAX;
  std::uint64_t local_jobs = kAutoLocalJobs;
  /// Per-unit lease deadline; a unit outstanding longer is re-issued.
  /// 0 means the default, 30000.
  std::uint64_t lease_ms = 0;
  /// Heartbeat cadence demanded of workers; a connection silent for five
  /// cadences is declared dead.
  std::uint64_t heartbeat_ms = 1000;
};

class Coordinator {
 public:
  /// Binds the listener (so `port()` is valid immediately) and splits the
  /// sweep into units.  Throws std::invalid_argument if any case carries a
  /// custom algorithm_factory -- those cannot travel -- and SocketError if
  /// the port cannot be bound.
  Coordinator(SweepSpec spec, CoordinatorOptions options);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  std::uint16_t port() const;

  /// Execute the sweep to completion: accept workers, lease units, run
  /// units locally, survive worker deaths, then drain, send shutdown to
  /// every live worker, and write the manifest (when the spec is named).
  /// After the drain, a unit that threw on an executor thread rethrows its
  /// exception, and one a worker reported failed throws
  /// std::runtime_error with its message.  Blocks; call once.
  SweepResult run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dynvote::fabric
