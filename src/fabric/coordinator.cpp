#include "fabric/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "fabric/socket.hpp"
#include "fabric/wire.hpp"
#include "obs/metrics.hpp"
#include "runner/artifact.hpp"
#include "runner/progress.hpp"
#include "runner/sweep.hpp"
#include "util/env.hpp"

namespace dynvote::fabric {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Mirror of the in-process runner's auto shard floor: boundaries never
/// affect merged results, so agreement here is a scheduling nicety, not a
/// correctness requirement.
constexpr std::uint64_t kAutoShardFloor = 32;

std::uint64_t shard_size_for(std::uint64_t runs, std::size_t split_hint,
                             std::uint64_t min_shard_runs) {
  const std::uint64_t floor =
      min_shard_runs == 0 ? kAutoShardFloor : min_shard_runs;
  const std::uint64_t target =
      runs / (static_cast<std::uint64_t>(split_hint) * 4);
  return std::max(floor, target);
}

/// Holder ids at or above this are the coordinator's own executor
/// threads; below are remote connection ids.
constexpr std::size_t kLocalHolderBase = SIZE_MAX / 2;

constexpr std::size_t kNoHolder = SIZE_MAX;

/// A work unit in the coordinator's table.  The table is append-only (a
/// deque, so references stay stable) and a unit's id is its index.
struct Unit {
  enum class State { kPending, kLeased, kDone };

  std::size_t case_index = 0;
  std::uint64_t first_run = 0;
  std::uint64_t run_count = 0;
  /// A whole cascading case, started fresh wherever it runs.
  bool cascading = false;
  State state = State::kPending;
  std::size_t holder = kNoHolder;
  /// Remote leases only: when to give up and re-issue.
  Clock::time_point deadline{};
};

struct CasePartial {
  std::uint64_t first_run = 0;
  CaseResult result;
};

struct CaseProgress {
  std::vector<CasePartial> partials;
  double compute_seconds = 0.0;
  std::uint64_t finished_runs = 0;
  bool done = false;
  std::size_t steals = 0;
  std::size_t last_holder = kNoHolder;
};

struct Connection {
  std::size_t id = 0;
  Socket socket;
  std::thread reader;
  /// Serializes writes to `socket` (results/grants/shutdown can be sent
  /// from several threads).  Lock order: send_mutex may be taken before
  /// the scheduler mutex, never after.
  std::mutex send_mutex;

  // Everything below is guarded by the coordinator's scheduler mutex.
  std::string peer = "worker";      // dvlint: guarded_by(mutex)
  std::uint64_t slots = 1;          // dvlint: guarded_by(mutex)
  std::uint64_t credit = 0;         // dvlint: guarded_by(mutex)
  std::uint64_t units_done = 0;     // dvlint: guarded_by(mutex)
  double busy_results = 0.0;        // dvlint: guarded_by(mutex)
  double busy_reported = 0.0;       // dvlint: guarded_by(mutex)
  /// Latest cumulative metrics snapshot from this worker's heartbeats
  /// (envelope v4+; stays empty for older peers).
  obs::MetricsSnapshot metrics;     // dvlint: guarded_by(mutex)
  /// When the previous heartbeat arrived; zero time_point = none yet.
  Clock::time_point last_heartbeat{};  // dvlint: guarded_by(mutex)
  bool registered = false;          // dvlint: guarded_by(mutex)
  bool dead = false;                // dvlint: guarded_by(mutex)
};

}  // namespace

std::uint64_t lease_ms_from_env(std::uint64_t fallback) {
  return env_u64("DV_LEASE_MS", fallback);
}

struct Coordinator::Impl {
  SweepSpec spec;
  std::uint64_t lease_ms = 30000;
  std::uint64_t heartbeat_ms = 1000;
  std::size_t local_jobs = 0;
  Listener listener;
  std::vector<CaseDescriptor> case_table;

  std::mutex mutex;
  std::condition_variable local_work;
  std::condition_variable drained;
  std::deque<Unit> units;               // dvlint: guarded_by(mutex)
  std::deque<std::size_t> pending;      // dvlint: guarded_by(mutex)
  // `case_progress` is deliberately unannotated: a case's slot is touched
  // unlocked by its exclusive holder (finalize) -- the exclusivity
  // argument lives at that site, not in a lock.
  std::vector<CaseProgress> case_progress;
  std::size_t cases_done = 0;           // dvlint: guarded_by(mutex)
  bool all_done = false;                // dvlint: guarded_by(mutex)
  bool aborting = false;                // dvlint: guarded_by(mutex)
  std::exception_ptr failure;           // dvlint: guarded_by(mutex)
  FabricTelemetry telemetry;            // dvlint: guarded_by(mutex)
  std::uint64_t local_units_done = 0;   // dvlint: guarded_by(mutex)
  double local_busy_seconds = 0.0;      // dvlint: guarded_by(mutex)
  std::vector<std::unique_ptr<Connection>> connections;  // dvlint: guarded_by(mutex)

  std::mutex progress_mutex;
  std::size_t cases_reported = 0;       // dvlint: guarded_by(progress_mutex)
  SweepResult result;

  Impl(SweepSpec sweep_spec, const CoordinatorOptions& options)
      : spec(std::move(sweep_spec)),
        listener(options.port) {
    lease_ms = options.lease_ms != 0 ? options.lease_ms
                                     : lease_ms_from_env(30000);
    heartbeat_ms = options.heartbeat_ms != 0 ? options.heartbeat_ms : 1000;
    local_jobs =
        options.local_jobs == CoordinatorOptions::kAutoLocalJobs
            ? (spec.jobs != 0 ? spec.jobs : jobs_from_env())
            : static_cast<std::size_t>(options.local_jobs);

    case_table.reserve(spec.cases.size());
    for (const SweepCase& c : spec.cases) {
      if (c.spec.algorithm_factory) {
        throw std::invalid_argument(
            "case '" + case_label(c) +
            "' uses a custom algorithm factory and cannot be dispatched "
            "over the fabric");
      }
      CaseDescriptor desc;
      desc.label = c.algorithm.empty()
                       ? std::string(to_string(c.spec.algorithm))
                       : c.algorithm;
      desc.spec = c.spec;
      case_table.push_back(std::move(desc));
    }

    build_units();
    if (cases_done == spec.cases.size()) all_done = true;
  }

  /// Split every case into units up front.  The split is a pure
  /// scheduling choice: merged results are identical for any split, which
  /// is what makes the distributed fingerprint match the serial one.
  // dvlint: requires_lock(mutex) -- only the constructor calls it pre-thread
  void build_units() {
    const std::size_t case_count = spec.cases.size();
    case_progress.resize(case_count);
    const std::size_t split_hint = std::max<std::size_t>(4, local_jobs);
    for (std::size_t i = 0; i < case_count; ++i) {
      const CaseSpec& cs = spec.cases[i].spec;
      const bool cascading = cs.mode == RunMode::kCascading;
      if (cascading || cs.runs == 0) {
        // A cascading case threads one world through every run, so it
        // travels (or runs locally) as one whole unit.
        push_unit(Unit{i, 0, cs.runs, cascading});
        continue;
      }
      const std::uint64_t size =
          shard_size_for(cs.runs, split_hint, spec.min_shard_runs);
      for (std::uint64_t first = 0; first < cs.runs; first += size) {
        push_unit(Unit{i, first, std::min(size, cs.runs - first), false});
      }
    }
  }

  void push_unit(Unit unit) {  // dvlint: requires_lock(mutex)
    units.push_back(std::move(unit));
    pending.push_back(units.size() - 1);
  }

  ProgressSink& progress_sink() {
    return spec.progress != nullptr ? *spec.progress
                                    : default_progress_sink();
  }

  // dvlint: requires_lock(mutex)
  void note_claim_locked(std::size_t case_index, std::size_t holder) {
    CaseProgress& cp = case_progress[case_index];
    if (cp.last_holder != kNoHolder && cp.last_holder != holder) {
      ++cp.steals;
    }
    cp.last_holder = holder;
    ++telemetry.units_issued;
    DV_OBS_INC("fabric.units_issued");
  }

  /// Accept one unit's result.  First result wins; a late duplicate --
  /// from a straggler whose lease was re-issued -- is dropped, which is
  /// sound because shard execution is deterministic: any two results for
  /// the same unit are bit-identical.
  void submit_result(std::size_t unit_id, CaseResult&& shard,
                     double compute_seconds) {
    bool finalize = false;
    std::size_t finalize_index = 0;
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (aborting || unit_id >= units.size()) return;
      Unit& unit = units[unit_id];
      if (unit.state == Unit::State::kDone) {
        ++telemetry.duplicate_results;
        DV_OBS_INC("fabric.duplicate_results");
        return;
      }
      unit.state = Unit::State::kDone;
      CaseProgress& cp = case_progress[unit.case_index];
      cp.partials.push_back(CasePartial{unit.first_run, std::move(shard)});
      cp.compute_seconds += compute_seconds;
      cp.finished_runs += unit.run_count;
      const CaseSpec& cs = spec.cases[unit.case_index].spec;
      if (!cp.done && cp.finished_runs >= cs.runs) {
        cp.done = true;
        finalize = true;
        finalize_index = unit.case_index;
        if (++cases_done == spec.cases.size()) {
          all_done = true;
          drained.notify_all();
          local_work.notify_all();
        }
      }
    }
    if (finalize) finalize_case(finalize_index);
  }

  /// Merge a finished case's shards in run order and report it.  Called
  /// without the scheduler lock: once a case is done no thread touches
  /// its partials again.
  void finalize_case(std::size_t case_index) {
    CaseProgress& cp = case_progress[case_index];
    CaseOutcome& outcome = result.cases[case_index];
    const SweepCase& sweep_case = spec.cases[case_index];
    outcome.algorithm = sweep_case.algorithm.empty()
                            ? std::string(to_string(sweep_case.spec.algorithm))
                            : sweep_case.algorithm;
    outcome.spec = sweep_case.spec;
    std::sort(cp.partials.begin(), cp.partials.end(),
              [](const CasePartial& a, const CasePartial& b) {
                return a.first_run < b.first_run;
              });
    outcome.shards = cp.partials.size();
    outcome.steals = cp.steals;
    if (!cp.partials.empty()) {
      outcome.result = std::move(cp.partials[0].result);
      for (std::size_t s = 1; s < cp.partials.size(); ++s) {
        outcome.result.merge(cp.partials[s].result);
      }
    }
    outcome.compute_seconds = cp.compute_seconds;
    if (outcome.compute_seconds > 0.0) {
      outcome.runs_per_sec = static_cast<double>(outcome.result.runs) /
                             outcome.compute_seconds;
      outcome.rounds_per_sec =
          static_cast<double>(outcome.result.total_rounds) /
          outcome.compute_seconds;
      outcome.deliveries_per_sec =
          static_cast<double>(outcome.result.total_deliveries) /
          outcome.compute_seconds;
    }
    // The allocation probe lives inside the in-process runner; fabric
    // manifests simply omit the field (negative sentinel).
    outcome.steady_allocs_per_round = -1.0;

    CaseTelemetry case_telemetry;
    case_telemetry.label = case_label(sweep_case);
    case_telemetry.runs = outcome.result.runs;
    case_telemetry.compute_seconds = outcome.compute_seconds;
    case_telemetry.runs_per_sec = outcome.runs_per_sec;
    case_telemetry.invariant_checks = outcome.result.invariant_checks;
    case_telemetry.availability_percent =
        outcome.result.availability_percent();

    std::lock_guard<std::mutex> lock(progress_mutex);
    progress_sink().case_done(case_telemetry, ++cases_reported,
                              spec.cases.size());
  }

  /// Build the lease frame for `unit_id` (scheduler lock held).  No lease
  /// carries a snapshot: a cascading unit is a whole case, started fresh.
  LeaseFrame lease_for_locked(std::size_t unit_id) {  // dvlint: requires_lock(mutex)
    const Unit& unit = units[unit_id];
    LeaseFrame lease;
    lease.unit_id = unit_id;
    lease.case_index = unit.case_index;
    lease.first_run = unit.first_run;
    lease.run_count = unit.run_count;
    lease.cascading = unit.cascading;
    return lease;
  }

  /// Grant up to `top_up` fresh leases plus whatever steal credit the
  /// connection has accumulated.  Send happens outside the scheduler
  /// lock; a send failure escalates to a disconnect, which re-queues the
  /// just-leased units along with everything else the worker held.
  void grant(Connection* conn, std::uint64_t top_up) {
    std::vector<std::vector<std::byte>> frames;
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (conn->dead || aborting || all_done) return;
      const std::uint64_t budget = top_up + conn->credit;
      while (frames.size() < budget && !pending.empty()) {
        const std::size_t unit_id = pending.front();
        pending.pop_front();
        Unit& unit = units[unit_id];
        // Lazy delete: a straggler result can complete a unit while a
        // re-issued copy of its id still sits queued; leasing that copy
        // would execute and merge the unit twice.
        if (unit.state != Unit::State::kPending) continue;
        unit.state = Unit::State::kLeased;
        unit.holder = conn->id;
        unit.deadline =
            Clock::now() + std::chrono::milliseconds(lease_ms);
        note_claim_locked(unit.case_index, conn->id);
        frames.push_back(encode_frame(Frame{lease_for_locked(unit_id)}));
      }
      const std::uint64_t granted = frames.size();
      if (granted > top_up) telemetry.units_stolen += granted - top_up;
      conn->credit = budget - granted;
    }
    if (frames.empty()) return;
    bool send_failed = false;
    {
      std::lock_guard<std::mutex> send_lock(conn->send_mutex);
      for (const std::vector<std::byte>& frame : frames) {
        try {
          conn->socket.send_frame(frame);
        } catch (const SocketError&) {
          send_failed = true;
          break;
        }
      }
    }
    if (send_failed) disconnect(conn);
  }

  /// Declare a connection finished.  Mid-sweep this is a death: its
  /// leased units go back to the pending queue for re-issue.  After the
  /// sweep drained it is a clean goodbye.
  void disconnect(Connection* conn) {
    bool requeued = false;
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (conn->dead) return;
      conn->dead = true;
      conn->socket.shutdown_both();
      const bool clean = all_done || aborting;
      if (conn->registered) {
        FabricWorkerTelemetry worker;
        worker.peer = conn->peer;
        worker.slots = conn->slots;
        worker.units_done = conn->units_done;
        worker.busy_seconds =
            std::max(conn->busy_results, conn->busy_reported);
        worker.died = !clean;
        telemetry.workers.push_back(std::move(worker));
        if (!clean) ++telemetry.workers_died;
      }
      conn->credit = 0;
      if (!clean) {
        for (std::size_t id = 0; id < units.size(); ++id) {
          Unit& unit = units[id];
          if (unit.state == Unit::State::kLeased && unit.holder == conn->id) {
            unit.state = Unit::State::kPending;
            unit.holder = kNoHolder;
            pending.push_back(id);
            ++telemetry.units_reissued;
            DV_OBS_INC("fabric.units_reissued");
            requeued = true;
          }
        }
        if (requeued) local_work.notify_all();
      }
    }
    if (requeued) pump_grants();
  }

  /// Re-issue remote leases that blew their deadline.  The straggler may
  /// still return a result later; idempotent acceptance handles it.
  void reap_expired_leases() {
    bool requeued = false;
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (all_done || aborting) return;
      const Clock::time_point now = Clock::now();
      for (std::size_t id = 0; id < units.size(); ++id) {
        Unit& unit = units[id];
        if (unit.state != Unit::State::kLeased) continue;
        if (unit.holder >= kLocalHolderBase) continue;  // local: cannot die
        if (now < unit.deadline) continue;
        unit.state = Unit::State::kPending;
        unit.holder = kNoHolder;
        pending.push_back(id);
        ++telemetry.units_reissued;
        DV_OBS_INC("fabric.units_reissued");
        requeued = true;
      }
      if (requeued) local_work.notify_all();
    }
    if (requeued) pump_grants();
  }

  /// Offer newly pending units to every worker with outstanding credit.
  void pump_grants() {
    std::vector<Connection*> waiting;
    {
      std::lock_guard<std::mutex> lock(mutex);
      for (const auto& conn : connections) {
        if (!conn->dead && conn->registered && conn->credit > 0) {
          waiting.push_back(conn.get());
        }
      }
    }
    for (Connection* conn : waiting) grant(conn, 0);
  }

  bool should_stop() {
    std::lock_guard<std::mutex> lock(mutex);
    return all_done || aborting;
  }

  void accept_loop() {
    while (!should_stop()) {
      std::optional<Socket> accepted;
      try {
        accepted = listener.accept(100);
      } catch (const SocketError&) {
        break;  // listener failed; local executors can still finish
      }
      if (accepted.has_value()) {
        auto conn = std::make_unique<Connection>();
        conn->socket = std::move(*accepted);
        Connection* raw = conn.get();
        {
          std::lock_guard<std::mutex> lock(mutex);
          conn->id = connections.size();
          connections.push_back(std::move(conn));
        }
        raw->reader = std::thread([this, raw] { connection_loop(raw); });
      }
      reap_expired_leases();
    }
  }

  void connection_loop(Connection* conn) {
    try {
      conn->socket.set_recv_timeout_ms(10000);
      const auto first = conn->socket.recv_frame(kMaxFrameBytes);
      if (!first.has_value()) {
        disconnect(conn);
        return;
      }
      const Frame frame = decode_frame(*first);
      const HelloFrame* hello = std::get_if<HelloFrame>(&frame);
      if (hello == nullptr || hello->coordinator ||
          hello->schema != kFabricSchema) {
        ShutdownFrame reject;
        reject.reason = "handshake rejected: expected a worker hello with "
                        "schema " + std::string(kFabricSchema);
        std::lock_guard<std::mutex> send_lock(conn->send_mutex);
        try {
          conn->socket.send_frame(encode_frame(Frame{reject}));
        } catch (const SocketError&) {
        }
        disconnect(conn);
        return;
      }

      HelloFrame reply;
      reply.coordinator = true;
      reply.build = artifact_git_describe();
      reply.lease_ms = lease_ms;
      reply.heartbeat_ms = heartbeat_ms;
      reply.cases = case_table;
      {
        std::lock_guard<std::mutex> send_lock(conn->send_mutex);
        conn->socket.send_frame(encode_frame(Frame{reply}));
      }
      std::uint64_t slots = 0;
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (!hello->build.empty()) conn->peer = hello->build;
        conn->slots = std::max<std::uint64_t>(1, hello->slots);
        slots = conn->slots;
        conn->registered = true;
        ++telemetry.workers_connected;
      }
      // Silence past five heartbeat cadences = a dead worker.
      conn->socket.set_recv_timeout_ms(
          std::max<std::uint64_t>(heartbeat_ms * 5, 2000));
      // One lease per slot plus one in flight keeps the pipe full.
      grant(conn, slots + 1);

      for (;;) {
        const auto payload = conn->socket.recv_frame(kMaxFrameBytes);
        if (!payload.has_value()) break;  // clean EOF
        Frame incoming = decode_frame(*payload);
        if (ResultFrame* res = std::get_if<ResultFrame>(&incoming)) {
          {
            std::lock_guard<std::mutex> lock(mutex);
            ++conn->units_done;
            conn->busy_results += res->compute_seconds;
          }
          submit_result(res->unit_id, std::move(res->result),
                        res->compute_seconds);
          grant(conn, 1);
        } else if (const HeartbeatFrame* hb =
                       std::get_if<HeartbeatFrame>(&incoming)) {
          const auto now = Clock::now();
          std::lock_guard<std::mutex> lock(mutex);
          conn->busy_reported = hb->busy_seconds;
          if (!hb->metrics.empty()) conn->metrics = hb->metrics;
          // Inter-heartbeat gap: the live proxy for worker link latency
          // and scheduler stalls (cadence is the contracted heartbeat_ms).
          if (conn->last_heartbeat != Clock::time_point{}) {
            const double gap_ms =
                std::chrono::duration<double, std::milli>(
                    now - conn->last_heartbeat)
                    .count();
            DV_OBS_RECORD("fabric.heartbeat_gap_ms", gap_ms);
          }
          conn->last_heartbeat = now;
        } else if (const StealFrame* steal =
                       std::get_if<StealFrame>(&incoming)) {
          {
            std::lock_guard<std::mutex> lock(mutex);
            conn->credit += std::max<std::uint64_t>(1, steal->want);
          }
          grant(conn, 0);
        } else {
          break;  // protocol violation: workers send no other frame
        }
      }
    } catch (const SocketError&) {
      // timeout (heartbeat silence) or transport failure: death
    } catch (const DecodeError&) {
      // garbage on the wire: drop the connection, keep the sweep
    }
    disconnect(conn);
  }

  /// Claim the next unit from the shared queue for a local executor.
  // dvlint: requires_lock(mutex)
  bool claim_local(std::unique_lock<std::mutex>& lock, std::size_t holder,
                   std::size_t& out_unit) {
    for (;;) {
      if (all_done || aborting) return false;
      if (pending.empty()) {
        local_work.wait(lock);
        continue;
      }
      out_unit = pending.front();
      pending.pop_front();
      Unit& unit = units[out_unit];
      // Same lazy delete as grant(): skip ids whose unit a straggler
      // result already completed while they waited in the queue.
      if (unit.state != Unit::State::kPending) continue;
      unit.state = Unit::State::kLeased;
      unit.holder = holder;
      note_claim_locked(unit.case_index, holder);
      return true;
    }
  }

  void executor_loop(std::size_t executor_index) {
    const std::size_t holder = kLocalHolderBase + executor_index;
    std::unique_lock<std::mutex> lock(mutex);
    std::size_t unit_id = 0;
    while (claim_local(lock, holder, unit_id)) {
      const Unit unit = units[unit_id];
      const CaseSpec& cs = spec.cases[unit.case_index].spec;
      lock.unlock();
      const auto start = Clock::now();

      CaseResult shard =
          unit.cascading ? run_case(cs)
                         : run_case_shard(cs, unit.first_run, unit.run_count);
      const double seconds = seconds_since(start);
      {
        std::lock_guard<std::mutex> stats_lock(mutex);
        ++local_units_done;
        local_busy_seconds += seconds;
      }
      submit_result(unit_id, std::move(shard), seconds);
      lock.lock();
    }
  }

  SweepResult run() {
    const auto sweep_start = Clock::now();
    maybe_enable_trace_from_env();
    const obs::MetricsSnapshot metrics_base = obs::snapshot_metrics();
    result.jobs = std::max<std::size_t>(1, local_jobs);
    result.cases.resize(spec.cases.size());

    std::thread acceptor([this] { accept_loop(); });
    std::vector<std::thread> executors;
    executors.reserve(local_jobs);
    for (std::size_t w = 0; w < local_jobs; ++w) {
      executors.emplace_back([this, w] {
        try {
          executor_loop(w);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex);
          if (!failure) failure = std::current_exception();
          aborting = true;
          drained.notify_all();
          local_work.notify_all();
        }
      });
    }

    {
      std::unique_lock<std::mutex> lock(mutex);
      drained.wait(lock, [this] { return all_done || aborting; });
    }

    acceptor.join();

    // Drain connections: a polite shutdown frame, then unblock readers.
    std::vector<Connection*> live;
    {
      std::lock_guard<std::mutex> lock(mutex);
      for (const auto& conn : connections) {
        if (!conn->dead) live.push_back(conn.get());
      }
    }
    for (Connection* conn : live) {
      ShutdownFrame bye;
      bye.reason = "sweep drained";
      std::lock_guard<std::mutex> send_lock(conn->send_mutex);
      try {
        conn->socket.send_frame(encode_frame(Frame{bye}));
      } catch (const SocketError&) {
      }
      conn->socket.shutdown_both();
    }
    // The acceptor is joined, so `connections` no longer grows; join the
    // readers without the scheduler lock (their exit path takes it).
    // dvlint: ignore(guarded-by)
    for (const auto& conn : connections) {
      if (conn->reader.joinable()) conn->reader.join();
    }
    for (std::thread& t : executors) t.join();

    {
      // Every thread is joined: the lock is uncontended and taken only so
      // the guarded-by discipline stays checkable end to end.
      std::lock_guard<std::mutex> lock(mutex);
      if (failure) std::rethrow_exception(failure);

      result.wall_seconds = seconds_since(sweep_start);
      telemetry.used = true;
      if (local_jobs > 0) {
        FabricWorkerTelemetry local;
        local.peer = "local";
        local.slots = local_jobs;
        local.units_done = local_units_done;
        local.busy_seconds = local_busy_seconds;
        telemetry.workers.insert(telemetry.workers.begin(), std::move(local));
      }
      result.fabric = telemetry;

      // The manifest's observability block: this process's delta for the
      // sweep, plus the latest cumulative snapshot each worker shipped in
      // its heartbeats (v4+ peers; empty and harmless for older ones).
      result.metrics = obs::snapshot_metrics().delta_since(metrics_base);
      for (const auto& conn : connections) {
        result.metrics.merge(conn->metrics);
      }
    }
    // All local executors are joined, so the trace rings are quiescent.
    result.trace_path = drain_trace_to_artifact(spec.name);

    progress_sink().sweep_done(
        spec.name.empty() ? "(unnamed sweep)" : spec.name,
        spec.cases.size(), result.wall_seconds);
    if (!spec.name.empty()) {
      result.artifact_path = write_manifest(spec, result);
    }
    return result;
  }
};

Coordinator::Coordinator(SweepSpec spec, CoordinatorOptions options)
    : impl_(std::make_unique<Impl>(std::move(spec), options)) {}

Coordinator::~Coordinator() = default;

std::uint16_t Coordinator::port() const { return impl_->listener.port(); }

SweepResult Coordinator::run() { return impl_->run(); }

}  // namespace dynvote::fabric
