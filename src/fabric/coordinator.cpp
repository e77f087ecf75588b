#include "fabric/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "fabric/socket.hpp"
#include "fabric/wire.hpp"
#include "runner/artifact.hpp"
#include "runner/sweep.hpp"
#include "util/env.hpp"

namespace dynvote::fabric {

namespace {

using Clock = std::chrono::steady_clock;

/// Holder ids at or above this are the coordinator's own executor
/// threads; below are remote connection ids.
constexpr std::size_t kLocalHolderBase = SIZE_MAX / 2;

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
  UnitBoard board;                      // dvlint: guarded_by(mutex)
  /// Per unit id, when its current remote lease runs out.
  std::vector<Clock::time_point> deadlines;  // dvlint: guarded_by(mutex)
  bool aborting = false;                // dvlint: guarded_by(mutex)
  std::exception_ptr failure;           // dvlint: guarded_by(mutex)
  FabricTelemetry telemetry;            // dvlint: guarded_by(mutex)
  std::uint64_t local_units_done = 0;   // dvlint: guarded_by(mutex)
  double local_busy_seconds = 0.0;      // dvlint: guarded_by(mutex)
  std::vector<std::unique_ptr<Connection>> connections;  // dvlint: guarded_by(mutex)

  Impl(SweepSpec sweep_spec, const CoordinatorOptions& options)
      : spec(std::move(sweep_spec)),
        local_jobs(options.local_jobs == CoordinatorOptions::kAutoLocalJobs
                       ? (spec.jobs != 0 ? spec.jobs : jobs_from_env())
                       : static_cast<std::size_t>(options.local_jobs)),
        listener(options.port),
        board(spec, local_jobs) {
    lease_ms = options.lease_ms != 0 ? options.lease_ms
                                     : lease_ms_from_env(30000);
    heartbeat_ms = options.heartbeat_ms != 0 ? options.heartbeat_ms : 1000;

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
    deadlines.resize(board.unit_count());
  }

  /// Stop the sweep; run() rethrows the first failure after the drain.
  void fail(std::exception_ptr error) {  // dvlint: requires_lock(mutex)
    if (!failure) failure = std::move(error);
    aborting = true;
    drained.notify_all();
    local_work.notify_all();
  }

  // dvlint: requires_lock(mutex)
  std::optional<std::size_t> claim_locked(std::size_t holder) {
    const std::optional<std::size_t> id = board.claim(holder);
    if (id.has_value()) ++telemetry.units_issued;
    return id;
  }

  void reissue_locked(std::size_t unit_id) {  // dvlint: requires_lock(mutex)
    board.requeue(unit_id);
    ++telemetry.units_reissued;
  }

  /// Accept one unit's result; the board keeps the first and drops late
  /// duplicates from stragglers whose lease was re-issued.
  void submit_result(std::size_t unit_id, CaseResult&& shard,
                     double compute_seconds) {
    std::size_t finished_case = 0;
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (aborting || unit_id >= board.unit_count()) return;
      const UnitBoard::Accept accepted =
          board.accept(unit_id, std::move(shard), compute_seconds);
      if (accepted == UnitBoard::Accept::kDuplicate) {
        ++telemetry.duplicate_results;
      }
      if (accepted != UnitBoard::Accept::kCaseComplete) return;
      finished_case = board.unit(unit_id).case_index;
      if (board.all_done()) {
        drained.notify_all();
        local_work.notify_all();
      }
    }
    // This thread completed the case, so no other touches it again.
    board.finish_case(finished_case);  // dvlint: ignore(guarded-by)
  }

  /// Grant up to `top_up` fresh leases plus the credit the connection is
  /// owed: earlier top-ups that found nothing pending.  Leases held plus
  /// credit stay at the worker's slots + 1.  Send happens outside the
  /// scheduler lock; a send failure escalates to a disconnect, which
  /// re-queues the just-leased units along with everything else the worker
  /// held.
  void grant(Connection* conn, std::uint64_t top_up) {
    std::vector<std::vector<std::byte>> frames;
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (conn->dead || aborting || board.all_done()) return;
      const std::uint64_t budget = top_up + conn->credit;
      while (frames.size() < budget) {
        const std::optional<std::size_t> id = claim_locked(conn->id);
        if (!id.has_value()) break;
        deadlines[*id] = Clock::now() + std::chrono::milliseconds(lease_ms);
        const SweepUnit& unit = board.unit(*id);
        LeaseFrame lease;
        lease.unit_id = *id;
        lease.case_index = unit.case_index;
        lease.first_run = unit.first_run;
        lease.run_count = unit.run_count;
        frames.push_back(encode_frame(Frame{lease}));
      }
      conn->credit = budget - frames.size();
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
      const bool clean = board.all_done() || aborting;
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
        for (std::size_t id = 0; id < board.unit_count(); ++id) {
          if (board.holder(id) != conn->id) continue;
          reissue_locked(id);
          requeued = true;
        }
        if (requeued) local_work.notify_all();
      }
    }
    if (requeued) pump_grants();
  }

  /// Re-issue remote leases that blew their deadline.  The straggler may
  /// still return a result later; the board keeps whichever comes first.
  void reap_expired_leases() {
    bool requeued = false;
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (board.all_done() || aborting) return;
      const Clock::time_point now = Clock::now();
      for (std::size_t id = 0; id < board.unit_count(); ++id) {
        const std::size_t holder = board.holder(id);
        // Local executors hold no lease: they cannot die without failing
        // the sweep.
        if (holder == UnitBoard::kNoHolder || holder >= kLocalHolderBase) {
          continue;
        }
        if (now < deadlines[id]) continue;
        reissue_locked(id);
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
    return board.all_done() || aborting;
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
          if (!res->error.empty()) {
            // Fail the sweep as a local executor's exception would.  The
            // connection stays open, so the drain sends this worker
            // shutdown.
            std::lock_guard<std::mutex> lock(mutex);
            fail(std::make_exception_ptr(std::runtime_error(
                "unit " + std::to_string(res->unit_id) + " failed on " +
                conn->peer + ": " + res->error)));
            continue;
          }
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
          std::lock_guard<std::mutex> lock(mutex);
          conn->busy_reported = hb->busy_seconds;
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

  void executor_loop(std::size_t executor_index) {
    const std::size_t holder = kLocalHolderBase + executor_index;
    std::unique_lock<std::mutex> lock(mutex);
    while (!board.all_done() && !aborting) {
      const std::optional<std::size_t> id = claim_locked(holder);
      if (!id.has_value()) {
        // Every unfinished unit is leased out: wait for a re-issue or the
        // end of the sweep.
        local_work.wait(lock);
        continue;
      }
      lock.unlock();
      // Unit ranges are immutable once the board is built.
      const SweepUnit& unit = board.unit(*id);  // dvlint: ignore(guarded-by)
      UnitRun run = run_unit(spec.cases[unit.case_index], unit.first_run,
                             unit.run_count);
      {
        std::lock_guard<std::mutex> stats_lock(mutex);
        ++local_units_done;
        local_busy_seconds += run.seconds;
      }
      submit_result(*id, std::move(run.result), run.seconds);
      lock.lock();
    }
  }

  SweepResult run() {
    const Clock::time_point start = begin_sweep();

    std::thread acceptor([this] { accept_loop(); });
    std::vector<std::thread> executors;
    executors.reserve(local_jobs);
    for (std::size_t w = 0; w < local_jobs; ++w) {
      executors.emplace_back([this, w] {
        try {
          executor_loop(w);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex);
          fail(std::current_exception());
        }
      });
    }

    {
      std::unique_lock<std::mutex> lock(mutex);
      drained.wait(lock, [this] { return board.all_done() || aborting; });
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

    SweepResult result;
    {
      // Every thread is joined: the lock is uncontended and taken only so
      // the guarded-by discipline stays checkable end to end.
      std::lock_guard<std::mutex> lock(mutex);
      if (failure) std::rethrow_exception(failure);

      result.jobs = std::max<std::size_t>(1, local_jobs);
      result.cases = board.take_outcomes();
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
    }
    end_sweep(spec, start, result);
    return result;
  }
};

Coordinator::Coordinator(SweepSpec spec, CoordinatorOptions options)
    : impl_(std::make_unique<Impl>(std::move(spec), options)) {}

Coordinator::~Coordinator() = default;

std::uint16_t Coordinator::port() const { return impl_->listener.port(); }

SweepResult Coordinator::run() { return impl_->run(); }

}  // namespace dynvote::fabric
