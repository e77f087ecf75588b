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

#include "core/process_set.hpp"
#include "fabric/socket.hpp"
#include "fabric/wire.hpp"
#include "runner/artifact.hpp"
#include "runner/sweep.hpp"
#include "util/guarded.hpp"

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
  /// the scheduler lock, never after.
  std::mutex send_mutex;
};

/// One connection as the scheduler sees it.
struct Peer {
  std::unique_ptr<Connection> connection;
  std::string name = "worker";
  std::uint64_t slots = 1;
  std::uint64_t credit = 0;
  std::uint64_t units_done = 0;
  double busy_results = 0.0;
  double busy_reported = 0.0;
  bool registered = false;
  bool dead = false;
};

/// Everything the coordinator's threads share.  It lives in a Guarded, so
/// each member, and each helper below, is reachable only under the
/// scheduler lock.
struct Scheduler {
  Scheduler(const UnitBoard& board, std::condition_variable& wake)
      : schedule(board), deadlines(board.unit_count()), changed(wake) {}

  UnitBoard::Schedule schedule;
  /// Per unit id, when its current remote lease runs out.
  std::vector<Clock::time_point> deadlines;
  bool aborting = false;
  std::exception_ptr failure;
  FabricTelemetry telemetry;
  std::uint64_t local_units_done = 0;
  double local_busy_seconds = 0.0;
  /// Per connection id.
  std::vector<Peer> peers;
  /// Notified when a unit becomes claimable or the sweep ends.
  std::condition_variable& changed;

  bool finished() const { return schedule.all_done() || aborting; }

  /// Stop the sweep; run() rethrows the first failure after the drain.
  void fail(std::exception_ptr error) {
    if (!failure) failure = std::move(error);
    aborting = true;
    changed.notify_all();
  }

  std::optional<std::size_t> claim(std::size_t holder) {
    const std::optional<std::size_t> id = schedule.claim(holder);
    if (id.has_value()) ++telemetry.units_issued;
    return id;
  }

  void reissue(std::size_t unit_id) {
    schedule.requeue(unit_id);
    ++telemetry.units_reissued;
    changed.notify_all();
  }
};

}  // namespace

struct Coordinator::Impl {
  SweepSpec spec;
  std::uint64_t lease_ms = 30000;
  std::uint64_t heartbeat_ms = 1000;
  std::size_t local_jobs = 0;
  Listener listener;
  std::vector<CaseDescriptor> case_table;
  UnitBoard board;
  std::condition_variable changed;
  Guarded<Scheduler> scheduler;

  Impl(SweepSpec sweep_spec, const CoordinatorOptions& options)
      : spec(std::move(sweep_spec)),
        local_jobs(options.local_jobs == CoordinatorOptions::kAutoLocalJobs
                       ? (spec.jobs != 0 ? spec.jobs : jobs_from_env())
                       : static_cast<std::size_t>(options.local_jobs)),
        listener(options.port),
        board(spec, local_jobs),
        scheduler(board, changed) {
    lease_ms = options.lease_ms != 0 ? options.lease_ms : 30000;
    heartbeat_ms = options.heartbeat_ms != 0 ? options.heartbeat_ms : 1000;

    case_table.reserve(spec.cases.size());
    for (const SweepCase& c : spec.cases) {
      if (c.spec.algorithm_factory) {
        throw std::invalid_argument(
            "case '" + case_label(c) +
            "' uses a custom algorithm factory and cannot be dispatched "
            "over the fabric");
      }
      // Workers refuse a case table naming more processes than a set can
      // hold, so no worker could take this sweep: refuse it here, with the
      // set's own message.
      (void)ProcessSet(c.spec.processes);
      CaseDescriptor desc;
      desc.label = c.algorithm.empty()
                       ? std::string(to_string(c.spec.algorithm))
                       : c.algorithm;
      desc.spec = c.spec;
      case_table.push_back(std::move(desc));
    }
  }

  /// Book one unit's result to the holder that ran it (a connection id or
  /// a local executor) and accept it; the schedule keeps the first result
  /// and drops late duplicates from stragglers whose lease was re-issued.
  void submit_result(std::size_t holder, std::size_t unit_id,
                     CaseResult&& shard, double compute_seconds) {
    std::optional<UnitBoard::CompletedCase> completed;
    {
      const auto s = scheduler.lock();
      if (holder >= kLocalHolderBase) {
        ++s->local_units_done;
        s->local_busy_seconds += compute_seconds;
      } else {
        ++s->peers[holder].units_done;
        s->peers[holder].busy_results += compute_seconds;
      }
      if (s->aborting || unit_id >= board.unit_count()) return;
      UnitBoard::Accepted accepted =
          s->schedule.accept(unit_id, std::move(shard), compute_seconds);
      if (!accepted.stored) ++s->telemetry.duplicate_results;
      if (!accepted.completed) return;
      completed = std::move(accepted.completed);
      if (s->schedule.all_done()) changed.notify_all();
    }
    // This thread completed the case, so no other touches it again.
    board.finish_case(std::move(*completed));
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
      const auto s = scheduler.lock();
      Peer& peer = s->peers[conn->id];
      if (peer.dead || s->finished()) return;
      const std::uint64_t budget = top_up + peer.credit;
      while (frames.size() < budget) {
        const std::optional<std::size_t> id = s->claim(conn->id);
        if (!id.has_value()) break;
        s->deadlines[*id] =
            Clock::now() + std::chrono::milliseconds(lease_ms);
        const SweepUnit& unit = board.unit(*id);
        LeaseFrame lease;
        lease.unit_id = *id;
        lease.case_index = unit.case_index;
        lease.first_run = unit.first_run;
        lease.run_count = unit.run_count;
        frames.push_back(encode_frame(Frame{lease}));
      }
      peer.credit = budget - frames.size();
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
      const auto s = scheduler.lock();
      Peer& peer = s->peers[conn->id];
      if (peer.dead) return;
      peer.dead = true;
      conn->socket.shutdown_both();
      const bool clean = s->finished();
      if (peer.registered) {
        FabricWorkerTelemetry worker;
        worker.peer = peer.name;
        worker.slots = peer.slots;
        worker.units_done = peer.units_done;
        worker.busy_seconds = std::max(peer.busy_results, peer.busy_reported);
        worker.died = !clean;
        s->telemetry.workers.push_back(std::move(worker));
        if (!clean) ++s->telemetry.workers_died;
      }
      peer.credit = 0;
      if (!clean) {
        for (std::size_t id = 0; id < board.unit_count(); ++id) {
          if (s->schedule.holder(id) != conn->id) continue;
          s->reissue(id);
          requeued = true;
        }
      }
    }
    if (requeued) pump_grants();
  }

  /// Re-issue remote leases that blew their deadline.  The straggler may
  /// still return a result later; the schedule keeps whichever comes first.
  void reap_expired_leases() {
    bool requeued = false;
    {
      const auto s = scheduler.lock();
      if (s->finished()) return;
      const Clock::time_point now = Clock::now();
      for (std::size_t id = 0; id < board.unit_count(); ++id) {
        const std::size_t holder = s->schedule.holder(id);
        // Local executors hold no lease: they cannot die without failing
        // the sweep.
        if (holder == UnitBoard::kNoHolder || holder >= kLocalHolderBase) {
          continue;
        }
        if (now < s->deadlines[id]) continue;
        s->reissue(id);
        requeued = true;
      }
    }
    if (requeued) pump_grants();
  }

  /// Offer newly pending units to every worker with outstanding credit.
  void pump_grants() {
    std::vector<Connection*> waiting;
    {
      const auto s = scheduler.lock();
      for (const Peer& peer : s->peers) {
        if (!peer.dead && peer.registered && peer.credit > 0) {
          waiting.push_back(peer.connection.get());
        }
      }
    }
    for (Connection* conn : waiting) grant(conn, 0);
  }

  void accept_loop() {
    while (!scheduler.lock()->finished()) {
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
          const auto s = scheduler.lock();
          conn->id = s->peers.size();
          s->peers.push_back(Peer{std::move(conn)});
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
        const auto s = scheduler.lock();
        Peer& peer = s->peers[conn->id];
        if (!hello->build.empty()) peer.name = hello->build;
        peer.slots = std::max<std::uint64_t>(1, hello->slots);
        slots = peer.slots;
        peer.registered = true;
        ++s->telemetry.workers_connected;
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
            const auto s = scheduler.lock();
            s->fail(std::make_exception_ptr(std::runtime_error(
                "unit " + std::to_string(res->unit_id) + " failed on " +
                s->peers[conn->id].name + ": " + res->error)));
            continue;
          }
          submit_result(conn->id, res->unit_id, std::move(res->result),
                        res->compute_seconds);
          grant(conn, 1);
        } else if (const HeartbeatFrame* hb =
                       std::get_if<HeartbeatFrame>(&incoming)) {
          scheduler.lock()->peers[conn->id].busy_reported = hb->busy_seconds;
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
    for (;;) {
      std::optional<std::size_t> id;
      // Claim the next pending unit; while every unfinished unit is leased
      // out, wait for a re-issue or the end of the sweep.
      scheduler.lock().wait(changed, [&](Scheduler& s) {
        if (!s.finished()) id = s.claim(holder);
        return s.finished() || id.has_value();
      });
      if (!id.has_value()) return;
      const SweepUnit& unit = board.unit(*id);
      UnitRun run = run_unit(spec.cases[unit.case_index], unit.first_run,
                             unit.run_count);
      submit_result(holder, *id, std::move(run.result), run.seconds);
    }
  }

  SweepResult run() {
    const Clock::time_point start = begin_sweep();

    std::thread acceptor([this] { accept_loop(); });
    // An executor beyond the board's units would only wait for the sweep
    // to end, so at most one starts per unit.  One that fails to start
    // fails the sweep, as in run_sweep: the threads already running see the
    // failure and stop, so they can still be joined.
    std::vector<std::thread> executors;
    try {
      const std::size_t count = std::min(local_jobs, board.unit_count());
      executors.reserve(count);
      for (std::size_t w = 0; w < count; ++w) {
        executors.emplace_back([this, w] {
          try {
            executor_loop(w);
          } catch (...) {
            scheduler.lock()->fail(std::current_exception());
          }
        });
      }
    } catch (...) {
      scheduler.lock()->fail(std::current_exception());
    }

    scheduler.lock().wait(changed,
                          [](const Scheduler& s) { return s.finished(); });
    acceptor.join();

    // The acceptor is joined, so no connection is added any more.  Drain:
    // a polite shutdown frame to each live worker, then unblock the
    // readers and join them outside the scheduler lock (their exit path
    // takes it).
    std::vector<Connection*> live;
    std::vector<std::thread*> readers;
    {
      const auto s = scheduler.lock();
      for (const Peer& peer : s->peers) {
        if (!peer.dead) live.push_back(peer.connection.get());
        readers.push_back(&peer.connection->reader);
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
    for (std::thread* reader : readers) {
      if (reader->joinable()) reader->join();
    }
    for (std::thread& t : executors) t.join();

    SweepResult result;
    {
      const auto s = scheduler.lock();
      if (s->failure) std::rethrow_exception(s->failure);
      result.jobs = std::max<std::size_t>(1, local_jobs);
      result.fabric = s->telemetry;
      result.fabric.used = true;
      if (local_jobs > 0) {
        FabricWorkerTelemetry local;
        local.peer = "local";
        local.slots = local_jobs;
        local.units_done = s->local_units_done;
        local.busy_seconds = s->local_busy_seconds;
        result.fabric.workers.insert(result.fabric.workers.begin(),
                                     std::move(local));
      }
    }
    result.cases = board.take_outcomes();
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
