#include "fabric/worker.hpp"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "fabric/socket.hpp"
#include "fabric/wire.hpp"
#include "runner/artifact.hpp"
#include "runner/sweep.hpp"
#include "util/guarded.hpp"

namespace dynvote::fabric {

namespace {

enum class SessionEnd {
  kShutdown,  // coordinator said goodbye
  kDied,      // die_after_units fired
  kStopped,   // external stop flag
  kLost,      // transport failed after a completed handshake; reconnect
  kRejected,  // failed before the hello exchange completed; spend the
              // connect-attempt budget instead of retrying forever
};

/// What the session's reader, executors, and heartbeat share.
struct SessionState {
  std::deque<LeaseFrame> leases;
  std::vector<SweepCase> cases;
  std::uint64_t results_sent = 0;
  double busy_seconds = 0.0;
  bool ending = false;  // exit flag
  bool dying = false;   // die_after_units fired
  bool lost = false;    // transport failed
};

struct WorkerSession {
  Socket socket;
  std::mutex send_mutex;
  /// Notified when a lease arrives or the session ends.
  std::condition_variable work;
  Guarded<SessionState> state;
};

/// Send one frame; on transport failure flag the session lost.
void send_or_lose(WorkerSession& session, const Frame& frame) {
  bool failed = false;
  {
    std::lock_guard<std::mutex> send_lock(session.send_mutex);
    try {
      session.socket.send_frame(encode_frame(frame));
    } catch (const SocketError&) {
      failed = true;
    }
  }
  if (failed) {
    const auto s = session.state.lock();
    s->lost = true;
    s->ending = true;
    session.work.notify_all();
  }
}

void executor_loop(WorkerSession& session, const WorkerOptions& options) {
  for (;;) {
    LeaseFrame lease;
    SweepCase sweep_case;
    {
      auto s = session.state.lock();
      s.wait(session.work, [](const SessionState& state) {
        return state.ending || !state.leases.empty();
      });
      if (s->ending) return;
      lease = std::move(s->leases.front());
      s->leases.pop_front();
      // The reader queues only leases whose case index is in range.
      sweep_case = s->cases[lease.case_index];
    }

    ResultFrame result;
    result.unit_id = lease.unit_id;
    try {
      UnitRun run = run_unit(sweep_case, lease.first_run, lease.run_count);
      result.compute_seconds = run.seconds;
      result.result = std::move(run.result);
    } catch (const std::exception& e) {
      // Reported, not rethrown: the coordinator fails the sweep, and this
      // worker stays up to take its shutdown.
      result.error = *e.what() != '\0' ? e.what() : "unit failed";
    }
    const double seconds = result.compute_seconds;
    send_or_lose(session, Frame{std::move(result)});

    const auto s = session.state.lock();
    s->busy_seconds += seconds;
    ++s->results_sent;
    if (options.die_after_units != 0 &&
        s->results_sent >= options.die_after_units) {
      s->dying = true;
      s->ending = true;
      session.work.notify_all();
      return;
    }
  }
}

void heartbeat_loop(WorkerSession& session, std::uint64_t heartbeat_ms) {
  for (;;) {
    HeartbeatFrame beat;
    {
      auto s = session.state.lock();
      if (s.wait_for(session.work, std::chrono::milliseconds(heartbeat_ms),
                     [](const SessionState& state) { return state.ending; })) {
        return;
      }
      beat.busy_seconds = s->busy_seconds;
    }
    send_or_lose(session, Frame{beat});
  }
}

SessionEnd run_session(Socket socket, const WorkerOptions& options,
                       std::uint64_t slots) {
  WorkerSession session;
  session.socket = std::move(socket);

  // Handshake: our capabilities out, the sweep's case table back.  Until
  // the coordinator's hello is accepted every failure is a rejection, not
  // a loss -- a schema-mismatched or misbehaving coordinator must drain
  // the connect-attempt budget, not trigger endless reconnects.
  bool handshake_done = false;
  HelloFrame hello;
  hello.coordinator = false;
  hello.build = artifact_git_describe();
  hello.slots = slots;
  try {
    {
      std::lock_guard<std::mutex> send_lock(session.send_mutex);
      session.socket.send_frame(encode_frame(Frame{hello}));
    }
    session.socket.set_recv_timeout_ms(10000);
    const auto reply_bytes = session.socket.recv_frame(kMaxFrameBytes);
    if (!reply_bytes.has_value()) return SessionEnd::kRejected;
    Frame reply = decode_frame(*reply_bytes);
    HelloFrame* coord = std::get_if<HelloFrame>(&reply);
    if (coord == nullptr || !coord->coordinator ||
        coord->schema != kFabricSchema) {
      return SessionEnd::kRejected;
    }
    handshake_done = true;
    {
      const auto s = session.state.lock();
      for (CaseDescriptor& desc : coord->cases) {
        s->cases.push_back(
            SweepCase{std::move(desc.label), std::move(desc.spec)});
      }
    }
    const std::uint64_t heartbeat_ms =
        coord->heartbeat_ms != 0 ? coord->heartbeat_ms : 1000;

    // A short receive timeout keeps the reader responsive to stop/death
    // flags; a quiet coordinator is normal (no work yet), not a death.
    session.socket.set_recv_timeout_ms(1000);

    std::vector<std::thread> executors;
    executors.reserve(static_cast<std::size_t>(slots));
    for (std::uint64_t s = 0; s < slots; ++s) {
      executors.emplace_back([&session, &options] {
        executor_loop(session, options);
      });
    }
    std::thread heartbeat(
        [&session, heartbeat_ms] { heartbeat_loop(session, heartbeat_ms); });

    SessionEnd end = SessionEnd::kLost;
    bool reading = true;
    while (reading) {
      if (options.stop != nullptr && options.stop->load()) {
        end = SessionEnd::kStopped;
        break;
      }
      {
        const auto s = session.state.lock();
        if (s->dying) {
          end = SessionEnd::kDied;
          break;
        }
        if (s->lost) {
          end = SessionEnd::kLost;
          break;
        }
      }
      try {
        const auto payload = session.socket.recv_frame(kMaxFrameBytes);
        if (!payload.has_value()) {
          end = SessionEnd::kLost;
          break;
        }
        Frame incoming = decode_frame(*payload);
        if (LeaseFrame* lease = std::get_if<LeaseFrame>(&incoming)) {
          // A lease for a case outside the table is a protocol violation
          // like any unexpected frame: dropping it would strand the credit
          // it used, while ending the session makes the coordinator
          // re-issue everything this worker held.
          const auto s = session.state.lock();
          if (lease->case_index >= s->cases.size()) {
            end = SessionEnd::kLost;
            break;
          }
          s->leases.push_back(std::move(*lease));
          session.work.notify_all();
        } else if (std::get_if<ShutdownFrame>(&incoming) != nullptr) {
          end = SessionEnd::kShutdown;
          break;
        } else {
          end = SessionEnd::kLost;  // protocol violation
          break;
        }
      } catch (const SocketTimeout&) {
        // No traffic lately: normal while the coordinator has nothing
        // pending.  It owes this worker its unfilled top-ups and pays them
        // when units are re-queued.
      } catch (const SocketError&) {
        end = SessionEnd::kLost;
        break;
      } catch (const DecodeError&) {
        end = SessionEnd::kLost;
        break;
      }
    }

    session.state.lock()->ending = true;
    session.work.notify_all();
    for (std::thread& t : executors) t.join();
    heartbeat.join();

    if (end == SessionEnd::kDied) {
      // Play dead: keep the socket open but silent, so the coordinator's
      // only signal is heartbeat silence.  Wait for the test's stop flag
      // (or return immediately without one -- the closing socket then
      // reads as an abrupt disconnect instead).
      while (options.stop != nullptr && !options.stop->load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    return end;
  } catch (const SocketError&) {
    return handshake_done ? SessionEnd::kLost : SessionEnd::kRejected;
  } catch (const DecodeError&) {
    return handshake_done ? SessionEnd::kLost : SessionEnd::kRejected;
  }
}

/// Sliced backoff sleep so a stop flag is honored promptly even at the
/// cap; returns false when stopped.
bool backoff_sleep(const WorkerOptions& options, std::uint64_t backoff_ms) {
  std::uint64_t waited = 0;
  while (waited < backoff_ms) {
    if (options.stop != nullptr && options.stop->load()) return false;
    const std::uint64_t slice =
        std::min<std::uint64_t>(50, backoff_ms - waited);
    std::this_thread::sleep_for(std::chrono::milliseconds(slice));
    waited += slice;
  }
  return true;
}

}  // namespace

const char* to_string(WorkerExit exit_code) {
  switch (exit_code) {
    case WorkerExit::kShutdown: return "shutdown";
    case WorkerExit::kDied: return "died";
    case WorkerExit::kStopped: return "stopped";
    case WorkerExit::kConnectFailed: return "connect-failed";
  }
  return "unknown";
}

WorkerExit run_worker(const WorkerOptions& options) {
  const std::uint64_t slots =
      options.slots != 0 ? options.slots
                         : static_cast<std::uint64_t>(jobs_from_env());
  std::size_t attempts = 0;
  std::uint64_t backoff_ms = options.backoff_initial_ms;
  for (;;) {
    if (options.stop != nullptr && options.stop->load()) {
      return WorkerExit::kStopped;
    }
    Socket socket;
    bool connected = false;
    try {
      socket = connect_to(options.host, options.port);
      connected = true;
    } catch (const SocketError&) {
    }

    if (connected) {
      bool retry_session = false;
      switch (run_session(std::move(socket), options, slots)) {
        case SessionEnd::kShutdown: return WorkerExit::kShutdown;
        case SessionEnd::kDied: return WorkerExit::kDied;
        case SessionEnd::kStopped: return WorkerExit::kStopped;
        case SessionEnd::kLost:
          // Reconnect from a fresh budget; the handshake completed, so
          // the address and schema are right and the coordinator may
          // just be busy or restarting.
          attempts = 0;
          backoff_ms = options.backoff_initial_ms;
          retry_session = true;
          break;
        case SessionEnd::kRejected:
          // Pre-handshake failure: treated exactly like a refused
          // connection below, so an incompatible coordinator eventually
          // yields kConnectFailed instead of reconnecting forever.
          break;
      }
      if (retry_session) {
        if (!backoff_sleep(options, backoff_ms)) return WorkerExit::kStopped;
        continue;
      }
    }

    if (++attempts >= options.max_connect_attempts) {
      return WorkerExit::kConnectFailed;
    }
    if (!backoff_sleep(options, backoff_ms)) return WorkerExit::kStopped;
    backoff_ms = std::min(backoff_ms * 2, options.backoff_max_ms);
  }
}

}  // namespace dynvote::fabric
