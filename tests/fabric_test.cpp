// Tests for the multi-host sweep fabric (src/fabric/).
//
// Protocol layer: every frame type round-trips losslessly, a foreign
// envelope version is refused, and malformed payloads fail as DecodeError
// instead of reaching an allocator.
//
// System layer, all over loopback sockets: a coordinator plus two workers
// produces byte-identical deterministic results to the in-process
// `run_sweep`; a worker that falls silent mid-unit is detected and its
// units re-issued without changing results; a silent worker holds one
// lease per slot plus one and each result buys exactly one more; duplicate
// (late straggler) results are dropped idempotently; a unit that throws on
// a worker fails the sweep.
#include "fabric/coordinator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/algorithm.hpp"
#include "fabric/socket.hpp"
#include "fabric/wire.hpp"
#include "fabric/worker.hpp"
#include "gtest/gtest.h"
#include "runner/artifact.hpp"
#include "runner/progress.hpp"
#include "runner/sweep.hpp"
#include "util/codec.hpp"

namespace dynvote::fabric {
namespace {

std::vector<std::byte> encode_result_body(const CaseResult& result) {
  Encoder enc;
  result.encode_body(enc);
  return enc.take();
}

CaseSpec small_case(RunMode mode, AlgorithmKind kind = AlgorithmKind::kYkd) {
  CaseSpec spec;
  spec.algorithm = kind;
  spec.processes = 8;
  spec.changes = 4;
  spec.mean_rounds = 3.0;
  spec.runs = 48;
  spec.mode = mode;
  spec.base_seed = 0xFAB1;
  return spec;
}

SweepSpec small_sweep() {
  SweepSpec spec;
  spec.min_shard_runs = 8;  // force several shards per fresh-start case
  SweepCase fresh;
  fresh.spec = small_case(RunMode::kFreshStart);
  spec.cases.push_back(fresh);
  SweepCase cascading;
  cascading.spec = small_case(RunMode::kCascading);
  spec.cases.push_back(cascading);
  SweepCase other;
  other.spec = small_case(RunMode::kFreshStart, AlgorithmKind::kOnePending);
  spec.cases.push_back(other);
  return spec;
}

/// small_sweep() with enough work that a coordinator's one local thread
/// cannot drain it alone before remote workers finish their handshake, for
/// tests that need the workers to receive leases.
SweepSpec shared_pool_sweep() {
  SweepSpec spec = small_sweep();
  for (SweepCase& c : spec.cases) c.spec.runs *= 8;
  return spec;
}

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

TEST(FabricWire, HelloRoundTrip) {
  HelloFrame hello;
  hello.coordinator = true;
  hello.build = "test-build";
  hello.slots = 7;
  hello.lease_ms = 12345;
  hello.heartbeat_ms = 250;
  CaseDescriptor desc;
  desc.label = "ykd";
  desc.spec = small_case(RunMode::kCascading);
  desc.spec.measure_wire_sizes = true;
  desc.spec.check_invariants = false;
  hello.cases.push_back(desc);

  const Frame decoded = decode_frame(encode_frame(Frame{hello}));
  const auto& got = std::get<HelloFrame>(decoded);
  EXPECT_TRUE(got.coordinator);
  EXPECT_EQ(got.schema, kFabricSchema);
  EXPECT_EQ(got.build, "test-build");
  EXPECT_EQ(got.slots, 7u);
  EXPECT_EQ(got.lease_ms, 12345u);
  EXPECT_EQ(got.heartbeat_ms, 250u);
  ASSERT_EQ(got.cases.size(), 1u);
  EXPECT_EQ(got.cases[0].label, "ykd");
  EXPECT_EQ(got.cases[0].spec.algorithm, AlgorithmKind::kYkd);
  EXPECT_EQ(got.cases[0].spec.processes, 8u);
  EXPECT_EQ(got.cases[0].spec.changes, 4u);
  EXPECT_EQ(got.cases[0].spec.mean_rounds, 3.0);
  EXPECT_EQ(got.cases[0].spec.runs, 48u);
  EXPECT_EQ(got.cases[0].spec.mode, RunMode::kCascading);
  EXPECT_EQ(got.cases[0].spec.base_seed, 0xFAB1u);
  EXPECT_TRUE(got.cases[0].spec.measure_wire_sizes);
  EXPECT_FALSE(got.cases[0].spec.check_invariants);
}

TEST(FabricWire, LeaseRoundTrip) {
  LeaseFrame lease;
  lease.unit_id = 42;
  lease.case_index = 3;
  lease.first_run = 96;
  lease.run_count = 32;

  const Frame decoded = decode_frame(encode_frame(Frame{lease}));
  const auto& got = std::get<LeaseFrame>(decoded);
  EXPECT_EQ(got.unit_id, 42u);
  EXPECT_EQ(got.case_index, 3u);
  EXPECT_EQ(got.first_run, 96u);
  EXPECT_EQ(got.run_count, 32u);
}

TEST(FabricWire, ResultRoundTripIsLossless) {
  CaseSpec spec = small_case(RunMode::kFreshStart);
  spec.measure_wire_sizes = true;  // populate every statistic
  ResultFrame frame;
  frame.unit_id = 9;
  frame.compute_seconds = 1.25;
  frame.result = run_case_shard(spec, 8, 16);
  ASSERT_EQ(frame.result.runs, 16u);

  const Frame decoded = decode_frame(encode_frame(Frame{frame}));
  const auto& got = std::get<ResultFrame>(decoded);
  EXPECT_EQ(got.unit_id, 9u);
  EXPECT_EQ(got.compute_seconds, 1.25);
  EXPECT_TRUE(got.error.empty());
  // Bit-exact equality of the full statistics payload.
  EXPECT_EQ(encode_result_body(got.result),
            encode_result_body(frame.result));
  EXPECT_EQ(got.result.success_per_run, frame.result.success_per_run);
  EXPECT_EQ(got.result.wire.max_message_bytes,
            frame.result.wire.max_message_bytes);

  ResultFrame failed;
  failed.unit_id = 4;
  failed.error = "temporally disjoint primaries";
  const Frame failed_decoded = decode_frame(encode_frame(Frame{failed}));
  EXPECT_EQ(std::get<ResultFrame>(failed_decoded).error,
            "temporally disjoint primaries");
}

TEST(FabricWire, HeartbeatShutdownRoundTrip) {
  HeartbeatFrame beat;
  beat.busy_seconds = 2.5;
  const HeartbeatFrame got_beat =
      std::get<HeartbeatFrame>(decode_frame(encode_frame(Frame{beat})));
  EXPECT_EQ(got_beat.busy_seconds, 2.5);

  ShutdownFrame bye;
  bye.reason = "sweep drained";
  const ShutdownFrame got_bye =
      std::get<ShutdownFrame>(decode_frame(encode_frame(Frame{bye})));
  EXPECT_EQ(got_bye.reason, "sweep drained");
}

TEST(FabricWire, MalformedFramesThrowDecodeError) {
  // Truncated mid-frame.
  const std::vector<std::byte> whole =
      encode_frame(Frame{LeaseFrame{5, 1, 16, 8}});
  for (std::size_t cut = 0; cut < whole.size(); ++cut) {
    const std::span<const std::byte> prefix(whole.data(), cut);
    EXPECT_THROW((void)decode_frame(prefix), DecodeError) << "cut=" << cut;
  }
  // Trailing garbage after a valid frame.
  std::vector<std::byte> padded = whole;
  padded.push_back(std::byte{0x00});
  EXPECT_THROW((void)decode_frame(padded), DecodeError);

  // Unknown frame type.
  Encoder unknown_type;
  unknown_type.put_varint(kFrameVersion);
  unknown_type.put_u8(99);
  EXPECT_THROW((void)decode_frame(unknown_type.bytes()), DecodeError);

  // An envelope from an older or a newer build: every body field is read
  // unconditionally, so only this build's version decodes.
  for (const std::uint64_t version : {kFrameVersion - 1, kFrameVersion + 1}) {
    Encoder foreign;
    foreign.put_varint(version);
    foreign.put_u8(static_cast<std::uint8_t>(FrameType::kLease));
    for (int field = 0; field < 4; ++field) foreign.put_varint(1);
    EXPECT_THROW((void)decode_frame(foreign.bytes()), DecodeError)
        << "version=" << version;
  }

  // A shutdown whose reason length prefix claims more than the frame cap:
  // must fail before any allocation.
  Encoder huge;
  huge.put_varint(kFrameVersion);
  huge.put_u8(static_cast<std::uint8_t>(FrameType::kShutdown));
  huge.put_varint(std::uint64_t{1} << 62);  // reason "length"
  EXPECT_THROW((void)decode_frame(huge.bytes()), DecodeError);

  // An invalid algorithm kind inside a case descriptor.
  Encoder bad_algo;
  bad_algo.put_varint(kFrameVersion);
  bad_algo.put_u8(static_cast<std::uint8_t>(FrameType::kHello));
  bad_algo.put_u8(0);                        // coordinator=false
  bad_algo.put_string(kFabricSchema);
  bad_algo.put_string("build");
  bad_algo.put_varint(1);                    // slots
  bad_algo.put_varint(0);                    // lease_ms
  bad_algo.put_varint(0);                    // heartbeat_ms
  bad_algo.put_varint(1);                    // one case
  bad_algo.put_string("label");
  bad_algo.put_u8(200);                      // no such algorithm
  EXPECT_THROW((void)decode_frame(bad_algo.bytes()), DecodeError);
}

// A hello frame of a few bytes can name any process count; a case past
// ProcessSet::kMaxUniverse is refused before a worker builds its world.
TEST(FabricWire, CasePastTheProcessCapIsRejected) {
  HelloFrame hello;
  CaseDescriptor desc;
  desc.label = "ykd";
  desc.spec = small_case(RunMode::kFreshStart);
  desc.spec.processes = ProcessSet::kMaxUniverse;
  hello.cases.push_back(desc);
  const auto decoded =
      std::get<HelloFrame>(decode_frame(encode_frame(Frame{hello})));
  EXPECT_EQ(decoded.cases[0].spec.processes, ProcessSet::kMaxUniverse);

  for (const std::size_t processes :
       {ProcessSet::kMaxUniverse + 1, std::size_t{1} << 20}) {
    hello.cases[0].spec.processes = processes;
    try {
      (void)decode_frame(encode_frame(Frame{hello}));
      FAIL() << processes << " processes decoded";
    } catch (const DecodeError& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(processes)),
                std::string::npos)
          << e.what();
    }
  }

  // A coordinator refuses such a sweep before any worker connects.
  SweepSpec sweep;
  SweepCase c;
  c.spec = desc.spec;
  c.spec.processes = ProcessSet::kMaxUniverse + 1;
  sweep.cases.push_back(c);
  CoordinatorOptions options;
  options.local_jobs = 0;
  EXPECT_THROW(Coordinator(sweep, options), PreconditionViolation);
}

TEST(FabricWire, FactoryCasesAreRejectedBeforeDispatch) {
  CaseDescriptor desc;
  desc.label = "custom";
  desc.spec = small_case(RunMode::kFreshStart);
  desc.spec.algorithm_factory = [](ProcessId self, const View& initial) {
    return make_algorithm(AlgorithmKind::kYkd, self, initial);
  };
  Encoder enc;
  EXPECT_THROW(desc.encode_body(enc), std::invalid_argument);

  SweepSpec sweep;
  SweepCase c;
  c.algorithm = "custom";
  c.spec = desc.spec;
  sweep.cases.push_back(c);
  CoordinatorOptions options;
  options.local_jobs = 1;
  EXPECT_THROW(Coordinator(sweep, options), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Loopback coordinator/worker systems
// ---------------------------------------------------------------------------

/// In-process worker on its own thread, reaped on scope exit.
class WorkerThread {
 public:
  explicit WorkerThread(WorkerOptions options) : options_(options) {
    options_.stop = &stop_;
    thread_ = std::thread([this] { exit_ = run_worker(options_); });
  }
  ~WorkerThread() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  WorkerExit exit_code() {
    if (thread_.joinable()) thread_.join();
    return exit_;
  }
  void request_stop() { stop_.store(true); }

 private:
  WorkerOptions options_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  WorkerExit exit_ = WorkerExit::kStopped;
};

TEST(FabricSystem, TwoWorkerSweepMatchesInProcessFingerprint) {
  SweepSpec spec = shared_pool_sweep();
  NullProgress quiet;
  spec.progress = &quiet;

  SweepSpec serial = spec;
  serial.jobs = 2;
  const SweepResult expected = run_sweep(serial);

  CoordinatorOptions options;
  options.local_jobs = 1;  // shares the unit pool with the workers
  options.heartbeat_ms = 100;
  Coordinator coordinator(spec, options);

  WorkerOptions worker;
  worker.port = coordinator.port();
  worker.slots = 2;
  WorkerThread first(worker);
  WorkerThread second(worker);

  const SweepResult distributed = coordinator.run();
  EXPECT_EQ(first.exit_code(), WorkerExit::kShutdown);
  EXPECT_EQ(second.exit_code(), WorkerExit::kShutdown);

  // The deterministic results document -- the bytes the fingerprint
  // hashes -- must be identical to the single-host run's.
  EXPECT_EQ(manifest_results_json(spec, distributed),
            manifest_results_json(spec, expected));
  EXPECT_EQ(results_fingerprint(spec, distributed),
            results_fingerprint(spec, expected));
  // The cascading case is leased whole, like the in-process runner runs it.
  EXPECT_EQ(distributed.cases[1].shards, 1u);
  EXPECT_GT(distributed.cases[0].shards, 1u);

  EXPECT_TRUE(distributed.fabric.used);
  EXPECT_EQ(distributed.fabric.workers_connected, 2u);
  EXPECT_EQ(distributed.fabric.workers_died, 0u);
  EXPECT_GT(distributed.fabric.units_issued, 0u);
  // Remote workers really participated.
  std::uint64_t remote_units = 0;
  for (const FabricWorkerTelemetry& w : distributed.fabric.workers) {
    if (w.peer != "local") remote_units += w.units_done;
  }
  EXPECT_GT(remote_units, 0u);
}

TEST(FabricSystem, SilentWorkerDeathTriggersReissueWithIdenticalResults) {
  SweepSpec spec = shared_pool_sweep();
  NullProgress quiet;
  spec.progress = &quiet;

  const SweepResult expected = run_sweep(spec);

  CoordinatorOptions options;
  options.local_jobs = 1;
  options.heartbeat_ms = 100;  // silence window: max(5x100, 2000) = 2s
  Coordinator coordinator(spec, options);

  // This worker completes one unit, then falls silent while still holding
  // leases -- the only death signal is missing heartbeats.
  WorkerOptions dying;
  dying.port = coordinator.port();
  dying.slots = 2;
  dying.die_after_units = 1;
  WorkerThread casualty(dying);

  const SweepResult distributed = coordinator.run();
  casualty.request_stop();
  EXPECT_EQ(casualty.exit_code(), WorkerExit::kDied);

  // The sweep can only have drained by re-issuing the casualty's units.
  EXPECT_GE(distributed.fabric.units_reissued, 1u);
  EXPECT_EQ(manifest_results_json(spec, distributed),
            manifest_results_json(spec, expected));
}

TEST(FabricSystem, DuplicateLateResultsAreDropped) {
  SweepSpec spec;
  spec.min_shard_runs = 8;
  SweepCase only;
  only.spec = small_case(RunMode::kFreshStart);
  spec.cases.push_back(only);
  NullProgress quiet;
  spec.progress = &quiet;

  const SweepResult expected = run_sweep(spec);

  CoordinatorOptions options;
  options.local_jobs = 0;  // dispatch-only: every unit goes to the client
  options.heartbeat_ms = 100;
  Coordinator coordinator(spec, options);

  // A hand-rolled protocol client that answers every lease TWICE.
  std::thread client([port = coordinator.port()] {
    Socket socket = connect_to("127.0.0.1", port);
    HelloFrame hello;
    hello.coordinator = false;
    hello.slots = 1;
    socket.send_frame(encode_frame(Frame{hello}));
    const auto reply = socket.recv_frame(kMaxFrameBytes);
    ASSERT_TRUE(reply.has_value());
    const Frame reply_frame = decode_frame(*reply);
    const auto& coord = std::get<HelloFrame>(reply_frame);
    ASSERT_TRUE(coord.coordinator);
    socket.set_recv_timeout_ms(5000);
    for (;;) {
      std::optional<std::vector<std::byte>> payload;
      try {
        payload = socket.recv_frame(kMaxFrameBytes);
      } catch (const SocketError&) {
        break;
      }
      if (!payload.has_value()) break;
      Frame incoming = decode_frame(*payload);
      if (const LeaseFrame* lease = std::get_if<LeaseFrame>(&incoming)) {
        ResultFrame result;
        result.unit_id = lease->unit_id;
        result.result = run_case_shard(coord.cases[lease->case_index].spec,
                                       lease->first_run, lease->run_count);
        const std::vector<std::byte> frame =
            encode_frame(Frame{result});
        socket.send_frame(frame);
        socket.send_frame(frame);  // the late straggler duplicate
      } else if (std::get_if<ShutdownFrame>(&incoming) != nullptr) {
        break;
      }
    }
  });

  const SweepResult distributed = coordinator.run();
  client.join();

  EXPECT_GE(distributed.fabric.duplicate_results, 1u);
  EXPECT_EQ(manifest_results_json(spec, distributed),
            manifest_results_json(spec, expected));
}

// Workers never ask for work: the coordinator keeps each one at a lease per
// slot plus one in flight, and each result buys exactly one more lease.
TEST(FabricSystem, CreditKeepsASilentWorkerAtSlotsPlusOneLeases) {
  SweepSpec spec;
  spec.min_shard_runs = 8;
  SweepCase only;
  only.spec = small_case(RunMode::kFreshStart);  // six units of 8 runs
  spec.cases.push_back(only);
  NullProgress quiet;
  spec.progress = &quiet;

  const SweepResult expected = run_sweep(spec);

  CoordinatorOptions options;
  options.local_jobs = 0;  // dispatch-only: every unit goes to the client
  options.heartbeat_ms = 100;
  Coordinator coordinator(spec, options);

  std::size_t leased_while_silent = 0;
  std::size_t leased_after_one_result = 0;
  std::thread client([&, port = coordinator.port()] {
    Socket socket = connect_to("127.0.0.1", port);
    HelloFrame hello;
    hello.coordinator = false;
    hello.slots = 1;
    socket.send_frame(encode_frame(Frame{hello}));
    const auto reply = socket.recv_frame(kMaxFrameBytes);
    ASSERT_TRUE(reply.has_value());
    const Frame reply_frame = decode_frame(*reply);
    const auto& coord = std::get<HelloFrame>(reply_frame);
    ASSERT_TRUE(coord.coordinator);

    std::vector<LeaseFrame> held;
    bool shutdown = false;
    // Every frame that arrives before `ms` of silence; false on shutdown.
    const auto receive_for = [&](std::uint64_t ms) {
      socket.set_recv_timeout_ms(ms);
      for (;;) {
        std::optional<std::vector<std::byte>> payload;
        try {
          payload = socket.recv_frame(kMaxFrameBytes);
        } catch (const SocketTimeout&) {
          return;
        } catch (const SocketError&) {
          shutdown = true;
          return;
        }
        if (!payload.has_value()) {
          shutdown = true;
          return;
        }
        Frame incoming = decode_frame(*payload);
        if (const LeaseFrame* lease = std::get_if<LeaseFrame>(&incoming)) {
          held.push_back(*lease);
        } else if (std::get_if<ShutdownFrame>(&incoming) != nullptr) {
          shutdown = true;
          return;
        }
      }
    };
    const auto answer_oldest = [&] {
      const LeaseFrame lease = held.front();
      held.erase(held.begin());
      ResultFrame result;
      result.unit_id = lease.unit_id;
      result.result = run_case_shard(coord.cases[lease.case_index].spec,
                                     lease.first_run, lease.run_count);
      try {
        socket.send_frame(encode_frame(Frame{result}));
      } catch (const SocketError&) {
        shutdown = true;
      }
    };

    receive_for(400);
    leased_while_silent = held.size();
    ASSERT_FALSE(held.empty());
    answer_oldest();
    receive_for(400);
    leased_after_one_result = held.size() + 1 - leased_while_silent;
    // Drain the sweep.
    while (!shutdown) {
      if (!held.empty()) answer_oldest();
      receive_for(held.empty() ? 2000 : 50);
    }
  });

  const SweepResult distributed = coordinator.run();
  client.join();

  EXPECT_EQ(leased_while_silent, 2u);
  EXPECT_EQ(leased_after_one_result, 1u);
  EXPECT_EQ(results_fingerprint(spec, distributed),
            results_fingerprint(spec, expected));
}

TEST(FabricSystem, StragglerResultDoesNotDoubleMergeReissuedUnit) {
  // Regression: a straggler result arriving for a unit the lease reaper
  // already put back on the pending queue marks the unit done while its
  // id still sits queued.  That stale queue entry must be skipped (lazy
  // delete), never re-leased -- re-granting it would execute and merge
  // the unit twice and finalize the case with a shard missing, breaking
  // the bit-identical fingerprint.
  SweepSpec spec;
  spec.min_shard_runs = 8;
  SweepCase only;
  only.spec = small_case(RunMode::kFreshStart);
  only.spec.runs = 16;  // exactly two units
  spec.cases.push_back(only);
  NullProgress quiet;
  spec.progress = &quiet;

  const SweepResult expected = run_sweep(spec);

  CoordinatorOptions options;
  options.local_jobs = 0;  // dispatch-only: every unit goes to the client
  options.heartbeat_ms = 100;
  options.lease_ms = 150;
  Coordinator coordinator(spec, options);

  // A protocol client that gets both units up front, answers the first
  // only after its lease expired and the reaper re-queued both (a
  // straggler), and sits on the other original lease.  The grant that
  // follows the straggler result then reads the head of the re-queued
  // pending queue -- the just-completed unit's stale entry -- while the
  // other unit is still unfinished.  Re-issued leases (a unit id seen
  // before) are answered immediately, so a buggy re-grant of the done
  // unit produces a mid-sweep duplicate merge instead of a post-drain
  // no-op.
  std::thread client([port = coordinator.port()] {
    Socket socket = connect_to("127.0.0.1", port);
    HelloFrame hello;
    hello.coordinator = false;
    hello.slots = 1;
    socket.send_frame(encode_frame(Frame{hello}));
    const auto reply = socket.recv_frame(kMaxFrameBytes);
    ASSERT_TRUE(reply.has_value());
    const Frame reply_frame = decode_frame(*reply);
    const auto& coord = std::get<HelloFrame>(reply_frame);
    ASSERT_TRUE(coord.coordinator);
    socket.set_recv_timeout_ms(5000);
    std::vector<std::uint64_t> seen;
    bool answered_first = false;
    for (;;) {
      std::optional<std::vector<std::byte>> payload;
      try {
        payload = socket.recv_frame(kMaxFrameBytes);
      } catch (const SocketError&) {
        break;
      }
      if (!payload.has_value()) break;
      Frame incoming = decode_frame(*payload);
      if (const LeaseFrame* lease = std::get_if<LeaseFrame>(&incoming)) {
        const bool reissued =
            std::find(seen.begin(), seen.end(), lease->unit_id) != seen.end();
        seen.push_back(lease->unit_id);
        if (!reissued) {
          if (answered_first) continue;  // stall on other original leases
          answered_first = true;
          // Outlive the lease deadline plus a reap cycle.
          std::this_thread::sleep_for(std::chrono::milliseconds(400));
        }
        ResultFrame result;
        result.unit_id = lease->unit_id;
        result.result = run_case_shard(coord.cases[lease->case_index].spec,
                                       lease->first_run, lease->run_count);
        try {
          socket.send_frame(encode_frame(Frame{result}));
        } catch (const SocketError&) {
          break;  // coordinator drained and hung up mid-straggle
        }
      } else if (std::get_if<ShutdownFrame>(&incoming) != nullptr) {
        break;
      }
    }
  });

  const SweepResult distributed = coordinator.run();
  client.join();

  EXPECT_GE(distributed.fabric.units_reissued, 1u);
  EXPECT_EQ(manifest_results_json(spec, distributed),
            manifest_results_json(spec, expected));
  EXPECT_EQ(results_fingerprint(spec, distributed),
            results_fingerprint(spec, expected));
}

TEST(FabricSystem, PreHandshakeFailuresExhaustConnectBudget) {
  // Regression: a coordinator that never completes the hello exchange
  // must drain the worker's connect-attempt budget; previously every
  // dropped handshake re-armed the budget and the worker reconnected
  // forever instead of exiting kConnectFailed.
  Listener listener(0);
  std::atomic<bool> accepting{true};
  std::thread rejecter([&listener, &accepting] {
    while (accepting.load()) {
      try {
        // Accept and immediately drop: the worker's hello is never
        // answered, so its session ends before the handshake completes.
        (void)listener.accept(50);
      } catch (const SocketError&) {
        break;
      }
    }
  });

  WorkerOptions options;
  options.port = listener.port();
  options.slots = 1;
  options.max_connect_attempts = 3;
  options.backoff_initial_ms = 10;
  options.backoff_max_ms = 20;
  // Watchdog so a regression fails as kStopped instead of hanging.
  std::atomic<bool> stop{false};
  options.stop = &stop;
  std::thread watchdog([&stop] {
    for (int i = 0; i < 500 && !stop.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    stop.store(true);
  });

  const WorkerExit exit_code = run_worker(options);
  stop.store(true);
  accepting.store(false);
  watchdog.join();
  rejecter.join();
  EXPECT_EQ(exit_code, WorkerExit::kConnectFailed);
}

// Both schedulers drain the same unit board: at the same worker count they
// split every case identically, and every unit runs through run_unit.
TEST(FabricSystem, CoordinatorAloneBehavesLikeRunSweep) {
  SweepSpec spec = shared_pool_sweep();
  spec.jobs = 2;
  NullProgress quiet;
  spec.progress = &quiet;

  const SweepResult expected = run_sweep(spec);

  CoordinatorOptions options;
  options.local_jobs = 2;
  Coordinator coordinator(spec, options);
  const SweepResult alone = coordinator.run();

  EXPECT_EQ(manifest_results_json(spec, alone),
            manifest_results_json(spec, expected));
  EXPECT_EQ(alone.fabric.workers_connected, 0u);
  ASSERT_EQ(alone.cases.size(), expected.cases.size());
  for (std::size_t i = 0; i < alone.cases.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(alone.cases[i].shards, expected.cases[i].shards);
  }
}

// A job count far past the board's units starts at most one thread per
// unit, in the coordinator and in run_sweep alike, so a sweep asked for
// 10^18 jobs finishes with the results of a two-job one.
TEST(FabricSystem, HugeJobCountsStartOneThreadPerUnitAtMost) {
  constexpr std::uint64_t kHuge = 1'000'000'000'000'000'000;
  SweepSpec spec = shared_pool_sweep();
  spec.jobs = 2;
  NullProgress quiet;
  spec.progress = &quiet;
  const SweepResult expected = run_sweep(spec);

  SweepSpec huge = spec;
  huge.jobs = static_cast<std::size_t>(kHuge);
  EXPECT_EQ(results_fingerprint(spec, run_sweep(huge)),
            results_fingerprint(spec, expected));

  CoordinatorOptions options;
  options.local_jobs = kHuge;
  Coordinator coordinator(spec, options);
  EXPECT_EQ(results_fingerprint(spec, coordinator.run()),
            results_fingerprint(spec, expected));
}

// A unit that throws on a remote worker fails the sweep exactly as it does
// in-process: the worker reports the error and stays up, and the
// coordinator drains, sends it shutdown, and throws.  A trace-model case
// whose trace does not parse throws DecodeError as its simulation is
// built, whatever the algorithm.
TEST(FabricSystem, RemoteUnitFailureFailsTheSweep) {
  SweepSpec spec;
  SweepCase broken;
  broken.spec = small_case(RunMode::kFreshStart);
  broken.spec.fault_model.kind = FaultModelKind::kTrace;
  broken.spec.fault_model.trace_json = "not a trace";
  spec.cases.push_back(broken);
  NullProgress quiet;
  spec.progress = &quiet;

  EXPECT_THROW((void)run_sweep(spec), DecodeError);

  CoordinatorOptions options;
  options.local_jobs = 0;  // dispatch-only: the unit can only fail remotely
  options.heartbeat_ms = 100;
  Coordinator coordinator(spec, options);
  WorkerOptions worker;
  worker.port = coordinator.port();
  worker.slots = 1;
  WorkerThread only(worker);

  EXPECT_THROW((void)coordinator.run(), std::runtime_error);
  EXPECT_EQ(only.exit_code(), WorkerExit::kShutdown);
}

}  // namespace
}  // namespace dynvote::fabric
