// A seeded mutation pass over every decoder of external bytes: snapshots of
// all six algorithms under all four fault models, fabric frames, the events
// file, trace documents, sweep manifests and protocol payloads.  Each input
// starts as a valid encoding; every mutant (byte overwrites, bit flips,
// truncation, insertion, oversized varints) must decode cleanly or fail
// with DecodeError -- json_parse, which reports failure by returning
// nothing, must return.  Any other exception fails the test, and a crash,
// an out-of-bounds access or an unbounded allocation fails it under the
// sanitizers.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/payload.hpp"
#include "fabric/wire.hpp"
#include "obs/trace.hpp"
#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "sim/snapshot.hpp"
#include "sim/trace_model.hpp"
#include "util/codec.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace dynvote {
namespace {

/// Mutants per input.  CI also runs this suite under ASan + UBSan.
constexpr int kMutants = 3000;

/// One random mutation of `valid`.
std::vector<std::byte> mutate(const std::vector<std::byte>& valid, Rng& rng) {
  std::vector<std::byte> out = valid;
  const auto at = [&](std::size_t extra) {
    return static_cast<std::size_t>(rng.below(out.size() + extra));
  };
  const auto random_byte = [&] {
    return static_cast<std::byte>(rng.below(256));
  };
  switch (rng.below(5)) {
    case 0: {  // overwrite a short run of bytes
      const std::size_t len = 1 + rng.below(4);
      for (std::size_t i = 0, pos = at(0); i < len && pos + i < out.size();
           ++i) {
        out[pos + i] = random_byte();
      }
      break;
    }
    case 1:  // flip one bit
      out[at(0)] ^= static_cast<std::byte>(1u << rng.below(8));
      break;
    case 2:  // truncate
      out.resize(at(0));
      break;
    case 3: {  // insert a short run of random bytes
      std::vector<std::byte> run(1 + rng.below(8));
      for (std::byte& b : run) b = random_byte();
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(at(1)), run.begin(),
                 run.end());
      break;
    }
    default: {  // an oversized varint: a huge count, length or id
      std::vector<std::byte> varint(9, std::byte{0xff});
      varint.push_back(static_cast<std::byte>(rng.below(2)));
      const std::size_t pos = at(0);
      const std::size_t replaced = std::min<std::size_t>(
          out.size() - pos, static_cast<std::size_t>(rng.below(3)));
      out.erase(out.begin() + static_cast<std::ptrdiff_t>(pos),
                out.begin() + static_cast<std::ptrdiff_t>(pos + replaced));
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos),
                 varint.begin(), varint.end());
      break;
    }
  }
  return out;
}

/// Feed `kMutants` mutants of `valid` to `decode`.  The valid input itself
/// must decode.  Returns how many mutants were rejected.
int mutation_pass(const std::vector<std::byte>& valid, std::uint64_t seed,
                  const std::function<void(std::span<const std::byte>)>&
                      decode) {
  EXPECT_FALSE(valid.empty());
  EXPECT_NO_THROW(decode(valid)) << "the unmutated input must decode";
  Rng rng = Rng::from_raw_seed(seed);
  int rejected = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::vector<std::byte> mutant = mutate(valid, rng);
    try {
      decode(mutant);
    } catch (const DecodeError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " of seed " << seed
                    << " threw something other than DecodeError: "
                    << e.what();
    }
  }
  return rejected;
}

std::vector<std::byte> bytes_of(std::string_view text) {
  const auto* data = reinterpret_cast<const std::byte*>(text.data());
  return {data, data + text.size()};
}

std::string_view text_of(std::span<const std::byte> bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

constexpr std::string_view kTraceDocument = R"({
  "schema": "dynvote.trace.v1",
  "processes": 12,
  "events": [
    {"at": 2,  "kind": "partition", "moved": [3, 4, 5]},
    {"at": 6,  "kind": "crash",     "process": 9},
    {"at": 11, "kind": "merge",     "of": [0, 3]},
    {"at": 15, "kind": "recovery",  "process": 9},
    {"at": 19, "kind": "partition", "moved": [1]}
  ]
})";

class SnapshotMutation : public ::testing::TestWithParam<AlgorithmKind> {};

// Under every fault model: a snapshot names the model only through the
// config hash, and a mutant that restores replays under that model.
TEST_P(SnapshotMutation, RestoreRejectsOrAcceptsEveryMutant) {
  for (const FaultModelKind model :
       {FaultModelKind::kGeometric, FaultModelKind::kSleepy,
        FaultModelKind::kRepairable, FaultModelKind::kTrace}) {
    SCOPED_TRACE(to_string(model));
    SimulationConfig config;
    config.algorithm = GetParam();
    config.processes = 8;
    config.changes_per_run = 6;
    config.mean_rounds_between_changes = 1.0;
    config.seed = 0x5EED;
    config.fault_model.kind = model;
    if (model == FaultModelKind::kTrace) {
      config.processes = 12;  // the document's universe
      config.fault_model.trace_json = std::string(kTraceDocument);
    }
    Simulation source(config);
    // A whole run first, except under the trace, whose events the first
    // run spends: a later run only stabilizes.
    if (model != FaultModelKind::kTrace) (void)source.run_once();
    (void)source.run_events(9);  // mid-run: exchanges and messages in flight
    ASSERT_TRUE(source.run_in_progress());
    const std::vector<std::byte> snapshot = save_snapshot(source);

    const int rejected = mutation_pass(
        snapshot,
        0xB17F11B + static_cast<std::uint64_t>(GetParam()) +
            8 * static_cast<std::uint64_t>(model),
        [&](std::span<const std::byte> bytes) {
          Simulation target(config);
          restore_snapshot(target, bytes);
        });
    EXPECT_GT(rejected, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, SnapshotMutation,
                         ::testing::ValuesIn(all_algorithm_kinds()),
                         [](const ::testing::TestParamInfo<AlgorithmKind>& p) {
                           std::string name(to_string(p.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(FrameMutation, HelloWithCaseTableAndResultFrames) {
  CaseSpec spec;
  spec.algorithm = AlgorithmKind::kMr1p;
  spec.processes = 8;
  spec.changes = 4;
  spec.mean_rounds = 3.0;
  spec.runs = 16;
  spec.base_seed = 0xFAB1;

  fabric::HelloFrame hello;
  hello.coordinator = true;
  hello.build = "mutation";
  hello.slots = 3;
  hello.lease_ms = 30000;
  hello.heartbeat_ms = 1000;
  for (const FaultModelKind model :
       {FaultModelKind::kGeometric, FaultModelKind::kTrace}) {
    fabric::CaseDescriptor desc;
    desc.label = "mr1p";
    desc.spec = spec;
    desc.spec.fault_model.kind = model;
    if (model == FaultModelKind::kTrace) {
      desc.spec.processes = 12;
      desc.spec.fault_model.trace_json = std::string(kTraceDocument);
    }
    hello.cases.push_back(desc);
  }

  fabric::ResultFrame result;
  result.unit_id = 5;
  result.compute_seconds = 0.5;
  result.result = run_case_shard(spec, 0, spec.runs);

  const auto decode = [](std::span<const std::byte> bytes) {
    (void)fabric::decode_frame(bytes);
  };
  EXPECT_GT(mutation_pass(fabric::encode_frame(fabric::Frame{hello}), 0xF4A3,
                          decode),
            0);
  EXPECT_GT(mutation_pass(fabric::encode_frame(fabric::Frame{result}), 0xF4A4,
                          decode),
            0);
}

TEST(EventsMutation, TraceFileDecode) {
  SimulationConfig config;
  config.processes = 8;
  config.seed = 0xE7E7;
  obs::trace_enable();
  Simulation sim(config);
  (void)sim.run_once();
  obs::trace_disable();
  const obs::TraceFile file = obs::trace_drain();
  ASSERT_FALSE(file.events.empty());

  EXPECT_GT(mutation_pass(file.encode(), 0xE4E4,
                          [](std::span<const std::byte> bytes) {
                            (void)obs::TraceFile::decode(bytes);
                          }),
            0);
}

TEST(TraceMutation, ParseTraceDocument) {
  EXPECT_GT(mutation_pass(bytes_of(kTraceDocument), 0x7ACE,
                          [](std::span<const std::byte> bytes) {
                            (void)parse_trace(text_of(bytes), 12);
                          }),
            0);
}

TEST(ManifestMutation, JsonParseOfACommittedBaseline) {
  std::ifstream in(std::string(DV_SOURCE_ROOT) +
                   "/bench/baselines/BENCH_fm_geometric.json");
  ASSERT_TRUE(in.good());
  const std::string manifest{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
  int unparsed = 0;
  mutation_pass(bytes_of(manifest), 0x150B,
                [&](std::span<const std::byte> bytes) {
                  if (!json_parse(text_of(bytes)).has_value()) ++unparsed;
                });
  EXPECT_GT(unparsed, 0);
}

TEST(PayloadMutation, EveryPayloadType) {
  constexpr std::size_t kUniverse = 16;
  const Session formed{9, ProcessSet(kUniverse, {0, 1, 2, 5})};
  const Session pending{12, ProcessSet(kUniverse, {0, 1, 7})};

  std::vector<PayloadRef<ProtocolPayload>> payloads;
  auto state = make_payload<StateExchangePayload>();
  state->session_number = 12;
  state->last_primary = formed;
  state->ambiguous = {pending, Session{11, ProcessSet::full(kUniverse)}};
  state->last_formed.assign(kUniverse, formed);
  payloads.push_back(state);
  auto attempt = make_payload<AttemptPayload>();
  attempt->proposal = pending;
  payloads.push_back(attempt);
  auto gc = make_payload<GcRoundPayload>();
  gc->formed_number = 9;
  payloads.push_back(gc);
  auto mr1p_pending = make_payload<Mr1pPendingPayload>();
  mr1p_pending->has_pending = true;
  mr1p_pending->pending = pending;
  mr1p_pending->num = 3;
  mr1p_pending->status = Mr1pStatus::kAttempt;
  payloads.push_back(mr1p_pending);
  auto reply = make_payload<Mr1pReplyPayload>();
  reply->replies = {{formed, Mr1pVerdict::kFormed, 0},
                    {pending, Mr1pVerdict::kStatusSent, 2}};
  payloads.push_back(reply);
  auto resolve = make_payload<Mr1pResolvePayload>();
  resolve->about = pending;
  resolve->call = Mr1pVerdict::kAborted;
  payloads.push_back(resolve);
  auto propose = make_payload<Mr1pProposePayload>();
  propose->proposal = pending;
  payloads.push_back(propose);
  auto mr1p_attempt = make_payload<Mr1pAttemptPayload>();
  mr1p_attempt->proposal = pending;
  payloads.push_back(mr1p_attempt);

  for (std::size_t i = 0; i < payloads.size(); ++i) {
    payloads[i]->view_id = 40 + i;
    SCOPED_TRACE("payload type " +
                 std::to_string(static_cast<int>(payloads[i]->type())));
    EXPECT_GT(mutation_pass(encode_payload(*payloads[i]), 0x9A10 + i,
                            [](std::span<const std::byte> bytes) {
                              (void)decode_payload(bytes, kUniverse);
                            }),
              0);
  }
}

}  // namespace
}  // namespace dynvote
