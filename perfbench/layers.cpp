// The traced pass: sim, gcs and core metrics measured from outside.
//
// Each sampled case is re-run through the public Simulation API on one
// thread, one run at a time -- the loop cascading shards use -- in four
// passes:
//   plain     checking on: per-run time, construction, snapshot save and
//             restore, allocations and the scout replay; also the untraced
//             time the tracing overhead is judged against;
//   unchecked the same runs with check_invariants off, which leaves the
//             trajectory unchanged by contract: the checker's cost;
//   wire      checking off, measure_wire_sizes on: bytes per send;
//   traced    checking on, every algorithm wrapped in a forwarding
//             decorator built through CaseSpec::algorithm_factory, and the
//             run stepped one event (a round or a change) at a time with
//             run_events(1).
// Every pass's per-case results must equal the untraced sweep's.
//
// Reading the clock around each of the ~19k incoming_message calls of an
// N=64 run would triple its time, so the decorator counts every core call
// but times only every 16th incoming/poll call (scaling the sum back up),
// and times every view_changed, which is rare.
#include <algorithm>
#include <bit>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "sim/snapshot.hpp"
#include "util/alloc_stats.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using dynvote::AlgorithmDebugInfo;
using dynvote::CascadeCheckpoint;
using dynvote::CaseResult;
using dynvote::CaseSpec;
using dynvote::Decoder;
using dynvote::Encoder;
using dynvote::Message;
using dynvote::PrimaryComponentAlgorithm;
using dynvote::ProcessId;
using dynvote::RunResult;
using dynvote::Session;
using dynvote::Simulation;
using dynvote::SimulationConfig;
using dynvote::View;

constexpr std::uint64_t kSampleEvery = 16;

double elapsed_ns(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::nano>(to - from).count();
}

/// Cost of one Clock::now() pair, subtracted from every timed span.
double calibrate_clock_ns() {
  std::vector<double> samples(4096);
  for (double& sample : samples) {
    const auto a = Clock::now();
    const auto b = Clock::now();
    sample = elapsed_ns(a, b);
  }
  return median(std::move(samples));
}

/// Calls into the core layer through TracedAlgorithm, for one algorithm.
struct CoreTally {
  std::uint64_t incoming = 0;
  std::uint64_t polls = 0;
  std::uint64_t view_changes = 0;
  std::uint64_t incoming_timed = 0;
  std::uint64_t polls_timed = 0;
  double incoming_ns = 0.0;
  double polls_ns = 0.0;
  double view_changed_ns = 0.0;
  /// Running sum of the timed incoming and poll spans; events difference it.
  double sampled_ns = 0.0;
  /// Incoming and poll calls so far; every kSampleEvery-th is timed.
  std::uint64_t calls = 0;
  /// Views installed: view_changed calls carrying an id above the highest
  /// seen in the current world (ids are monotone within a world).
  dynvote::ViewId last_view_id = 0;
  std::uint64_t views_installed = 0;
};

/// Forwards every call to the real algorithm, counting and timing the
/// state-exchange entry points.  save/load/name forward too, so snapshots
/// taken by plain worlds restore into decorated ones.
class TracedAlgorithm final : public PrimaryComponentAlgorithm {
 public:
  TracedAlgorithm(std::unique_ptr<PrimaryComponentAlgorithm> inner,
                  CoreTally& tally, double clock_ns)
      : PrimaryComponentAlgorithm(inner->self(), inner->initial_view()),
        inner_(std::move(inner)),
        tally_(tally),
        clock_ns_(clock_ns) {}

  void view_changed(const View& view) override {
    ++tally_.view_changes;
    if (view.id > tally_.last_view_id) {
      tally_.last_view_id = view.id;
      ++tally_.views_installed;
    }
    const auto start = Clock::now();
    inner_->view_changed(view);
    tally_.view_changed_ns += span_ns(start);
  }

  Message incoming_message(Message message, ProcessId sender) override {
    ++tally_.incoming;
    if (++tally_.calls % kSampleEvery != 0) {
      return inner_->incoming_message(std::move(message), sender);
    }
    const auto start = Clock::now();
    Message out = inner_->incoming_message(std::move(message), sender);
    const double ns = span_ns(start);
    ++tally_.incoming_timed;
    tally_.incoming_ns += ns;
    tally_.sampled_ns += ns;
    return out;
  }

  std::optional<Message> outgoing_message_poll(const Message& app) override {
    ++tally_.polls;
    if (++tally_.calls % kSampleEvery != 0) {
      return inner_->outgoing_message_poll(app);
    }
    const auto start = Clock::now();
    std::optional<Message> out = inner_->outgoing_message_poll(app);
    const double ns = span_ns(start);
    ++tally_.polls_timed;
    tally_.polls_ns += ns;
    tally_.sampled_ns += ns;
    return out;
  }

  bool in_primary() const override { return inner_->in_primary(); }
  std::string_view name() const override { return inner_->name(); }
  AlgorithmDebugInfo debug_info() const override {
    return inner_->debug_info();
  }
  void save(Encoder& enc) const override { inner_->save(enc); }
  void load(Decoder& dec) override { inner_->load(dec); }
  const Session& last_primary_session() const override {
    return inner_->last_primary_session();
  }

 private:
  double span_ns(Clock::time_point start) const {
    return std::max(0.0, elapsed_ns(start, Clock::now()) - clock_ns_);
  }

  std::unique_ptr<PrimaryComponentAlgorithm> inner_;
  CoreTally& tally_;
  double clock_ns_;
};

/// What the traced pass sees, per algorithm.
struct EventStats {
  CoreTally core;
  std::uint64_t runs = 0;
  std::uint64_t rounds = 0;
  std::uint64_t quiet_rounds = 0;
  std::uint64_t changes = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t round_deliveries = 0;
  std::uint64_t sends = 0;
  std::uint64_t views_at_changes = 0;
  double round_ns = 0.0;
  double change_ns = 0.0;
  /// Estimated time inside core calls during round / change events.
  double round_core_ns = 0.0;
  double change_core_ns = 0.0;
};

/// What the plain pass sees.
struct PlainStats {
  std::vector<double> run_us;
  std::vector<double> ctor_us;
  std::vector<double> save_us;
  std::vector<double> restore_us;
  double snapshot_bytes = 0.0;
  std::uint64_t allocs = 0;
  std::uint64_t runs = 0;
  double scout_s = 0.0;
  /// Cascading shards' construction, restore and run time.
  double cascade_s = 0.0;
};

enum class Pass { kPlain, kUnchecked, kWire, kTraced };

/// One pass's accumulators.  `work_s` is construction + restore + runs,
/// the part every pass shares (scouts and extra snapshots excluded).
struct PassTotals {
  double work_s = 0.0;
  PlainStats plain;
  std::map<std::string, EventStats> events;
  dynvote::WireStats wire;
};

// The seeding and configuration below mirror the experiment layer
// (sim/experiment.cpp); the result comparison against the untraced sweep
// is what proves they still do.
SimulationConfig config_for(const CaseSpec& spec, std::uint64_t seed) {
  SimulationConfig config;
  config.algorithm = spec.algorithm;
  config.algorithm_factory = spec.algorithm_factory;
  config.processes = spec.processes;
  config.changes_per_run = spec.changes;
  config.mean_rounds_between_changes = spec.mean_rounds;
  config.crash_fraction = spec.crash_fraction;
  config.fault_model = spec.fault_model;
  config.seed = seed;
  config.check_invariants = spec.check_invariants;
  config.measure_wire_sizes = spec.measure_wire_sizes;
  return config;
}

std::uint64_t rate_key(double mean_rounds) {
  return std::bit_cast<std::uint64_t>(mean_rounds);
}

std::uint64_t fresh_seed(const CaseSpec& spec, std::uint64_t run_index) {
  return dynvote::mix_seed(spec.base_seed, spec.processes, spec.changes,
                           rate_key(spec.mean_rounds), run_index);
}

std::uint64_t cascading_seed(const CaseSpec& spec) {
  return dynvote::mix_seed(spec.base_seed, spec.processes, spec.changes,
                           rate_key(spec.mean_rounds), 0xCA5CADEull);
}

/// Cumulative simulation counters as of the previous fold.
struct Baseline {
  std::uint64_t checks = 0;
  std::uint64_t deliveries = 0;
};

/// Record `run` and fold the counters it moved, as the experiment layer
/// does for its results.
void record_run(CaseResult& result, RunResult run, const Simulation& sim,
                Baseline& base) {
  result.record(run);
  result.invariant_checks += sim.invariant_checks() - base.checks;
  result.total_deliveries += sim.gcs().deliveries() - base.deliveries;
  base.checks = sim.invariant_checks();
  base.deliveries = sim.gcs().deliveries();
}

/// One run, whole (untraced) or one event at a time (traced).
RunResult run_one(Simulation& sim, EventStats* events, double clock_ns) {
  if (events == nullptr) return sim.run_once();
  CoreTally& core = events->core;
  for (;;) {
    const std::uint64_t changes = sim.total_changes();
    const std::uint64_t deliveries = sim.gcs().deliveries();
    const std::uint64_t sends = sim.gcs().wire_stats().messages_sent;
    const double sampled = core.sampled_ns;
    const double view_ns = core.view_changed_ns;
    const std::uint64_t views = core.views_installed;
    const auto start = Clock::now();
    std::optional<RunResult> done = sim.run_events(1);
    const double ns = std::max(0.0, elapsed_ns(start, Clock::now()) - clock_ns);
    const double core_ns =
        (core.sampled_ns - sampled) * static_cast<double>(kSampleEvery) +
        (core.view_changed_ns - view_ns);
    const std::uint64_t delivered = sim.gcs().deliveries() - deliveries;
    const std::uint64_t sent = sim.gcs().wire_stats().messages_sent - sends;
    events->deliveries += delivered;
    events->sends += sent;
    if (sim.total_changes() != changes) {
      ++events->changes;
      events->change_ns += ns;
      events->change_core_ns += core_ns;
      events->views_at_changes += core.views_installed - views;
    } else {
      ++events->rounds;
      if (delivered == 0 && sent == 0) ++events->quiet_rounds;
      events->round_deliveries += delivered;
      events->round_ns += ns;
      events->round_core_ns += core_ns;
    }
    if (done.has_value()) {
      ++events->runs;
      return *std::move(done);
    }
  }
}

class SamplePasses {
 public:
  explicit SamplePasses(double clock_ns) : clock_ns_(clock_ns) {}

  /// Run `sample` through `pass`, returning its results.
  CaseResult run(const SampleCase& sample, Pass pass, PassTotals& totals);

 private:
  CaseResult run_fresh(const CaseSpec& spec, Pass pass, PassTotals& totals,
                       EventStats* events);
  CaseResult run_cascading(const CaseSpec& spec, std::uint64_t shards,
                           Pass pass, PassTotals& totals, EventStats* events);
  /// Build `world` in place, timing the construction as shared work.
  void construct(std::optional<Simulation>& world,
                 const SimulationConfig& config, PassTotals& totals, Pass pass,
                 EventStats* events);

  double clock_ns_;
  /// Scout checkpoints of the cascading case being measured, made by the
  /// plain pass and restored by the others.
  std::vector<CascadeCheckpoint> checkpoints_;
};

void SamplePasses::construct(std::optional<Simulation>& world,
                             const SimulationConfig& config,
                             PassTotals& totals, Pass pass,
                             EventStats* events) {
  if (events != nullptr) events->core.last_view_id = 0;
  const auto start = Clock::now();
  world.emplace(config);
  const double seconds = seconds_between(start, Clock::now());
  totals.work_s += seconds;
  if (pass == Pass::kPlain) totals.plain.ctor_us.push_back(seconds * 1e6);
}

CaseResult SamplePasses::run(const SampleCase& sample, Pass pass,
                             PassTotals& totals) {
  CaseSpec spec = sample.sweep_case->spec;
  spec.check_invariants = pass == Pass::kPlain || pass == Pass::kTraced;
  spec.measure_wire_sizes = pass == Pass::kWire;
  EventStats* events = nullptr;
  if (pass == Pass::kTraced) {
    events = &totals.events[std::string(dynvote::to_string(spec.algorithm))];
    const dynvote::AlgorithmKind kind = spec.algorithm;
    CoreTally* tally = &events->core;
    const double clock_ns = clock_ns_;
    spec.algorithm_factory = [kind, tally, clock_ns](ProcessId self,
                                                     const View& initial)
        -> std::unique_ptr<PrimaryComponentAlgorithm> {
      return std::make_unique<TracedAlgorithm>(
          dynvote::make_algorithm(kind, self, initial), *tally, clock_ns);
    };
  }
  if (spec.mode == dynvote::RunMode::kFreshStart) {
    return run_fresh(spec, pass, totals, events);
  }
  return run_cascading(spec, std::max<std::uint64_t>(1, sample.outcome->shards),
                       pass, totals, events);
}

CaseResult SamplePasses::run_fresh(const CaseSpec& spec, Pass pass,
                                   PassTotals& totals, EventStats* events) {
  CaseResult result;
  for (std::uint64_t i = 0; i < spec.runs; ++i) {
    const SimulationConfig config = config_for(spec, fresh_seed(spec, i));
    std::optional<Simulation> world;
    construct(world, config, totals, pass, events);
    Simulation& sim = *world;
    Baseline base;
    const std::uint64_t allocs = dynvote::thread_allocations();
    const auto start = Clock::now();
    RunResult run = run_one(sim, events, clock_ns_);
    const double seconds = seconds_between(start, Clock::now());
    totals.work_s += seconds;
    if (pass == Pass::kPlain) {
      totals.plain.allocs += dynvote::thread_allocations() - allocs;
      totals.plain.run_us.push_back(seconds * 1e6);
      ++totals.plain.runs;
    }
    record_run(result, std::move(run), sim, base);
    if (pass == Pass::kWire) totals.wire.merge(sim.gcs().wire_stats());
    if (pass == Pass::kPlain && i + 1 == spec.runs) {
      // Fresh-start sweeps never checkpoint; time a save/restore round
      // trip of the case's last world so the snapshot layer is measured at
      // this workload's shape too.
      auto t0 = Clock::now();
      const std::vector<std::byte> bytes = dynvote::save_snapshot(sim);
      totals.plain.save_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      totals.plain.snapshot_bytes += static_cast<double>(bytes.size());
      Simulation copy(config);
      t0 = Clock::now();
      dynvote::restore_snapshot(copy, bytes);
      totals.plain.restore_us.push_back(seconds_between(t0, Clock::now()) *
                                        1e6);
      if (dynvote::save_snapshot(copy) != bytes) {
        throw std::runtime_error("snapshot round trip changed the world");
      }
    }
  }
  return result;
}

CaseResult SamplePasses::run_cascading(const CaseSpec& spec,
                                       std::uint64_t shards, Pass pass,
                                       PassTotals& totals,
                                       EventStats* events) {
  // The sweep's own shard count gives the shard size, and with it the
  // boundaries the scout checkpoints at.
  const std::uint64_t size = (spec.runs + shards - 1) / shards;
  if (pass == Pass::kPlain) {
    std::vector<std::uint64_t> boundaries;
    for (std::uint64_t b = size; b < spec.runs; b += size) {
      boundaries.push_back(b);
    }
    checkpoints_.clear();
    if (!boundaries.empty()) {
      const auto start = Clock::now();
      checkpoints_ = dynvote::scout_cascading_case(spec, boundaries);
      totals.plain.scout_s += seconds_between(start, Clock::now());
    }
  }
  const SimulationConfig config = config_for(spec, cascading_seed(spec));
  CaseResult result;
  for (std::size_t k = 0; k <= checkpoints_.size(); ++k) {
    const std::uint64_t first = k == 0 ? 0 : checkpoints_[k - 1].first_run;
    const std::uint64_t count = std::min(size, spec.runs - first);
    const double work_before = totals.work_s;
    std::optional<Simulation> world;
    construct(world, config, totals, pass, events);
    Simulation& sim = *world;
    if (k > 0) {
      const auto start = Clock::now();
      dynvote::restore_snapshot(sim, checkpoints_[k - 1].bytes);
      const double seconds = seconds_between(start, Clock::now());
      totals.work_s += seconds;
      if (pass == Pass::kPlain) {
        totals.plain.restore_us.push_back(seconds * 1e6);
      }
    }
    Baseline base{sim.invariant_checks(), sim.gcs().deliveries()};
    const dynvote::WireStats wire_before = sim.gcs().wire_stats();
    CaseResult shard;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t allocs = dynvote::thread_allocations();
      const auto start = Clock::now();
      RunResult run = run_one(sim, events, clock_ns_);
      const double seconds = seconds_between(start, Clock::now());
      totals.work_s += seconds;
      if (pass == Pass::kPlain) {
        totals.plain.allocs += dynvote::thread_allocations() - allocs;
        totals.plain.run_us.push_back(seconds * 1e6);
        ++totals.plain.runs;
      }
      record_run(shard, std::move(run), sim, base);
    }
    if (pass == Pass::kPlain) {
      totals.plain.cascade_s += totals.work_s - work_before;
      if (k < checkpoints_.size()) {
        const auto start = Clock::now();
        const std::vector<std::byte> bytes = dynvote::save_snapshot(sim);
        totals.plain.save_us.push_back(seconds_between(start, Clock::now()) *
                                       1e6);
        totals.plain.snapshot_bytes += static_cast<double>(bytes.size());
      }
    }
    if (pass == Pass::kWire) {
      const dynvote::WireStats& now = sim.gcs().wire_stats();
      dynvote::WireStats delta;
      delta.messages_sent = now.messages_sent - wire_before.messages_sent;
      delta.total_message_bytes =
          now.total_message_bytes - wire_before.total_message_bytes;
      totals.wire.merge(delta);
    }
    if (k == 0) {
      result = std::move(shard);
    } else {
      result.merge(shard);
    }
  }
  return result;
}

double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

double ratio(std::uint64_t numerator, std::uint64_t denominator) {
  return ratio(static_cast<double>(numerator), static_cast<double>(denominator));
}

/// Results with the checker's count cleared, for passes that run unchecked.
std::string unchecked_digest(CaseResult result) {
  result.invariant_checks = 0;
  return results_digest(result);
}

}  // namespace

LayerReport measure_layers(const std::vector<SampleCase>& sample,
                           const std::vector<std::string>& algorithms) {
  const double clock_ns = calibrate_clock_ns();
  SamplePasses passes(clock_ns);
  PassTotals plain, unchecked, wire, traced;
  LayerReport report;

  for (const SampleCase& s : sample) {
    const CaseResult& expected = s.outcome->result;
    const std::string label = dynvote::case_label(*s.sweep_case);
    const struct {
      Pass pass;
      PassTotals* totals;
      const char* name;
    } order[] = {{Pass::kPlain, &plain, "plain"},
                 {Pass::kUnchecked, &unchecked, "unchecked"},
                 {Pass::kWire, &wire, "wire"},
                 {Pass::kTraced, &traced, "traced"}};
    for (const auto& p : order) {
      ++report.attempted;
      try {
        const std::uint64_t rounds_before =
            p.pass == Pass::kTraced
                ? traced.events[s.sweep_case->algorithm].rounds
                : 0;
        const CaseResult got = passes.run(s, p.pass, *p.totals);
        const bool checked = p.pass == Pass::kPlain || p.pass == Pass::kTraced;
        bool same = checked ? results_digest(got) == results_digest(expected)
                            : unchecked_digest(got) == unchecked_digest(expected);
        if (p.pass == Pass::kTraced &&
            traced.events[s.sweep_case->algorithm].rounds - rounds_before !=
                got.total_rounds) {
          same = false;  // run_events(1) must step exactly one round
        }
        if (!same) {
          ++report.failed;
          std::cerr << "perfbench: " << p.name << " pass of [" << label
                    << "] differs from the untraced sweep\n";
        }
      } catch (const std::exception& e) {
        ++report.failed;
        std::cerr << "perfbench: " << p.name << " pass of [" << label
                  << "] threw: " << e.what() << '\n';
      }
    }
  }

  // Totals over every algorithm in the traced pass.
  EventStats all;
  for (const auto& [name, e] : traced.events) {
    all.runs += e.runs;
    all.rounds += e.rounds;
    all.quiet_rounds += e.quiet_rounds;
    all.changes += e.changes;
    all.deliveries += e.deliveries;
    all.round_deliveries += e.round_deliveries;
    all.sends += e.sends;
    all.views_at_changes += e.views_at_changes;
    all.round_ns += e.round_ns;
    all.change_ns += e.change_ns;
    all.round_core_ns += e.round_core_ns;
    all.change_core_ns += e.change_core_ns;
    all.core.incoming += e.core.incoming;
    all.core.polls += e.core.polls;
    all.core.view_changes += e.core.view_changes;
    all.core.incoming_timed += e.core.incoming_timed;
    all.core.polls_timed += e.core.polls_timed;
    all.core.incoming_ns += e.core.incoming_ns;
    all.core.polls_ns += e.core.polls_ns;
    all.core.view_changed_ns += e.core.view_changed_ns;
  }
  const PlainStats& p = plain.plain;
  const double checker_s = plain.work_s - unchecked.work_s;
  const double event_ns = all.round_ns + all.change_ns;

  std::vector<Metric>& m = report.metrics;
  m.push_back({"sim.run_us.p50", percentile(p.run_us, 50), "us"});
  m.push_back({"sim.run_us.p99", percentile(p.run_us, 99), "us"});
  m.push_back({"sim.run_samples", static_cast<double>(p.run_us.size()),
               "count"});
  m.push_back({"sim.ctor_us", median(p.ctor_us), "us"});
  m.push_back({"sim.rounds_per_run", ratio(all.rounds, all.runs), "count"});
  m.push_back({"sim.quiet_round_frac", ratio(all.quiet_rounds, all.rounds),
               "ratio"});
  m.push_back({"sim.check_frac", ratio(checker_s, plain.work_s), "ratio"});
  m.push_back({"sim.change_frac", ratio(all.change_ns, event_ns), "ratio"});
  m.push_back({"sim.scout_frac", ratio(p.scout_s, p.scout_s + p.cascade_s),
               "ratio"});
  m.push_back({"sim.snapshot_bytes",
               ratio(p.snapshot_bytes, static_cast<double>(p.save_us.size())),
               "bytes"});
  m.push_back({"sim.snapshot_save_us", median(p.save_us), "us"});
  m.push_back({"sim.snapshot_restore_us", median(p.restore_us), "us"});
  m.push_back({"sim.allocs_per_run", ratio(p.allocs, p.runs), "count"});
  m.push_back({"gcs.deliveries_per_round", ratio(all.deliveries, all.rounds),
               "count"});
  m.push_back({"gcs.sends_per_round", ratio(all.sends, all.rounds), "count"});
  m.push_back({"gcs.views_per_change", ratio(all.views_at_changes, all.changes),
               "count"});
  m.push_back({"gcs.bytes_per_send",
               ratio(wire.wire.total_message_bytes, wire.wire.messages_sent),
               "bytes"});
  m.push_back({"gcs.self_ns_per_delivery",
               ratio(all.round_ns - all.round_core_ns - checker_s * 1e9,
                     static_cast<double>(all.round_deliveries)),
               "ns"});
  m.push_back({"core.incoming_per_round", ratio(all.core.incoming, all.rounds),
               "count"});
  m.push_back({"core.polls_per_round", ratio(all.core.polls, all.rounds),
               "count"});
  m.push_back({"core.view_changed_per_run",
               ratio(all.core.view_changes, all.runs), "count"});
  m.push_back({"core.ns_per_incoming",
               ratio(all.core.incoming_ns,
                     static_cast<double>(all.core.incoming_timed)),
               "ns"});
  m.push_back({"core.ns_per_poll",
               ratio(all.core.polls_ns,
                     static_cast<double>(all.core.polls_timed)),
               "ns"});
  m.push_back({"core.us_per_view_changed",
               ratio(all.core.view_changed_ns / 1000.0,
                     static_cast<double>(all.core.view_changes)),
               "us"});
  m.push_back({"core.self_frac",
               ratio(all.round_core_ns + all.change_core_ns, event_ns),
               "ratio"});
  for (const std::string& name : algorithms) {
    const auto it = traced.events.find(name);
    const double frac =
        it == traced.events.end()
            ? 0.0
            : ratio(it->second.round_core_ns + it->second.change_core_ns,
                    it->second.round_ns + it->second.change_ns);
    m.push_back({"core.self_frac." + name, frac, "ratio"});
  }
  m.push_back({"trace.overhead_frac", ratio(traced.work_s, plain.work_s) - 1.0,
               "ratio"});
  m.push_back({"trace.clock_ns", clock_ns, "ns"});
  return report;
}

}  // namespace perfbench
