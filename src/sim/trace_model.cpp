#include "sim/trace_model.hpp"

#include <cmath>
#include <string>

#include "util/assert.hpp"
#include "util/codec.hpp"
#include "util/json.hpp"

namespace dynvote {

namespace {

[[noreturn]] void fail(const std::string& what) { throw DecodeError("trace: " + what); }

/// A JSON number that must be a non-negative integer <= `max`.
std::uint64_t require_uint(const JsonValue* v, const char* what,
                           std::uint64_t max) {
  if (v == nullptr || !v->is_number()) fail(std::string(what) + " must be a number");
  const double d = v->as_number();
  if (!(d >= 0) || d > static_cast<double>(max) || d != std::floor(d)) {
    fail(std::string(what) + " out of range");
  }
  return static_cast<std::uint64_t>(d);
}

ProcessId require_process(const JsonValue* v, const char* what,
                          std::size_t processes) {
  return static_cast<ProcessId>(require_uint(v, what, processes - 1));
}

/// Reject members outside the allowed set -- a typo'd key must not decode
/// as "field absent".
void require_only(const JsonValue& object,
                  std::initializer_list<std::string_view> allowed) {
  for (const auto& [key, value] : object.members()) {
    bool known = false;
    for (std::string_view name : allowed) known = known || key == name;
    if (!known) fail("unknown member \"" + key + "\"");
  }
}

}  // namespace

std::vector<TraceEvent> parse_trace(std::string_view json,
                                    std::size_t processes) {
  const std::optional<JsonValue> doc = json_parse(json);
  if (!doc.has_value()) fail("document is not valid JSON");
  if (!doc->is_object()) fail("document root must be an object");
  require_only(*doc, {"schema", "processes", "events"});

  const JsonValue* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string()) fail("missing schema string");
  if (schema->as_string() != kTraceSchema) {
    fail("schema \"" + schema->as_string() + "\" is not \"" +
         std::string(kTraceSchema) + "\"");
  }
  const std::uint64_t universe =
      require_uint(doc->find("processes"), "processes", 1u << 20);
  if (universe != processes) {
    fail("trace is for " + std::to_string(universe) +
         " processes, simulation has " + std::to_string(processes));
  }

  const JsonValue* events = doc->find("events");
  if (events == nullptr || !events->is_array()) fail("missing events array");

  std::vector<TraceEvent> out;
  out.reserve(events->items().size());
  for (const JsonValue& entry : events->items()) {
    if (!entry.is_object()) fail("event must be an object");
    TraceEvent ev;
    ev.at = require_uint(entry.find("at"), "event \"at\"",
                         std::uint64_t{1} << 62);
    if (!out.empty() && ev.at <= out.back().at) {
      fail("event timestamps must be strictly increasing");
    }
    const JsonValue* kind = entry.find("kind");
    if (kind == nullptr || !kind->is_string()) fail("missing event kind");
    const std::string& name = kind->as_string();
    if (name == "partition") {
      require_only(entry, {"at", "kind", "moved"});
      const JsonValue* moved = entry.find("moved");
      if (moved == nullptr || !moved->is_array() || moved->items().empty()) {
        fail("partition needs a non-empty \"moved\" array");
      }
      ev.kind = TraceEvent::Kind::kPartition;
      ev.moved = ProcessSet(processes);
      for (const JsonValue& item : moved->items()) {
        const ProcessId p = require_process(&item, "moved process", processes);
        if (ev.moved.contains(p)) fail("duplicate process in \"moved\"");
        ev.moved.insert(p);
      }
    } else if (name == "merge") {
      require_only(entry, {"at", "kind", "of"});
      const JsonValue* of = entry.find("of");
      if (of == nullptr || !of->is_array() || of->items().size() != 2) {
        fail("merge needs an \"of\" array of two processes");
      }
      ev.kind = TraceEvent::Kind::kMerge;
      ev.merge_a = require_process(&of->items()[0], "merge process", processes);
      ev.merge_b = require_process(&of->items()[1], "merge process", processes);
      if (ev.merge_a == ev.merge_b) fail("merge names the same process twice");
    } else if (name == "crash" || name == "recovery") {
      require_only(entry, {"at", "kind", "process"});
      ev.kind = name == "crash" ? TraceEvent::Kind::kCrash
                                : TraceEvent::Kind::kRecovery;
      ev.process = require_process(entry.find("process"), "process", processes);
    } else {
      fail("unknown event kind \"" + name + "\"");
    }
    out.push_back(std::move(ev));
  }
  return out;
}

std::string trace_to_json(const std::vector<TraceEvent>& events,
                          std::size_t processes) {
  JsonWriter json;
  json.begin_object();
  json.key("schema").value(kTraceSchema);
  json.key("processes").value(static_cast<std::uint64_t>(processes));
  json.key("events").begin_array();
  for (const TraceEvent& ev : events) {
    json.begin_object();
    json.key("at").value(ev.at);
    switch (ev.kind) {
      case TraceEvent::Kind::kPartition:
        json.key("kind").value("partition");
        json.key("moved").begin_array();
        ev.moved.for_each([&](ProcessId p) {
          json.value(static_cast<std::uint64_t>(p));
        });
        json.end_array();
        break;
      case TraceEvent::Kind::kMerge:
        json.key("kind").value("merge");
        json.key("of").begin_array();
        json.value(static_cast<std::uint64_t>(ev.merge_a));
        json.value(static_cast<std::uint64_t>(ev.merge_b));
        json.end_array();
        break;
      case TraceEvent::Kind::kCrash:
        json.key("kind").value("crash");
        json.key("process").value(static_cast<std::uint64_t>(ev.process));
        break;
      case TraceEvent::Kind::kRecovery:
        json.key("kind").value("recovery");
        json.key("process").value(static_cast<std::uint64_t>(ev.process));
        break;
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

TraceFaultModel::TraceFaultModel(std::string_view trace_json,
                                 std::size_t processes)
    : events_(parse_trace(trace_json, processes)) {}

std::size_t TraceFaultModel::next_gap() {
  DV_REQUIRE(cursor_ < events_.size(), "trace schedule is exhausted");
  return static_cast<std::size_t>(events_[cursor_].at - clock_);
}

void TraceFaultModel::apply_next(Gcs& gcs) {
  DV_REQUIRE(cursor_ < events_.size(), "trace schedule is exhausted");
  const TraceEvent& ev = events_[cursor_];
  clock_ = ev.at;
  switch (ev.kind) {
    case TraceEvent::Kind::kPartition: {
      const std::size_t index = gcs.topology().component_of(ev.moved.lowest());
      const ProcessSet& component = gcs.topology().component(index);
      DV_REQUIRE(ev.moved.is_subset_of(component) &&
                     ev.moved.count() < component.count(),
                 "trace partition is infeasible in the current topology");
      gcs.apply_partition(index, ev.moved);
      break;
    }
    case TraceEvent::Kind::kMerge: {
      const std::size_t a = gcs.topology().component_of(ev.merge_a);
      const std::size_t b = gcs.topology().component_of(ev.merge_b);
      DV_REQUIRE(a != b, "trace merge names processes already connected");
      gcs.apply_merge(a, b);
      break;
    }
    case TraceEvent::Kind::kCrash:
      gcs.apply_crash(ev.process);
      break;
    case TraceEvent::Kind::kRecovery:
      gcs.apply_recovery(ev.process);
      break;
  }
  ++cursor_;
}

}  // namespace dynvote
