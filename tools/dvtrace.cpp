// dvtrace: analyze a dynvote.events.v1 trace file.
//
//   dvtrace TRACE.events [--chrome OUT.json]
//
// The trace recorder (src/obs/trace.hpp) captures spans (case -> shard ->
// run) and protocol instants (view_installed, session_resolved,
// primary_formed, run_complete) while a sweep executes with DV_TRACE=1.
// This tool reads one such file and prints:
//
//   * the file summary (schema, events, name table, ring overwrites),
//   * per-name event counts,
//   * span latency summaries -- count / min / mean / max plus a log2
//     duration histogram -- with "run" spans additionally broken out per
//     algorithm (the leading token of the enclosing case label),
//   * a per-algorithm availability timeline built from `run_complete`
//     instants (a1 = primary at end), rendered as a time-bucketed strip.
//
// --chrome exports the events as Chrome trace-event JSON (the format
// Perfetto and chrome://tracing load): spans become B/E pairs, instants
// become "i" events, and a0/a1 travel in args.
//
// Exit codes: 0 on success, 2 on usage, I/O, or decode errors (hostile or
// truncated input is a DecodeError from the strict parser, never UB).
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"
#include "util/codec.hpp"
#include "util/json.hpp"

namespace {

using dynvote::obs::EventKind;
using dynvote::obs::TraceEvent;
using dynvote::obs::TraceFile;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " TRACE.events [--chrome OUT.json]\n";
  return 2;
}

/// Accumulated span durations under one key (a span name, or
/// "run @ <algorithm>" for the per-algorithm breakout).
struct SpanStats {
  std::uint64_t count = 0;
  std::uint64_t min_us = UINT64_MAX;
  std::uint64_t max_us = 0;
  std::uint64_t total_us = 0;
  /// log2 duration buckets: bucket b holds durations in [2^(b-1), 2^b).
  std::vector<std::uint64_t> buckets = std::vector<std::uint64_t>(40, 0);

  void record(std::uint64_t us) {
    ++count;
    min_us = std::min(min_us, us);
    max_us = std::max(max_us, us);
    total_us += us;
    std::size_t b = 0;
    while (us > 0 && b + 1 < buckets.size()) {
      us >>= 1;
      ++b;
    }
    ++buckets[b];
  }
};

/// One run_complete observation attributed to its case label.
struct RunSample {
  std::uint64_t ts_micros = 0;
  bool primary = false;
};

/// An open span on some thread's stack.
struct OpenSpan {
  std::uint32_t name_id = 0;
  std::uint64_t ts_micros = 0;
};

/// First whitespace-delimited token of a case label ("ykd p=64 ..." ->
/// "ykd"); whole label when it has no spaces.
std::string algorithm_of(std::string_view label) {
  const std::size_t space = label.find(' ');
  return std::string(label.substr(0, space));
}

/// Case labels contain spaces ("ykd p=64 c=6 r=4 fresh"); structural span
/// names ("run", "case", ...) do not carry coordinates.  A span
/// whose name contains "p=" is a case span.
bool is_case_label(std::string_view name) {
  return name.find("p=") != std::string_view::npos;
}

std::string human_us(std::uint64_t us) {
  char buf[32];
  if (us >= 1'000'000) {
    std::snprintf(buf, sizeof buf, "%.2fs", static_cast<double>(us) / 1e6);
  } else if (us >= 1000) {
    std::snprintf(buf, sizeof buf, "%.2fms", static_cast<double>(us) / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%lluus",
                  static_cast<unsigned long long>(us));
  }
  return buf;
}

void print_span_stats(const std::map<std::string, SpanStats>& spans) {
  if (spans.empty()) return;
  std::cout << "\nspan latencies\n";
  for (const auto& [name, st] : spans) {
    if (st.count == 0) continue;
    std::cout << "  " << name << ": n=" << st.count
              << " min=" << human_us(st.min_us)
              << " mean=" << human_us(st.total_us / st.count)
              << " max=" << human_us(st.max_us) << "\n";
    // The log2 histogram, trimmed to the populated range.
    std::size_t lo = st.buckets.size();
    std::size_t hi = 0;
    for (std::size_t b = 0; b < st.buckets.size(); ++b) {
      if (st.buckets[b] != 0) {
        lo = std::min(lo, b);
        hi = std::max(hi, b);
      }
    }
    std::uint64_t peak = 0;
    for (std::size_t b = lo; b <= hi && lo < st.buckets.size(); ++b) {
      peak = std::max(peak, st.buckets[b]);
    }
    for (std::size_t b = lo; b <= hi && lo < st.buckets.size(); ++b) {
      const std::uint64_t floor_us = b == 0 ? 0 : (std::uint64_t{1} << (b - 1));
      const int bar = peak == 0 ? 0
                                : static_cast<int>(st.buckets[b] * 40 / peak);
      std::cout << "    >=" << human_us(floor_us) << "  "
                << std::string(static_cast<std::size_t>(bar), '#') << " "
                << st.buckets[b] << "\n";
    }
  }
}

void print_availability(
    const std::map<std::string, std::vector<RunSample>>& by_algorithm,
    std::uint64_t trace_end_us) {
  if (by_algorithm.empty()) return;
  std::cout << "\navailability (run_complete instants; '#'=all runs ended "
               "with a primary, '.'=none)\n";
  constexpr std::size_t kBins = 50;
  static const char kShades[] = ".:-=+*%#";  // 8 levels
  for (const auto& [algorithm, samples] : by_algorithm) {
    std::uint64_t primaries = 0;
    for (const RunSample& s : samples) primaries += s.primary ? 1 : 0;
    const double rate =
        samples.empty()
            ? 0.0
            : static_cast<double>(primaries) / static_cast<double>(samples.size());
    char pct[16];
    std::snprintf(pct, sizeof pct, "%5.1f%%", rate * 100.0);
    // Time-bucketed strip over [0, trace_end].
    std::string strip(kBins, ' ');
    std::vector<std::uint64_t> runs(kBins, 0);
    std::vector<std::uint64_t> prim(kBins, 0);
    const std::uint64_t span_us = std::max<std::uint64_t>(trace_end_us, 1);
    for (const RunSample& s : samples) {
      std::size_t bin = static_cast<std::size_t>(
          static_cast<unsigned long long>(s.ts_micros) * kBins / span_us);
      bin = std::min(bin, kBins - 1);
      ++runs[bin];
      prim[bin] += s.primary ? 1 : 0;
    }
    for (std::size_t b = 0; b < kBins; ++b) {
      if (runs[b] == 0) continue;
      const std::size_t level = prim[b] * 7 / runs[b];
      strip[b] = kShades[level];
    }
    std::cout << "  " << algorithm << ": runs=" << samples.size()
              << " primary=" << pct << "  [" << strip << "]\n";
  }
}

int export_chrome(const TraceFile& trace, const std::string& path) {
  dynvote::JsonWriter out;
  out.begin_object().key("traceEvents").begin_array();
  for (const TraceEvent& ev : trace.events) {
    const std::string& name = trace.names[ev.name_id];
    out.begin_object();
    out.key("name").value(name);
    out.key("cat").value(is_case_label(name) ? "case" : "dynvote");
    const char* phase = "i";
    if (ev.kind == EventKind::kBegin) phase = "B";
    if (ev.kind == EventKind::kEnd) phase = "E";
    out.key("ph").value(phase);
    if (ev.kind == EventKind::kInstant) out.key("s").value("t");
    out.key("ts").value(ev.ts_micros);
    out.key("pid").value(std::uint64_t{0});
    out.key("tid").value(static_cast<std::uint64_t>(ev.tid));
    if (ev.kind != EventKind::kEnd) {
      out.key("args").begin_object();
      out.key("a0").value(ev.a0);
      out.key("a1").value(ev.a1);
      out.end_object();
    }
    out.end_object();
  }
  out.end_array();
  out.key("displayTimeUnit").value("ms");
  out.end_object();

  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    std::cerr << "dvtrace: cannot write " << path << "\n";
    return 2;
  }
  file << out.str() << "\n";
  if (!file.flush()) {
    std::cerr << "dvtrace: write to " << path << " failed\n";
    return 2;
  }
  std::cout << "\nwrote Chrome trace JSON: " << path << " ("
            << trace.events.size() << " events)\n";
  return 0;
}

int analyze(const TraceFile& trace, const std::string& chrome_out) {
  std::cout << dynvote::obs::kEventsSchema << ": " << trace.events.size()
            << " events, " << trace.names.size() << " names";
  if (trace.dropped != 0) {
    std::cout << ", " << trace.dropped
              << " overwritten in ring buffers (raise DV_TRACE_BUF)";
  }
  std::cout << "\n";

  // Pass 1: per-name counts.
  std::vector<std::uint64_t> counts(trace.names.size(), 0);
  std::uint64_t trace_end_us = 0;
  for (const TraceEvent& ev : trace.events) {
    ++counts[ev.name_id];
    trace_end_us = std::max(trace_end_us, ev.ts_micros);
  }
  std::cout << "\nevent counts\n";
  for (std::size_t n = 0; n < trace.names.size(); ++n) {
    if (counts[n] != 0) {
      std::cout << "  " << trace.names[n] << ": " << counts[n] << "\n";
    }
  }

  // Pass 2: walk per-thread span stacks to pair begins with ends, and
  // attribute run-level events to the innermost enclosing case label.
  std::map<std::uint16_t, std::vector<OpenSpan>> stacks;
  std::map<std::string, SpanStats> spans;
  std::map<std::string, std::vector<RunSample>> runs_by_algorithm;
  std::uint64_t unmatched = 0;
  for (const TraceEvent& ev : trace.events) {
    std::vector<OpenSpan>& stack = stacks[ev.tid];
    const std::string& name = trace.names[ev.name_id];
    switch (ev.kind) {
      case EventKind::kBegin:
        stack.push_back(OpenSpan{ev.name_id, ev.ts_micros});
        break;
      case EventKind::kEnd: {
        // Spans close LIFO per thread; a ring overwrite can orphan an
        // end, so search down for the matching begin instead of blindly
        // popping.
        auto it = std::find_if(
            stack.rbegin(), stack.rend(),
            [&](const OpenSpan& open) { return open.name_id == ev.name_id; });
        if (it == stack.rend()) {
          ++unmatched;
          break;
        }
        const std::uint64_t duration = ev.ts_micros - it->ts_micros;
        spans[name].record(duration);
        if (name == "run") {
          // Attribute the run's latency to its algorithm via the
          // enclosing case span, when one is open on this thread.
          for (auto up = stack.rbegin(); up != stack.rend(); ++up) {
            const std::string& outer = trace.names[up->name_id];
            if (is_case_label(outer)) {
              spans["run @ " + algorithm_of(outer)].record(duration);
              break;
            }
          }
        }
        stack.erase(std::next(it).base());
        break;
      }
      case EventKind::kInstant:
        if (name == "run_complete") {
          std::string algorithm = "(no case span)";
          for (auto up = stack.rbegin(); up != stack.rend(); ++up) {
            const std::string& outer = trace.names[up->name_id];
            if (is_case_label(outer)) {
              algorithm = algorithm_of(outer);
              break;
            }
          }
          runs_by_algorithm[algorithm].push_back(
              RunSample{ev.ts_micros, ev.a1 != 0});
        }
        break;
    }
  }
  if (unmatched != 0) {
    std::cout << "\n(" << unmatched
              << " span ends without a matching begin -- ring overwrote "
                 "the opening events)\n";
  }

  print_span_stats(spans);
  print_availability(runs_by_algorithm, trace_end_us);

  if (!chrome_out.empty()) return export_chrome(trace, chrome_out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string chrome_out;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--chrome") {
      if (i + 1 >= argc) return usage(argv[0]);
      chrome_out = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (input.empty()) {
      input = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (input.empty()) return usage(argv[0]);

  std::ifstream file(input, std::ios::binary);
  if (!file) {
    std::cerr << "dvtrace: cannot read " << input << "\n";
    return 2;
  }
  std::vector<char> raw((std::istreambuf_iterator<char>(file)),
                        std::istreambuf_iterator<char>());
  try {
    const TraceFile trace = dynvote::obs::TraceFile::decode(
        std::span<const std::byte>(reinterpret_cast<const std::byte*>(raw.data()),
                                   raw.size()));
    return analyze(trace, chrome_out);
  } catch (const dynvote::DecodeError& err) {
    std::cerr << "dvtrace: " << input << ": " << err.what() << "\n";
    return 2;
  }
}
