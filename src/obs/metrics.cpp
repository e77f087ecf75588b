#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <map>
#include <mutex>

#include "util/codec.hpp"
#include "util/logging.hpp"

namespace dynvote {
namespace obs {
namespace {

/// Total atomic cells available across all metrics.  A counter takes one
/// cell, a histogram takes kHistogramBuckets + 1 (the extra is
/// the running sum).  Cell 0 is the overflow sink: registrations past the
/// capacity land there (with a one-time warning) instead of failing.
constexpr std::uint32_t kMaxCells = 4096;

enum class MetricKind : std::uint8_t { kCounter, kHistogram };

constexpr std::uint32_t width_of(MetricKind kind) {
  return kind == MetricKind::kHistogram
             ? static_cast<std::uint32_t>(kHistogramBuckets) + 1
             : 1;
}

struct Shard {
  std::array<std::atomic<std::uint64_t>, kMaxCells> cells{};
};

struct Def {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint32_t cell = 0;
};

/// Process-wide registry.  The mutex guards registration and the shard
/// list; recording never takes it.  Intentionally leaked so thread-exit
/// retirement can run during static destruction in any order.
struct Registry {
  std::mutex mutex;
  std::vector<Def> defs;                               // dvlint: guarded_by(mutex)
  std::map<std::string, std::uint32_t, std::less<>> index;  // dvlint: guarded_by(mutex)
  std::uint32_t next_cell = 1;                         // dvlint: guarded_by(mutex)
  bool overflow_warned = false;                        // dvlint: guarded_by(mutex)
  std::vector<Shard*> live;                            // dvlint: guarded_by(mutex)
  std::array<std::uint64_t, kMaxCells> retired{};      // dvlint: guarded_by(mutex)
};

Registry& registry() {
  static Registry* instance = new Registry();
  return *instance;
}

/// Fold one exited thread's shard into the retired accumulator.
void retire_shard_locked(Registry& r,
                         const Shard& shard) {  // dvlint: requires_lock(mutex)
  for (std::uint32_t cell = 0; cell < r.next_cell; ++cell) {
    r.retired[cell] += shard.cells[cell].load(std::memory_order_relaxed);
  }
}

struct TlsHandle {
  Shard* shard = nullptr;

  TlsHandle() : shard(new Shard()) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.live.push_back(shard);
  }

  ~TlsHandle() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    retire_shard_locked(r, *shard);
    r.live.erase(std::remove(r.live.begin(), r.live.end(), shard),
                 r.live.end());
    delete shard;
  }
};

std::atomic<std::uint64_t>* tls_cells() {
  thread_local TlsHandle handle;
  return handle.shard->cells.data();
}

std::uint32_t register_metric(const char* name, MetricKind kind) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  const auto it = r.index.find(name);
  if (it != r.index.end()) {
    const Def& def = r.defs[it->second];
    if (def.kind != kind) {
      DV_LOG_WARN("metric \"" << name
                              << "\" re-registered with a different kind; "
                                 "routing to the overflow cell");
      return 0;
    }
    return def.cell;
  }
  const std::uint32_t width = width_of(kind);
  if (r.next_cell + width > kMaxCells) {
    if (!r.overflow_warned) {
      r.overflow_warned = true;
      DV_LOG_WARN("metrics registry is full; \"" << name
                                                 << "\" (and later "
                                                    "registrations) fold into "
                                                    "the overflow cell");
    }
    return 0;
  }
  const std::uint32_t cell = r.next_cell;
  r.next_cell += width;
  r.index.emplace(name, static_cast<std::uint32_t>(r.defs.size()));
  r.defs.push_back(Def{name, kind, cell});
  return cell;
}

/// Sum of retired + live values for one cell; caller holds the mutex.
std::uint64_t fold_cell_locked(const Registry& r,
                               std::uint32_t cell) {  // dvlint: requires_lock(mutex)
  std::uint64_t value = r.retired[cell];
  for (const Shard* shard : r.live) {
    value += shard->cells[cell].load(std::memory_order_relaxed);
  }
  return value;
}

const std::string& name_of(const std::pair<std::string, std::uint64_t>& p) {
  return p.first;
}
const std::string& name_of(const HistogramSnapshot& h) { return h.name; }

/// Sort by name and fold adjacent duplicates.  Applied after merge and
/// decode so equality is structural.
template <typename T, typename Fold>
void normalize_vector(std::vector<T>& items, Fold fold) {
  std::stable_sort(items.begin(), items.end(),
                   [](const T& a, const T& b) { return name_of(a) < name_of(b); });
  std::size_t out = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (out > 0 && name_of(items[out - 1]) == name_of(items[i])) {
      fold(items[out - 1], items[i]);
    } else {
      if (out != i) items[out] = std::move(items[i]);
      ++out;
    }
  }
  items.resize(out);
}

void normalize(MetricsSnapshot& snap) {
  normalize_vector(snap.counters,
                   [](auto& into, const auto& from) { into.second += from.second; });
  normalize_vector(snap.histograms,
                   [](HistogramSnapshot& into, const HistogramSnapshot& from) {
                     for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
                       into.buckets[b] += from.buckets[b];
                     }
                     into.sum += from.sum;
                   });
}

}  // namespace

std::size_t bucket_for(std::uint64_t value) {
  return static_cast<std::size_t>(std::bit_width(value));
}

std::uint64_t bucket_floor(std::size_t bucket) {
  if (bucket == 0) return 0;
  return std::uint64_t{1} << (bucket - 1);
}

std::uint64_t HistogramSnapshot::count() const {
  std::uint64_t total = 0;
  for (const std::uint64_t b : buckets) total += b;
  return total;
}

bool MetricsSnapshot::empty() const {
  return counters.empty() && histograms.empty();
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  counters.insert(counters.end(), other.counters.begin(), other.counters.end());
  histograms.insert(histograms.end(), other.histograms.begin(),
                    other.histograms.end());
  normalize(*this);
}

MetricsSnapshot MetricsSnapshot::delta_since(const MetricsSnapshot& base) const {
  const auto base_value = [](const auto& items, const std::string& name,
                             std::uint64_t* out) {
    for (const auto& item : items) {
      if (item.first == name) {
        *out = item.second;
        return;
      }
    }
    *out = 0;
  };
  MetricsSnapshot delta;
  for (const auto& [name, value] : counters) {
    std::uint64_t before = 0;
    base_value(base.counters, name, &before);
    const std::uint64_t d = value > before ? value - before : 0;
    if (d > 0) delta.counters.emplace_back(name, d);
  }
  for (const HistogramSnapshot& h : histograms) {
    const HistogramSnapshot* before = nullptr;
    for (const HistogramSnapshot& b : base.histograms) {
      if (b.name == h.name) {
        before = &b;
        break;
      }
    }
    HistogramSnapshot d;
    d.name = h.name;
    d.sum = h.sum;
    d.buckets = h.buckets;
    if (before != nullptr) {
      d.sum = h.sum > before->sum ? h.sum - before->sum : 0;
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        d.buckets[b] = h.buckets[b] > before->buckets[b]
                           ? h.buckets[b] - before->buckets[b]
                           : 0;
      }
    }
    if (d.count() > 0) delta.histograms.push_back(std::move(d));
  }
  normalize(delta);
  return delta;
}

void MetricsSnapshot::encode_body(Encoder& enc) const {
  enc.put_varint(counters.size());
  for (const auto& [name, value] : counters) {
    enc.put_string(name);
    enc.put_varint(value);
  }
  enc.put_varint(histograms.size());
  for (const HistogramSnapshot& h : histograms) {
    enc.put_string(h.name);
    enc.put_varint(h.sum);
    std::uint64_t nonzero = 0;
    for (const std::uint64_t b : h.buckets) {
      if (b != 0) ++nonzero;
    }
    enc.put_varint(nonzero);
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      enc.put_varint(b);
      enc.put_varint(h.buckets[b]);
    }
  }
}

MetricsSnapshot MetricsSnapshot::decode_body(Decoder& dec) {
  MetricsSnapshot snap;
  const auto checked_count = [&dec](const char* what) {
    const std::uint64_t count = dec.get_varint();
    // Every entry needs at least one byte of input, so a count beyond the
    // remaining bytes is malformed regardless of content -- reject before
    // reserving anything.
    if (count > dec.remaining()) {
      throw DecodeError(std::string("metrics snapshot ") + what +
                        " count exceeds input");
    }
    return static_cast<std::size_t>(count);
  };
  const std::size_t n_counters = checked_count("counter");
  snap.counters.reserve(n_counters);
  for (std::size_t i = 0; i < n_counters; ++i) {
    std::string name = dec.get_string();
    const std::uint64_t value = dec.get_varint();
    snap.counters.emplace_back(std::move(name), value);
  }
  const std::size_t n_histograms = checked_count("histogram");
  snap.histograms.reserve(n_histograms);
  for (std::size_t i = 0; i < n_histograms; ++i) {
    HistogramSnapshot h;
    h.name = dec.get_string();
    h.sum = dec.get_varint();
    const std::size_t nonzero = checked_count("histogram bucket");
    for (std::size_t j = 0; j < nonzero; ++j) {
      const std::uint64_t bucket = dec.get_varint();
      if (bucket >= kHistogramBuckets) {
        throw DecodeError("metrics snapshot bucket index out of range");
      }
      h.buckets[bucket] = dec.get_varint();
    }
    snap.histograms.push_back(std::move(h));
  }
  normalize(snap);
  return snap;
}

Counter::Counter(const char* name)
    : cell_(register_metric(name, MetricKind::kCounter)) {}

void Counter::inc(std::uint64_t delta) {
  tls_cells()[cell_].fetch_add(delta, std::memory_order_relaxed);
}

Histogram::Histogram(const char* name)
    : cell_(register_metric(name, MetricKind::kHistogram)) {}

void Histogram::record(std::uint64_t value) {
  std::atomic<std::uint64_t>* cells = tls_cells();
  cells[cell_ + bucket_for(value)].fetch_add(1, std::memory_order_relaxed);
  cells[cell_ + kHistogramBuckets].fetch_add(value, std::memory_order_relaxed);
}

MetricsSnapshot snapshot_metrics() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  MetricsSnapshot snap;
  for (const Def& def : r.defs) {
    switch (def.kind) {
      case MetricKind::kCounter:
        snap.counters.emplace_back(def.name, fold_cell_locked(r, def.cell));
        break;
      case MetricKind::kHistogram: {
        HistogramSnapshot h;
        h.name = def.name;
        for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
          h.buckets[b] =
              fold_cell_locked(r, def.cell + static_cast<std::uint32_t>(b));
        }
        h.sum = fold_cell_locked(
            r, def.cell + static_cast<std::uint32_t>(kHistogramBuckets));
        snap.histograms.push_back(std::move(h));
        break;
      }
    }
  }
  normalize(snap);
  return snap;
}

}  // namespace obs
}  // namespace dynvote
