#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>

#include "telemetry/trace.hpp"

namespace ctb::telemetry {

namespace {

// The canonical taxonomy (DESIGN.md §8). Pre-registered so every snapshot
// carries the full metric set, zero-valued where nothing fired — consumers
// can rely on "cache.hit" existing instead of treating absence as zero.
constexpr const char* kCoreCounters[] = {
    "plan.policy.threshold-only",
    "plan.policy.binary-only",
    "plan.policy.auto-offline",
    "plan.policy.random-forest",
    "plan.policy.tiling-only",
    "plan.heuristic.threshold",
    "plan.heuristic.binary",
    "plan.heuristic.none",
    "plan.rf.choice.threshold",
    "plan.rf.choice.binary",
    "plan.auto.threshold_wins",
    "plan.auto.binary_wins",
    "plan.auto.none_wins",
    "plan.auto.uniform_wins",
    "tiling.candidates",
    "tiling.iterations",
    "tiling.fallback_128",
    "cache.hit",
    "cache.miss",
    "cache.evict",
    "exec.plan_runs",
    "exec.blocks",
    "exec.tiles",
    "exec.flops",
    "exec.epilogue.fused",
    "exec.epilogue.ops",
    "exec.store.streamed",
    "exec.c.passes",
    "exec.dispatch.specialized",
    "exec.dispatch.generic",
    "exec.pack.panels",
    "exec.pack.bytes",
    "exec.pack.reuse",
    "exec.simd.avx512",
    "exec.simd.avx2",
    "exec.simd.neon",
    "exec.simd.scalar",
    "exec.splitk.tiles",
    "exec.splitk.groups",
    "plan.splitk.considered",
    "plan.splitk.chosen",
    "plan.grouped.dispatches",
    "plan.grouped.gemms",
    "plan.grouped.fused_ops",
    "service.admitted",
    "service.hit",
    "service.miss",
    "service.degraded",
    "service.upgraded",
    "service.retried",
    "service.quarantined",
    "sim.kernels",
    "sim.blocks",
    "sim.bubble_blocks",
};

constexpr const char* kCoreHistograms[] = {
    "service.lookup_us",
    "tiling.tlp",
    "batching.tiles_per_block",
    "batching.sum_k_per_block",
    "sim.busy_pct",
    "sim.resident_blocks",
    "sim.hide_pct",
};

void write_json_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          os << ' ';  // control characters never appear in metric names
        else
          os << c;
    }
  }
  os << '"';
}

struct Registry {
  std::atomic<bool> enabled{false};
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();

  std::mutex mu;  // guards the two maps below
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;

  Registry() {
    for (const char* name : kCoreCounters)
      counters.emplace(name, std::make_unique<Counter>());
    for (const char* name : kCoreHistograms)
      histograms.emplace(name, std::make_unique<Histogram>());
    const char* env = std::getenv("CTB_TELEMETRY");
    if (env != nullptr) {
      const std::string v(env);
      if (v == "1" || v == "on" || v == "true")
        enabled.store(true, std::memory_order_relaxed);
    }
  }
};

// Leaked intentionally: worker threads may record metrics during static
// destruction, after main() exits.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

}  // namespace

bool enabled() {
  return registry().enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on) {
  registry().enabled.store(on, std::memory_order_relaxed);
}

void Histogram::record(std::int64_t v) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  std::int64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  int b = 0;
  for (std::int64_t bound = 1; b < kBuckets - 1 && v > bound; ++b)
    bound = bound <= (INT64_MAX >> 1) ? bound << 1 : INT64_MAX;
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  // Exemplar: remember this sample's trace so exports can link the bucket
  // (a p99 outlier, say) back to its flight-recorder trail.
  const std::uint64_t trace = current_trace().id;
  if (trace != 0) {
    ex_value_[b].store(v, std::memory_order_relaxed);
    ex_trace_[b].store(trace, std::memory_order_relaxed);
  }
}

Counter& counter(const char* name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.counters.find(name);
  if (it == r.counters.end())
    it = r.counters.emplace(name, std::make_unique<Counter>()).first;
  return *it->second;
}

Histogram& histogram(const char* name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.histograms.find(name);
  if (it == r.histograms.end())
    it = r.histograms.emplace(name, std::make_unique<Histogram>()).first;
  return *it->second;
}

double now_us() {
  const auto dt = std::chrono::steady_clock::now() - registry().epoch;
  return std::chrono::duration<double, std::micro>(dt).count();
}

MetricsSnapshot snapshot() {
  Registry& r = registry();
  MetricsSnapshot snap;
  snap.enabled = enabled();
  const std::lock_guard<std::mutex> lock(r.mu);
  snap.counters.reserve(r.counters.size());
  for (const auto& [name, c] : r.counters)
    snap.counters.push_back(CounterSample{name, c->value()});
  snap.histograms.reserve(r.histograms.size());
  for (const auto& [name, h] : r.histograms) {
    HistogramSample s;
    s.name = name;
    s.count = h->count_.load(std::memory_order_relaxed);
    s.sum = h->sum_.load(std::memory_order_relaxed);
    if (s.count > 0) {
      s.min = h->min_.load(std::memory_order_relaxed);
      s.max = h->max_.load(std::memory_order_relaxed);
    }
    int last = -1;
    for (int b = 0; b < Histogram::kBuckets; ++b)
      if (h->buckets_[b].load(std::memory_order_relaxed) > 0) last = b;
    for (int b = 0; b <= last; ++b)
      s.buckets.push_back(h->buckets_[b].load(std::memory_order_relaxed));
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      const std::uint64_t trace =
          h->ex_trace_[b].load(std::memory_order_relaxed);
      if (trace == 0) continue;
      s.exemplars.push_back(HistogramSample::Exemplar{
          b, h->ex_value_[b].load(std::memory_order_relaxed), trace});
    }
    snap.histograms.push_back(std::move(s));
  }
  return snap;
}

void reset() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [name, c] : r.counters) c->add(-c->value());
  for (auto& [name, h] : r.histograms) {
    h->count_.store(0, std::memory_order_relaxed);
    h->sum_.store(0, std::memory_order_relaxed);
    h->min_.store(INT64_MAX, std::memory_order_relaxed);
    h->max_.store(INT64_MIN, std::memory_order_relaxed);
    for (auto& b : h->buckets_) b.store(0, std::memory_order_relaxed);
    for (auto& v : h->ex_value_) v.store(0, std::memory_order_relaxed);
    for (auto& t : h->ex_trace_) t.store(0, std::memory_order_relaxed);
  }
}

double HistogramSample::percentile(double p) const {
  if (count <= 0) return 0.0;
  if (p <= 0.0) return static_cast<double>(min);
  // Nearest-rank on the bucket cumulative counts.
  std::int64_t rank = static_cast<std::int64_t>(p / 100.0 *
                                                static_cast<double>(count));
  if (static_cast<double>(rank) * 100.0 < p * static_cast<double>(count))
    ++rank;  // ceil without float round-off on exact multiples
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  std::int64_t cum = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    cum += buckets[b];
    if (cum >= rank) {
      // Upper bound of bucket b is 2^b (bucket 0 holds v <= 1); clamp into
      // the recorded [min, max] so single-valued and edge samples are exact.
      const std::int64_t bound =
          b >= 62 ? INT64_MAX : (std::int64_t{1} << b);
      return static_cast<double>(std::min(max, std::max(min, bound)));
    }
  }
  return static_cast<double>(max);  // trailing buckets trimmed
}

MetricsSnapshot delta(const MetricsSnapshot& before,
                      const MetricsSnapshot& after) {
  MetricsSnapshot d;
  d.enabled = after.enabled;

  auto counter_before = [&](const std::string& name) -> std::int64_t {
    for (const CounterSample& c : before.counters)
      if (c.name == name) return c.value;
    return 0;
  };
  d.counters.reserve(after.counters.size());
  for (const CounterSample& c : after.counters)
    d.counters.push_back(CounterSample{c.name, c.value - counter_before(c.name)});

  auto hist_before = [&](const std::string& name) -> const HistogramSample* {
    for (const HistogramSample& h : before.histograms)
      if (h.name == name) return &h;
    return nullptr;
  };
  d.histograms.reserve(after.histograms.size());
  for (const HistogramSample& h : after.histograms) {
    HistogramSample out = h;
    if (const HistogramSample* b = hist_before(h.name); b != nullptr) {
      out.count -= b->count;
      out.sum -= b->sum;
      for (std::size_t i = 0; i < out.buckets.size(); ++i)
        if (i < b->buckets.size()) out.buckets[i] -= b->buckets[i];
      while (!out.buckets.empty() && out.buckets.back() == 0)
        out.buckets.pop_back();
    }
    // Min/max are lifetime watermarks — they cannot be subtracted, and
    // keeping `after`'s values would make percentile() on a delta depend on
    // observations outside the window (the clamp would tighten or widen with
    // unrelated history). Rebuild a bucket-envelope [min, max] instead, so
    // every delta statistic is a pure function of the window's own bucket
    // counts. perfreport's cross-run counter gating relies on this.
    std::size_t lo = out.buckets.size(), hi = 0;
    for (std::size_t i = 0; i < out.buckets.size(); ++i)
      if (out.buckets[i] > 0) {
        if (lo == out.buckets.size()) lo = i;
        hi = i;
      }
    if (out.count <= 0 || lo == out.buckets.size()) {
      out.min = 0;
      out.max = 0;
    } else {
      // Bucket i holds 2^(i-1) < v <= 2^i (bucket 0: v <= 1).
      out.min = lo == 0 ? 0 : (std::int64_t{1} << (lo - 1)) + 1;
      out.max = hi >= 62 ? INT64_MAX : (std::int64_t{1} << hi);
    }
    // Exemplars are last-writer-wins samples, not subtractable; keep only
    // those whose bucket saw activity inside the window, so a delta never
    // advertises a trace from outside it.
    std::vector<HistogramSample::Exemplar> kept;
    for (const HistogramSample::Exemplar& e : out.exemplars)
      if (static_cast<std::size_t>(e.bucket) < out.buckets.size() &&
          out.buckets[static_cast<std::size_t>(e.bucket)] > 0)
        kept.push_back(e);
    out.exemplars = std::move(kept);
    d.histograms.push_back(std::move(out));
  }
  return d;
}

void write_metrics_json(std::ostream& os, const MetricsSnapshot& snap) {
  os << "{\n\"version\":4,\n\"compiled_in\":"
     << (snap.compiled_in ? "true" : "false")
     << ",\n\"enabled\":" << (snap.enabled ? "true" : "false")
     << ",\n\"counters\":{";
  bool first = true;
  for (const CounterSample& c : snap.counters) {
    os << (first ? "\n" : ",\n");
    first = false;
    write_json_escaped(os, c.name);
    os << ":" << c.value;
  }
  os << "\n},\n\"histograms\":{";
  first = true;
  for (const HistogramSample& h : snap.histograms) {
    os << (first ? "\n" : ",\n");
    first = false;
    write_json_escaped(os, h.name);
    os << ":{\"count\":" << h.count << ",\"sum\":" << h.sum
       << ",\"min\":" << h.min << ",\"max\":" << h.max
       << ",\"p50\":" << static_cast<std::int64_t>(h.p50())
       << ",\"p95\":" << static_cast<std::int64_t>(h.p95())
       << ",\"p99\":" << static_cast<std::int64_t>(h.p99())
       << ",\"buckets\":[";
    for (std::size_t b = 0; b < h.buckets.size(); ++b)
      os << (b == 0 ? "" : ",") << h.buckets[b];
    os << "],\"exemplars\":[";
    for (std::size_t e = 0; e < h.exemplars.size(); ++e) {
      const HistogramSample::Exemplar& ex = h.exemplars[e];
      os << (e == 0 ? "" : ",") << "{\"bucket\":" << ex.bucket
         << ",\"value\":" << ex.value << ",\"trace\":\""
         << trace_id_hex(ex.trace) << "\"}";
    }
    os << "]}";
  }
  os << "\n}\n}\n";
}

}  // namespace ctb::telemetry
