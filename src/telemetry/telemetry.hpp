// ctb::telemetry — scoped spans, named counters, and histograms for the
// plan pipeline (DESIGN.md §8 documents the taxonomy and the overhead
// contract).
//
// Three cost tiers:
//   * CTB_TELEMETRY=OFF (CMake)  — the macros below expand to nothing and
//     the inline stubs in this header carry no atomics and perform no
//     allocations; instrumented code compiles exactly as if the macros were
//     deleted. The snapshot/export entry points still link (they return an
//     empty snapshot) so tools build unchanged.
//   * compiled in, runtime-disabled (the default) — every instrumentation
//     site costs one relaxed atomic load and a predictable branch.
//   * enabled (set_enabled(true) or CTB_TELEMETRY=1 in the environment) —
//     counters are relaxed atomic adds; a span costs two steady_clock reads,
//     one histogram record and one flight-recorder event (trace.hpp), safe
//     under parallel_for.
//
// Metric names are dotted string literals ("cache.hit", "plan.tiling").
// Span names must be string literals: the flight event stores the pointer,
// not a copy, and the span's duration histogram is named by appending
// "_ns" to the literal. The canonical names are pre-registered at startup
// so a snapshot always carries the full taxonomy, zero-valued where
// nothing fired.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#ifdef CTB_TELEMETRY_ENABLED
#include <atomic>
#endif

namespace ctb::telemetry {

/// One named monotonic counter in a snapshot.
struct CounterSample {
  std::string name;
  std::int64_t value = 0;
};

/// Histogram snapshot: count/sum/min/max plus power-of-two buckets; bucket i
/// counts values v with 2^(i-1) < v <= 2^i (bucket 0 counts v <= 1).
struct HistogramSample {
  /// One exemplar: the most recent sample recorded into `bucket` while a
  /// trace context was active (trace.hpp). Tail-bucket exemplars let a p99
  /// outlier in a metrics export link back to its flight-recorder trail.
  struct Exemplar {
    int bucket = 0;
    std::int64_t value = 0;
    std::uint64_t trace = 0;
  };

  std::string name;
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;  ///< meaningful only when count > 0
  std::int64_t max = 0;
  std::vector<std::int64_t> buckets;  ///< trailing all-zero buckets trimmed
  std::vector<Exemplar> exemplars;    ///< at most one per bucket, ascending

  /// Deterministic percentile estimate from the power-of-two buckets: the
  /// upper bound (2^i) of the bucket holding the ceil(p/100 * count)-th
  /// recorded value, clamped into [min, max]. Exact whenever every value in
  /// that bucket equals its bound (counts of 0/1, single-valued metrics);
  /// otherwise an upper bound within the bucket's 2x resolution. Returns 0
  /// for an empty sample. Being derived from integer bucket counts, the
  /// result is bit-deterministic — perf reports may diff it exactly.
  double percentile(double p) const;
  double p50() const { return percentile(50.0); }
  double p95() const { return percentile(95.0); }
  double p99() const { return percentile(99.0); }
};

/// Point-in-time copy of everything the registry holds.
struct MetricsSnapshot {
  bool compiled_in = false;
  bool enabled = false;
  std::vector<CounterSample> counters;    // sorted by name
  std::vector<HistogramSample> histograms;  // sorted by name
};

/// Copies the current registry state. Always safe to call (returns an empty
/// snapshot when telemetry is compiled out).
MetricsSnapshot snapshot();

/// What happened between two snapshots of the same registry: counter values
/// and histogram count/sum/buckets subtract element-wise (metrics absent
/// from `before` keep their `after` value); histogram min/max are rebuilt
/// as the bucket envelope of the delta'd counts (lifetime watermarks cannot
/// be subtracted, and keeping them would let history outside the window
/// leak into percentile()'s clamp) — so every delta statistic, percentiles
/// included, is a pure function of the window's own observations. This is
/// how the perf-report runner isolates one workload's deterministic work
/// counters without resetting global state.
MetricsSnapshot delta(const MetricsSnapshot& before,
                      const MetricsSnapshot& after);

/// Zeroes every counter and histogram, keeping registrations. Tests isolate
/// themselves with this; no-op when compiled out.
void reset();

/// JSON object {"version","enabled","counters","histograms"} where
/// histograms carry deterministic p50/p95/p99 percentile estimates plus
/// per-bucket trace exemplars (schema version 4); span durations are the
/// `<name>_ns` histograms. Schema in DESIGN.md §8.
void write_metrics_json(std::ostream& os, const MetricsSnapshot& snap);

/// OpenMetrics/Prometheus text exposition of the snapshot: every counter as
/// a `ctb_<mangled>_total` sample and every histogram as the standard
/// _bucket/_sum/_count family, each carrying the canonical dotted name in a
/// name="..." label (dots/dashes mangle to underscores, so the label is the
/// round-trip source of truth). Bucket samples append OpenMetrics exemplars
/// (`# {trace_id="<hex>"} <value>`) where one was recorded. Ends with
/// `# EOF`. DESIGN.md §13 documents the mapping.
void write_openmetrics(std::ostream& os, const MetricsSnapshot& snap);

/// Parses the counter samples back out of an OpenMetrics exposition written
/// by write_openmetrics (the `_total{name="..."}` lines), in file order.
/// Tolerant of unrelated lines; used by tests to prove the export
/// round-trips the taxonomy and by ctb_trace to ingest metrics files.
std::vector<CounterSample> read_openmetrics_counters(std::istream& is);

#ifdef CTB_TELEMETRY_ENABLED

/// Runtime master switch; relaxed-atomic read, safe from any thread.
bool enabled();
void set_enabled(bool on);

class Counter {
 public:
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void record(std::int64_t v);
  std::int64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::int64_t sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  friend MetricsSnapshot snapshot();
  friend void reset();
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  // Sentinels keep the CAS update loops initialization-free (and race-free
  // on the first concurrent records); snapshot() masks them while empty.
  std::atomic<std::int64_t> min_{INT64_MAX};
  std::atomic<std::int64_t> max_{INT64_MIN};
  std::atomic<std::int64_t> buckets_[kBuckets]{};
  // Per-bucket exemplars: the latest (value, trace) recorded while a trace
  // context was active. trace == 0 marks an empty slot. Last-writer-wins
  // relaxed stores — an exemplar is a representative sample, not a count.
  std::atomic<std::int64_t> ex_value_[kBuckets]{};
  std::atomic<std::uint64_t> ex_trace_[kBuckets]{};
};

/// Returns the counter/histogram registered under `name`, creating it on
/// first use. References stay valid for the process lifetime; lookups are
/// mutex-guarded, so instrumentation sites cache the reference in a static
/// local (see CTB_TEL_COUNT).
Counter& counter(const char* name);
Histogram& histogram(const char* name);

/// Microseconds since the telemetry epoch (registry construction).
double now_us();

/// RAII span. Does nothing (one relaxed load) when telemetry is disabled at
/// construction; a span started while enabled is recorded even if telemetry
/// is disabled before it closes, keeping trace files self-consistent. On
/// close it records its duration in ns into `hist` and writes one `span`
/// flight event (detail = name, t_us = end, a0 = duration in ns) under the
/// current trace. Prefer CTB_TEL_SPAN, which names `hist` `<name>_ns`.
class ScopedSpan {
 public:
  ScopedSpan(const char* literal_name, Histogram& hist) {
    if (enabled()) {
      name_ = literal_name;
      hist_ = &hist;
      start_us_ = now_us();
    }
  }
  ~ScopedSpan() {
    if (name_ != nullptr) close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void close();  // trace.cpp, beside the ring it writes

  const char* name_ = nullptr;
  Histogram* hist_ = nullptr;
  double start_us_ = 0;
};

#else  // !CTB_TELEMETRY_ENABLED — no-op stubs: no atomics, no allocations.

constexpr bool enabled() { return false; }
inline void set_enabled(bool) {}

struct Counter {
  void add(std::int64_t) {}
  static constexpr std::int64_t value() { return 0; }
};

struct Histogram {
  void record(std::int64_t) {}
  static constexpr std::int64_t count() { return 0; }
  static constexpr std::int64_t sum() { return 0; }
};

inline Counter& counter(const char*) {
  static Counter stub;
  return stub;
}
inline Histogram& histogram(const char*) {
  static Histogram stub;
  return stub;
}
constexpr double now_us() { return 0.0; }

class ScopedSpan {
 public:
  ScopedSpan(const char*, Histogram&) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
};

#endif  // CTB_TELEMETRY_ENABLED

}  // namespace ctb::telemetry

// Instrumentation macros. CTB_TEL_COUNT and CTB_TEL_HIST are statements and
// CTB_TEL_SPAN is a pair of declarations; under CTB_TELEMETRY=OFF they all
// vanish.
#ifdef CTB_TELEMETRY_ENABLED

#define CTB_TEL_CONCAT_INNER(a, b) a##b
#define CTB_TEL_CONCAT(a, b) CTB_TEL_CONCAT_INNER(a, b)

/// Opens a span covering the rest of the enclosing scope. `name` must be a
/// string literal; its duration histogram `name "_ns"` is looked up once per
/// site, unconditionally, like CTB_TEL_COUNT's counter.
#define CTB_TEL_SPAN(name)                                                 \
  static ::ctb::telemetry::Histogram& CTB_TEL_CONCAT(ctb_tel_sh_, __LINE__) = \
      ::ctb::telemetry::histogram(name "_ns");                             \
  ::ctb::telemetry::ScopedSpan CTB_TEL_CONCAT(ctb_tel_span_, __LINE__)(     \
      name, CTB_TEL_CONCAT(ctb_tel_sh_, __LINE__))

/// Adds `delta` to the named counter. The registry lookup happens once per
/// site (static local), unconditionally, so a counter appears in snapshots
/// as soon as its code path runs even if telemetry was disabled at the time.
#define CTB_TEL_COUNT(name, delta)                            \
  do {                                                        \
    static ::ctb::telemetry::Counter& ctb_tel_c_ =            \
        ::ctb::telemetry::counter(name);                      \
    if (::ctb::telemetry::enabled())                          \
      ctb_tel_c_.add(static_cast<std::int64_t>(delta));       \
  } while (0)

/// Records `value` into the named histogram.
#define CTB_TEL_HIST(name, value)                             \
  do {                                                        \
    static ::ctb::telemetry::Histogram& ctb_tel_h_ =          \
        ::ctb::telemetry::histogram(name);                    \
    if (::ctb::telemetry::enabled())                          \
      ctb_tel_h_.record(static_cast<std::int64_t>(value));    \
  } while (0)

#else

#define CTB_TEL_SPAN(name) \
  do {                     \
  } while (0)
#define CTB_TEL_COUNT(name, delta) \
  do {                             \
  } while (0)
#define CTB_TEL_HIST(name, value) \
  do {                            \
  } while (0)

#endif  // CTB_TELEMETRY_ENABLED
