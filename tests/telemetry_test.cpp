// ctb::telemetry unit tests: counter and histogram correctness, span
// recording (flight events plus `<name>_ns` histograms) and nesting, the
// JSON / chrome-trace export schemas, and race-cleanliness of concurrent
// instrumentation under parallel_for (the TSan CI leg runs this binary).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "util/parallel.hpp"

namespace ctb {
namespace {

// Minimal structural JSON check: braces/brackets balance and close in the
// right order outside of string literals. Not a parser — enough to catch a
// broken emitter (trailing comma handling aside, which the schema checks
// below pin by substring).
bool json_balanced(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped)
        escaped = false;
      else if (c == '\\')
        escaped = true;
      else if (c == '"')
        in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return stack.empty() && !in_string;
}

std::int64_t counter_value(const telemetry::MetricsSnapshot& snap,
                           const std::string& name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return c.value;
  ADD_FAILURE() << "counter " << name << " missing from snapshot";
  return -1;
}

// The statement macros must behave as single statements.
TEST(TelemetryMacros, AreDanglingElseSafe) {
  if (telemetry::enabled())
    CTB_TEL_COUNT("test.macro.then", 1);
  else
    CTB_TEL_COUNT("test.macro.else", 1);
  for (int i = 0; i < 2; ++i) CTB_TEL_HIST("test.macro.hist", i);
  if (telemetry::enabled())
    CTB_TEL_FLIGHT(kExec, "test.macro.then", 0, 0);
  else
    CTB_TEL_FLIGHT(kExec, "test.macro.else", 0, 0);
  CTB_TEL_SPAN("test.macro.span");
}

TEST(TelemetryExport, EmptySnapshotIsWellFormedJson) {
  const telemetry::MetricsSnapshot snap;  // no metrics at all
  std::ostringstream metrics, trace;
  telemetry::write_metrics_json(metrics, snap);
  telemetry::write_chrome_trace(trace, {});
  EXPECT_TRUE(json_balanced(metrics.str())) << metrics.str();
  EXPECT_TRUE(json_balanced(trace.str())) << trace.str();
  EXPECT_NE(metrics.str().find("\"version\":4"), std::string::npos);
  EXPECT_NE(trace.str().find("\"traceEvents\""), std::string::npos);
}

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::reset();
    telemetry::flight_clear();
    telemetry::set_enabled(true);
  }
  void TearDown() override {
    telemetry::set_enabled(false);
    telemetry::reset();
    telemetry::flight_clear();
  }
};

const telemetry::HistogramSample* find_hist(
    const telemetry::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& h : snap.histograms)
    if (h.name == name) return &h;
  return nullptr;
}

// The `span` flight events named `name`, across every thread's ring.
std::vector<telemetry::FlightEventView> span_events(const std::string& name) {
  std::vector<telemetry::FlightEventView> out;
  for (const auto& e : telemetry::flight_events())
    if (e.kind == telemetry::FlightKind::kSpan && name == e.detail)
      out.push_back(e);
  return out;
}

TEST_F(TelemetryTest, CountersAccumulateAndSnapshot) {
  telemetry::counter("test.counter").add(3);
  telemetry::counter("test.counter").add(4);
  const auto snap = telemetry::snapshot();
  EXPECT_TRUE(snap.compiled_in);
  EXPECT_TRUE(snap.enabled);
  EXPECT_EQ(counter_value(snap, "test.counter"), 7);
  // The canonical taxonomy is pre-registered: acceptance-relevant counters
  // appear in every snapshot even before their code path runs.
  EXPECT_EQ(counter_value(snap, "cache.hit"), 0);
  EXPECT_EQ(counter_value(snap, "cache.miss"), 0);
  EXPECT_EQ(counter_value(snap, "exec.dispatch.specialized"), 0);
  EXPECT_EQ(counter_value(snap, "exec.dispatch.generic"), 0);
  EXPECT_EQ(counter_value(snap, "exec.pack.panels"), 0);
  EXPECT_EQ(counter_value(snap, "exec.pack.bytes"), 0);
  EXPECT_EQ(counter_value(snap, "exec.pack.reuse"), 0);
  EXPECT_EQ(counter_value(snap, "exec.simd.scalar"), 0);
  EXPECT_EQ(counter_value(snap, "exec.simd.neon"), 0);
  EXPECT_EQ(counter_value(snap, "exec.simd.avx2"), 0);
  EXPECT_EQ(counter_value(snap, "exec.simd.avx512"), 0);
  // Plan-service state machine taxonomy (DESIGN.md §10).
  EXPECT_EQ(counter_value(snap, "service.admitted"), 0);
  EXPECT_EQ(counter_value(snap, "service.hit"), 0);
  EXPECT_EQ(counter_value(snap, "service.miss"), 0);
  EXPECT_EQ(counter_value(snap, "service.degraded"), 0);
  EXPECT_EQ(counter_value(snap, "service.upgraded"), 0);
  EXPECT_EQ(counter_value(snap, "service.retried"), 0);
  EXPECT_EQ(counter_value(snap, "service.quarantined"), 0);
}

TEST_F(TelemetryTest, DisabledSitesRegisterButDoNotCount) {
  telemetry::set_enabled(false);
  CTB_TEL_COUNT("test.disabled.counter", 5);
  CTB_TEL_HIST("test.disabled.hist", 5);
  const auto snap = telemetry::snapshot();
  EXPECT_FALSE(snap.enabled);
  EXPECT_EQ(counter_value(snap, "test.disabled.counter"), 0);
  for (const auto& h : snap.histograms) {
    if (h.name == "test.disabled.hist") {
      EXPECT_EQ(h.count, 0);
    }
  }
}

TEST_F(TelemetryTest, HistogramBucketsMinMaxSum) {
  telemetry::Histogram& h = telemetry::histogram("test.hist");
  for (const std::int64_t v : {1, 2, 3, 1024}) h.record(v);
  const auto snap = telemetry::snapshot();
  const telemetry::HistogramSample* sample = nullptr;
  for (const auto& s : snap.histograms)
    if (s.name == "test.hist") sample = &s;
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->count, 4);
  EXPECT_EQ(sample->sum, 1030);
  EXPECT_EQ(sample->min, 1);
  EXPECT_EQ(sample->max, 1024);
  // Bucket i counts 2^(i-1) < v <= 2^i: 1 -> bucket 0, 2 -> bucket 1,
  // 3 -> bucket 2, 1024 = 2^10 -> bucket 10; trailing zeros are trimmed.
  ASSERT_EQ(sample->buckets.size(), 11u);
  EXPECT_EQ(sample->buckets[0], 1);
  EXPECT_EQ(sample->buckets[1], 1);
  EXPECT_EQ(sample->buckets[2], 1);
  EXPECT_EQ(sample->buckets[10], 1);
}

TEST_F(TelemetryTest, HistogramPercentilesAreDeterministicBucketBounds) {
  telemetry::Histogram& h = telemetry::histogram("test.pct");
  // 100 values: 50x 1, 45x 8, 5x 1000.
  for (int i = 0; i < 50; ++i) h.record(1);
  for (int i = 0; i < 45; ++i) h.record(8);
  for (int i = 0; i < 5; ++i) h.record(1000);
  const auto snap = telemetry::snapshot();
  const telemetry::HistogramSample* sample = nullptr;
  for (const auto& s : snap.histograms)
    if (s.name == "test.pct") sample = &s;
  ASSERT_NE(sample, nullptr);
  // Nearest-rank over the power-of-two buckets: the 50th value is a 1, the
  // 95th an 8 (its bucket bound exactly), the 99th falls in the 1000s'
  // bucket whose 1024 bound clamps to max.
  EXPECT_DOUBLE_EQ(sample->percentile(50.0), 1.0);
  EXPECT_DOUBLE_EQ(sample->p50(), 1.0);
  EXPECT_DOUBLE_EQ(sample->p95(), 8.0);
  EXPECT_DOUBLE_EQ(sample->p99(), 1000.0);
  // Degenerate inputs: empty sample -> 0; p <= 0 clamps to the first value.
  EXPECT_DOUBLE_EQ(telemetry::HistogramSample{}.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(sample->percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(sample->percentile(100.0), 1000.0);
}

// Pins the percentile edge cases a dashboard divides by: a registered
// histogram that never recorded, a single observation, and a delta window
// with no samples must all yield finite, exact values — never NaN and never
// stale lifetime watermarks.
TEST_F(TelemetryTest, PercentilesOfEmptyAndSingleSampleHistograms) {
  telemetry::histogram("test.edge.empty");  // registered, never recorded
  telemetry::histogram("test.edge.one").record(37);
  const auto snap = telemetry::snapshot();
  const telemetry::HistogramSample* empty = nullptr;
  const telemetry::HistogramSample* one = nullptr;
  for (const auto& s : snap.histograms) {
    if (s.name == "test.edge.empty") empty = &s;
    if (s.name == "test.edge.one") one = &s;
  }
  ASSERT_NE(empty, nullptr);
  EXPECT_EQ(empty->count, 0);
  EXPECT_EQ(empty->min, 0);
  EXPECT_EQ(empty->max, 0);
  EXPECT_TRUE(empty->buckets.empty());
  for (const double p : {0.0, 50.0, 95.0, 99.0, 100.0})
    EXPECT_DOUBLE_EQ(empty->percentile(p), 0.0) << p;
  EXPECT_DOUBLE_EQ(empty->p50(), 0.0);
  EXPECT_DOUBLE_EQ(empty->p95(), 0.0);
  EXPECT_DOUBLE_EQ(empty->p99(), 0.0);
  ASSERT_NE(one, nullptr);
  EXPECT_EQ(one->count, 1);
  // Every percentile of a single observation is that observation (the
  // bucket bound 64 clamps into [min, max] = [37, 37]).
  for (const double p : {0.0, 50.0, 95.0, 99.0, 100.0})
    EXPECT_DOUBLE_EQ(one->percentile(p), 37.0) << p;
}

TEST_F(TelemetryTest, PercentilesOfZeroSampleDeltaWindowAreZero) {
  telemetry::histogram("test.edge.window").record(512);
  const auto before = telemetry::snapshot();
  const auto after = telemetry::snapshot();  // nothing recorded in between
  const auto d = telemetry::delta(before, after);
  const telemetry::HistogramSample* w = nullptr;
  for (const auto& s : d.histograms)
    if (s.name == "test.edge.window") w = &s;
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->count, 0);
  EXPECT_EQ(w->sum, 0);
  EXPECT_TRUE(w->buckets.empty());
  // The pre-window 512 must not leak into the empty window's statistics.
  EXPECT_EQ(w->min, 0);
  EXPECT_EQ(w->max, 0);
  EXPECT_DOUBLE_EQ(w->p50(), 0.0);
  EXPECT_DOUBLE_EQ(w->p95(), 0.0);
  EXPECT_DOUBLE_EQ(w->p99(), 0.0);
  EXPECT_TRUE(w->exemplars.empty());
}

TEST_F(TelemetryTest, SnapshotDeltaSubtractsCountersAndHistograms) {
  telemetry::counter("test.delta.c").add(10);
  telemetry::histogram("test.delta.h").record(4);
  { CTB_TEL_SPAN("test.delta.before"); }
  const auto before = telemetry::snapshot();
  telemetry::counter("test.delta.c").add(7);
  telemetry::counter("test.delta.fresh").add(3);
  telemetry::histogram("test.delta.h").record(4);
  telemetry::histogram("test.delta.h").record(32);
  { CTB_TEL_SPAN("test.delta.after"); }
  const auto after = telemetry::snapshot();

  const auto d = telemetry::delta(before, after);
  EXPECT_EQ(counter_value(d, "test.delta.c"), 7);
  // Metrics absent from `before` keep their `after` value.
  EXPECT_EQ(counter_value(d, "test.delta.fresh"), 3);
  const telemetry::HistogramSample* h = nullptr;
  for (const auto& s : d.histograms)
    if (s.name == "test.delta.h") h = &s;
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2);
  EXPECT_EQ(h->sum, 36);
  // Bucket deltas: one more 4 (bucket 2) and one 32 (bucket 5).
  ASSERT_GE(h->buckets.size(), 6u);
  EXPECT_EQ(h->buckets[2], 1);
  EXPECT_EQ(h->buckets[5], 1);
  // Min/max of a delta are the bucket envelope of the window, NOT the
  // lifetime watermarks — percentiles on a delta must be reproducible from
  // the window alone (bucket 2 spans (2,4], bucket 5 spans (16,32]).
  EXPECT_EQ(h->min, 3);
  EXPECT_EQ(h->max, 32);
  EXPECT_DOUBLE_EQ(h->percentile(50.0), 4.0);
  EXPECT_DOUBLE_EQ(h->percentile(99.0), 32.0);
  // Span durations are histograms, so they window like any other.
  const telemetry::HistogramSample* before_span =
      find_hist(d, "test.delta.before_ns");
  const telemetry::HistogramSample* after_span =
      find_hist(d, "test.delta.after_ns");
  ASSERT_NE(before_span, nullptr);
  ASSERT_NE(after_span, nullptr);
  EXPECT_EQ(before_span->count, 0);
  EXPECT_EQ(after_span->count, 1);
}

TEST_F(TelemetryTest, SpansNestAndCarryDurations) {
  {
    CTB_TEL_SPAN("test.outer");
    CTB_TEL_SPAN("test.inner");
  }
  const auto outer = span_events("test.outer");
  const auto inner = span_events("test.inner");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  // A span event is stamped at its end with its duration in ns, so
  // [t_us - a0/1000, t_us] is its interval; the inner one nests (to within
  // the ns truncation of a0).
  EXPECT_GE(inner[0].a0, 0);
  EXPECT_GE(outer[0].a0, inner[0].a0);
  EXPECT_LE(inner[0].t_us, outer[0].t_us);
  EXPECT_LE(outer[0].t_us - outer[0].a0 / 1e3,
            inner[0].t_us - inner[0].a0 / 1e3 + 1e-3);
  // The same durations land in the `<name>_ns` histograms.
  const auto snap = telemetry::snapshot();
  const telemetry::HistogramSample* h = find_hist(snap, "test.outer_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1);
  EXPECT_EQ(h->sum, outer[0].a0);
}

TEST_F(TelemetryTest, SpanArmedAtConstructionRecordsAfterDisable) {
  {
    telemetry::ScopedSpan span("test.armed",
                               telemetry::histogram("test.armed_ns"));
    telemetry::set_enabled(false);
  }
  EXPECT_EQ(span_events("test.armed").size(), 1u);
  const auto snap = telemetry::snapshot();
  const telemetry::HistogramSample* h = find_hist(snap, "test.armed_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1);
}

TEST_F(TelemetryTest, SpanSkippedWhenDisabledAtConstruction) {
  telemetry::set_enabled(false);
  { CTB_TEL_SPAN("test.skipped"); }
  telemetry::set_enabled(true);
  // Neither a flight event nor a histogram sample: the site registers its
  // histogram, like a disabled CTB_TEL_COUNT registers its counter.
  EXPECT_TRUE(span_events("test.skipped").empty());
  const auto snap = telemetry::snapshot();
  const telemetry::HistogramSample* h = find_hist(snap, "test.skipped_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 0);
}

TEST_F(TelemetryTest, ResetZeroesButKeepsRegistrations) {
  telemetry::counter("test.reset").add(9);
  telemetry::histogram("test.reset.h").record(5);
  { CTB_TEL_SPAN("test.reset.span"); }
  telemetry::reset();
  const auto snap = telemetry::snapshot();
  EXPECT_EQ(counter_value(snap, "test.reset"), 0);
  for (const auto& h : snap.histograms) {
    if (h.name == "test.reset.h" || h.name == "test.reset.span_ns") {
      EXPECT_EQ(h.count, 0) << h.name;
    }
  }
}

TEST_F(TelemetryTest, MetricsJsonSchema) {
  telemetry::counter("test.json").add(2);
  telemetry::histogram("test.json.h").record(3);
  { CTB_TEL_SPAN("test.json.span"); }
  std::uint64_t id = 0;
  {
    const telemetry::ScopedTraceContext scope("test", 1);
    id = telemetry::current_trace().id;
    telemetry::histogram("test.json.ex").record(97);  // bucket 7
  }
  std::ostringstream os;
  telemetry::write_metrics_json(os, telemetry::snapshot());
  const std::string json = os.str();
  EXPECT_TRUE(json_balanced(json)) << json;
  for (const char* needle :
       {"\"version\":4", "\"compiled_in\":true", "\"enabled\":true",
        "\"counters\":{", "\"histograms\":{",
        "\"test.json\":2", "\"test.json.h\":{", "\"buckets\":[",
        "\"exemplars\":[",
        "\"p50\":3", "\"p95\":3", "\"p99\":3",
        "\"test.json.span_ns\":{\"count\":1,",
        "\"cache.hit\":0", "\"cache.miss\":0",
        "\"exec.dispatch.specialized\":0", "\"exec.dispatch.generic\":0",
        "\"exec.pack.panels\":0", "\"exec.pack.bytes\":0",
        "\"exec.pack.reuse\":0", "\"exec.simd.scalar\":0",
        "\"exec.simd.neon\":0", "\"exec.simd.avx2\":0",
        "\"exec.simd.avx512\":0"})
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n" << json;
  // An exemplar names its recording trace in the 16-hex-digit wire format
  // ctb_trace resolves against flight dumps.
  EXPECT_NE(json.find("\"test.json.ex\":{\"count\":1,\"sum\":97,"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"exemplars\":[{\"bucket\":7,\"value\":97,"
                      "\"trace\":\"" +
                      telemetry::trace_id_hex(id) + "\"}]}"),
            std::string::npos)
      << json;
  // v4 has no separate span section: durations are histograms.
  EXPECT_EQ(json.find("\"spans\""), std::string::npos) << json;
}

TEST_F(TelemetryTest, ChromeTraceSchema) {
  std::uint64_t id = 0;
  {
    const telemetry::ScopedTraceContext scope("test", 1);
    id = telemetry::current_trace().id;
    CTB_TEL_SPAN("test.trace.span");
    // A decision event shares the ring but is not a span: not exported.
    telemetry::flight_record(telemetry::FlightKind::kExec, "test.not.span",
                             1, 2);
  }
  const auto events = telemetry::flight_events();
  std::ostringstream os;
  telemetry::write_chrome_trace(os, events);
  const std::string trace = os.str();
  EXPECT_TRUE(json_balanced(trace)) << trace;
  EXPECT_EQ(trace.front(), '{');
  for (const char* needle :
       {"\"traceEvents\":[", "\"ph\":\"X\"", "\"test.trace.span\"",
        "\"ts\":", "\"dur\":", "\"pid\":", "\"tid\":"})
    EXPECT_NE(trace.find(needle), std::string::npos) << needle << "\n"
                                                     << trace;
  EXPECT_NE(trace.find("\"trace\":\"" + telemetry::trace_id_hex(id) + "\""),
            std::string::npos)
      << trace;
  EXPECT_EQ(trace.find("test.not.span"), std::string::npos) << trace;

  // Embedding form: events must splice into a foreign traceEvents array.
  std::ostringstream combined;
  combined << "{\"traceEvents\":[\n{\"name\":\"probe\",\"ph\":\"M\","
              "\"pid\":0,\"args\":{}}";
  telemetry::append_chrome_trace_events(combined, events, 7);
  combined << "\n]}\n";
  EXPECT_TRUE(json_balanced(combined.str())) << combined.str();
  EXPECT_NE(combined.str().find("\"pid\":7"), std::string::npos);
}

TEST_F(TelemetryTest, ConcurrentInstrumentationIsRaceFreeAndLossless) {
  constexpr long long kIters = 2000;
  ScopedParallelThreads guard(4);
  parallel_for(kIters, [](long long i) {
    CTB_TEL_SPAN("test.par.span");
    CTB_TEL_COUNT("test.par.count", 1);
    CTB_TEL_HIST("test.par.hist", i % 7);
  });
  const auto snap = telemetry::snapshot();
  EXPECT_EQ(counter_value(snap, "test.par.count"), kIters);
  const telemetry::HistogramSample* sample = nullptr;
  for (const auto& h : snap.histograms)
    if (h.name == "test.par.hist") sample = &h;
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->count, kIters);
  // Span aggregates are lossless even though each thread's flight ring
  // keeps only its latest 256 events.
  const telemetry::HistogramSample* spans = find_hist(snap, "test.par.span_ns");
  ASSERT_NE(spans, nullptr);
  EXPECT_EQ(spans->count, kIters);
}

TEST_F(TelemetryTest, HistogramExemplarsCarryTheActiveTraceId) {
  // No trace installed -> no exemplar, even though the bucket counts.
  telemetry::histogram("test.ex").record(5);
  {
    const telemetry::ScopedTraceContext scope("test", 1);
    const std::uint64_t id = telemetry::current_trace().id;
    ASSERT_NE(id, 0u);
    telemetry::histogram("test.ex").record(900);  // bucket 10
    const auto snap = telemetry::snapshot();
    const telemetry::HistogramSample* s = nullptr;
    for (const auto& h : snap.histograms)
      if (h.name == "test.ex") s = &h;
    ASSERT_NE(s, nullptr);
    ASSERT_EQ(s->exemplars.size(), 1u);
    EXPECT_EQ(s->exemplars[0].bucket, 10);
    EXPECT_EQ(s->exemplars[0].value, 900);
    EXPECT_EQ(s->exemplars[0].trace, id);
    // Last writer wins within a bucket; other buckets keep their slots.
    const telemetry::ScopedTraceContext inner(
        telemetry::TraceContext{telemetry::make_trace_id(), 2, "test"});
    telemetry::histogram("test.ex").record(600);  // same bucket 10
    const auto snap2 = telemetry::snapshot();
    for (const auto& h : snap2.histograms)
      if (h.name == "test.ex") s = &h;
    ASSERT_EQ(s->exemplars.size(), 1u);
    EXPECT_EQ(s->exemplars[0].value, 600);
    EXPECT_EQ(s->exemplars[0].trace, telemetry::current_trace().id);
    EXPECT_NE(s->exemplars[0].trace, id);
  }
}

TEST_F(TelemetryTest, DeltaKeepsOnlyExemplarsFromActiveWindowBuckets) {
  const telemetry::ScopedTraceContext scope("test", 1);
  telemetry::histogram("test.ex.delta").record(3);    // bucket 2
  const auto before = telemetry::snapshot();
  telemetry::histogram("test.ex.delta").record(1000);  // bucket 10
  const auto after = telemetry::snapshot();
  const auto d = telemetry::delta(before, after);
  const telemetry::HistogramSample* s = nullptr;
  for (const auto& h : d.histograms)
    if (h.name == "test.ex.delta") s = &h;
  ASSERT_NE(s, nullptr);
  // The bucket-2 exemplar predates the window; only bucket 10 was active.
  ASSERT_EQ(s->exemplars.size(), 1u);
  EXPECT_EQ(s->exemplars[0].bucket, 10);
  EXPECT_EQ(s->exemplars[0].value, 1000);
}

}  // namespace
}  // namespace ctb
