// Request-scoped tracing and the flight recorder (DESIGN.md §13): trace-id
// codecs, context scoping and adoption, lock-free ring recording (wrap,
// clear, concurrent dump-while-record — the TSan CI leg runs this binary),
// env-gated autodumps, and the end-to-end contract that one request's
// planner, cache, and executor flight events — stage spans included —
// share one trace id.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "core/plan_io.hpp"
#include "linalg/matrix.hpp"
#include "service/plan_service.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace ctb {
namespace {

TEST(TraceIdCodec, HexRoundTripsAndRejectsMalformed) {
  EXPECT_EQ(telemetry::trace_id_hex(0), "0000000000000000");
  EXPECT_EQ(telemetry::trace_id_hex(0x9e3779b97f4a7c15ULL),
            "9e3779b97f4a7c15");
  EXPECT_EQ(telemetry::parse_trace_id("9e3779b97f4a7c15"),
            0x9e3779b97f4a7c15ULL);
  EXPECT_EQ(telemetry::parse_trace_id("9E3779B97F4A7C15"),
            0x9e3779b97f4a7c15ULL);
  // Short input is accepted (leading zeros implied)...
  EXPECT_EQ(telemetry::parse_trace_id("ff"), 0xffULL);
  // ...malformed input maps to the "no trace" id.
  EXPECT_EQ(telemetry::parse_trace_id(""), 0u);
  EXPECT_EQ(telemetry::parse_trace_id("xyz"), 0u);
  EXPECT_EQ(telemetry::parse_trace_id("0123456789abcdef0"), 0u);  // 17 chars
  EXPECT_EQ(telemetry::parse_trace_id("12 4"), 0u);
}

TEST(FlightJson, EmptyEventListIsValidDocument) {
  std::ostringstream os;
  telemetry::write_flight_json(os, {});
  EXPECT_EQ(os.str(), "{\n\"version\":1,\n\"events\":[\n]\n}\n");
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::flight_clear();
    telemetry::reset();
    telemetry::set_enabled(true);
  }
  void TearDown() override {
    telemetry::set_enabled(false);
    telemetry::reset();
    telemetry::flight_clear();
  }

  /// Events recorded on any thread under `id`, in time order.
  static std::vector<telemetry::FlightEventView> trail_of(std::uint64_t id) {
    std::vector<telemetry::FlightEventView> out;
    for (const auto& e : telemetry::flight_events())
      if (e.trace == id) out.push_back(e);
    return out;
  }

  static bool trail_has(const std::vector<telemetry::FlightEventView>& trail,
                        telemetry::FlightKind kind) {
    for (const auto& e : trail)
      if (e.kind == kind) return true;
    return false;
  }
};

TEST_F(TraceTest, MintedIdsAreNonzeroAndUnique) {
  const std::uint64_t a = telemetry::make_trace_id();
  const std::uint64_t b = telemetry::make_trace_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST_F(TraceTest, ScopedContextInstallsAndRestores) {
  EXPECT_FALSE(telemetry::current_trace().active());
  {
    const telemetry::ScopedTraceContext outer("test", 7);
    const telemetry::TraceContext t = telemetry::current_trace();
    EXPECT_TRUE(t.active());
    EXPECT_EQ(t.gemms, 7);
    EXPECT_STREQ(t.origin, "test");
    {
      // Adopt-or-create keeps the caller's trace...
      const telemetry::ScopedTraceContext inner("nested", 99);
      EXPECT_EQ(telemetry::current_trace().id, t.id);
      EXPECT_EQ(telemetry::current_trace().gemms, 7);
    }
    {
      // ...while the explicit form re-enters a known trace unconditionally.
      const telemetry::TraceContext other{telemetry::make_trace_id(), 3,
                                          "worker"};
      const telemetry::ScopedTraceContext inner(other);
      EXPECT_EQ(telemetry::current_trace().id, other.id);
    }
    EXPECT_EQ(telemetry::current_trace().id, t.id);
  }
  EXPECT_FALSE(telemetry::current_trace().active());
}

TEST_F(TraceTest, FlightRecordCapturesTraceAndArgs) {
  const telemetry::ScopedTraceContext scope("test", 1);
  const std::uint64_t id = telemetry::current_trace().id;
  telemetry::flight_record(telemetry::FlightKind::kExec, "unit", 11, 22);
  const auto trail = trail_of(id);
  ASSERT_EQ(trail.size(), 1u);
  EXPECT_EQ(trail[0].kind, telemetry::FlightKind::kExec);
  EXPECT_STREQ(trail[0].detail, "unit");
  EXPECT_EQ(trail[0].a0, 11);
  EXPECT_EQ(trail[0].a1, 22);
  EXPECT_GT(trail[0].t_us, 0.0);
}

TEST_F(TraceTest, RecorderIsAlwaysOn) {
  // The flight recorder must still capture when metrics are disabled —
  // postmortems are most valuable exactly when nobody opted in.
  telemetry::set_enabled(false);
  const telemetry::ScopedTraceContext scope("test", 1);
  telemetry::flight_record(telemetry::FlightKind::kFallback, "off", 0, 0);
  EXPECT_EQ(trail_of(telemetry::current_trace().id).size(), 1u);
}

TEST_F(TraceTest, RingWrapKeepsTheMostRecentEvents) {
  const telemetry::ScopedTraceContext scope("test", 1);
  const std::uint64_t id = telemetry::current_trace().id;
  constexpr int kOverCap = 300;  // ring holds 256 per thread
  for (int i = 0; i < kOverCap; ++i)
    telemetry::flight_record(telemetry::FlightKind::kExec, "wrap", i, 0);
  const auto trail = trail_of(id);
  ASSERT_EQ(trail.size(), 256u);
  // The survivors are exactly the newest 256, still in order.
  std::int64_t lo = kOverCap, hi = -1;
  for (const auto& e : trail) {
    lo = std::min(lo, e.a0);
    hi = std::max(hi, e.a0);
  }
  EXPECT_EQ(lo, kOverCap - 256);
  EXPECT_EQ(hi, kOverCap - 1);
}

TEST_F(TraceTest, ClearInvalidatesAllRecordedEvents) {
  telemetry::flight_record(telemetry::FlightKind::kExec, "gone", 0, 0);
  EXPECT_FALSE(telemetry::flight_events().empty());
  telemetry::flight_clear();
  EXPECT_TRUE(telemetry::flight_events().empty());
}

TEST_F(TraceTest, ConcurrentRecordAndDumpIsRaceFree) {
  // Writers hammer their per-thread rings while the main thread snapshots
  // continuously; the seqlock protocol must keep every surfaced event
  // internally consistent (the TSan leg verifies the absence of races).
  constexpr int kWriters = 4;
  constexpr int kEvents = 5000;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w)
    writers.emplace_back([w] {
      const telemetry::ScopedTraceContext scope("stress", w);
      for (int i = 0; i < kEvents; ++i)
        telemetry::flight_record(telemetry::FlightKind::kExec, "stress", i,
                                 w);
    });
  for (int i = 0; i < 200; ++i)
    for (const auto& e : telemetry::flight_events()) {
      ASSERT_EQ(e.kind, telemetry::FlightKind::kExec);
      ASSERT_STREQ(e.detail, "stress");
      ASSERT_GE(e.a0, 0);
      ASSERT_LT(e.a0, kEvents);
    }
  for (auto& t : writers) t.join();
}

TEST_F(TraceTest, AutodumpIsEnvGatedAndWritesJson) {
  const telemetry::ScopedTraceContext scope("test", 1);
  telemetry::flight_record(telemetry::FlightKind::kGuardReject, "probe", 1,
                           2);
  // Without the env var the dump is a no-op.
  ::unsetenv("CTB_FLIGHT_DUMP_DIR");
  EXPECT_EQ(telemetry::flight_autodump("unit"), "");

  const std::string dir =
      (std::filesystem::temp_directory_path() / "ctb_trace_test_dumps")
          .string();
  std::filesystem::create_directories(dir);
  ::setenv("CTB_FLIGHT_DUMP_DIR", dir.c_str(), 1);
  const std::string path = telemetry::flight_autodump("unit");
  ::unsetenv("CTB_FLIGHT_DUMP_DIR");
  ASSERT_NE(path, "");
  EXPECT_NE(path.find("ctb_flight_"), std::string::npos);
  EXPECT_NE(path.find("_unit.json"), std::string::npos);
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::stringstream content;
  content << is.rdbuf();
  EXPECT_NE(content.str().find("\"version\":1"), std::string::npos);
  EXPECT_NE(content.str().find("\"kind\":\"guard.reject\""),
            std::string::npos);
  EXPECT_NE(content.str().find(telemetry::trace_id_hex(
                telemetry::current_trace().id)),
            std::string::npos);
  std::filesystem::remove_all(dir);
}

// The tentpole contract: one request's planner decision, cache traffic, and
// executor events all land under the single trace id installed at the
// request boundary.
TEST_F(TraceTest, PlannerCacheAndExecutorShareOneTraceId) {
  const std::vector<GemmDims> dims{{32, 32, 64}, {48, 16, 64}};
  Matrixf a0(32, 64), b0(64, 32), c0(32, 32);
  Matrixf a1(48, 64), b1(64, 16), c1(48, 16);
  for (auto* m : {&a0, &b0, &a1, &b1})
    for (std::size_t i = 0; i < m->size(); ++i)
      m->data()[i] = static_cast<float>((i % 13)) * 0.25f;
  std::vector<GemmOperands> ops(2);
  ops[0].dims = dims[0];
  ops[0].a = a0.data();
  ops[0].b = b0.data();
  ops[0].c = c0.data();
  ops[1].dims = dims[1];
  ops[1].a = a1.data();
  ops[1].b = b1.data();
  ops[1].c = c1.data();

  std::uint64_t id = 0;
  {
    const telemetry::ScopedTraceContext scope("test", 2);
    id = telemetry::current_trace().id;
    PlanCache cache((PlannerConfig()));
    const PlanSummary& s = cache.plan(dims);
    execute_plan(s.plan, ops, 1.0f, 0.0f);
  }
  const auto trail = trail_of(id);
  EXPECT_TRUE(trail_has(trail, telemetry::FlightKind::kPlanDecision));
  EXPECT_TRUE(trail_has(trail, telemetry::FlightKind::kCacheMiss));
  EXPECT_TRUE(trail_has(trail, telemetry::FlightKind::kExec));
  // Timeline order: the decision precedes execution.
  double decision_t = 0, exec_t = 0;
  for (const auto& e : trail) {
    if (e.kind == telemetry::FlightKind::kPlanDecision) decision_t = e.t_us;
    if (e.kind == telemetry::FlightKind::kExec) exec_t = e.t_us;
  }
  EXPECT_LE(decision_t, exec_t);
}

TEST_F(TraceTest, ServedPlanCarriesItsTraceId) {
  service::PlanService svc;
  const std::vector<GemmDims> dims{{64, 64, 64}};
  const service::ServedPlan served = svc.get(dims);
  ASSERT_NE(served.trace_id, 0u);
  const auto trail = trail_of(served.trace_id);
  ASSERT_FALSE(trail.empty());
  EXPECT_TRUE(trail_has(trail, telemetry::FlightKind::kServe));
  // A second identical request is a fresh trace that hits the cache.
  const service::ServedPlan again = svc.get(dims);
  EXPECT_NE(again.trace_id, served.trace_id);
  EXPECT_TRUE(
      trail_has(trail_of(again.trace_id), telemetry::FlightKind::kServe));
}

TEST_F(TraceTest, SpansRecordTheActiveTraceId) {
  const telemetry::ScopedTraceContext scope("test", 1);
  { CTB_TEL_SPAN("test.trace.span"); }
  const auto trail = trail_of(telemetry::current_trace().id);
  ASSERT_EQ(trail.size(), 1u);
  EXPECT_EQ(trail[0].kind, telemetry::FlightKind::kSpan);
  EXPECT_STREQ(trail[0].detail, "test.trace.span");
  EXPECT_GE(trail[0].a0, 0);
}

// One request's stages, in its own flight trail: a service miss plans
// (plan.total and its sub-steps), then the split-K plan executes with one
// span per executor stage — no per-block events, and a split plan adds
// none — and every span nests in the planner's or the executor's top-level
// span.
TEST_F(TraceTest, StageSpansJoinTheRequestTrail) {
  const std::vector<GemmDims> dims{{128, 128, 4096}};
  Matrixf a(128, 4096), b(4096, 128), c(128, 128);
  for (auto* m : {&a, &b})
    for (std::size_t i = 0; i < m->size(); ++i)
      m->data()[i] = static_cast<float>(i % 7) * 0.5f;
  const std::vector<GemmOperands> ops{operands(a, b, c)};

  service::PlanServiceConfig cfg;
  cfg.planner.policy = BatchingPolicy::kThresholdOnly;
  service::PlanService svc(cfg);
  std::uint64_t id = 0;
  {
    const telemetry::ScopedTraceContext scope("test", 1);
    id = telemetry::current_trace().id;
    const service::ServedPlan served = svc.get(dims);
    ASSERT_EQ(served.state, service::ServeState::kPlanned);
    ASSERT_TRUE(served.summary->plan.has_split());
    execute_plan(served.summary->plan, ops, 1.0f, 0.0f);
  }

  std::map<std::string, std::vector<telemetry::FlightEventView>> spans;
  for (const auto& e : trail_of(id))
    if (e.kind == telemetry::FlightKind::kSpan) spans[e.detail].push_back(e);
  for (const char* stage :
       {"exec.run_batched_plan", "exec.audit", "exec.pack", "exec.sweep"})
    ASSERT_EQ(spans[stage].size(), 1u) << stage;
  ASSERT_EQ(spans["plan.total"].size(), 1u);
  std::size_t exec_spans = 0;
  for (const auto& [name, events] : spans)
    if (name.rfind("exec.", 0) == 0) exec_spans += events.size();
  EXPECT_EQ(exec_spans, 4u);

  // [t_us - a0/1000, t_us] is a span's interval; allow the 1 ns that the
  // integer a0 truncates.
  auto begin_us = [](const telemetry::FlightEventView& e) {
    return e.t_us - static_cast<double>(e.a0) / 1e3;
  };
  auto inside = [&](const telemetry::FlightEventView& e,
                    const telemetry::FlightEventView& outer) {
    return begin_us(e) >= begin_us(outer) - 1e-3 && e.t_us <= outer.t_us;
  };
  const telemetry::FlightEventView run = spans["exec.run_batched_plan"][0];
  const telemetry::FlightEventView plan = spans["plan.total"][0];
  for (const auto& [name, events] : spans)
    for (const auto& e : events)
      EXPECT_TRUE(inside(e, run) || inside(e, plan)) << name;
}

}  // namespace
}  // namespace ctb
