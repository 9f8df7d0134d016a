// Chaos and correctness suite for ctb::service::PlanService (DESIGN.md §10):
// inline serving, degraded-mode fallback and inline upgrade, deterministic
// retry/backoff on the virtual clock, quarantine lifecycle, concurrent shard
// hammering, and the failpoint registry itself. Execution-level
// bit-exactness of degraded/upgraded plans is covered in plan_property_test
// and fault_injection_test; this file owns the service state machine.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "core/epilogue.hpp"
#include "core/plan_io.hpp"
#include "kernels/functional.hpp"
#include "service/failpoint.hpp"
#include "service/plan_service.hpp"
#include "telemetry/trace.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace ctb {
namespace {

using service::FailAction;
using service::kMaxRetries;
using service::kQuarantineThreshold;
using service::PlanService;
using service::PlanServiceConfig;
using service::PlanServiceError;
using service::ServedPlan;
using service::ServeState;
using service::VirtualClock;
using telemetry::FlightEventView;
using telemetry::FlightKind;

#ifdef CTB_TELEMETRY_ENABLED
constexpr bool kTelemetryCompiledIn = true;
#else
constexpr bool kTelemetryCompiledIn = false;
#endif

const int kBiasRelu =
    epilogue_push(epilogue_push(0, EpilogueOp::kBias), EpilogueOp::kRelu);

std::vector<GemmDims> small_batch(int seed) {
  // Distinct per seed so tests control hits vs misses precisely.
  return {GemmDims{16 + seed, 24, 32}, GemmDims{8, 16 + seed, 48}};
}

// Every flight event recorded under one trace id, across all threads. The
// flight recorder is always on while compiled in, so chaos tests can assert
// that degraded/quarantined responses left a correlated trail without any
// telemetry setup.
std::vector<FlightEventView> trail_of(std::uint64_t id) {
  std::vector<FlightEventView> trail;
  if (id == 0) return trail;
  for (const FlightEventView& e : telemetry::flight_events())
    if (e.trace == id) trail.push_back(e);
  return trail;
}

bool trail_has(const std::vector<FlightEventView>& trail, FlightKind kind,
               const std::string& detail_substr = "") {
  for (const FlightEventView& e : trail)
    if (e.kind == kind &&
        std::string(e.detail).find(detail_substr) != std::string::npos)
      return true;
  return false;
}

// Full-planning attempts per failed episode (the first try plus retries).
constexpr int kAttempts = kMaxRetries + 1;

// ---------------------------------------------------------------------------
// Inline serving basics
// ---------------------------------------------------------------------------

TEST(PlanService, ColdMissPlansInlineThenHits) {
  PlanService svc;
  const auto batch = small_batch(1);

  const ServedPlan first = svc.get(batch);
  ASSERT_TRUE(first.summary != nullptr);
  EXPECT_EQ(first.state, ServeState::kPlanned);
  EXPECT_FALSE(first.degraded());
  validate_plan(first.summary->plan, batch);

  const ServedPlan second = svc.get(batch);
  ASSERT_TRUE(second.summary != nullptr);
  EXPECT_EQ(second.state, ServeState::kHit);
  // Hits hand back the same cached object, not a re-plan.
  EXPECT_EQ(second.summary.get(), first.summary.get());

  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.degraded, 0);
  EXPECT_EQ(svc.size(), 1u);
}

TEST(PlanService, ClearDropsEntriesAndMetadata) {
  PlanService svc;
  const auto batch = small_batch(3);
  (void)svc.get(batch);
  ASSERT_EQ(svc.size(), 1u);
  svc.clear();
  EXPECT_EQ(svc.size(), 0u);
  const ServedPlan again = svc.get(batch);
  EXPECT_EQ(again.state, ServeState::kPlanned);
  EXPECT_EQ(svc.stats().misses, 2);
}

// Inline planning is the only serving mode; the deadline field stays for
// source compatibility and accepts nothing but 0.
TEST(PlanService, NonZeroDeadlineThrows) {
  for (const std::int64_t deadline_us : {std::int64_t{-1}, std::int64_t{300}}) {
    PlanServiceConfig cfg;
    cfg.deadline_us = deadline_us;
    EXPECT_THROW(PlanService{cfg}, CheckError) << deadline_us;
  }
  PlanServiceConfig cfg;
  cfg.deadline_us = 0;
  EXPECT_NO_THROW(PlanService{cfg});
}

TEST(PlanService, DegenerateInputsThrowCheckError) {
  PlanService svc;
  EXPECT_THROW(svc.get({}), CheckError);
  const std::vector<GemmDims> bad = {GemmDims{0, 4, 4}};
  EXPECT_THROW(svc.get(bad), CheckError);
}

// The planner, the plan cache and the service share one epilogue-stream
// normalization: a short stream and a malformed spec are rejected alike,
// and an all-zero stream is the plain batch (same signature, same plan).
TEST(PlanService, EpilogueStreamsNormalizeAlikeAtEveryEntryPoint) {
  const auto batch = small_batch(4);
  const std::vector<int> short_stream{kBiasRelu};
  const std::vector<int> malformed{0x10, 0};  // an op after the terminator
  const std::vector<int> zeros(batch.size(), 0);
  PlanServiceConfig cfg;
  const BatchedGemmPlanner planner(cfg.planner);
  PlanCache cache(cfg.planner);
  PlanService svc(cfg);
  for (const std::vector<int>* bad : {&short_stream, &malformed}) {
    EXPECT_THROW(planner.plan(batch, *bad), CheckError);
    EXPECT_THROW(cache.plan(batch, *bad), CheckError);
    EXPECT_THROW(svc.get(batch, *bad), CheckError);
  }

  EXPECT_EQ(batch_signature(batch, cfg.planner, zeros),
            batch_signature(batch, cfg.planner));
  auto bytes = [](const BatchPlan& plan) {
    std::ostringstream os;
    save_plan(os, plan);
    return os.str();
  };
  EXPECT_EQ(bytes(planner.plan(batch, zeros).plan),
            bytes(planner.plan(batch).plan));
  const std::string plain_bytes = bytes(cache.plan(batch).plan);
  EXPECT_EQ(bytes(cache.plan(batch, zeros).plan), plain_bytes);
  EXPECT_EQ(cache.misses(), 1);
  const ServedPlan plain = svc.get(batch);
  const ServedPlan zeroed = svc.get(batch, zeros);
  EXPECT_EQ(zeroed.state, ServeState::kHit);
  EXPECT_EQ(zeroed.summary.get(), plain.summary.get());
}

// ---------------------------------------------------------------------------
// Retry with deterministic backoff
// ---------------------------------------------------------------------------

TEST(PlanService, TransientFailuresRetryWithDeterministicBackoff) {
  VirtualClock clock;
  PlanServiceConfig cfg;
  cfg.clock = &clock;
  // Fail every attempt but the last of the episode.
  auto failures_left = std::make_shared<std::atomic<int>>(kMaxRetries);
  const BatchedGemmPlanner planner(cfg.planner);
  cfg.planner_fn = [&planner,
                    failures_left](std::span<const GemmDims> dims) {
    if (failures_left->fetch_sub(1) > 0)
      throw CheckError("transient planner outage");
    return planner.plan(dims);
  };
  PlanService svc(cfg);
  const auto batch = small_batch(7);

  const ServedPlan served = svc.get(batch);
  ASSERT_TRUE(served.summary != nullptr);
  EXPECT_EQ(served.state, ServeState::kPlanned);
  EXPECT_EQ(svc.stats().retried, kMaxRetries);
  EXPECT_EQ(svc.stats().degraded, 0);
  // Exponential backoff on the virtual clock: 100 << 0 then 100 << 1.
  EXPECT_EQ(clock.now_us(), 300);
}

// ---------------------------------------------------------------------------
// Quarantine lifecycle
// ---------------------------------------------------------------------------

TEST(PlanService, RepeatedFailuresQuarantineThenReleaseRecovers) {
  PlanServiceConfig cfg;
  auto broken = std::make_shared<std::atomic<bool>>(true);
  auto calls = std::make_shared<std::atomic<int>>(0);
  const BatchedGemmPlanner planner(cfg.planner);
  cfg.planner_fn = [&planner, broken,
                    calls](std::span<const GemmDims> dims) {
    calls->fetch_add(1);
    if (broken->load()) throw CheckError("planner down");
    return planner.plan(dims);
  };
  PlanService svc(cfg);
  const auto batch = small_batch(8);

  // Episode 1: cold miss fails -> degraded entry. Each later episode is a
  // degraded hit whose upgrade fails again, until the last one crosses the
  // threshold and quarantines the signature. The failing upgrade runs on
  // the request thread, so the quarantine transition lands in the
  // requesting trace's flight trail.
  for (int episode = 1; episode < kQuarantineThreshold; ++episode) {
    EXPECT_EQ(svc.get(batch).state, ServeState::kDegraded);
    EXPECT_FALSE(svc.is_quarantined(batch));
  }
  const ServedPlan crossing = svc.get(batch);
  EXPECT_EQ(crossing.state, ServeState::kDegraded);
  EXPECT_TRUE(svc.is_quarantined(batch));
  EXPECT_EQ(svc.stats().quarantined, 1);
  EXPECT_EQ(calls->load(), kQuarantineThreshold * kAttempts);
  EXPECT_EQ(svc.stats().retried, kQuarantineThreshold * kMaxRetries);
  if (kTelemetryCompiledIn) {
    ASSERT_NE(crossing.trace_id, 0u);
    const auto trail = trail_of(crossing.trace_id);
    EXPECT_TRUE(trail_has(trail, FlightKind::kServe, "degraded"));
    EXPECT_TRUE(trail_has(trail, FlightKind::kQuarantine));
  }

  // Quarantined serving never invokes the full planner again.
  const int calls_before = calls->load();
  const ServedPlan held = svc.get(batch);
  EXPECT_EQ(held.state, ServeState::kQuarantined);
  if (kTelemetryCompiledIn) {
    EXPECT_TRUE(
        trail_has(trail_of(held.trace_id), FlightKind::kServe, "quarantined"));
  }
  EXPECT_EQ(svc.get(batch).state, ServeState::kQuarantined);
  EXPECT_EQ(calls->load(), calls_before);

  // Operator fixes the planner and lifts quarantine: the next lookup
  // upgrades the entry and the one after that is an ordinary hit.
  broken->store(false);
  EXPECT_EQ(svc.release_quarantined(), 1u);
  if (kTelemetryCompiledIn) {
    EXPECT_TRUE(trail_has(telemetry::flight_events(),
                          FlightKind::kQuarantineRelease));
  }
  EXPECT_FALSE(svc.is_quarantined(batch));
  const ServedPlan upgraded = svc.get(batch);
  EXPECT_EQ(upgraded.state, ServeState::kUpgraded);
  validate_plan(upgraded.summary->plan, batch);
  EXPECT_EQ(svc.stats().upgraded, 1);
  EXPECT_EQ(svc.get(batch).state, ServeState::kHit);
}

// ---------------------------------------------------------------------------
// Concurrent shard hammering
// ---------------------------------------------------------------------------

TEST(PlanService, ConcurrentInlineHammeringStaysConsistent) {
  constexpr int kRequests = 96;
  constexpr int kDistinct = 12;
  PlanService svc;
  std::vector<std::vector<GemmDims>> pool;
  for (int i = 0; i < kDistinct; ++i) pool.push_back(small_batch(i));

  std::vector<ServedPlan> results(kRequests);
  ScopedParallelThreads guard(4);
  parallel_for(kRequests, [&](long long i) {
    results[static_cast<std::size_t>(i)] =
        svc.get(pool[static_cast<std::size_t>(i) % pool.size()]);
  });

  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(results[i].summary != nullptr) << "request " << i;
    EXPECT_FALSE(results[i].degraded()) << "request " << i;
    validate_plan(results[i].summary->plan,
                  pool[static_cast<std::size_t>(i) % pool.size()]);
  }
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.admitted, kRequests);
  EXPECT_EQ(stats.hits + stats.misses, kRequests);
  // Concurrent misses on one signature may each plan (they race to upsert),
  // but the cache converges to exactly one entry per distinct batch.
  EXPECT_EQ(svc.size(), static_cast<std::size_t>(kDistinct));
}

// ---------------------------------------------------------------------------
// PlanCache service primitives
// ---------------------------------------------------------------------------

TEST(PlanCacheService, LookupPeekUpsertContract) {
  PlannerConfig config;
  config.policy = BatchingPolicy::kThresholdOnly;
  PlanCache cache(config);
  const BatchedGemmPlanner planner(config);
  const auto batch = small_batch(4);
  constexpr std::uint64_t kSig = 42;

  EXPECT_EQ(cache.peek(kSig), nullptr);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 0);

  EXPECT_EQ(cache.lookup(kSig), nullptr);
  EXPECT_EQ(cache.misses(), 1);

  const auto stored = cache.upsert(kSig, planner.plan(batch));
  ASSERT_TRUE(stored != nullptr);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.lookup(kSig).get(), stored.get());
  EXPECT_EQ(cache.hits(), 1);
  // peek is side-effect free.
  EXPECT_EQ(cache.peek(kSig).get(), stored.get());
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);

  // Replacement keeps the old entry alive for existing holders.
  const auto replaced = cache.upsert(kSig, planner.plan(batch));
  EXPECT_NE(replaced.get(), stored.get());
  EXPECT_EQ(cache.size(), 1u);
  validate_plan(stored->plan, batch);  // old object still intact
}

// ---------------------------------------------------------------------------
// Failpoint registry
// ---------------------------------------------------------------------------

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { service::clear_failpoints(); }
  void TearDown() override { service::clear_failpoints(); }
};

TEST_F(FailpointTest, ConsumeRespectsFireBudget) {
  service::set_failpoint("svc.x", {FailAction::kThrow, 2});
  EXPECT_EQ(service::consume_failpoint("svc.x"), FailAction::kThrow);
  EXPECT_EQ(service::consume_failpoint("svc.x"), FailAction::kThrow);
  EXPECT_EQ(service::consume_failpoint("svc.x"), FailAction::kOff);
  EXPECT_EQ(service::failpoint_hits("svc.x"), 2);
}

TEST_F(FailpointTest, UnlimitedBudgetKeepsFiring) {
  service::set_failpoint("svc.y", {FailAction::kBadAlloc, -1});
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(service::consume_failpoint("svc.y"), FailAction::kBadAlloc);
  EXPECT_EQ(service::failpoint_hits("svc.y"), 5);
  service::clear_failpoint("svc.y");
  EXPECT_EQ(service::consume_failpoint("svc.y"), FailAction::kOff);
  // clear_failpoint disarms but keeps the hit count for diagnostics.
  EXPECT_EQ(service::failpoint_hits("svc.y"), 5);
}

TEST_F(FailpointTest, SpecStringParsesValidEntriesAndSkipsJunk) {
  const int armed = service::load_failpoints_from_string(
      "a=corrupt:1;b=throw,not-an-entry,=throw,c=bogus,d=badalloc,"
      "e=throw:1:2,f=delay:500");
  // a, b, d; junk, unknown actions and the old name=action:arg:count form
  // are skipped.
  EXPECT_EQ(armed, 3);
  EXPECT_EQ(service::consume_failpoint("a"), FailAction::kCorrupt);
  EXPECT_EQ(service::consume_failpoint("a"), FailAction::kOff);
  EXPECT_EQ(service::consume_failpoint("b"), FailAction::kThrow);
  EXPECT_EQ(service::consume_failpoint("c"), FailAction::kOff);
  EXPECT_EQ(service::consume_failpoint("d"), FailAction::kBadAlloc);
  EXPECT_EQ(service::consume_failpoint("e"), FailAction::kOff);
  EXPECT_EQ(service::consume_failpoint("f"), FailAction::kOff);
}

TEST_F(FailpointTest, ScopedFailpointDisarmsOnExit) {
  {
    service::ScopedFailpoint scoped("svc.scoped", {FailAction::kCorrupt, -1});
    EXPECT_EQ(service::consume_failpoint("svc.scoped"), FailAction::kCorrupt);
  }
  EXPECT_EQ(service::consume_failpoint("svc.scoped"), FailAction::kOff);
}

// is_quarantined hashes a batch's epilogue stream exactly as get() does, so
// a quarantined fused batch reads as quarantined until released.
TEST_F(FailpointTest, QuarantinedFusedBatchReadsQuarantined) {
  PlanService svc;
  const auto batch = small_batch(12);
  const std::vector<int> epilogues(batch.size(), kBiasRelu);
  {
    service::ScopedFailpoint broken("service.planner.throw",
                                    {FailAction::kThrow, -1});
    for (int episode = 1; episode < kQuarantineThreshold; ++episode) {
      EXPECT_EQ(svc.get(batch, epilogues).state, ServeState::kDegraded);
      EXPECT_FALSE(svc.is_quarantined(batch, epilogues));
    }
    EXPECT_EQ(svc.get(batch, epilogues).state, ServeState::kDegraded);
  }
  EXPECT_EQ(svc.stats().quarantined, 1);
  EXPECT_TRUE(svc.is_quarantined(batch, epilogues));
  EXPECT_EQ(svc.get(batch, epilogues).state, ServeState::kQuarantined);
  EXPECT_EQ(svc.release_quarantined(), 1u);
  EXPECT_FALSE(svc.is_quarantined(batch, epilogues));
}

// A signature can be quarantined without a cache entry: when the fallback
// fails as well, every episode throws and nothing is cached. Once the
// fallback works again, the quarantined miss is served the fallback without
// another full-planner call, and the entry is cached as degraded so that
// release_quarantined() lets a later hit upgrade it.
TEST_F(FailpointTest, QuarantinedMissServesFallbackWithoutPlanning) {
  PlanServiceConfig cfg;
  auto broken = std::make_shared<std::atomic<bool>>(true);
  auto calls = std::make_shared<std::atomic<int>>(0);
  const BatchedGemmPlanner planner(cfg.planner);
  cfg.planner_fn = [&planner, broken,
                    calls](std::span<const GemmDims> dims) {
    calls->fetch_add(1);
    if (broken->load()) throw CheckError("planner down");
    return planner.plan(dims);
  };
  PlanService svc(cfg);
  const auto batch = small_batch(13);
  {
    service::ScopedFailpoint oom("service.fallback.alloc",
                                 {FailAction::kBadAlloc, -1});
    for (int episode = 0; episode < kQuarantineThreshold; ++episode) {
      EXPECT_THROW((void)svc.get(batch), PlanServiceError);
    }
  }
  EXPECT_TRUE(svc.is_quarantined(batch));
  EXPECT_EQ(svc.size(), 0u);
  EXPECT_EQ(calls->load(), kQuarantineThreshold * kAttempts);

  const ServedPlan held = svc.get(batch);
  ASSERT_TRUE(held.summary != nullptr);
  EXPECT_EQ(held.state, ServeState::kQuarantined);
  validate_plan(held.summary->plan, batch);
  EXPECT_EQ(held.summary->heuristic, BatchingHeuristic::kThreshold);
  EXPECT_EQ(calls->load(), kQuarantineThreshold * kAttempts);
  EXPECT_EQ(svc.size(), 1u);
  EXPECT_EQ(svc.get(batch).state, ServeState::kQuarantined);
  EXPECT_EQ(calls->load(), kQuarantineThreshold * kAttempts);

  broken->store(false);
  EXPECT_EQ(svc.release_quarantined(), 1u);
  EXPECT_EQ(svc.get(batch).state, ServeState::kUpgraded);
  EXPECT_EQ(svc.get(batch).state, ServeState::kHit);
}

TEST_F(FailpointTest, ChaosQuarantineLeavesAFlightDumpForTheTrace) {
  if (!kTelemetryCompiledIn) GTEST_SKIP() << "built with -DCTB_TELEMETRY=OFF";
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "ctb_plan_service_flight_dump_test";
  std::error_code ec;
  fs::remove_all(dir, ec);
  ASSERT_TRUE(fs::create_directories(dir));
  ::setenv("CTB_FLIGHT_DUMP_DIR", dir.string().c_str(), 1);

  VirtualClock clock;
  PlanServiceConfig cfg;
  cfg.clock = &clock;
  PlanService svc(cfg);
  service::ScopedFailpoint broken("service.planner.throw",
                                  {FailAction::kThrow, -1});
  const auto batch = small_batch(11);

  // The whole episode runs under one explicitly-propagated trace, the way a
  // caller threads its request context through the service: every
  // response, and the quarantine transition, carry its id.
  std::uint64_t id = 0;
  {
    const telemetry::ScopedTraceContext scope(
        "chaos", static_cast<std::int32_t>(batch.size()));
    id = telemetry::current_trace().id;
    ASSERT_NE(id, 0u);

    // Every failed episode serves the fallback. The last one crosses the
    // threshold, quarantines the signature, and autodumps the flight
    // recorder (CTB_FLIGHT_DUMP_DIR is set) before its own serve event.
    for (int episode = 0; episode < kQuarantineThreshold; ++episode) {
      const ServedPlan served = svc.get(batch);
      EXPECT_EQ(served.state, ServeState::kDegraded);
      EXPECT_EQ(served.trace_id, id);
    }
    EXPECT_TRUE(svc.is_quarantined(batch));
  }
  ::unsetenv("CTB_FLIGHT_DUMP_DIR");

  // Both halves of the story are in the live trail under the one trace id.
  const auto trail = trail_of(id);
  EXPECT_TRUE(trail_has(trail, FlightKind::kServe, "degraded"));
  EXPECT_TRUE(trail_has(trail, FlightKind::kQuarantine));

  // ... and the quarantine transition persisted a postmortem dump naming
  // the same trace, with the degraded serves that preceded it.
  fs::path dump;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().filename().string().find("_quarantine.json") !=
        std::string::npos)
      dump = entry.path();
  ASSERT_FALSE(dump.empty()) << "no quarantine autodump in " << dir;
  std::ifstream in(dump);
  const std::string trace_field =
      "\"trace\":\"" + telemetry::trace_id_hex(id) + "\"";
  bool dumped_serve = false;
  bool dumped_quarantine = false;
  for (std::string line; std::getline(in, line);) {
    if (line.find(trace_field) == std::string::npos) continue;
    if (line.find("\"kind\":\"serve\",\"detail\":\"degraded\"") !=
        std::string::npos)
      dumped_serve = true;
    if (line.find("\"kind\":\"quarantine\"") != std::string::npos)
      dumped_quarantine = true;
  }
  EXPECT_TRUE(dumped_serve);
  EXPECT_TRUE(dumped_quarantine);
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace ctb
