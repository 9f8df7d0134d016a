// Chaos and correctness suite for ctb::service::PlanService (DESIGN.md §10):
// inline and deadline-bounded serving, degraded-mode fallback, deterministic
// retry/backoff on the virtual clock, quarantine lifecycle, the membership
// filter, env knobs, concurrent shard hammering, and the failpoint registry
// itself. Execution-level bit-exactness of degraded/upgraded plans is
// covered in plan_property_test and fault_injection_test; this file owns
// the service state machine.
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
using service::FailpointSpec;
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

// ---------------------------------------------------------------------------
// Inline serving basics
// ---------------------------------------------------------------------------

TEST(PlanService, ColdMissPlansInlineThenHits) {
  PlanServiceConfig cfg;
  cfg.deadline_us = 0;
  PlanService svc(cfg);
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

TEST(PlanService, FilterShortCircuitsDefiniteMisses) {
  PlanServiceConfig cfg;
  cfg.deadline_us = 0;
  PlanService svc(cfg);
  // A fresh service has an empty filter: every cold lookup is a definite
  // miss decided without touching a shard lock.
  (void)svc.get(small_batch(1));
  (void)svc.get(small_batch(2));
  EXPECT_EQ(svc.stats().filter_rejects, 2);
  // Hits never consult the reject path.
  (void)svc.get(small_batch(1));
  EXPECT_EQ(svc.stats().filter_rejects, 2);
  EXPECT_EQ(svc.stats().hits, 1);
}

TEST(PlanService, ClearDropsEntriesAndFilterBits) {
  PlanServiceConfig cfg;
  cfg.deadline_us = 0;
  PlanService svc(cfg);
  const auto batch = small_batch(3);
  (void)svc.get(batch);
  ASSERT_EQ(svc.size(), 1u);
  svc.clear();
  EXPECT_EQ(svc.size(), 0u);
  const ServedPlan again = svc.get(batch);
  EXPECT_EQ(again.state, ServeState::kPlanned);
  // The filter was reset too, so the second cold pass is again a definite
  // miss, not a false positive from stale bits.
  EXPECT_EQ(svc.stats().filter_rejects, 2);
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
  cfg.deadline_us = 0;
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
// Env knobs
// ---------------------------------------------------------------------------

TEST(PlanService, EnvKnobsConfigureShardsAndDeadline) {
  ::setenv("CTB_PLAN_SHARDS", "4", 1);
  ::setenv("CTB_PLAN_DEADLINE_US", "1234", 1);
  {
    PlanService svc;  // defaults: shards/deadline from the environment
    EXPECT_EQ(svc.shard_count(), 4);
    EXPECT_EQ(svc.deadline_us(), 1234);
  }
  {
    PlanServiceConfig cfg;
    cfg.shards = 3;
    cfg.deadline_us = 0;  // explicit config wins over the environment
    PlanService svc(cfg);
    EXPECT_EQ(svc.shard_count(), 3);
    EXPECT_EQ(svc.deadline_us(), 0);
  }
  ::unsetenv("CTB_PLAN_SHARDS");
  ::unsetenv("CTB_PLAN_DEADLINE_US");
  PlanService svc;
  EXPECT_EQ(svc.shard_count(), 8);  // documented defaults
  EXPECT_EQ(svc.deadline_us(), 0);
}

// ---------------------------------------------------------------------------
// Deadline-bounded serving on the virtual clock
// ---------------------------------------------------------------------------

TEST(PlanService, DeadlineMissServesFallbackNowAndUpgradesAsync) {
  VirtualClock clock;
  PlanServiceConfig cfg;
  cfg.deadline_us = 500;
  cfg.clock = &clock;
  const BatchedGemmPlanner slow_planner(cfg.planner);
  cfg.planner_fn = [&](std::span<const GemmDims> dims) {
    clock.advance(10'000);  // every full planning blows the deadline
    return slow_planner.plan(dims);
  };
  PlanService svc(cfg);
  const auto batch = small_batch(5);

  const ServedPlan degraded = svc.get(batch);
  ASSERT_TRUE(degraded.summary != nullptr);
  EXPECT_EQ(degraded.state, ServeState::kDegraded);
  validate_plan(degraded.summary->plan, batch);
  // The fallback is the threshold-only heuristic, served immediately.
  EXPECT_EQ(degraded.summary->heuristic, BatchingHeuristic::kThreshold);
  // The degraded response carries its trace id, and that trace's flight
  // trail records both the serve and the deadline miss that caused it.
  if (kTelemetryCompiledIn) {
    ASSERT_NE(degraded.trace_id, 0u);
    const auto trail = trail_of(degraded.trace_id);
    EXPECT_TRUE(trail_has(trail, FlightKind::kServe, "degraded"));
    EXPECT_TRUE(trail_has(trail, FlightKind::kDeadlineMiss));
  }

  svc.drain();
  const ServedPlan upgraded = svc.get(batch);
  ASSERT_TRUE(upgraded.summary != nullptr);
  EXPECT_EQ(upgraded.state, ServeState::kHit);
  validate_plan(upgraded.summary->plan, batch);

  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.degraded, 1);
  EXPECT_EQ(stats.deadline_misses, 1);
  EXPECT_EQ(stats.upgraded, 1);
}

TEST(PlanService, FastPlannerMeetsDeadlineNoDegradation) {
  VirtualClock clock;
  PlanServiceConfig cfg;
  cfg.deadline_us = 500;
  cfg.clock = &clock;  // nothing advances it: the planner is "instant"
  PlanService svc(cfg);
  const auto batch = small_batch(6);

  const ServedPlan first = svc.get(batch);
  ASSERT_TRUE(first.summary != nullptr);
  EXPECT_EQ(first.state, ServeState::kPlanned);
  svc.drain();
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.degraded, 0);
  EXPECT_EQ(stats.deadline_misses, 0);
  EXPECT_EQ(stats.upgraded, 0);
  EXPECT_EQ(svc.get(batch).state, ServeState::kHit);
}

// ---------------------------------------------------------------------------
// Retry with deterministic backoff
// ---------------------------------------------------------------------------

TEST(PlanService, TransientFailuresRetryWithDeterministicBackoff) {
  VirtualClock clock;
  PlanServiceConfig cfg;
  cfg.deadline_us = 0;
  cfg.clock = &clock;
  cfg.max_retries = 2;
  cfg.backoff_base_us = 100;
  auto failures_left = std::make_shared<std::atomic<int>>(2);
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
  EXPECT_EQ(svc.stats().retried, 2);
  EXPECT_EQ(svc.stats().degraded, 0);
  // Exponential backoff on the virtual clock: 100 << 0 then 100 << 1.
  EXPECT_EQ(clock.now_us(), 300);
}

// ---------------------------------------------------------------------------
// Quarantine lifecycle
// ---------------------------------------------------------------------------

TEST(PlanService, RepeatedFailuresQuarantineThenReleaseRecovers) {
  PlanServiceConfig cfg;
  cfg.deadline_us = 0;
  cfg.max_retries = 0;
  cfg.quarantine_threshold = 2;
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

  // Episode 1: cold miss fails -> degraded entry.
  EXPECT_EQ(svc.get(batch).state, ServeState::kDegraded);
  EXPECT_FALSE(svc.is_quarantined(batch));
  // Episode 2: the degraded hit re-attempts the upgrade, fails again ->
  // the signature crosses the threshold and is quarantined. In inline mode
  // the failing upgrade runs on the request thread, so the quarantine
  // transition lands in the requesting trace's flight trail.
  const ServedPlan crossing = svc.get(batch);
  EXPECT_EQ(crossing.state, ServeState::kDegraded);
  EXPECT_TRUE(svc.is_quarantined(batch));
  EXPECT_EQ(svc.stats().quarantined, 1);
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
  PlanServiceConfig cfg;
  cfg.deadline_us = 0;
  cfg.shards = 4;
  PlanService svc(cfg);
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

TEST(PlanService, ConcurrentDeadlineMissesJoinOneUpgradeJob) {
  constexpr int kCallers = 8;
  VirtualClock clock;
  PlanServiceConfig cfg;
  cfg.deadline_us = 200;
  cfg.clock = &clock;
  const BatchedGemmPlanner planner(cfg.planner);
  cfg.planner_fn = [&](std::span<const GemmDims> dims) {
    clock.advance(5'000);
    return planner.plan(dims);
  };
  PlanService svc(cfg);
  const auto batch = small_batch(2);

  std::vector<ServedPlan> results(kCallers);
  ScopedParallelThreads guard(4);
  parallel_for(kCallers, [&](long long i) {
    results[static_cast<std::size_t>(i)] = svc.get(batch);
  });
  svc.drain();

  for (int i = 0; i < kCallers; ++i) {
    ASSERT_TRUE(results[i].summary != nullptr) << "caller " << i;
    validate_plan(results[i].summary->plan, batch);
  }
  // After the dust settles the entry is fully upgraded and serves as a hit.
  EXPECT_EQ(svc.get(batch).state, ServeState::kHit);
  EXPECT_EQ(svc.size(), 1u);
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

TEST(Failpoint, CompiledOutProbesAreInert) {
  if (service::failpoints_compiled_in()) GTEST_SKIP();
  service::set_failpoint("x", {FailAction::kThrow, 0, -1});
  EXPECT_EQ(service::consume_failpoint("x").action, FailAction::kOff);
  EXPECT_EQ(service::failpoint_hits("x"), 0);
  EXPECT_EQ(service::load_failpoints_from_string("x=throw"), 0);
}

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!service::failpoints_compiled_in())
      GTEST_SKIP() << "built with -DCTB_FAILPOINTS=OFF";
    service::clear_failpoints();
  }
  void TearDown() override { service::clear_failpoints(); }
};

TEST_F(FailpointTest, ConsumeRespectsFireBudget) {
  service::set_failpoint("svc.x", {FailAction::kThrow, 0, 2});
  EXPECT_EQ(service::consume_failpoint("svc.x").action, FailAction::kThrow);
  EXPECT_EQ(service::consume_failpoint("svc.x").action, FailAction::kThrow);
  EXPECT_EQ(service::consume_failpoint("svc.x").action, FailAction::kOff);
  EXPECT_EQ(service::failpoint_hits("svc.x"), 2);
}

TEST_F(FailpointTest, UnlimitedBudgetKeepsFiring) {
  service::set_failpoint("svc.y", {FailAction::kDelay, 750, -1});
  for (int i = 0; i < 5; ++i) {
    const FailpointSpec fired = service::consume_failpoint("svc.y");
    EXPECT_EQ(fired.action, FailAction::kDelay);
    EXPECT_EQ(fired.arg, 750);
  }
  EXPECT_EQ(service::failpoint_hits("svc.y"), 5);
  service::clear_failpoint("svc.y");
  EXPECT_EQ(service::consume_failpoint("svc.y").action, FailAction::kOff);
  // clear_failpoint disarms but keeps the hit count for diagnostics.
  EXPECT_EQ(service::failpoint_hits("svc.y"), 5);
}

TEST_F(FailpointTest, SpecStringParsesValidEntriesAndSkipsJunk) {
  const int armed = service::load_failpoints_from_string(
      "a=delay:500:1;b=throw,not-an-entry,=throw,c=bogus,d=badalloc");
  EXPECT_EQ(armed, 3);  // a, b, d; junk and unknown actions are skipped
  FailpointSpec a = service::consume_failpoint("a");
  EXPECT_EQ(a.action, FailAction::kDelay);
  EXPECT_EQ(a.arg, 500);
  EXPECT_EQ(service::consume_failpoint("a").action, FailAction::kOff);
  EXPECT_EQ(service::consume_failpoint("b").action, FailAction::kThrow);
  EXPECT_EQ(service::consume_failpoint("c").action, FailAction::kOff);
  EXPECT_EQ(service::consume_failpoint("d").action, FailAction::kBadAlloc);
}

TEST_F(FailpointTest, ScopedFailpointDisarmsOnExit) {
  {
    service::ScopedFailpoint scoped("svc.scoped",
                                    {FailAction::kCorrupt, 0, -1});
    EXPECT_EQ(service::consume_failpoint("svc.scoped").action,
              FailAction::kCorrupt);
  }
  EXPECT_EQ(service::consume_failpoint("svc.scoped").action, FailAction::kOff);
}

TEST_F(FailpointTest, ServiceSlowFailpointTripsDeadline) {
  VirtualClock clock;
  PlanServiceConfig cfg;
  cfg.deadline_us = 400;
  cfg.clock = &clock;
  PlanService svc(cfg);
  service::ScopedFailpoint slow("service.planner.slow",
                                {FailAction::kDelay, 9'000, -1});
  const auto batch = small_batch(9);
  const ServedPlan served = svc.get(batch);
  ASSERT_TRUE(served.summary != nullptr);
  EXPECT_EQ(served.state, ServeState::kDegraded);
  EXPECT_EQ(svc.stats().deadline_misses, 1);
  // Chaos-injected degradation is indistinguishable from the real thing:
  // the response's trace still resolves to a trail with the deadline miss.
  if (kTelemetryCompiledIn) {
    ASSERT_NE(served.trace_id, 0u);
    const auto trail = trail_of(served.trace_id);
    EXPECT_TRUE(trail_has(trail, FlightKind::kServe, "degraded"));
    EXPECT_TRUE(trail_has(trail, FlightKind::kDeadlineMiss));
  }
  svc.drain();
  EXPECT_EQ(svc.stats().upgraded, 1);
  EXPECT_EQ(svc.get(batch).state, ServeState::kHit);
}

// is_quarantined hashes a batch's epilogue stream exactly as get() does, so
// a quarantined fused batch reads as quarantined until released.
TEST_F(FailpointTest, QuarantinedFusedBatchReadsQuarantined) {
  PlanServiceConfig cfg;
  cfg.deadline_us = 0;
  cfg.max_retries = 0;
  cfg.quarantine_threshold = 2;
  PlanService svc(cfg);
  const auto batch = small_batch(12);
  const std::vector<int> epilogues(batch.size(), kBiasRelu);
  {
    service::ScopedFailpoint broken("service.planner.throw",
                                    {FailAction::kThrow, 0, -1});
    EXPECT_EQ(svc.get(batch, epilogues).state, ServeState::kDegraded);
    EXPECT_FALSE(svc.is_quarantined(batch, epilogues));
    EXPECT_EQ(svc.get(batch, epilogues).state, ServeState::kDegraded);
  }
  EXPECT_EQ(svc.stats().quarantined, 1);
  EXPECT_TRUE(svc.is_quarantined(batch, epilogues));
  EXPECT_EQ(svc.get(batch, epilogues).state, ServeState::kQuarantined);
  EXPECT_EQ(svc.release_quarantined(), 1u);
  EXPECT_FALSE(svc.is_quarantined(batch, epilogues));
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
  cfg.deadline_us = 400;
  cfg.clock = &clock;
  cfg.max_retries = 0;
  cfg.quarantine_threshold = 2;
  PlanService svc(cfg);
  service::ScopedFailpoint slow("service.planner.slow",
                                {FailAction::kDelay, 9'000, -1});
  service::ScopedFailpoint broken("service.planner.throw",
                                  {FailAction::kThrow, 0, -1});
  const auto batch = small_batch(11);

  // The whole episode runs under one explicitly-propagated trace, the way a
  // caller threads its request context through the service. The worker
  // adopts the requester's trace via the job, so the deadline miss (request
  // thread) and the quarantine transition (worker thread) share one id.
  std::uint64_t id = 0;
  {
    const telemetry::ScopedTraceContext scope(
        "chaos", static_cast<std::int32_t>(batch.size()));
    id = telemetry::current_trace().id;
    ASSERT_NE(id, 0u);

    // Failure 1: the worker blows the deadline and throws; the requester
    // records the miss and serves the fallback.
    const ServedPlan first = svc.get(batch);
    EXPECT_EQ(first.state, ServeState::kDegraded);
    EXPECT_EQ(first.trace_id, id);
    svc.drain();
    EXPECT_FALSE(svc.is_quarantined(batch));

    // Failure 2: the degraded hit re-enqueues the upgrade; the worker's
    // second failure crosses the threshold, quarantines the signature, and
    // autodumps the flight recorder (CTB_FLIGHT_DUMP_DIR is set).
    EXPECT_EQ(svc.get(batch).state, ServeState::kDegraded);
    svc.drain();
    EXPECT_TRUE(svc.is_quarantined(batch));
  }
  ::unsetenv("CTB_FLIGHT_DUMP_DIR");

  // Both halves of the story are in the live trail under the one trace id.
  const auto trail = trail_of(id);
  EXPECT_TRUE(trail_has(trail, FlightKind::kDeadlineMiss));
  EXPECT_TRUE(trail_has(trail, FlightKind::kQuarantine));

  // ... and the quarantine transition persisted a postmortem dump naming
  // the same trace.
  fs::path dump;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().filename().string().find("_quarantine.json") !=
        std::string::npos)
      dump = entry.path();
  ASSERT_FALSE(dump.empty()) << "no quarantine autodump in " << dir;
  std::ifstream in(dump);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string dump_text = buf.str();
  EXPECT_NE(dump_text.find("\"kind\":\"deadline.miss\""), std::string::npos);
  EXPECT_NE(dump_text.find("\"kind\":\"quarantine\""), std::string::npos);
  EXPECT_NE(dump_text.find(telemetry::trace_id_hex(id)), std::string::npos);
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace ctb
