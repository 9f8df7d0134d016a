// Cross-call packed-panel cache (kernels/pack_cache.hpp): hit/miss
// accounting, the explicit-invalidate contract and its best-effort staleness
// probe, FIFO eviction under the pack-arena budget, the per-GEMM admission
// cap, and — above all — bit-exactness: a cache hit must produce the exact
// bytes a fresh repack would.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "kernels/functional.hpp"
#include "kernels/pack_cache.hpp"
#include "kernels/packing.hpp"
#include "service/plan_service.hpp"
#include "telemetry/telemetry.hpp"

namespace ctb {
namespace {

Matrixf rand_mat(int r, int c, Rng& rng) {
  Matrixf m(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
  fill_random(m, rng);
  return m;
}

struct GemmCase {
  Matrixf a, b, c;
  GemmOperands ops;

  explicit GemmCase(const GemmDims& d, std::uint64_t seed) {
    Rng rng(seed);
    a = rand_mat(d.m, d.k, rng);
    b = rand_mat(d.k, d.n, rng);
    c = rand_mat(d.m, d.n, rng);
    ops = operands(a, b, c);
  }
};

void expect_bitwise_equal(const Matrixf& lhs, const Matrixf& rhs,
                          const std::string& what) {
  ASSERT_EQ(lhs.rows(), rhs.rows());
  ASSERT_EQ(lhs.cols(), rhs.cols());
  const auto l = lhs.flat();
  const auto r = rhs.flat();
  for (std::size_t i = 0; i < l.size(); ++i)
    ASSERT_EQ(l[i], r[i]) << what << " diverges at flat index " << i;
}

TEST(PackCache, DisabledByDefaultAndLookupIsInert) {
  // No scope active: the cache must be off (unless the environment forces
  // it on, which the test suite does not).
  const TilingStrategy& s = batched_strategy_by_id(5);
  GemmCase gc({64, 64, 32}, 1);
  if (!pack_cache_enabled()) {
    EXPECT_FALSE(pack_cache_lookup(s, gc.ops));
  }
  ScopedPackCache off(false);
  EXPECT_FALSE(pack_cache_enabled());
  EXPECT_FALSE(pack_cache_lookup(s, gc.ops));
  pack_cache_insert(s, gc.ops, pack_gemm(s, gc.ops));
  EXPECT_EQ(pack_cache_entries(), 0u);
}

TEST(PackCache, HitReturnsInsertedPanelsAndMissesOnDifferentKey) {
  ScopedPackCache scope;
  const TilingStrategy& s = batched_strategy_by_id(5);  // large/256
  GemmCase gc({100, 80, 50}, 2);
  EXPECT_FALSE(pack_cache_lookup(s, gc.ops));  // cold: miss
  const SharedPack pk = pack_gemm(s, gc.ops);
  pack_cache_insert(s, gc.ops, pk);
  EXPECT_EQ(pack_cache_entries(), 1u);
  EXPECT_EQ(pack_cache_bytes(), pk.view.bytes());
  const auto hit = pack_cache_lookup(s, gc.ops);  // hit: same panels
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->a, pk.a);
  EXPECT_EQ(hit->b, pk.b);
  EXPECT_EQ(hit->view.a, pk.view.a);

  // Different strategy, dims, or operand pointers -> different key.
  EXPECT_FALSE(pack_cache_lookup(batched_strategy_by_id(0), gc.ops));
  GemmCase other({100, 80, 50}, 3);
  EXPECT_FALSE(pack_cache_lookup(s, other.ops));
  GemmOperands transposed = gc.ops;
  transposed.op_a = Op::kT;
  EXPECT_FALSE(pack_cache_lookup(s, transposed));
}

TEST(PackCache, GatherOperandsAreNeverCached) {
  ScopedPackCache scope;
  const TilingStrategy& s = batched_strategy_by_id(5);
  GemmCase gc({64, 64, 32}, 4);
  const float* data = gc.b.data();
  gc.ops.b = nullptr;
  gc.ops.b_gather = [data](int k, int j) {
    return data[static_cast<std::size_t>(k) * 64 + j];
  };
  pack_cache_insert(s, gc.ops, pack_gemm(s, gc.ops));
  EXPECT_EQ(pack_cache_entries(), 0u);
  EXPECT_FALSE(pack_cache_lookup(s, gc.ops));
}

// Entries outlive the call that packed them, so only heap-owned panel sets
// are admitted: a view into storage the entry does not own (an executor's
// arena, say) is rejected.
TEST(PackCache, UnownedViewsAreNeverAdmitted) {
  ScopedPackCache scope;
  const TilingStrategy& s = batched_strategy_by_id(5);
  GemmCase gc({64, 64, 32}, 8);
  const SharedPack owned = pack_gemm(s, gc.ops);
  SharedPack unowned = owned;
  unowned.b = nullptr;  // the view still reads owned.b's panels
  pack_cache_insert(s, gc.ops, unowned);
  EXPECT_EQ(pack_cache_entries(), 0u);
  pack_cache_insert(s, gc.ops, owned);
  EXPECT_EQ(pack_cache_entries(), 1u);
}

TEST(PackCache, InvalidateDropsEntriesAndBumpsGeneration) {
  ScopedPackCache scope;
  const TilingStrategy& s = batched_strategy_by_id(5);
  GemmCase gc({64, 64, 32}, 5);
  pack_cache_insert(s, gc.ops, pack_gemm(s, gc.ops));
  ASSERT_EQ(pack_cache_entries(), 1u);
  const std::uint64_t gen = pack_cache_generation();
  invalidate_pack_cache();
  EXPECT_EQ(pack_cache_entries(), 0u);
  EXPECT_EQ(pack_cache_bytes(), 0u);
  EXPECT_GT(pack_cache_generation(), gen);
  EXPECT_FALSE(pack_cache_lookup(s, gc.ops));
}

// The invalidation contract's safety net: mutating an operand value that the
// probe samples (corners/center of the panels) demotes the entry to a stale
// miss instead of serving wrong panels.
TEST(PackCache, StalenessProbeDetectsProbedMutation) {
  ScopedPackCache scope;
  const TilingStrategy& s = batched_strategy_by_id(5);
  GemmCase gc({64, 64, 32}, 6);
  pack_cache_insert(s, gc.ops, pack_gemm(s, gc.ops));
  ASSERT_TRUE(pack_cache_lookup(s, gc.ops));
  // Mutate A(0, 0) — a probed sample — WITHOUT calling invalidate.
  gc.a(0, 0) += 1.0f;
  EXPECT_FALSE(pack_cache_lookup(s, gc.ops));  // stale -> miss
  EXPECT_EQ(pack_cache_entries(), 0u);  // the stale entry was dropped
}

// The probe is best-effort by design: a mutation it does not sample can go
// undetected, and the documented contract (invalidate_pack_cache after
// in-place mutation) is what restores correctness.
TEST(PackCache, UnprobedMutationRequiresExplicitInvalidate) {
  ScopedPackCache scope;
  const TilingStrategy& s = batched_strategy_by_id(5);  // 128x64 tiles
  GemmCase gc({128, 64, 32}, 7);
  pack_cache_insert(s, gc.ops, pack_gemm(s, gc.ops));
  // An interior element away from the probed corners/centers.
  gc.a(3, 5) += 1.0f;
  if (pack_cache_lookup(s, gc.ops)) {
    // Undetected (expected): the panels are stale. The contract call fixes
    // the next lookup.
    invalidate_pack_cache();
    EXPECT_FALSE(pack_cache_lookup(s, gc.ops));
  }
  // Either way the caller repacks and the fresh panels reflect the mutation.
  const SharedPack fresh = pack_gemm(s, gc.ops);
  EXPECT_EQ(fresh.view.a_panel(0)[3 * s.bk + 5], gc.a(3, 5));
}

TEST(PackCache, FifoEvictionKeepsResidentBytesWithinArenaBudget) {
  ScopedPackCache scope;
  const TilingStrategy& s = batched_strategy_by_id(5);
  const GemmDims d{64, 64, 32};
  std::vector<GemmCase> cases;
  for (int i = 0; i < 3; ++i) cases.emplace_back(d, 10 + i);
  const std::size_t one = pack_footprint_bytes(s, d);

  // Budget fits exactly two entries: inserting the third evicts the OLDEST.
  ScopedPackArenaBudget budget(2 * one);
  for (auto& gc : cases) pack_cache_insert(s, gc.ops, pack_gemm(s, gc.ops));
  EXPECT_EQ(pack_cache_entries(), 2u);
  EXPECT_LE(pack_cache_bytes(), 2 * one);
  EXPECT_FALSE(pack_cache_lookup(s, cases[0].ops));  // evicted
  EXPECT_TRUE(pack_cache_lookup(s, cases[1].ops));
  EXPECT_TRUE(pack_cache_lookup(s, cases[2].ops));

  // An entry alone above the budget is rejected outright.
  invalidate_pack_cache();
  ScopedPackArenaBudget tiny(one - 1);
  pack_cache_insert(s, cases[0].ops, pack_gemm(s, cases[0].ops));
  EXPECT_EQ(pack_cache_entries(), 0u);
}

// End-to-end through the executor: a cached second run must produce exactly
// the bytes of an uncached run.
TEST(PackCache, ExecutorResultsBitExactWithCacheEnabled) {
  const TilingStrategy& s = batched_strategy_by_id(5);
  const GemmDims d{150, 130, 70};
  GemmCase cached_case(d, 20);
  {
    ScopedPackCache scope;
    run_single_gemm(s, cached_case.ops, 1.25f, 0.5f);  // miss + insert
    Rng rng(99);
    fill_random(cached_case.c, rng);
    Matrixf c_copy = cached_case.c;
    run_single_gemm(s, cached_case.ops, 1.25f, 0.5f);  // hit
    GemmCase uncached_case(d, 20);
    {
      Rng rng2(99);
      fill_random(uncached_case.c, rng2);
    }
    ScopedPackCache off(false);
    run_single_gemm(s, uncached_case.ops, 1.25f, 0.5f);
    expect_bitwise_equal(cached_case.c, uncached_case.c, "cached-vs-fresh");
  }
}

// Mutating operands between executor calls with an explicit invalidate in
// between yields the same results as never caching.
TEST(PackCache, MutateInvalidateRerunMatchesUncached) {
  const TilingStrategy& s = batched_strategy_by_id(5);
  const GemmDims d{96, 96, 48};
  GemmCase gc(d, 21);
  GemmCase reference(d, 21);
  {
    ScopedPackCache scope;
    run_single_gemm(s, gc.ops, 1.0f, 0.0f);
    Rng rng(7);
    fill_random(gc.a, rng);
    invalidate_pack_cache();
    run_single_gemm(s, gc.ops, 1.0f, 0.0f);
  }
  {
    Rng rng(7);
    fill_random(reference.a, rng);
  }
  run_single_gemm(s, reference.ops, 1.0f, 0.0f);
  expect_bitwise_equal(gc.c, reference.c, "mutate-invalidate-rerun");
}

// ------------------------------------------- per-GEMM admission cap ------
// A batch where one GEMM exceeds the per-GEMM cap: that GEMM runs generic,
// the others still pack — and the mix is bit-exact vs all-generic.
TEST(PackGemmBudget, MixedAdmissionSplitsPathsBitExact) {
  const TilingStrategy& s = single_gemm_strategy(TileShape::kLarge);
  const std::vector<GemmDims> dims = {{64, 64, 32}, {256, 256, 128},
                                      {48, 80, 24}};
  // Cap between the small and the large footprints.
  const std::size_t small_fp = pack_footprint_bytes(s, dims[0]);
  const std::size_t large_fp = pack_footprint_bytes(s, dims[1]);
  ASSERT_LT(small_fp, large_fp);
  const std::size_t cap = (small_fp + large_fp) / 2;

  auto make_batch = [&](std::uint64_t seed) {
    std::vector<GemmCase> gemms;
    for (std::size_t i = 0; i < dims.size(); ++i)
      gemms.emplace_back(dims[i], seed + i);
    return gemms;
  };

  auto mixed = make_batch(30);
  {
    ScopedPackGemmBudget cap_guard(cap);
    std::vector<GemmOperands> ops;
    for (auto& g : mixed) ops.push_back(g.ops);
    run_vbatch(s, ops, 1.0f, 0.5f);
  }
  auto generic = make_batch(30);
  {
    ScopedPackArenaBudget budget(0);
    std::vector<GemmOperands> ops;
    for (auto& g : generic) ops.push_back(g.ops);
    run_vbatch(s, ops, 1.0f, 0.5f);
  }
  for (std::size_t i = 0; i < mixed.size(); ++i)
    expect_bitwise_equal(mixed[i].c, generic[i].c,
                         "mixed-admission/gemm" + std::to_string(i));
}

// A plan-service upgrade (degraded entry replaced by the full plan) must
// invalidate the process-wide pack cache: panels packed while executing the
// degraded plan would otherwise survive into a world where the service hands
// out a differently-tiled plan for the same batch.
TEST(PackCache, PlanServiceUpgradeInvalidatesPackCache) {
  service::VirtualClock clock;
  service::PlanServiceConfig cfg;
  cfg.deadline_us = 500;
  cfg.clock = &clock;
  const BatchedGemmPlanner slow_planner(cfg.planner);
  // The worker blocks on `release` so the upgrade cannot land before the
  // test has populated the pack cache under the degraded plan.
  auto release = std::make_shared<std::atomic<bool>>(false);
  cfg.planner_fn = [&slow_planner, &clock,
                    release](std::span<const GemmDims> dims) {
    clock.advance(10'000);  // full planning always blows the deadline
    while (!release->load())
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    return slow_planner.plan(dims);
  };
  service::PlanService svc(cfg);
  const std::vector<GemmDims> dims = {{64, 64, 32}};

  ScopedPackCache scope;
  const service::ServedPlan degraded = svc.get(dims);
  ASSERT_EQ(degraded.state, service::ServeState::kDegraded);
  // Populate the pack cache while the degraded plan is what's being served.
  const TilingStrategy& s = batched_strategy_by_id(5);
  GemmCase gc(dims[0], 60);
  run_single_gemm(s, gc.ops, 1.0f, 0.0f);  // miss + insert
  ASSERT_EQ(pack_cache_entries(), 1u);
  const std::uint64_t pack_gen = pack_cache_generation();

  // The background upgrade replaces the degraded entry — and must drop the
  // panels packed under it.
  release->store(true);
  svc.drain();
  ASSERT_EQ(svc.stats().upgraded, 1);
  EXPECT_GT(pack_cache_generation(), pack_gen);
  EXPECT_EQ(pack_cache_entries(), 0u);
  EXPECT_EQ(pack_cache_bytes(), 0u);
}

TEST(PackGemmBudget, ZeroCapDisablesPackingEntirely) {
  const TilingStrategy& s = batched_strategy_by_id(5);
  GemmCase packed_case({64, 64, 32}, 31);
  GemmCase capped_case({64, 64, 32}, 31);
  run_single_gemm(s, packed_case.ops, 1.0f, 0.0f);
  {
    ScopedPackGemmBudget cap(0);
    run_single_gemm(s, capped_case.ops, 1.0f, 0.0f);
  }
  expect_bitwise_equal(packed_case.c, capped_case.c, "zero-cap");
}

#ifdef CTB_TELEMETRY_ENABLED

std::int64_t counter_value(const telemetry::MetricsSnapshot& snap,
                           const std::string& name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return c.value;
  ADD_FAILURE() << "counter " << name << " missing from snapshot";
  return -1;
}

// Counter semantics over a repeated-plan workload: first run all misses,
// every later run all hits, pack bytes charged once.
TEST(PackCache, CountersAmortizeRepeatedRuns) {
  const TilingStrategy& s = batched_strategy_by_id(5);
  const GemmDims d{128, 128, 64};
  GemmCase gc(d, 40);
  telemetry::reset();
  telemetry::set_enabled(true);
  {
    ScopedPackCache scope;
    for (int iter = 0; iter < 3; ++iter)
      run_single_gemm(s, gc.ops, 1.0f, 0.0f);
  }
  const auto snap = telemetry::snapshot();
  EXPECT_EQ(counter_value(snap, "exec.pack.cache.miss"), 1);
  EXPECT_EQ(counter_value(snap, "exec.pack.cache.hit"), 2);
  EXPECT_EQ(counter_value(snap, "exec.pack.cache.stale"), 0);
  // ScopedPackCache invalidates on entry and exit.
  EXPECT_EQ(counter_value(snap, "exec.pack.cache.invalidate"), 2);
  // Packing bytes amortized: charged for the single miss only.
  EXPECT_EQ(counter_value(snap, "exec.pack.bytes"),
            static_cast<std::int64_t>(pack_footprint_bytes(s, d)));
  telemetry::set_enabled(false);
  telemetry::reset();
}

// Split-K slices of one GEMM share its packed panels: a split plan packs
// (and charges exec.pack.bytes for) each GEMM exactly once, not once per
// K-slice, and a repeated run hits the cross-call cache once per GEMM. The
// split execution itself must stay bit-exact against the unsplit plan.
TEST(PackCache, SplitKSlicesSharePackedPanels) {
  const TilingStrategy& s = batched_strategy_by_id(5);  // large/256
  const std::vector<GemmDims> dims = {{64, 64, 256}, {64, 128, 192}};
  const std::vector<const TilingStrategy*> strategies(dims.size(), &s);
  const std::vector<Tile> tiles = enumerate_tiles(dims, strategies);
  const std::vector<Tile> split = split_tiles_k(tiles, 4);
  ASSERT_GT(split.size(), tiles.size());
  auto one_tile_blocks = [](const std::vector<Tile>& ts) {
    std::vector<std::vector<Tile>> blocks;
    for (const Tile& t : ts) blocks.push_back({t});
    return blocks;
  };
  const BatchPlan split_plan = build_plan(one_tile_blocks(split), s.threads);
  const BatchPlan unsplit_plan = build_plan(one_tile_blocks(tiles), s.threads);
  ASSERT_TRUE(split_plan.has_split());

  auto make_batch = [&](std::uint64_t seed) {
    std::vector<GemmCase> gemms;
    for (std::size_t i = 0; i < dims.size(); ++i)
      gemms.emplace_back(dims[i], seed + i);
    return gemms;
  };
  auto split_case = make_batch(80);
  std::vector<GemmOperands> split_ops;
  for (auto& g : split_case) split_ops.push_back(g.ops);

  telemetry::reset();
  telemetry::set_enabled(true);
  {
    ScopedPackCache scope;
    run_batched_plan(split_plan, split_ops, 1.0f, 0.5f);  // one miss per GEMM
    run_batched_plan(split_plan, split_ops, 1.0f, 0.5f);  // one hit per GEMM
  }
  const auto snap = telemetry::snapshot();
  EXPECT_EQ(counter_value(snap, "exec.pack.cache.miss"), 2);
  EXPECT_EQ(counter_value(snap, "exec.pack.cache.hit"), 2);
  // Pack bytes charged once per GEMM — never once per K-slice.
  EXPECT_EQ(counter_value(snap, "exec.pack.bytes"),
            static_cast<std::int64_t>(pack_footprint_bytes(s, dims[0]) +
                                      pack_footprint_bytes(s, dims[1])));
  telemetry::set_enabled(false);
  telemetry::reset();

  // Same seeds through the unsplit plan (cache off): two runs with the same
  // beta chain must produce bitwise-identical C either way.
  auto unsplit_case = make_batch(80);
  std::vector<GemmOperands> unsplit_ops;
  for (auto& g : unsplit_case) unsplit_ops.push_back(g.ops);
  run_batched_plan(unsplit_plan, unsplit_ops, 1.0f, 0.5f);
  run_batched_plan(unsplit_plan, unsplit_ops, 1.0f, 0.5f);
  for (std::size_t i = 0; i < dims.size(); ++i)
    expect_bitwise_equal(split_case[i].c, unsplit_case[i].c,
                         "splitk-vs-unsplit/gemm" + std::to_string(i));
}

#endif  // CTB_TELEMETRY_ENABLED

}  // namespace
}  // namespace ctb
