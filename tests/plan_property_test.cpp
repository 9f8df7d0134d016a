// Property-based coverage of the whole plan pipeline: for seeded random
// batches — ragged shapes, transposed operands, fp16, convolution-lowered
// B — and for every batching policy, the planner's output must (a) cover
// every C tile of every GEMM exactly once with per-GEMM-consistent
// strategies and coherent aux arrays, and (b) execute to bit-identical C
// against reference_gemm.
// The checks here are written independently of validate_plan so a bug in the
// shared validator cannot mask a bug in the planner.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/api.hpp"
#include "core/plan_io.hpp"
#include "core/rf_policy.hpp"
#include "kernels/functional.hpp"
#include "kernels/simd.hpp"
#include "service/plan_service.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace ctb {
namespace {

// 200 random batches per policy; the sweep must stay well under the 60 s
// single-core budget, so dimensions are log-uniform in [1, 128] — small
// shapes dominate (they are also where coverage bugs live: ragged edges,
// single-tile GEMMs, K < BK) with occasional multi-tile cases.
constexpr int kCasesPerPolicy = 200;

int log_uniform_dim(Rng& rng) {
  const int cap = 1 << rng.uniform_int(0, 7);
  return static_cast<int>(rng.uniform_int(1, cap));
}

/// Everything needed to regenerate one random case deterministically.
struct PropertyCase {
  std::vector<GemmDims> dims;
  std::vector<Op> op_a, op_b;
  std::vector<ConvLowering> lowering;  ///< inactive: B is stored
  std::vector<int> epilogue;  ///< per-GEMM packed chains; empty = plain
  Precision precision = Precision::kFp32;
  float alpha = 1.0f;
  float beta = 0.0f;
  std::uint64_t data_seed = 0;
};

PropertyCase random_case(Rng& rng) {
  PropertyCase pc;
  const int batch = static_cast<int>(rng.uniform_int(1, 6));
  for (int i = 0; i < batch; ++i) {
    pc.dims.push_back(
        {log_uniform_dim(rng), log_uniform_dim(rng), log_uniform_dim(rng)});
    pc.op_a.push_back(rng.bernoulli(0.25) ? Op::kT : Op::kN);
    pc.op_b.push_back(rng.bernoulli(0.25) ? Op::kT : Op::kN);
    // A lowered B is implicit GEMM, which is always kN. Its K and N follow
    // from a random real geometry: kernel 1/3/5/7, stride 1/2, pad 0-3,
    // 1-3 channels and 1-3 images of a small input.
    ConvLowering l;
    if (pc.op_b.back() == Op::kN && rng.bernoulli(0.2)) {
      l.kernel = 1 + 2 * static_cast<int>(rng.uniform_int(0, 3));
      l.stride = static_cast<int>(rng.uniform_int(1, 2));
      l.pad = static_cast<int>(rng.uniform_int(0, 3));
      const int lo = std::max(1, l.kernel - 2 * l.pad);
      l.in_h = static_cast<int>(rng.uniform_int(lo, lo + 5));
      l.in_w = static_cast<int>(rng.uniform_int(lo, lo + 5));
      const int channels = static_cast<int>(rng.uniform_int(1, 3));
      const int images = static_cast<int>(rng.uniform_int(1, 3));
      pc.dims.back().k = channels * l.kernel * l.kernel;
      pc.dims.back().n = l.out_h() * l.out_w() * images;
    }
    pc.lowering.push_back(l);
  }
  pc.precision = rng.bernoulli(0.25) ? Precision::kFp16 : Precision::kFp32;
  constexpr float kAlphas[] = {1.0f, 1.5f, -0.5f, 0.25f};
  constexpr float kBetas[] = {0.0f, 1.0f, -1.0f, 0.5f};
  pc.alpha = kAlphas[rng.uniform_int(0, 3)];
  pc.beta = kBetas[rng.uniform_int(0, 3)];
  pc.data_seed = rng.next();
  return pc;
}

/// Attaches a random epilogue chain (1 or 2 distinct ops from {bias, ReLU},
/// random order) to ~3/4 of the case's GEMMs. The case keeps its random
/// beta, so nonzero priors meet fused chains.
void add_random_epilogues(PropertyCase& pc, Rng& rng) {
  pc.epilogue.assign(pc.dims.size(), 0);
  for (std::size_t i = 0; i < pc.dims.size(); ++i) {
    if (!rng.bernoulli(0.75)) continue;
    std::vector<EpilogueOp> pool = {EpilogueOp::kBias, EpilogueOp::kRelu};
    rng.shuffle(pool);
    const int take = 1 + static_cast<int>(rng.uniform_int(0, 1));
    int spec = 0;
    for (int j = 0; j < take; ++j)
      spec = epilogue_push(spec, pool[static_cast<std::size_t>(j)]);
    pc.epilogue[i] = spec;
  }
}

/// Owning storage for one materialization of a case. Matrices are allocated
/// first and operand pointers taken afterwards so vector growth cannot move
/// them.
struct CaseStorage {
  std::vector<Matrixf> a, b, c;
  std::vector<std::vector<float>> bias;
  std::vector<GemmOperands> ops;
};

CaseStorage materialize(const PropertyCase& pc) {
  CaseStorage cs;
  Rng rng(pc.data_seed);
  auto rand_mat = [&rng](int r, int c) {
    Matrixf m(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
    fill_random(m, rng);
    return m;
  };
  for (std::size_t i = 0; i < pc.dims.size(); ++i) {
    const GemmDims& d = pc.dims[i];
    const ConvLowering& l = pc.lowering[i];
    const bool ta = pc.op_a[i] == Op::kT;
    const bool tb = pc.op_b[i] == Op::kT;
    cs.a.push_back(rand_mat(ta ? d.k : d.m, ta ? d.m : d.k));
    if (l.active()) {  // the NCHW input, one row per (image, channel) plane
      const int channels = d.k / (l.kernel * l.kernel);
      const int images = d.n / (l.out_h() * l.out_w());
      cs.b.push_back(rand_mat(images * channels, l.in_h * l.in_w));
    } else {
      cs.b.push_back(rand_mat(tb ? d.n : d.k, tb ? d.k : d.n));
    }
    cs.c.push_back(rand_mat(d.m, d.n));
  }
  for (std::size_t i = 0; i < pc.dims.size(); ++i) {
    GemmOperands g;
    g.a = cs.a[i].data();
    g.b = cs.b[i].data();
    g.c = cs.c[i].data();
    g.dims = pc.dims[i];
    g.op_a = pc.op_a[i];
    g.op_b = pc.op_b[i];
    g.precision = pc.precision;
    g.lowering = pc.lowering[i];
    cs.ops.push_back(g);
  }
  // Epilogue operands come from the same deterministic stream, so the plan
  // run and the reference run materialize identical chains.
  cs.bias.resize(pc.dims.size());
  for (std::size_t i = 0; i < pc.epilogue.size(); ++i) {
    const int spec = pc.epilogue[i];
    if (spec == 0) continue;
    const GemmDims& d = pc.dims[i];
    cs.ops[i].epilogue = spec;
    EpilogueArgs& args = cs.ops[i].epilogue_args;
    if (epilogue_has_op(spec, EpilogueOp::kBias)) {
      cs.bias[i].resize(static_cast<std::size_t>(d.m));
      for (float& v : cs.bias[i])
        v = static_cast<float>(rng.uniform_int(-64, 64)) / 16.0f;
      args.bias = cs.bias[i].data();
      args.bias_len = d.m;
    }
  }
  return cs;
}

/// Independent re-derivation of the plan invariants (deliberately not
/// validate_plan): aux arrays agree on the tile count, CSR offsets are sane,
/// each GEMM uses one strategy whose thread variant matches the unified
/// block size, and the per-GEMM coverage is exact. For unsplit plans every
/// (ty, tx) of the tile grid appears exactly once; for split-K plans the
/// check generalizes — the K ranges recorded for each coordinate must form
/// an exact, gap-free, non-overlapping ascending partition of [0, K) with
/// BK-aligned interior boundaries (a duplicated full-K tile fails this too:
/// its second [0, K) range cannot chain after the first).
void check_plan_properties(const BatchPlan& plan,
                           std::span<const GemmDims> dims,
                           const std::string& what) {
  SCOPED_TRACE(what);
  const std::size_t tiles = plan.gemm_of_tile.size();
  ASSERT_EQ(plan.strategy_of_tile.size(), tiles);
  ASSERT_EQ(plan.y_coord.size(), tiles);
  ASSERT_EQ(plan.x_coord.size(), tiles);
  if (plan.has_split()) {
    ASSERT_EQ(plan.k_begin.size(), tiles);
    ASSERT_EQ(plan.k_end.size(), tiles);
  } else {
    ASSERT_TRUE(plan.k_end.empty());
  }
  ASSERT_TRUE(plan.block_threads == 128 || plan.block_threads == 256);
  ASSERT_FALSE(plan.tile_offsets.empty());
  ASSERT_EQ(plan.tile_offsets.front(), 0);
  for (std::size_t b = 1; b < plan.tile_offsets.size(); ++b)
    ASSERT_LE(plan.tile_offsets[b - 1], plan.tile_offsets[b]) << "block " << b;
  ASSERT_EQ(static_cast<std::size_t>(plan.tile_offsets.back()), tiles);

  std::vector<int> strategy_of_gemm(dims.size(), -1);
  // Per GEMM, per coordinate: every K range claimed for it, in plan order.
  std::vector<std::map<std::pair<int, int>, std::vector<std::pair<int, int>>>>
      covered(dims.size());
  int max_smem = 0;
  for (std::size_t t = 0; t < tiles; ++t) {
    const int g = plan.gemm_of_tile[t];
    ASSERT_GE(g, 0) << "tile " << t;
    ASSERT_LT(static_cast<std::size_t>(g), dims.size()) << "tile " << t;
    const int sid = plan.strategy_of_tile[t];
    if (strategy_of_gemm[g] < 0)
      strategy_of_gemm[g] = sid;
    else
      ASSERT_EQ(strategy_of_gemm[g], sid) << "gemm " << g << " mixes ids";
    const TilingStrategy& s = batched_strategy_by_id(sid);
    ASSERT_EQ(s.threads, plan.block_threads) << "tile " << t;
    max_smem = s.smem_bytes() > max_smem ? s.smem_bytes() : max_smem;
    const int ty_count = (dims[g].m + s.by - 1) / s.by;
    const int tx_count = (dims[g].n + s.bx - 1) / s.bx;
    ASSERT_GE(plan.y_coord[t], 0);
    ASSERT_LT(plan.y_coord[t], ty_count) << "tile " << t << " gemm " << g;
    ASSERT_GE(plan.x_coord[t], 0);
    ASSERT_LT(plan.x_coord[t], tx_count) << "tile " << t << " gemm " << g;
    covered[g][{plan.y_coord[t], plan.x_coord[t]}].push_back(
        plan.tile_k_range(static_cast<int>(t), dims[g].k));
  }
  for (std::size_t g = 0; g < dims.size(); ++g) {
    ASSERT_GE(strategy_of_gemm[g], 0) << "gemm " << g << " has no tiles";
    const TilingStrategy& s = batched_strategy_by_id(strategy_of_gemm[g]);
    ASSERT_EQ(static_cast<long long>(covered[g].size()),
              s.tiles_for(dims[g].m, dims[g].n))
        << "gemm " << g;
    const int K = dims[g].k;
    for (auto& [coord, ranges] : covered[g]) {
      const std::string where = "gemm " + std::to_string(g) + " tile (" +
                                std::to_string(coord.first) + "," +
                                std::to_string(coord.second) + ")";
      std::sort(ranges.begin(), ranges.end());
      int expect_begin = 0;
      for (const auto& [kb, ke] : ranges) {
        ASSERT_EQ(kb, expect_begin)
            << where << " K ranges leave a gap or overlap at " << kb;
        ASSERT_LT(kb, ke) << where << " empty K range";
        ASSERT_LE(ke, K) << where << " K range past K";
        if (ke != K) {
          ASSERT_EQ(ke % s.bk, 0) << where << " interior boundary " << ke
                                  << " not BK-aligned";
        }
        expect_begin = ke;
      }
      ASSERT_EQ(expect_begin, K) << where << " K ranges stop short of K";
    }
  }
  ASSERT_GE(plan.smem_bytes, max_smem);
}

void expect_bitwise_equal(const Matrixf& expected, const Matrixf& actual,
                          const std::string& what) {
  const auto e = expected.flat();
  const auto a = actual.flat();
  ASSERT_EQ(e.size(), a.size());
  for (std::size_t i = 0; i < e.size(); ++i)
    ASSERT_EQ(e[i], a[i]) << what << " diverges at flat index " << i;
}

const RandomForest& property_forest() {
  static const RandomForest forest = [] {
    RfTrainingConfig config;
    config.num_cases = 40;
    config.forest.num_trees = 8;
    config.ranges.max_batch = 8;
    config.ranges.max_mn = 256;
    config.ranges.max_k = 512;
    return train_batching_forest(config);
  }();
  return forest;
}

/// Auto-offline keeps the fastest of its candidates, so the plan it returns
/// times no slower, at the planner's precision, than threshold, binary and
/// one-tile-per-block batching over the tiling engine's tiles, or than the
/// uniform vbatch-tile plan.
void expect_no_slower_than_candidates(const BatchedGemmPlanner& planner,
                                      const BatchPlan& plan,
                                      std::span<const GemmDims> dims,
                                      const std::string& what) {
  const TilingResult tiling = select_tiling(dims);
  const std::vector<Tile> tiles = enumerate_tiles(dims, tiling.per_gemm);
  const int threads = static_cast<int>(tiling.variant);
  const TilingStrategy& u = magma_uniform_strategy(dims);
  const std::vector<const TilingStrategy*> uniform(dims.size(), &u);
  const Precision precision = planner.config().precision;
  const auto us = [&](const BatchPlan& p) {
    return time_plan(planner.arch(), p, dims, precision).time_us;
  };
  const double chosen = us(plan);
  ASSERT_LE(chosen, us(batch_threshold(tiles, threads))) << what;
  ASSERT_LE(chosen, us(batch_binary(tiles, threads))) << what;
  ASSERT_LE(chosen, us(batch_none(tiles, threads))) << what;
  ASSERT_LE(chosen, us(batch_none(enumerate_tiles(dims, uniform), u.threads)))
      << what;
}

void run_policy_property(BatchingPolicy policy) {
  PlannerConfig config;
  config.policy = policy;
  if (policy == BatchingPolicy::kRandomForest)
    config.forest = &property_forest();
  const BatchedGemmPlanner planner(config);
  // A couple of workers keep the block-parallel executor path (and its
  // thread-safety) under test without swamping the single-core CI box.
  ScopedParallelThreads guard(2);

  Rng rng(0xC0FFEE0ULL + static_cast<std::uint64_t>(policy));
  for (int iter = 0; iter < kCasesPerPolicy; ++iter) {
    const PropertyCase pc = random_case(rng);
    const std::string what = std::string("policy=") + to_string(policy) +
                             " iter=" + std::to_string(iter);
    const PlanSummary summary = planner.plan(pc.dims);
    check_plan_properties(summary.plan, pc.dims, what);
    ASSERT_NO_THROW(validate_plan(summary.plan, pc.dims)) << what;
    if (policy == BatchingPolicy::kAutoOffline)
      expect_no_slower_than_candidates(planner, summary.plan, pc.dims, what);

    CaseStorage plan_run = materialize(pc);
    execute_plan(summary.plan, plan_run.ops, pc.alpha, pc.beta);
    CaseStorage ref_run = materialize(pc);
    for (std::size_t i = 0; i < ref_run.ops.size(); ++i)
      reference_gemm(ref_run.ops[i], pc.alpha, pc.beta);
    for (std::size_t i = 0; i < pc.dims.size(); ++i)
      expect_bitwise_equal(ref_run.c[i], plan_run.c[i],
                           what + " gemm " + std::to_string(i));
  }
}

TEST(PlanProperty, ThresholdOnly) {
  run_policy_property(BatchingPolicy::kThresholdOnly);
}

TEST(PlanProperty, BinaryOnly) {
  run_policy_property(BatchingPolicy::kBinaryOnly);
}

TEST(PlanProperty, AutoOffline) {
  run_policy_property(BatchingPolicy::kAutoOffline);
}

TEST(PlanProperty, RandomForest) {
  run_policy_property(BatchingPolicy::kRandomForest);
}

TEST(PlanProperty, TilingOnly) {
  run_policy_property(BatchingPolicy::kTilingOnly);
}

// Split-K generators: seeded random batches planned under SplitKMode::kForce
// so K-splitting actually happens whenever a K loop has at least two BK
// steps. Every plan must pass the generalized coverage checker above (exact,
// gap-free, non-overlapping K partitions) and execute bit-identically to
// reference_gemm.
TEST(PlanProperty, ForcedSplitKPartitionsAndBitExact) {
  PlannerConfig config;
  config.splitk = SplitKMode::kForce;
  const BatchedGemmPlanner planner(config);
  ScopedParallelThreads guard(2);

  Rng rng(0x5B117C0DEULL);
  int split_plans = 0;
  for (int iter = 0; iter < 120; ++iter) {
    const PropertyCase pc = random_case(rng);
    const std::string what = "forced-splitk iter=" + std::to_string(iter);
    const PlanSummary summary = planner.plan(pc.dims);
    check_plan_properties(summary.plan, pc.dims, what);
    ASSERT_NO_THROW(validate_plan(summary.plan, pc.dims)) << what;
    if (summary.plan.has_split()) ++split_plans;

    CaseStorage plan_run = materialize(pc);
    execute_plan(summary.plan, plan_run.ops, pc.alpha, pc.beta);
    CaseStorage ref_run = materialize(pc);
    for (std::size_t i = 0; i < ref_run.ops.size(); ++i)
      reference_gemm(ref_run.ops[i], pc.alpha, pc.beta);
    for (std::size_t i = 0; i < pc.dims.size(); ++i)
      expect_bitwise_equal(ref_run.c[i], plan_run.c[i],
                           what + " gemm " + std::to_string(i));
  }
  // The generator's K distribution reaches 2+ BK steps often; if forcing
  // stopped producing split plans the axis is silently dead.
  EXPECT_GT(split_plans, 20);
}

// Adversarial split plans the planner would never emit: slices shuffled out
// of K order and packed into random blocks, so the executor must find each
// tile's first slice wherever it sits and run the tile's ascending chain
// there. Coverage checker + validate_plan + bit-exactness throughout.
TEST(PlanProperty, ShuffledHandBuiltSplitPlansBitExact) {
  const TilingStrategy& s =
      batched_strategy(TileShape::kMedium, ThreadVariant::k256);
  ScopedParallelThreads guard(2);

  Rng rng(0xA11CE5EEDULL);
  int split_plans = 0;
  for (int iter = 0; iter < 60; ++iter) {
    const PropertyCase pc = random_case(rng);
    const std::string what = "shuffled-splitk iter=" + std::to_string(iter);
    const int slices = 2 + static_cast<int>(rng.uniform_int(0, 6));
    const std::vector<const TilingStrategy*> strategies(pc.dims.size(), &s);
    const std::vector<Tile> tiles = enumerate_tiles(pc.dims, strategies);
    std::vector<Tile> split = split_tiles_k(tiles, slices);
    // Fisher-Yates shuffle driven by the case's own seed stream.
    for (std::size_t i = split.size(); i > 1; --i)
      std::swap(split[i - 1],
                split[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<int>(i) - 1))]);
    std::vector<std::vector<Tile>> blocks;
    for (std::size_t i = 0; i < split.size();) {
      const std::size_t take = std::min(
          split.size() - i,
          static_cast<std::size_t>(1 + rng.uniform_int(0, 3)));
      blocks.emplace_back(split.begin() + static_cast<std::ptrdiff_t>(i),
                          split.begin() + static_cast<std::ptrdiff_t>(i + take));
      i += take;
    }
    const BatchPlan plan = build_plan(blocks, s.threads);
    check_plan_properties(plan, pc.dims, what);
    ASSERT_NO_THROW(validate_plan(plan, pc.dims)) << what;
    if (plan.has_split()) ++split_plans;

    CaseStorage plan_run = materialize(pc);
    execute_plan(plan, plan_run.ops, pc.alpha, pc.beta);
    CaseStorage ref_run = materialize(pc);
    for (std::size_t i = 0; i < ref_run.ops.size(); ++i)
      reference_gemm(ref_run.ops[i], pc.alpha, pc.beta);
    for (std::size_t i = 0; i < pc.dims.size(); ++i)
      expect_bitwise_equal(ref_run.c[i], plan_run.c[i],
                           what + " gemm " + std::to_string(i));
  }
  EXPECT_GT(split_plans, 10);
}

// Degraded-then-upgraded serving through the plan service: for random cases,
// the fallback plan served while the full planner is down AND the full plan
// that upgrades it must both satisfy every structural property and execute
// bit-identically to reference_gemm. This is the acceptance property of
// DESIGN.md §10 — a planner outage may cost plan quality, never
// correctness.
TEST(PlanProperty, ServiceDegradedThenUpgradedBitExact) {
  service::VirtualClock clock;  // the retry backoff advances it, no sleeps
  service::PlanServiceConfig cfg;
  cfg.clock = &clock;
  const BatchedGemmPlanner real_planner(cfg.planner);
  bool planner_down = false;
  cfg.planner_fn = [&](std::span<const GemmDims> dims) {
    if (planner_down) throw CheckError("planner down");
    return real_planner.plan(dims);
  };
  service::PlanService svc(cfg);
  ScopedParallelThreads guard(2);

  Rng rng(0xDE6BADEULL);
  std::set<std::uint64_t> seen;
  for (int iter = 0; iter < kCasesPerPolicy; ++iter) {
    const PropertyCase pc = random_case(rng);
    // Distinct signatures only: a repeat would hit the (already upgraded)
    // entry and skip the degraded phase this test is about.
    if (!seen.insert(batch_signature(pc.dims, cfg.planner)).second) continue;
    const std::string what = "service iter=" + std::to_string(iter);

    // The planner fails every attempt of each signature's first episode.
    planner_down = true;
    const service::ServedPlan degraded = svc.get(pc.dims);
    planner_down = false;
    ASSERT_TRUE(degraded.summary != nullptr) << what;
    ASSERT_EQ(degraded.state, service::ServeState::kDegraded) << what;
    check_plan_properties(degraded.summary->plan, pc.dims, what + " degraded");
    {
      CaseStorage plan_run = materialize(pc);
      execute_plan(degraded.summary->plan, plan_run.ops, pc.alpha,
                       pc.beta);
      CaseStorage ref_run = materialize(pc);
      for (std::size_t i = 0; i < ref_run.ops.size(); ++i)
        reference_gemm(ref_run.ops[i], pc.alpha, pc.beta);
      for (std::size_t i = 0; i < pc.dims.size(); ++i)
        expect_bitwise_equal(ref_run.c[i], plan_run.c[i],
                             what + " degraded gemm " + std::to_string(i));
    }

    const service::ServedPlan upgraded = svc.get(pc.dims);
    ASSERT_TRUE(upgraded.summary != nullptr) << what;
    ASSERT_EQ(upgraded.state, service::ServeState::kUpgraded) << what;
    check_plan_properties(upgraded.summary->plan, pc.dims, what + " upgraded");
    {
      CaseStorage plan_run = materialize(pc);
      execute_plan(upgraded.summary->plan, plan_run.ops, pc.alpha,
                       pc.beta);
      CaseStorage ref_run = materialize(pc);
      for (std::size_t i = 0; i < ref_run.ops.size(); ++i)
        reference_gemm(ref_run.ops[i], pc.alpha, pc.beta);
      for (std::size_t i = 0; i < pc.dims.size(); ++i)
        expect_bitwise_equal(ref_run.c[i], plan_run.c[i],
                             what + " upgraded gemm " + std::to_string(i));
    }
  }
  EXPECT_EQ(svc.stats().upgraded,
            static_cast<std::int64_t>(seen.size()));
}

// Random epilogue chains (bias and ReLU in random order) on
// random batches, executed under split-K off and forced, 1 and 4 worker
// threads, and every SIMD ISA this host can run. Every combination must be
// bit-identical to the epilogue-aware reference_gemm — the fused store is
// strictly after the split-K join and per-element, so neither the schedule
// nor the vector width may leak into the result.
TEST(PlanProperty, RandomEpiloguesBitExactAcrossSplitKThreadsIsa) {
  std::vector<SimdIsa> isas = {SimdIsa::kScalar};
  for (int i = 1; i <= static_cast<int>(detected_simd_isa()); ++i)
    isas.push_back(static_cast<SimdIsa>(i));

  Rng rng(0xEB1C0DE5EEDULL);
  int fused_cases = 0, fused_with_beta = 0;
  for (const SplitKMode splitk : {SplitKMode::kOff, SplitKMode::kForce}) {
    PlannerConfig config;
    config.policy = BatchingPolicy::kThresholdOnly;
    config.splitk = splitk;
    const BatchedGemmPlanner planner(config);
    for (int iter = 0; iter < 30; ++iter) {
      PropertyCase pc = random_case(rng);
      add_random_epilogues(pc, rng);
      const std::string what =
          std::string("epilogue splitk=") +
          (splitk == SplitKMode::kForce ? "force" : "off") +
          " iter=" + std::to_string(iter);
      const PlanSummary summary = planner.plan(pc.dims, pc.epilogue);
      check_plan_properties(summary.plan, pc.dims, what);
      ASSERT_NO_THROW(validate_plan(summary.plan, pc.dims)) << what;
      for (int i = 0; i < static_cast<int>(pc.dims.size()); ++i)
        ASSERT_EQ(summary.plan.gemm_epilogue(i),
                  summary.plan.has_epilogue() ? pc.epilogue[
                      static_cast<std::size_t>(i)] : 0)
            << what << " gemm " << i;
      if (summary.plan.has_epilogue()) {
        ++fused_cases;
        fused_with_beta += pc.beta != 0.0f;
      }

      CaseStorage ref_run = materialize(pc);
      for (std::size_t i = 0; i < ref_run.ops.size(); ++i)
        reference_gemm(ref_run.ops[i], pc.alpha, pc.beta);
      for (const int threads : {1, 4}) {
        ScopedParallelThreads guard(threads);
        for (const SimdIsa isa : isas) {
          ScopedSimdIsa isa_guard(isa);
          CaseStorage plan_run = materialize(pc);
          execute_plan(summary.plan, plan_run.ops, pc.alpha, pc.beta);
          for (std::size_t i = 0; i < pc.dims.size(); ++i)
            expect_bitwise_equal(
                ref_run.c[i], plan_run.c[i],
                what + " threads=" + std::to_string(threads) + " isa=" +
                    simd_isa_name(isa) + " gemm " + std::to_string(i));
        }
      }
    }
  }
  // The generator must actually exercise fused plans, not degenerate to
  // plain batches, and fused plans must meet nonzero beta.
  EXPECT_GT(fused_cases, 30);
  EXPECT_GT(fused_with_beta, 0);
}

}  // namespace
}  // namespace ctb
