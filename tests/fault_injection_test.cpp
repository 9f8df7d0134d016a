// Fault-injection harness for the plan pipeline (the tentpole of the
// robustness layer). Valid plans from real planner runs are corrupted with
// every class in the plan_fuzz catalog — truncation, duplication, swapped
// entries, out-of-range ids/coords, non-monotone offsets, thread-structure
// mismatches, overflow-adjacent extents — and every corrupted plan must be
// rejected by validation *before* the executor touches any matrix memory.
// C matrices are sentinel-filled to prove no write happened; CI repeats the
// whole suite under ASan+UBSan so a validation miss shows up as a sanitizer
// report rather than silence.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "core/plan_fuzz.hpp"
#include "core/plan_io.hpp"
#include "kernels/functional.hpp"
#include "service/failpoint.hpp"
#include "service/plan_service.hpp"

namespace ctb {
namespace {

// A value no GEMM over random [-1, 1) inputs can produce: any change means
// the executor wrote to C before validation rejected the plan.
constexpr float kSentinel = -77.25f;

std::size_t st(int v) { return static_cast<std::size_t>(v); }

Matrixf rand_mat(int r, int c, Rng& rng) {
  Matrixf m(st(r), st(c));
  fill_random(m, rng);
  return m;
}

struct PlanCase {
  std::string name;
  std::vector<GemmDims> dims;
  std::vector<int> epilogues;  ///< per-GEMM specs; empty = plain batch
  BatchPlan plan;
};

const std::vector<PlanCase>& plan_cases() {
  static const std::vector<PlanCase> cases = [] {
    std::vector<PlanCase> out;
    auto add = [&](std::string name, std::vector<GemmDims> dims,
                   BatchingPolicy policy, std::vector<int> epilogues = {}) {
      PlannerConfig config;
      config.policy = policy;
      const BatchedGemmPlanner planner(config);
      PlanCase pc;
      pc.name = std::move(name);
      pc.dims = std::move(dims);
      pc.epilogues = std::move(epilogues);
      pc.plan = pc.epilogues.empty()
                    ? planner.plan(pc.dims).plan
                    : planner.plan(pc.dims, pc.epilogues).plan;
      validate_plan(pc.plan, pc.dims);  // fixtures start healthy
      out.push_back(std::move(pc));
    };
    // Split-K fixtures are hand-built (enumerate -> split -> pack into
    // blocks) so the split fault classes have K-range arrays to corrupt.
    auto add_split = [&](std::string name, std::vector<GemmDims> dims,
                         int slices, std::size_t tiles_per_block) {
      const TilingStrategy& s =
          batched_strategy(TileShape::kMedium, ThreadVariant::k256);
      const std::vector<const TilingStrategy*> strategies(dims.size(), &s);
      const std::vector<Tile> tiles = enumerate_tiles(dims, strategies);
      const std::vector<Tile> split = split_tiles_k(tiles, slices);
      std::vector<std::vector<Tile>> blocks;
      for (std::size_t i = 0; i < split.size(); i += tiles_per_block) {
        const std::size_t hi = std::min(i + tiles_per_block, split.size());
        blocks.emplace_back(split.begin() + static_cast<std::ptrdiff_t>(i),
                            split.begin() + static_cast<std::ptrdiff_t>(hi));
      }
      PlanCase pc;
      pc.name = std::move(name);
      pc.dims = std::move(dims);
      pc.plan = build_plan(blocks, s.threads);
      validate_plan(pc.plan, pc.dims);  // fixtures start healthy
      out.push_back(std::move(pc));
    };
    const std::vector<GemmDims> ragged = {
        {16, 32, 48}, {64, 64, 64}, {40, 24, 96}, {100, 50, 60}};
    add("ragged-threshold", ragged, BatchingPolicy::kThresholdOnly);
    add("ragged-binary", ragged, BatchingPolicy::kBinaryOnly);
    add("uniform-tiling-only",
        std::vector<GemmDims>(6, GemmDims{64, 64, 32}),
        BatchingPolicy::kTilingOnly);
    add("single-auto", {{96, 80, 64}}, BatchingPolicy::kAutoOffline);
    add("many-threshold", std::vector<GemmDims>(24, GemmDims{64, 64, 32}),
        BatchingPolicy::kThresholdOnly);
    add_split("splitk-ragged", {{64, 64, 96}, {40, 24, 100}}, 3, 2);
    add_split("splitk-uniform",
              std::vector<GemmDims>(4, GemmDims{32, 32, 64}), 2, 3);
    // Fused-epilogue fixture: the epilogue fault classes need the per-GEMM
    // spec array to corrupt.
    const int bias_relu =
        epilogue_push(epilogue_push(0, EpilogueOp::kBias), EpilogueOp::kRelu);
    add("epilogue-ragged", ragged, BatchingPolicy::kThresholdOnly,
        {bias_relu, epilogue_push(0, EpilogueOp::kRelu), 0,
         epilogue_push(0, EpilogueOp::kBias)});
    return out;
  }();
  return cases;
}

/// Random A/B plus sentinel-filled C for every GEMM of a batch. The
/// matrices live in vectors sized up front, so the operand pointers stay
/// stable. When per-GEMM epilogue specs are given, matching operands
/// (random bias buffers) are allocated and attached so the workspace agrees
/// with an epilogue-carrying plan.
struct Workspace {
  std::vector<Matrixf> a, b, c;
  std::vector<std::vector<float>> bias;
  std::vector<GemmOperands> ops;

  Workspace(std::span<const GemmDims> dims, std::uint64_t seed,
            float c_init = kSentinel, std::span<const int> epilogues = {}) {
    Rng rng(seed);
    a.reserve(dims.size());
    b.reserve(dims.size());
    c.reserve(dims.size());
    bias.resize(dims.size());
    for (const auto& d : dims) {
      a.push_back(rand_mat(d.m, d.k, rng));
      b.push_back(rand_mat(d.k, d.n, rng));
      c.emplace_back(st(d.m), st(d.n), c_init);
    }
    for (std::size_t i = 0; i < dims.size(); ++i)
      ops.push_back(operands(a[i], b[i], c[i]));
    for (std::size_t i = 0; i < epilogues.size() && i < dims.size(); ++i) {
      const GemmDims& d = dims[i];
      ops[i].epilogue = epilogues[i];
      if (epilogue_has_op(epilogues[i], EpilogueOp::kBias)) {
        bias[i].resize(st(d.m));
        for (float& v : bias[i])
          v = static_cast<float>(rng.uniform_int(-64, 64)) / 16.0f;
        ops[i].epilogue_args.bias = bias[i].data();
        ops[i].epilogue_args.bias_len = d.m;
      }
    }
  }

  bool c_untouched() const {
    for (const auto& m : c)
      for (float v : m.flat())
        if (v != kSentinel) return false;
    return true;
  }
};

TEST(FaultInjection, EveryCorruptionClassRejectedBeforeMemoryAccess) {
  std::vector<int> applied(all_plan_faults().size(), 0);
  for (const auto& pc : plan_cases()) {
    for (PlanFault fault : all_plan_faults()) {
      for (const auto& fp : inject_plan_fault(pc.plan, fault)) {
        ++applied[st(static_cast<int>(fault))];
        SCOPED_TRACE(pc.name + " / " + to_string(fault) + ": " + fp.note);
        EXPECT_THROW(validate_plan(fp.plan, pc.dims), CheckError);
        Workspace ws(pc.dims, 11, kSentinel, pc.epilogues);
        EXPECT_THROW(execute_plan(fp.plan, ws.ops, 1.0f, 0.0f),
                     CheckError);
        EXPECT_TRUE(ws.c_untouched())
            << "executor wrote to C despite the corrupt plan";
      }
    }
  }
  // Every corruption class must have fired at least once across fixtures.
  for (std::size_t f = 0; f < applied.size(); ++f)
    EXPECT_GT(applied[f], 0)
        << "fault class never applied: " << to_string(all_plan_faults()[f]);
}

TEST(FaultInjection, SaveLoadPipelineRejectsCorruptPlans) {
  // A corrupted plan that round-trips through the text format must be
  // stopped by the hardened loader or by validation — never executed.
  for (const auto& pc : plan_cases()) {
    for (PlanFault fault : all_plan_faults()) {
      for (const auto& fp : inject_plan_fault(pc.plan, fault)) {
        SCOPED_TRACE(pc.name + " / " + to_string(fault) + ": " + fp.note);
        std::stringstream ss;
        save_plan(ss, fp.plan);
        bool rejected = false;
        try {
          const BatchPlan loaded = load_plan(ss);
          validate_plan(loaded, pc.dims);
        } catch (const CheckError&) {
          rejected = true;
        }
        EXPECT_TRUE(rejected);
      }
    }
  }
}

// reference_gemm is the oracle the executor tests compare with: it must
// agree with the host oracles under TT and at fp16.
TEST(FaultInjection, FallbackHonorsTranspose) {
  Rng rng(41);
  const Matrixf a = rand_mat(32, 48, rng);  // stores A^T (K x M)
  const Matrixf b = rand_mat(40, 32, rng);  // stores B^T (N x K)
  Matrixf c(48, 40, kSentinel);
  Matrixf c_ref = c;
  reference_gemm(operands(a, b, c, Op::kT, Op::kT), 1.5f, 0.25f);
  gemm_naive_ops(Op::kT, Op::kT, a, b, c_ref, 1.5f, 0.25f);
  EXPECT_EQ(max_abs_diff(c, c_ref), 0.0f);
}

TEST(FaultInjection, FallbackHonorsFp16) {
  Rng rng(43);
  const Matrixf a = rand_mat(48, 32, rng);
  const Matrixf b = rand_mat(32, 40, rng);
  Matrixf c(48, 40, kSentinel);
  Matrixf c_ref = c;
  GemmOperands g = operands(a, b, c);
  g.precision = Precision::kFp16;
  reference_gemm(g, 1.0f, 0.5f);
  gemm_naive_fp16(a, b, c_ref, 1.0f, 0.5f);
  EXPECT_EQ(max_abs_diff(c, c_ref), 0.0f);
}

TEST(FaultInjection, StaleDimsRejectedAgainstOperands) {
  // A healthy plan built for one batch must not execute against a batch
  // whose operands carry different dims (the stale-plan scenario).
  const PlanCase& pc = plan_cases().front();
  std::vector<GemmDims> reshaped = pc.dims;
  // Larger than the largest tile in both directions, so every strategy
  // needs more tiles than the stale plan supplies.
  reshaped[0] = {200, 150, 60};
  Workspace ws(reshaped, 53);
  EXPECT_THROW(execute_plan(pc.plan, ws.ops, 1.0f, 0.0f), CheckError);
  EXPECT_TRUE(ws.c_untouched());
}

TEST(FaultInjection, EpilogueOperandFaultsRejectedBeforeMemoryAccess) {
  // Healthy epilogue-carrying plan, corrupted *operands*: every fault in
  // the chain's argument block (missing buffer, wrong extent, spec
  // disagreement) must throw before any element of C is written.
  const std::vector<GemmDims> dims = {{24, 40, 32}, {48, 16, 64}};
  const int bias_relu =
      epilogue_push(epilogue_push(0, EpilogueOp::kBias), EpilogueOp::kRelu);
  const std::vector<int> specs = {bias_relu,
                                  epilogue_push(0, EpilogueOp::kRelu)};
  PlannerConfig config;
  config.policy = BatchingPolicy::kThresholdOnly;
  const BatchedGemmPlanner planner(config);
  const BatchPlan plan = planner.plan(dims, specs).plan;
  validate_plan(plan, dims);

  auto fresh = [&] { return Workspace(dims, 59, kSentinel, specs); };
  {  // Baseline sanity: the healthy workspace executes.
    Workspace ws = fresh();
    execute_plan(plan, ws.ops, 1.0f, 0.5f);
    EXPECT_FALSE(ws.c_untouched());
  }
  {  // Bias buffer missing.
    Workspace ws = fresh();
    ws.ops[0].epilogue_args.bias = nullptr;
    EXPECT_THROW(execute_plan(plan, ws.ops, 1.0f, 0.0f), CheckError);
    EXPECT_TRUE(ws.c_untouched());
  }
  {  // Bias length disagrees with M.
    Workspace ws = fresh();
    ws.ops[0].epilogue_args.bias_len = dims[0].m - 1;
    EXPECT_THROW(execute_plan(plan, ws.ops, 1.0f, 0.0f), CheckError);
    EXPECT_TRUE(ws.c_untouched());
  }
  {  // Operand spec disagrees with the plan's aux array.
    Workspace ws = fresh();
    ws.ops[0].epilogue = epilogue_push(0, EpilogueOp::kRelu);
    EXPECT_THROW(execute_plan(plan, ws.ops, 1.0f, 0.0f), CheckError);
    EXPECT_TRUE(ws.c_untouched());
  }
}

TEST(FaultInjection, RetiredEpilogueIdsRejectedEverywhere) {
  // Ids 3, 4 and 5 are reserved (epilogue.hpp): alone or after a bias, every
  // entry point must reject them before it plans, caches, loads or touches
  // C.
  const std::vector<GemmDims> dims = {{24, 40, 32}, {48, 16, 64}};
  const int bias = epilogue_push(0, EpilogueOp::kBias);
  const std::vector<int> healthy = {bias,
                                    epilogue_push(bias, EpilogueOp::kRelu)};
  PlannerConfig config;
  config.policy = BatchingPolicy::kThresholdOnly;
  const BatchedGemmPlanner planner(config);
  const BatchPlan plan = planner.plan(dims, healthy).plan;
  std::stringstream healthy_text;
  save_plan(healthy_text, plan);
  const std::string v3 = healthy_text.str();
  ASSERT_EQ(v3.rfind("ctb-batchplan-v3", 0), 0u);
  const std::string array = "epilogue " + std::to_string(dims.size()) + ' ' +
                            std::to_string(healthy[0]) + ' ' +
                            std::to_string(healthy[1]);
  ASSERT_NE(v3.find(array), std::string::npos);

  for (const int id : {3, 4, 5}) {
    EXPECT_THROW(epilogue_push(0, static_cast<EpilogueOp>(id)), CheckError);
    EXPECT_THROW(epilogue_push(bias, static_cast<EpilogueOp>(id)), CheckError);
    for (const int spec : {id, bias | (id << 4)}) {
      SCOPED_TRACE("spec " + std::to_string(spec));
      EXPECT_FALSE(epilogue_packed_valid(spec));
      const std::vector<int> specs = {healthy[0], spec};

      EXPECT_THROW(planner.plan(dims, specs), CheckError);
      PlanCache cache(config);
      EXPECT_THROW(cache.plan(dims, specs), CheckError);
      EXPECT_EQ(cache.size(), 0u);
      service::PlanService svc;
      EXPECT_THROW(svc.get(dims, specs), CheckError);
      EXPECT_EQ(svc.size(), 0u);

      std::string text = v3;
      text.replace(text.find(array), array.size(),
                   "epilogue " + std::to_string(dims.size()) + ' ' +
                       std::to_string(healthy[0]) + ' ' +
                       std::to_string(spec));
      std::stringstream ss(text);
      EXPECT_THROW(load_plan(ss), PlanIoError);

      // The healthy plan meets operands that carry the retired spec, and
      // a plan that carries it meets the same operands.
      Workspace ws(dims, 61, kSentinel, specs);
      EXPECT_THROW(audit_operands(ws.ops), CheckError);
      EXPECT_THROW(execute_plan(plan, ws.ops, 1.0f, 0.0f), CheckError);
      BatchPlan retired = plan;
      retired.epilogue_of_gemm[1] = spec;
      EXPECT_THROW(execute_plan(retired, ws.ops, 1.0f, 0.0f),
                   CheckError);
      EXPECT_TRUE(ws.c_untouched());
    }
  }
}

// ---------------------------------------------------------------------------
// Service-level chaos (DESIGN.md §10): the three injected failure classes the
// plan service must survive. Every class either serves a plan that executes
// bit-exactly against the naive host oracle, or throws the typed
// PlanServiceError — never a crash, a wedged service, or corrupt output.
// CI repeats this suite under ASan+UBSan.
// ---------------------------------------------------------------------------

using service::FailAction;
using service::kMaxRetries;
using service::kQuarantineThreshold;
using service::PlanService;
using service::PlanServiceConfig;
using service::PlanServiceError;
using service::ScopedFailpoint;
using service::ServedPlan;
using service::ServeState;

/// Executes a served plan and checks C bit-exact against gemm_naive over an
/// identically seeded workspace. Both sides start from the same sentinel C,
/// so nonzero beta is exercised too.
void expect_served_plan_bit_exact(const ServedPlan& served,
                                  const std::vector<GemmDims>& dims,
                                  std::uint64_t seed) {
  ASSERT_TRUE(served.summary != nullptr);
  validate_plan(served.summary->plan, dims);
  Workspace ws(dims, seed);
  execute_plan(served.summary->plan, ws.ops, 1.25f, 0.5f);
  Workspace ref(dims, seed);
  for (std::size_t i = 0; i < dims.size(); ++i) {
    gemm_naive(ref.a[i], ref.b[i], ref.c[i], 1.25f, 0.5f);
    EXPECT_EQ(max_abs_diff(ws.c[i], ref.c[i]), 0.0f) << "gemm " << i;
  }
}

// Chaos class 1: the planner throws mid-flight. Transient -> retried to a
// full plan; persistent -> degraded serving, still bit-exact.
TEST(ServiceChaos, PlannerThrowingMidFlight) {
  const std::vector<GemmDims> dims = {{16, 32, 48}, {100, 50, 60}};
  {
    PlanService svc;
    ScopedFailpoint transient("service.planner.throw", {FailAction::kThrow, 1});
    const ServedPlan served = svc.get(dims);
    EXPECT_EQ(served.state, ServeState::kPlanned);
    EXPECT_EQ(svc.stats().retried, 1);
    expect_served_plan_bit_exact(served, dims, 67);
  }
  {
    PlanService svc;
    ScopedFailpoint persistent("service.planner.throw",
                               {FailAction::kThrow, -1});
    const ServedPlan served = svc.get(dims);
    EXPECT_EQ(served.state, ServeState::kDegraded);
    expect_served_plan_bit_exact(served, dims, 71);
  }
}

// Chaos class 2: allocation failure while computing the fallback, with the
// full planner down too. The only correct outcome is the typed error — and
// the service must serve normally once the faults lift (no wedged state).
TEST(ServiceChaos, AllocationFailureDuringFallback) {
  PlanService svc;
  const std::vector<GemmDims> dims = {{64, 64, 32}, {40, 24, 96}};
  {
    ScopedFailpoint down("service.planner.throw", {FailAction::kThrow, -1});
    ScopedFailpoint oom("service.fallback.alloc",
                        {FailAction::kBadAlloc, -1});
    EXPECT_THROW((void)svc.get(dims), PlanServiceError);
    EXPECT_EQ(svc.size(), 0u);  // nothing half-cached
  }
  // Faults lifted: the same batch now plans normally on the first try.
  const ServedPlan served = svc.get(dims);
  EXPECT_EQ(served.state, ServeState::kPlanned);
  expect_served_plan_bit_exact(served, dims, 73);
}

// Chaos class 3: an injected PlannerFn emits structurally corrupt plans.
// Validation inside the service must reject every one (the corrupt plan is
// never served), degrade, quarantine after repeats, and recover after
// release. The injection is a config-level PlannerFn, not a failpoint.
TEST(ServiceChaos, CorruptPlanFromInjectedPlannerFn) {
  PlanServiceConfig cfg;
  // Every attempt of the episodes up to quarantine is corrupt.
  auto corrupt_calls = std::make_shared<std::atomic<int>>(
      kQuarantineThreshold * (kMaxRetries + 1));
  const BatchedGemmPlanner planner(cfg.planner);
  cfg.planner_fn = [&planner,
                    corrupt_calls](std::span<const GemmDims> d) {
    PlanSummary summary = planner.plan(d);
    if (corrupt_calls->fetch_sub(1) > 0 &&
        !summary.plan.gemm_of_tile.empty())
      summary.plan.gemm_of_tile.pop_back();
    return summary;
  };
  PlanService svc(cfg);
  const std::vector<GemmDims> dims = {{16, 32, 48}, {64, 64, 64},
                                      {40, 24, 96}};

  // Corrupt plan rejected -> degraded fallback, which executes bit-exactly.
  const ServedPlan degraded = svc.get(dims);
  EXPECT_EQ(degraded.state, ServeState::kDegraded);
  expect_served_plan_bit_exact(degraded, dims, 79);

  // Every later corrupt episode is a degraded hit; the last one crosses the
  // quarantine threshold.
  for (int episode = 1; episode < kQuarantineThreshold; ++episode)
    EXPECT_EQ(svc.get(dims).state, ServeState::kDegraded);
  EXPECT_TRUE(svc.is_quarantined(dims));
  EXPECT_EQ(corrupt_calls->load(), 0);
  EXPECT_EQ(svc.get(dims).state, ServeState::kQuarantined);

  // Planner healed + quarantine lifted -> the entry upgrades and the full
  // plan is bit-exact too.
  EXPECT_EQ(svc.release_quarantined(), 1u);
  const ServedPlan upgraded = svc.get(dims);
  EXPECT_EQ(upgraded.state, ServeState::kUpgraded);
  expect_served_plan_bit_exact(upgraded, dims, 83);
}

}  // namespace
}  // namespace ctb
