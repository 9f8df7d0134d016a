#include <gtest/gtest.h>

#include <set>
#include <algorithm>

#include "core/api.hpp"
#include "core/rf_policy.hpp"
#include "dnn/backward.hpp"
#include "dnn/googlenet.hpp"
#include "linalg/gemm_ref.hpp"

namespace ctb {
namespace {

Matrixf rand_mat(int r, int c, Rng& rng) {
  Matrixf m(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
  fill_random(m, rng);
  return m;
}

TEST(Defaults, TlpThresholdMatchesPaperOnV100) {
  EXPECT_EQ(default_tlp_threshold(gpu_arch(GpuModel::kV100)), 65536);
}

TEST(Defaults, ThetaIs256) {
  EXPECT_EQ(default_theta(gpu_arch(GpuModel::kV100)), 256);
}

TEST(Defaults, ThresholdScalesWithGpuSize) {
  // Smaller GPUs need fewer threads to fill.
  EXPECT_LT(default_tlp_threshold(gpu_arch(GpuModel::kM60)),
            default_tlp_threshold(gpu_arch(GpuModel::kV100)));
}

TEST(Planner, DerivesThresholdsFromArch) {
  PlannerConfig config;
  config.gpu = GpuModel::kV100;
  const BatchedGemmPlanner planner(config);
  EXPECT_EQ(planner.config().tlp_threshold, 65536);
  EXPECT_EQ(planner.config().theta, 256);
}

TEST(Planner, ExplicitThresholdsRespected) {
  PlannerConfig config;
  config.tlp_threshold = 1234;
  config.theta = 99;
  const BatchedGemmPlanner planner(config);
  EXPECT_EQ(planner.config().tlp_threshold, 1234);
  EXPECT_EQ(planner.config().theta, 99);
}

TEST(Planner, RandomForestPolicyRequiresForest) {
  PlannerConfig config;
  config.policy = BatchingPolicy::kRandomForest;
  EXPECT_THROW(BatchedGemmPlanner{config}, CheckError);
}

TEST(Planner, EmptyBatchThrows) {
  const BatchedGemmPlanner planner{PlannerConfig{}};
  EXPECT_THROW(planner.plan({}), CheckError);
}

class PlannerPolicies : public ::testing::TestWithParam<BatchingPolicy> {};

TEST_P(PlannerPolicies, PlansValidateAndCoverBatch) {
  PlannerConfig config;
  config.policy = GetParam();
  RandomForest forest;
  if (GetParam() == BatchingPolicy::kRandomForest) {
    RfTrainingConfig rf;
    rf.num_cases = 20;
    rf.forest.num_trees = 4;
    rf.ranges.max_batch = 8;
    rf.ranges.max_mn = 128;
    rf.ranges.max_k = 256;
    forest = train_batching_forest(rf);
    config.forest = &forest;
  }
  const BatchedGemmPlanner planner(config);
  const std::vector<GemmDims> dims = {
      {16, 32, 128}, {64, 64, 64}, {256, 256, 64}, {100, 50, 300}};
  const PlanSummary s = planner.plan(dims);
  EXPECT_NO_THROW(validate_plan(s.plan, dims));
  EXPECT_GT(s.plan.num_blocks(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PlannerPolicies,
    ::testing::Values(BatchingPolicy::kThresholdOnly,
                      BatchingPolicy::kBinaryOnly,
                      BatchingPolicy::kAutoOffline,
                      BatchingPolicy::kRandomForest,
                      BatchingPolicy::kTilingOnly));

TEST(Planner, TilingOnlyMeansOneTilePerBlock) {
  PlannerConfig config;
  config.policy = BatchingPolicy::kTilingOnly;
  const BatchedGemmPlanner planner(config);
  const std::vector<GemmDims> dims(8, GemmDims{64, 64, 32});
  const PlanSummary s = planner.plan(dims);
  EXPECT_EQ(s.heuristic, BatchingHeuristic::kNone);
  EXPECT_EQ(s.plan.num_blocks(), s.plan.num_tiles());
}

/// Auto-offline's four candidates, built the way the planner builds them:
/// threshold and binary batching and one tile per block over the tiling
/// engine's tiles, and every GEMM under the vbatch tile one tile per block.
struct AutoCandidates {
  BatchPlan threshold, binary, none, uniform;
};

AutoCandidates auto_candidates(std::span<const GemmDims> dims) {
  const TilingResult tiling = select_tiling(dims);
  const std::vector<Tile> tiles = enumerate_tiles(dims, tiling.per_gemm);
  const int threads = static_cast<int>(tiling.variant);
  const TilingStrategy& u = magma_uniform_strategy(dims);
  const std::vector<const TilingStrategy*> uniform(dims.size(), &u);
  return {batch_threshold(tiles, threads), batch_binary(tiles, threads),
          batch_none(tiles, threads),
          batch_none(enumerate_tiles(dims, uniform), u.threads)};
}

// Every batch plans no slower than any of the four candidates on the clock
// of the configured precision, with split-K on (the default) and off.
TEST(Planner, AutoOfflinePicksNoWorseThanEitherHeuristic) {
  const GpuArch& arch = gpu_arch(GpuModel::kV100);
  const std::vector<std::vector<GemmDims>> batches = {
      std::vector<GemmDims>(64, GemmDims{32, 32, 48}),
      {{16, 32, 128}, {64, 64, 64}, {256, 256, 64}, {100, 50, 300}},
      {{512, 64, 1024}, {384, 64, 768}},
      std::vector<GemmDims>(4, GemmDims{512, 512, 16})};
  for (const Precision precision : {Precision::kFp32, Precision::kFp16})
    for (const SplitKMode mode : {SplitKMode::kAuto, SplitKMode::kOff}) {
      PlannerConfig config;
      config.precision = precision;
      config.splitk = mode;
      const BatchedGemmPlanner planner(config);
      for (const auto& dims : batches) {
        const auto us = [&](const BatchPlan& p) {
          return time_plan(arch, p, dims, precision).time_us;
        };
        const double t_auto = us(planner.plan(dims).plan);
        const AutoCandidates c = auto_candidates(dims);
        for (const BatchPlan* p :
             {&c.threshold, &c.binary, &c.none, &c.uniform})
          EXPECT_LE(t_auto, us(*p))
              << "fp16=" << (precision == Precision::kFp16)
              << " splitk=" << to_string(mode) << " gemms=" << dims.size();
      }
    }
}

// perfbench inception-train's three dispatches (GoogLeNet inception 3b's
// four 1x1 branch convs at 4 images): a mixed plan inherits its largest
// strategy's launch footprint, so the forward pass runs fastest under the
// uniform vbatch tile and the data gradient one tile per block, while the
// deep-K weight gradient keeps its split threshold/binary plan.
TEST(Planner, AutoOfflineKeepsTheFastestCandidateOnInceptionTrain) {
  const InceptionModule& m = googlenet_inception_modules().at(1);
  ASSERT_EQ(m.name, "inception3b");
  std::vector<GemmDims> fwd, wgrad, dgrad;
  for (const ConvShape* s : m.stage1()) {
    fwd.push_back(s->gemm_dims(4));
    wgrad.push_back(wgrad_gemm_dims(*s, 4));
    dgrad.push_back(dgrad_gemm_dims(*s, 4));
  }
  const BatchedGemmPlanner planner{PlannerConfig{}};

  const PlanSummary f = planner.plan(fwd);
  const AutoCandidates fc = auto_candidates(fwd);
  EXPECT_EQ(f.heuristic, BatchingHeuristic::kNone);
  EXPECT_EQ(f.plan, fc.uniform);
  for (const TilingStrategy* s : f.tiling.per_gemm)
    EXPECT_EQ(s, &magma_uniform_strategy(fwd));
  EXPECT_EQ(f.tiling.tlp, batch_tlp(fwd, f.tiling.per_gemm));

  const PlanSummary d = planner.plan(dgrad);
  const AutoCandidates dc = auto_candidates(dgrad);
  EXPECT_EQ(d.heuristic, BatchingHeuristic::kNone);
  EXPECT_EQ(d.plan, dc.none);
  EXPECT_EQ(d.tiling.per_gemm, select_tiling(dgrad).per_gemm);

  const PlanSummary w = planner.plan(wgrad);
  EXPECT_TRUE(w.heuristic == BatchingHeuristic::kThreshold ||
              w.heuristic == BatchingHeuristic::kBinary);
  EXPECT_TRUE(w.plan.has_split());

  // kForce skips the one-tile-per-block candidates: a split plan comes
  // back even where an unsplit candidate is faster.
  PlannerConfig force;
  force.splitk = SplitKMode::kForce;
  const BatchedGemmPlanner forced(force);
  for (const auto* dims : {&fwd, &wgrad, &dgrad}) {
    const PlanSummary s = forced.plan(*dims);
    EXPECT_TRUE(s.plan.has_split()) << dims->front().k;
    EXPECT_NE(s.heuristic, BatchingHeuristic::kNone);
  }
}

TEST(TimePlan, IncludesLaunchOverhead) {
  const std::vector<GemmDims> dims = {{16, 16, 16}};
  const BatchedGemmPlanner planner{PlannerConfig{}};
  const PlanSummary s = planner.plan(dims);
  const GpuArch& arch = gpu_arch(GpuModel::kV100);
  const TimedResult t = time_plan(arch, s.plan, dims);
  EXPECT_GE(t.time_us, arch.kernel_launch_us);
  EXPECT_GT(t.sim.total_flops, 0);
}

TEST(BatchedGemmCall, ComputesCorrectResults) {
  Rng rng(2024);
  const std::vector<GemmDims> dims = {
      {16, 32, 128}, {64, 64, 64}, {100, 40, 56}};
  std::vector<Matrixf> as, bs, cs, refs;
  for (const auto& d : dims) {
    as.push_back(rand_mat(d.m, d.k, rng));
    bs.push_back(rand_mat(d.k, d.n, rng));
    cs.push_back(rand_mat(d.m, d.n, rng));
    refs.push_back(cs.back());
  }
  std::vector<const Matrixf*> a, b;
  std::vector<Matrixf*> c;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    a.push_back(&as[i]);
    b.push_back(&bs[i]);
    c.push_back(&cs[i]);
  }
  const BatchedGemmResult result =
      batched_gemm(a, b, c, 1.5f, 0.25f, PlannerConfig{});
  for (std::size_t i = 0; i < dims.size(); ++i) {
    gemm_naive(as[i], bs[i], refs[i], 1.5f, 0.25f);
    EXPECT_TRUE(allclose(cs[i], refs[i])) << "gemm " << i;
  }
  EXPECT_GT(result.timing.time_us, 0.0);
  EXPECT_GT(result.summary.plan.num_blocks(), 0);
}

TEST(BatchedGemmCall, MismatchedArraysThrow) {
  Matrixf a(4, 4), b(4, 4), c(4, 4);
  const std::vector<const Matrixf*> av{&a};
  const std::vector<const Matrixf*> bv{&b, &b};
  std::vector<Matrixf*> cv{&c};
  EXPECT_THROW(batched_gemm(av, bv, cv, 1.0f, 0.0f), CheckError);
}

TEST(BatchedGemmCall, NullPointerThrows) {
  Matrixf a(4, 4), b(4, 4), c(4, 4);
  const std::vector<const Matrixf*> av{&a};
  const std::vector<const Matrixf*> bv{nullptr};
  std::vector<Matrixf*> cv{&c};
  EXPECT_THROW(batched_gemm(av, bv, cv, 1.0f, 0.0f), CheckError);
}

// ------------------------------------------- degenerate-input contract --
// batched_gemm must reject these with CheckError before writing to any C
// matrix (contract documented in core/api.hpp).

TEST(BatchedGemmCall, EmptyBatchThrows) {
  const std::vector<const Matrixf*> none;
  std::vector<Matrixf*> out;
  EXPECT_THROW(batched_gemm(none, none, out, 1.0f, 0.0f), CheckError);
  const std::vector<GemmEntry> entries;
  EXPECT_THROW(batched_gemm(entries, 1.0f, 0.0f), CheckError);
}

TEST(BatchedGemmCall, ZeroDimThrows) {
  {
    Matrixf a(0, 4), b(4, 4), c(0, 4);  // m == 0
    const std::vector<const Matrixf*> av{&a}, bv{&b};
    std::vector<Matrixf*> cv{&c};
    EXPECT_THROW(batched_gemm(av, bv, cv, 1.0f, 0.0f), CheckError);
  }
  {
    Matrixf a(4, 0), b(0, 4), c(4, 4);  // k == 0
    const std::vector<const Matrixf*> av{&a}, bv{&b};
    std::vector<Matrixf*> cv{&c};
    EXPECT_THROW(batched_gemm(av, bv, cv, 1.0f, 0.0f), CheckError);
  }
}

TEST(BatchedGemmCall, InnerDimMismatchThrows) {
  Matrixf a(4, 8), b(6, 4), c(4, 4);  // a.cols != b.rows
  const std::vector<const Matrixf*> av{&a}, bv{&b};
  std::vector<Matrixf*> cv{&c};
  EXPECT_THROW(batched_gemm(av, bv, cv, 1.0f, 0.0f), CheckError);
}

TEST(BatchedGemmCall, OutputShapeMismatchThrows) {
  Matrixf a(4, 8), b(8, 4), c(4, 5);  // c must be 4x4
  const std::vector<const Matrixf*> av{&a}, bv{&b};
  std::vector<Matrixf*> cv{&c};
  const float before = c(0, 0);
  EXPECT_THROW(batched_gemm(av, bv, cv, 1.0f, 0.0f), CheckError);
  EXPECT_EQ(c(0, 0), before);
}

TEST(PolicyNames, AllDistinct) {
  std::set<std::string> names;
  for (BatchingPolicy p :
       {BatchingPolicy::kThresholdOnly, BatchingPolicy::kBinaryOnly,
        BatchingPolicy::kAutoOffline, BatchingPolicy::kRandomForest,
        BatchingPolicy::kTilingOnly}) {
    names.insert(to_string(p));
  }
  EXPECT_EQ(names.size(), 5u);
}

// When auto-offline keeps its uniform candidate, the plan is exactly the
// vbatch grid uniform_plan builds (inception 3b's stage-1 dispatch is one
// such batch).
TEST(AutoOffline, UniformWinnerIsUniformPlan) {
  std::vector<GemmDims> dims;
  for (const ConvShape* s : googlenet_inception_modules().at(1).stage1())
    dims.push_back(s->gemm_dims(1));
  const PlanSummary summary = BatchedGemmPlanner{}.plan(dims);
  const TilingStrategy& u = magma_uniform_strategy(dims);
  ASSERT_EQ(summary.tiling.per_gemm.front(), &u) << "uniform did not win";
  EXPECT_TRUE(summary.plan == uniform_plan(dims, u));
}

}  // namespace
}  // namespace ctb
