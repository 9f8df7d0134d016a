// Cross-module integration: random batched-GEMM cases flow through the full
// planner and every execution path, checking plan invariants, functional
// correctness against the host reference, and cross-executor agreement.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "baselines/baselines.hpp"
#include "core/api.hpp"
#include "core/rf_policy.hpp"
#include "kernels/work_builder.hpp"
#include "linalg/gemm_ref.hpp"
#include "core/batching_engine.hpp"

namespace ctb {
namespace {

/// Runs `batch` through the one executor as the uniform grid (one tile per
/// block) of the Table-2 strategy `s` names by id, or of the one with the
/// same BY x BX when `s` is a Table-1 strategy (on the host only the tile
/// shape matters), carrying the operands' epilogues in the plan.
void run_uniform(const TilingStrategy& s, std::span<const GemmOperands> batch,
                 float alpha, float beta) {
  std::vector<GemmDims> dims;
  std::vector<int> epilogues;
  for (const GemmOperands& g : batch) {
    dims.push_back(g.dims);
    epilogues.push_back(g.epilogue);
  }
  BatchPlan plan =
      uniform_plan(dims, s.id >= 0 ? batched_strategy_by_id(s.id)
                                   : batched_strategy(s.shape,
                                                      ThreadVariant::k256));
  plan.epilogue_of_gemm = epilogues;
  execute_plan(plan, batch, alpha, beta);
}

void run_uniform(const TilingStrategy& s, const GemmOperands& g, float alpha,
                 float beta) {
  run_uniform(s, {&g, 1}, alpha, beta);
}

Matrixf rand_mat(int r, int c, Rng& rng) {
  Matrixf m(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
  fill_random(m, rng);
  return m;
}

class RandomCases : public ::testing::TestWithParam<int> {};

TEST_P(RandomCases, FullPipelineCorrectAndValid) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
  CaseRanges ranges;
  ranges.min_batch = 1;
  ranges.max_batch = 6;
  ranges.min_mn = 1;   // include degenerate single-row/col GEMMs
  ranges.max_mn = 150;
  ranges.min_k = 1;
  ranges.max_k = 200;
  const std::vector<GemmDims> dims = random_batch(rng, ranges);

  std::vector<Matrixf> as, bs, cs, refs;
  for (const auto& d : dims) {
    as.push_back(rand_mat(d.m, d.k, rng));
    bs.push_back(rand_mat(d.k, d.n, rng));
    cs.push_back(rand_mat(d.m, d.n, rng));
    refs.push_back(cs.back());
  }
  const float alpha = rng.uniform_float(0.5f, 2.0f);
  const float beta = rng.bernoulli(0.5) ? 0.0f : rng.uniform_float(-1, 1);
  for (std::size_t i = 0; i < dims.size(); ++i)
    gemm_naive(as[i], bs[i], refs[i], alpha, beta);

  // Try every batching policy on the same problem.
  for (BatchingPolicy policy :
       {BatchingPolicy::kTilingOnly, BatchingPolicy::kThresholdOnly,
        BatchingPolicy::kBinaryOnly}) {
    PlannerConfig config;
    config.policy = policy;
    const BatchedGemmPlanner planner(config);
    const PlanSummary s = planner.plan(dims);
    ASSERT_NO_THROW(validate_plan(s.plan, dims)) << to_string(policy);

    std::vector<Matrixf> outs;
    std::vector<GemmOperands> ops;
    for (std::size_t i = 0; i < dims.size(); ++i) {
      outs.push_back(cs[i]);
    }
    for (std::size_t i = 0; i < dims.size(); ++i)
      ops.push_back(operands(as[i], bs[i], outs[i]));
    execute_plan(s.plan, ops, alpha, beta);
    for (std::size_t i = 0; i < dims.size(); ++i) {
      EXPECT_TRUE(allclose(outs[i], refs[i]))
          << to_string(policy) << " seed=" << seed << " gemm=" << i
          << " dims=" << dims[i].m << "x" << dims[i].n << "x" << dims[i].k;
    }

    // The plan must also be simulatable on every architecture preset.
    const TimedResult t =
        time_plan(gpu_arch(GpuModel::kV100), s.plan, dims);
    EXPECT_GT(t.time_us, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCases, ::testing::Range(0, 25));

class RandomOpsCases : public ::testing::TestWithParam<int> {};

TEST_P(RandomOpsCases, TransposedBatchesMatchReference) {
  // Random batches with random per-GEMM transpose ops flow through the
  // GemmEntry API and match gemm_naive_ops.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const int batch = static_cast<int>(rng.uniform_int(1, 5));
  std::vector<GemmDims> dims;
  std::vector<Op> ops_a, ops_b;
  std::vector<Matrixf> as, bs, cs, refs;
  for (int i = 0; i < batch; ++i) {
    GemmDims d;
    d.m = static_cast<int>(rng.log_uniform_int(1, 100));
    d.n = static_cast<int>(rng.log_uniform_int(1, 100));
    d.k = static_cast<int>(rng.log_uniform_int(1, 100));
    dims.push_back(d);
    const Op oa = rng.bernoulli(0.5) ? Op::kT : Op::kN;
    const Op ob = rng.bernoulli(0.5) ? Op::kT : Op::kN;
    ops_a.push_back(oa);
    ops_b.push_back(ob);
    as.push_back(oa == Op::kN ? rand_mat(d.m, d.k, rng)
                              : rand_mat(d.k, d.m, rng));
    bs.push_back(ob == Op::kN ? rand_mat(d.k, d.n, rng)
                              : rand_mat(d.n, d.k, rng));
    cs.push_back(rand_mat(d.m, d.n, rng));
    refs.push_back(cs.back());
  }
  std::vector<GemmEntry> entries(static_cast<std::size_t>(batch));
  for (int i = 0; i < batch; ++i) {
    entries[static_cast<std::size_t>(i)] = GemmEntry{
        &as[static_cast<std::size_t>(i)], &bs[static_cast<std::size_t>(i)],
        &cs[static_cast<std::size_t>(i)], ops_a[static_cast<std::size_t>(i)],
        ops_b[static_cast<std::size_t>(i)]};
  }
  const float alpha = rng.uniform_float(0.5f, 1.5f);
  const float beta = rng.bernoulli(0.5) ? 0.0f : 0.5f;
  batched_gemm(entries, alpha, beta);
  for (int i = 0; i < batch; ++i) {
    gemm_naive_ops(ops_a[static_cast<std::size_t>(i)],
                   ops_b[static_cast<std::size_t>(i)],
                   as[static_cast<std::size_t>(i)],
                   bs[static_cast<std::size_t>(i)],
                   refs[static_cast<std::size_t>(i)], alpha, beta);
    EXPECT_TRUE(allclose(cs[static_cast<std::size_t>(i)],
                         refs[static_cast<std::size_t>(i)]))
        << "seed=" << GetParam() << " gemm=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomOpsCases, ::testing::Range(0, 15));

class RandomFp16Cases : public ::testing::TestWithParam<int> {};

TEST_P(RandomFp16Cases, Fp16BatchesMatchFp16Reference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 3);
  const int batch = static_cast<int>(rng.uniform_int(1, 4));
  std::vector<GemmDims> dims;
  std::vector<Matrixf> as, bs, cs, refs;
  std::vector<GemmEntry> entries;
  for (int i = 0; i < batch; ++i) {
    GemmDims d;
    d.m = static_cast<int>(rng.log_uniform_int(1, 64));
    d.n = static_cast<int>(rng.log_uniform_int(1, 64));
    d.k = static_cast<int>(rng.log_uniform_int(1, 64));
    dims.push_back(d);
    as.push_back(rand_mat(d.m, d.k, rng));
    bs.push_back(rand_mat(d.k, d.n, rng));
    cs.emplace_back(static_cast<std::size_t>(d.m),
                    static_cast<std::size_t>(d.n));
    refs.emplace_back(static_cast<std::size_t>(d.m),
                      static_cast<std::size_t>(d.n));
  }
  for (int i = 0; i < batch; ++i)
    entries.push_back(GemmEntry{&as[static_cast<std::size_t>(i)],
                                &bs[static_cast<std::size_t>(i)],
                                &cs[static_cast<std::size_t>(i)]});
  PlannerConfig config;
  config.precision = Precision::kFp16;
  batched_gemm(entries, 1.0f, 0.0f, config);
  for (int i = 0; i < batch; ++i) {
    gemm_naive_fp16(as[static_cast<std::size_t>(i)],
                    bs[static_cast<std::size_t>(i)],
                    refs[static_cast<std::size_t>(i)], 1.0f, 0.0f);
    // Tiling changes accumulation order; compare within fp16 tolerance.
    EXPECT_LT(max_abs_diff(cs[static_cast<std::size_t>(i)],
                           refs[static_cast<std::size_t>(i)]),
              0.1f)
        << "seed=" << GetParam() << " gemm=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFp16Cases, ::testing::Range(0, 10));

TEST(Integration, AllExecutorsAgreeBitExactly) {
  // The same strategy produces bit-identical results through the
  // single-GEMM kernel, the vbatch kernel, and the plan kernel, because all
  // three are the one block sweep and share its tile pipeline.
  Rng rng(555);
  const std::vector<GemmDims> dims = {{48, 80, 72}};
  const Matrixf a = rand_mat(48, 72, rng);
  const Matrixf b = rand_mat(72, 80, rng);
  const Matrixf c0 = rand_mat(48, 80, rng);

  const auto& s = batched_strategy(TileShape::kSmall, ThreadVariant::k256);

  Matrixf c1 = c0;
  {
    const GemmOperands g = operands(a, b, c1);
    run_uniform(s, g, 1.0f, 0.5f);
  }
  Matrixf c2 = c0;
  {
    std::vector<GemmOperands> ops = {operands(a, b, c2)};
    run_uniform(s, ops, 1.0f, 0.5f);
  }
  Matrixf c3 = c0;
  {
    std::vector<const TilingStrategy*> strategies = {&s};
    const auto tiles = enumerate_tiles(dims, strategies);
    const BatchPlan plan = batch_binary(tiles, 256, BatchingConfig{});
    std::vector<GemmOperands> ops = {operands(a, b, c3)};
    execute_plan(plan, ops, 1.0f, 0.5f);
  }
  EXPECT_EQ(max_abs_diff(c1, c2), 0.0f);
  EXPECT_EQ(max_abs_diff(c1, c3), 0.0f);
}

TEST(Integration, TimingAndFunctionalUseSamePlan) {
  const std::vector<GemmDims> dims = {{64, 64, 64}, {32, 96, 128}};
  const BatchedGemmPlanner planner{PlannerConfig{}};
  const PlanSummary s = planner.plan(dims);
  const KernelWork work = work_from_plan(s.plan, dims);
  ASSERT_EQ(static_cast<int>(work.blocks.size()), s.plan.num_blocks());
  // Simulated useful flops equal the problem's flops.
  std::int64_t useful = 0;
  for (const auto& b : work.blocks)
    for (const auto& t : b.tiles) useful += t.flops;
  EXPECT_EQ(useful, dims[0].flops() + dims[1].flops());
}

TEST(Integration, SpeedupTrendAcrossBatchSizes) {
  // Paper observation: the framework's advantage over MAGMA shrinks as the
  // batch grows (more TLP for everyone).
  const GpuArch& arch = gpu_arch(GpuModel::kV100);
  std::vector<double> speedups;
  for (int batch : {4, 64}) {
    const std::vector<GemmDims> dims(static_cast<std::size_t>(batch),
                                     GemmDims{128, 128, 256});
    const double magma = run_magma_timed(arch, dims).time_us;
    const BatchedGemmPlanner planner{PlannerConfig{}};
    const double ours =
        time_plan(arch, planner.plan(dims).plan, dims).time_us;
    speedups.push_back(magma / ours);
  }
  EXPECT_GT(speedups[0], speedups[1]);
  EXPECT_GE(speedups[1], 0.95);  // never materially worse
}

TEST(Integration, SmallKFavorsBatchingEngine) {
  // Paper observation: the batching engine's contribution is highest at
  // small K (pipeline fill amortization).
  const GpuArch& arch = gpu_arch(GpuModel::kV100);
  auto gain = [&](int k) {
    const std::vector<GemmDims> dims(256, GemmDims{128, 128, k});
    PlannerConfig tiling_only;
    tiling_only.policy = BatchingPolicy::kTilingOnly;
    const double none =
        time_plan(arch, BatchedGemmPlanner(tiling_only).plan(dims).plan,
                  dims)
            .time_us;
    PlannerConfig full;
    full.policy = BatchingPolicy::kAutoOffline;
    const double batched =
        time_plan(arch, BatchedGemmPlanner(full).plan(dims).plan, dims)
            .time_us;
    return none / batched;
  };
  EXPECT_GT(gain(16), gain(1024));
}

TEST(Integration, PortabilityAcrossAllArchitectures) {
  // Fig. 11's premise: the framework wins on every supported GPU.
  Rng rng(777);
  CaseRanges ranges;
  ranges.min_batch = 4;
  ranges.max_batch = 16;
  ranges.min_mn = 16;
  ranges.max_mn = 256;
  ranges.min_k = 16;
  ranges.max_k = 512;
  std::vector<std::vector<GemmDims>> cases;
  for (int i = 0; i < 5; ++i) cases.push_back(random_batch(rng, ranges));

  for (GpuModel model : all_gpu_models()) {
    const GpuArch& arch = gpu_arch(model);
    PlannerConfig config;
    config.gpu = model;
    const BatchedGemmPlanner planner(config);
    double magma_total = 0, ours_total = 0;
    for (const auto& dims : cases) {
      magma_total += run_magma_timed(arch, dims).time_us;
      ours_total += time_plan(arch, planner.plan(dims).plan, dims).time_us;
    }
    EXPECT_LT(ours_total, magma_total * 1.05) << arch.name;
  }
}

}  // namespace
}  // namespace ctb
