#include <gtest/gtest.h>

#include "baselines/baselines.hpp"
#include "core/api.hpp"
#include "linalg/gemm_ref.hpp"

namespace ctb {
namespace {

const GpuArch& v100() { return gpu_arch(GpuModel::kV100); }

// --------------------------------------------------- single-GEMM heuristic --

TEST(SingleGemmHeuristic, HugeMatrixGetsHugeTile) {
  EXPECT_EQ(single_gemm_heuristic(GemmDims{5120, 5120, 5120}, v100()).shape,
            TileShape::kHuge);
}

TEST(SingleGemmHeuristic, SmallMatrixGetsSmallTile) {
  // Paper Section 4: "the optimal tile strategy is always prone to small
  // tile" for small matrices.
  EXPECT_EQ(single_gemm_heuristic(GemmDims{128, 128, 64}, v100()).shape,
            TileShape::kSmall);
}

TEST(SingleGemmHeuristic, TinyMatrixStillLaunchable) {
  const auto& s = single_gemm_heuristic(GemmDims{4, 4, 4}, v100());
  EXPECT_EQ(s.shape, TileShape::kSmall);
}

TEST(SingleGemmHeuristic, MidMatrixBalances) {
  // 1024x1024: enough tiles for medium-large tiles to win on reuse.
  const auto& s = single_gemm_heuristic(GemmDims{1024, 1024, 512}, v100());
  EXPECT_GE(static_cast<int>(s.shape), static_cast<int>(TileShape::kMedium));
}

// ----------------------------------------------------------------- default --

TEST(DefaultBaseline, TimeIncludesPerKernelLaunch) {
  const std::vector<GemmDims> dims(10, GemmDims{16, 16, 16});
  const BaselineResult r = run_default_timed(v100(), dims);
  EXPECT_GE(r.time_us, 10 * v100().kernel_launch_us);
}

TEST(DefaultBaseline, ScalesWithBatch) {
  const std::vector<GemmDims> d8(8, GemmDims{64, 64, 64});
  const std::vector<GemmDims> d16(16, GemmDims{64, 64, 64});
  EXPECT_NEAR(run_default_timed(v100(), d16).time_us /
                  run_default_timed(v100(), d8).time_us,
              2.0, 0.1);
}

// --------------------------------------------------------------------- cke --

TEST(CkeBaseline, FasterThanDefaultForSmallGemms) {
  // Many small kernels leave the GPU idle under serial execution.
  const std::vector<GemmDims> dims(16, GemmDims{64, 64, 64});
  const double serial = run_default_timed(v100(), dims).time_us;
  const double cke = run_cke_timed(v100(), dims, 16).time_us;
  EXPECT_LT(cke, serial);
}

TEST(CkeBaseline, MoreStreamsNoSlower) {
  const std::vector<GemmDims> dims(32, GemmDims{32, 32, 64});
  const double s4 = run_cke_timed(v100(), dims, 4).time_us;
  const double s16 = run_cke_timed(v100(), dims, 16).time_us;
  EXPECT_LE(s16, s4 * 1.05);
}

TEST(CkeBaseline, InvalidStreamCountThrows) {
  const std::vector<GemmDims> dims(2, GemmDims{16, 16, 16});
  EXPECT_THROW(run_cke_timed(v100(), dims, 0), CheckError);
}

// ----------------------------------------------------------- same-size API --

TEST(SameSizeBatched, RejectsMixedSizes) {
  // The cublasSgemmBatched restriction the paper calls out.
  const std::vector<GemmDims> dims = {{16, 16, 16}, {32, 16, 16}};
  EXPECT_THROW(run_samesize_batched_timed(v100(), dims), CheckError);
}

TEST(SameSizeBatched, BeatsDefaultForManySmallGemms) {
  const std::vector<GemmDims> dims(64, GemmDims{32, 32, 64});
  EXPECT_LT(run_samesize_batched_timed(v100(), dims).time_us,
            run_default_timed(v100(), dims).time_us);
}

TEST(MagmaBaseline, SingleKernelLaunchOverheadOnly) {
  const std::vector<GemmDims> dims(32, GemmDims{16, 16, 16});
  const BaselineResult r = run_magma_timed(v100(), dims);
  // One launch, not 32.
  EXPECT_LT(r.time_us, run_default_timed(v100(), dims).time_us);
}

TEST(MagmaBaseline, BubbleBlocksAppearForMixedSizes) {
  const std::vector<GemmDims> dims = {{16, 16, 16}, {128, 128, 16}};
  const BaselineResult r = run_magma_timed(v100(), dims);
  EXPECT_GT(r.sim.bubble_blocks, 0);
}

TEST(MagmaBaseline, NoBubblesForEqualSizes) {
  const std::vector<GemmDims> dims(8, GemmDims{64, 64, 32});
  const BaselineResult r = run_magma_timed(v100(), dims);
  EXPECT_EQ(r.sim.bubble_blocks, 0);
}

// --------------------------------------- framework versus baselines (shape) --

TEST(FrameworkVsBaselines, BeatsMagmaOnSmallBatchSmallGemms) {
  // The paper's headline case: small matrices, small batch.
  const std::vector<GemmDims> dims(4, GemmDims{128, 128, 256});
  const double magma = run_magma_timed(v100(), dims).time_us;
  PlannerConfig config;
  const BatchedGemmPlanner planner(config);
  const PlanSummary s = planner.plan(dims);
  const double ours = time_plan(v100(), s.plan, dims).time_us;
  EXPECT_LT(ours, magma);
}

TEST(FrameworkVsBaselines, BeatsDefaultAcrossTheBoard) {
  for (int batch : {4, 16, 64}) {
    const std::vector<GemmDims> dims(static_cast<std::size_t>(batch),
                                     GemmDims{64, 64, 128});
    const double dflt = run_default_timed(v100(), dims).time_us;
    const BatchedGemmPlanner planner{PlannerConfig{}};
    const double ours =
        time_plan(v100(), planner.plan(dims).plan, dims).time_us;
    EXPECT_LT(ours, dflt) << "batch " << batch;
  }
}

TEST(FrameworkVsBaselines, ComparableToMagmaOnLargeUniformBatch) {
  // When everything is big, the coordination advantage shrinks (paper
  // observation 3); we should never be dramatically worse.
  const std::vector<GemmDims> dims(64, GemmDims{512, 512, 512});
  const double magma = run_magma_timed(v100(), dims).time_us;
  const BatchedGemmPlanner planner{PlannerConfig{}};
  const double ours =
      time_plan(v100(), planner.plan(dims).plan, dims).time_us;
  EXPECT_LT(ours, magma * 1.1);
}

}  // namespace
}  // namespace ctb
