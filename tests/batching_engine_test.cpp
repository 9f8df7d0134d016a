#include <gtest/gtest.h>

#include <numeric>

#include "core/batching_engine.hpp"
#include "core/tiling_engine.hpp"
#include "kernels/functional.hpp"
#include "util/assert.hpp"

namespace ctb {
namespace {

const TilingStrategy& small256() {
  return batched_strategy(TileShape::kSmall, ThreadVariant::k256);
}

std::vector<Tile> tiles_for(const std::vector<GemmDims>& dims) {
  std::vector<const TilingStrategy*> strategies(dims.size(), &small256());
  return enumerate_tiles(dims, strategies);
}

// ------------------------------------------------------ enumerate_tiles --

TEST(EnumerateTiles, CountsAndCoordinates) {
  const std::vector<GemmDims> dims = {{32, 48, 64}};
  const auto tiles = tiles_for(dims);
  // 2 x 3 tiles of 16x16.
  ASSERT_EQ(tiles.size(), 6u);
  EXPECT_EQ(tiles[0].ty, 0);
  EXPECT_EQ(tiles[0].tx, 0);
  EXPECT_EQ(tiles[5].ty, 1);
  EXPECT_EQ(tiles[5].tx, 2);
  for (const auto& t : tiles) {
    EXPECT_EQ(t.gemm, 0);
    EXPECT_EQ(t.k, 64);
  }
}

TEST(EnumerateTiles, CeilCoverageOnNonMultiples) {
  const std::vector<GemmDims> dims = {{17, 31, 8}};
  EXPECT_EQ(tiles_for(dims).size(), 4u);  // 2 x 2
}

TEST(EnumerateTiles, MultiGemmOrdering) {
  const std::vector<GemmDims> dims = {{16, 16, 8}, {16, 32, 8}};
  const auto tiles = tiles_for(dims);
  ASSERT_EQ(tiles.size(), 3u);
  EXPECT_EQ(tiles[0].gemm, 0);
  EXPECT_EQ(tiles[1].gemm, 1);
  EXPECT_EQ(tiles[2].gemm, 1);
}

// ------------------------------------------------------------ batch_none --

TEST(BatchNone, OneTilePerBlock) {
  const std::vector<GemmDims> dims = {{64, 64, 128}};
  const auto tiles = tiles_for(dims);
  const BatchPlan plan = batch_none(tiles, 256);
  EXPECT_EQ(plan.num_blocks(), static_cast<int>(tiles.size()));
  EXPECT_EQ(plan.num_tiles(), static_cast<int>(tiles.size()));
  for (int b = 0; b < plan.num_blocks(); ++b) {
    const auto [begin, end] = plan.block_tiles(b);
    EXPECT_EQ(end - begin, 1);
  }
  validate_plan(plan, dims);
}

// ------------------------------------------------------- batch_threshold --

TEST(BatchThreshold, BatchesWhenTlpAbundant) {
  // 1024 tiles of K=32 with threshold 65536: TLP = 1024*256 = 262144 >
  // 32768, so blocks fill to sum K > 256 -> 9 tiles per block.
  const std::vector<GemmDims> dims(64, GemmDims{64, 64, 32});
  const auto tiles = tiles_for(dims);
  ASSERT_EQ(tiles.size(), 1024u);
  const BatchPlan plan =
      batch_threshold(tiles, 256, BatchingConfig{256, 65536});
  EXPECT_LT(plan.num_blocks(), static_cast<int>(tiles.size()));
  validate_plan(plan, dims);
  // Every multi-tile block's K sum exceeds theta (except possibly the last).
  for (int b = 0; b + 1 < plan.num_blocks(); ++b) {
    const auto [begin, end] = plan.block_tiles(b);
    if (end - begin == 1) continue;
    long long sum_k = 0;
    for (int t = begin; t < end; ++t)
      sum_k += dims[static_cast<std::size_t>(
                        plan.gemm_of_tile[static_cast<std::size_t>(t)])]
                   .k;
    EXPECT_GT(sum_k, 256);
  }
}

TEST(BatchThreshold, OneTilePerBlockWhenTlpScarce) {
  // 4 tiles total: TLP = 4*256 = 1024 <= 32768 -> no batching at all.
  const std::vector<GemmDims> dims = {{32, 32, 32}};
  const auto tiles = tiles_for(dims);
  const BatchPlan plan =
      batch_threshold(tiles, 256, BatchingConfig{256, 65536});
  EXPECT_EQ(plan.num_blocks(), 4);
  validate_plan(plan, dims);
}

TEST(BatchThreshold, StopsBatchingOnceTlpSpent) {
  // Slightly above the boundary: once enough tiles are consumed, the
  // remaining ones must go one per block.
  const std::vector<GemmDims> dims(9, GemmDims{64, 64, 64});
  const auto tiles = tiles_for(dims);  // 144 tiles; TLP = 36864 > 32768
  const BatchPlan plan =
      batch_threshold(tiles, 256, BatchingConfig{256, 65536});
  validate_plan(plan, dims);
  // The tail blocks hold exactly one tile.
  const auto [lb, le] = plan.block_tiles(plan.num_blocks() - 1);
  EXPECT_EQ(le - lb, 1);
  // And batching happened at the front.
  const auto [fb, fe] = plan.block_tiles(0);
  EXPECT_GT(fe - fb, 1);
}

TEST(BatchThreshold, DeepKTilesGetTheirOwnBlock) {
  // K = 1024 >= theta: the first tile already exceeds theta, one per block
  // even with TLP to spare.
  const std::vector<GemmDims> dims(256, GemmDims{16, 16, 1024});
  const auto tiles = tiles_for(dims);
  const BatchPlan plan =
      batch_threshold(tiles, 256, BatchingConfig{256, 65536});
  validate_plan(plan, dims);
  for (int b = 0; b < plan.num_blocks(); ++b) {
    const auto [begin, end] = plan.block_tiles(b);
    EXPECT_EQ(end - begin, 1);
  }
}

// ---------------------------------------------------------- batch_binary --

TEST(BatchBinary, PairsMinWithMax) {
  std::vector<GemmDims> dims = {
      {16, 16, 16}, {16, 16, 512}, {16, 16, 64}, {16, 16, 128}};
  const auto tiles = tiles_for(dims);
  const BatchPlan plan = batch_binary(tiles, 256, BatchingConfig{256, 65536});
  validate_plan(plan, dims);
  // K=512 >= theta gets its own block under the deep-K guard, then min/max
  // pairing gives {16,128} and the leftover {64}: 3 blocks total.
  EXPECT_EQ(plan.num_blocks(), 3);
}

TEST(BatchBinary, DeepTileSingletonGuard) {
  std::vector<GemmDims> dims = {{16, 16, 16}, {16, 16, 512}};
  const auto tiles = tiles_for(dims);
  const BatchPlan plan = batch_binary(tiles, 256, BatchingConfig{256, 65536});
  validate_plan(plan, dims);
  ASSERT_EQ(plan.num_blocks(), 2);  // 512 alone, 16 alone
}

TEST(BatchBinary, AtMostTwoTilesPerBlock) {
  std::vector<GemmDims> dims;
  for (int i = 0; i < 33; ++i) dims.push_back(GemmDims{16, 16, 16 + i});
  const auto tiles = tiles_for(dims);
  const BatchPlan plan = batch_binary(tiles, 256, BatchingConfig{256, 65536});
  validate_plan(plan, dims);
  for (int b = 0; b < plan.num_blocks(); ++b) {
    const auto [begin, end] = plan.block_tiles(b);
    EXPECT_LE(end - begin, 2);
    EXPECT_GE(end - begin, 1);
  }
}

TEST(BatchBinary, OddCountLeavesSingleton) {
  std::vector<GemmDims> dims = {{16, 16, 10}, {16, 16, 20}, {16, 16, 30}};
  const auto tiles = tiles_for(dims);
  const BatchPlan plan = batch_binary(tiles, 256, BatchingConfig{256, 65536});
  validate_plan(plan, dims);
  EXPECT_EQ(plan.num_blocks(), 2);  // {10,30} and {20}
}

TEST(BatchBinary, PairSumsClusterNearTheta) {
  // Ks spread uniformly: pairing min-max keeps sums near constant.
  std::vector<GemmDims> dims;
  for (int k = 16; k <= 240; k += 16) dims.push_back(GemmDims{16, 16, k});
  const auto tiles = tiles_for(dims);
  const BatchPlan plan = batch_binary(tiles, 256, BatchingConfig{256, 65536});
  validate_plan(plan, dims);
  for (int b = 0; b < plan.num_blocks(); ++b) {
    const auto [begin, end] = plan.block_tiles(b);
    if (end - begin != 2) continue;
    const int k0 = dims[static_cast<std::size_t>(
                            plan.gemm_of_tile[static_cast<std::size_t>(
                                begin)])]
                       .k;
    const int k1 = dims[static_cast<std::size_t>(
                            plan.gemm_of_tile[static_cast<std::size_t>(
                                begin + 1)])]
                       .k;
    EXPECT_EQ(k0 + k1, 256);  // 16+240, 32+224, ...
  }
}

// --------------------------------------------------------------- dispatch --

TEST(BatchTiles, DispatchesOnHeuristic) {
  const std::vector<GemmDims> dims = {{32, 32, 32}};
  const auto tiles = tiles_for(dims);
  EXPECT_EQ(batch_tiles(BatchingHeuristic::kNone, tiles, 256).num_blocks(),
            4);
  EXPECT_LE(batch_tiles(BatchingHeuristic::kBinary, tiles, 256).num_blocks(),
            4);
}

TEST(BatchTiles, HeuristicNames) {
  EXPECT_STREQ(to_string(BatchingHeuristic::kThreshold), "threshold");
  EXPECT_STREQ(to_string(BatchingHeuristic::kBinary), "binary");
  EXPECT_STREQ(to_string(BatchingHeuristic::kNone), "none");
}

// ------------------------------------------------------------- validation --

TEST(ValidatePlan, DetectsDuplicateTile) {
  const std::vector<GemmDims> dims = {{16, 16, 8}};
  const auto tiles = tiles_for(dims);
  BatchPlan plan = batch_none(tiles, 256);
  // Duplicate the only tile into a second block.
  plan.gemm_of_tile.push_back(plan.gemm_of_tile[0]);
  plan.strategy_of_tile.push_back(plan.strategy_of_tile[0]);
  plan.y_coord.push_back(plan.y_coord[0]);
  plan.x_coord.push_back(plan.x_coord[0]);
  plan.tile_offsets.push_back(2);
  EXPECT_THROW(validate_plan(plan, dims), CheckError);
}

TEST(ValidatePlan, DetectsMissingTile) {
  const std::vector<GemmDims> dims = {{32, 16, 8}};  // 2 tiles
  const auto tiles = tiles_for(dims);
  std::vector<Tile> partial(tiles.begin(), tiles.begin() + 1);
  const BatchPlan plan = batch_none(partial, 256);
  EXPECT_THROW(validate_plan(plan, dims), CheckError);
}

TEST(ValidatePlan, DetectsOutOfRangeCoordinate) {
  const std::vector<GemmDims> dims = {{16, 16, 8}};
  BatchPlan plan = batch_none(tiles_for(dims), 256);
  plan.x_coord[0] = 5;
  EXPECT_THROW(validate_plan(plan, dims), CheckError);
}

TEST(ValidatePlan, DetectsForeignGemmIndex) {
  const std::vector<GemmDims> dims = {{16, 16, 8}};
  BatchPlan plan = batch_none(tiles_for(dims), 256);
  plan.gemm_of_tile[0] = 3;
  EXPECT_THROW(validate_plan(plan, dims), CheckError);
}

TEST(ValidatePlan, DetectsThreadStructureViolation) {
  const std::vector<GemmDims> dims = {{16, 16, 8}};
  BatchPlan plan = batch_none(tiles_for(dims), 256);
  plan.block_threads = 128;  // tiles were tiled with 256-thread strategies
  EXPECT_THROW(validate_plan(plan, dims), CheckError);
}

TEST(BuildPlan, RejectsMixedThreadVariants) {
  Tile t1{0, 0, 0, 8, 0, 0, &batched_strategy(TileShape::kSmall,
                                        ThreadVariant::k256)};
  Tile t2{1, 0, 0, 8, 0, 0, &batched_strategy(TileShape::kSmall,
                                        ThreadVariant::k128)};
  const std::vector<std::vector<Tile>> blocks = {{t1}, {t2}};
  EXPECT_THROW(build_plan(blocks, 256), CheckError);
}

TEST(BuildPlan, FootprintIsMaxOverStrategies) {
  const auto& small = batched_strategy(TileShape::kSmall,
                                       ThreadVariant::k256);
  const auto& huge = batched_strategy(TileShape::kHuge, ThreadVariant::k256);
  Tile t1{0, 0, 0, 8, 0, 0, &small};
  Tile t2{1, 0, 0, 8, 0, 0, &huge};
  const std::vector<std::vector<Tile>> blocks = {{t1}, {t2}};
  const BatchPlan plan = build_plan(blocks, 256);
  EXPECT_EQ(plan.smem_bytes, huge.smem_bytes());
  EXPECT_EQ(plan.regs_per_thread, huge.regs_per_thread());
}

TEST(PlanToString, RendersAuxArrays) {
  const std::vector<GemmDims> dims = {{16, 32, 8}};
  const BatchPlan plan = batch_none(tiles_for(dims), 256);
  const std::string s = to_string(plan);
  EXPECT_NE(s.find("Tile:"), std::string::npos);
  EXPECT_NE(s.find("GEMM:"), std::string::npos);
  EXPECT_NE(s.find("Y_Coord:"), std::string::npos);
}

// Paper Fig. 6's worked layout: two 128x128 tiles for GEMM 0 (huge) and
// eight 128x64 tiles for GEMM 1 (tall), six blocks, block 2 holding two
// tiles of GEMM 1.
TEST(BatchPlan, PaperFigure6Layout) {
  const auto& huge = batched_strategy(TileShape::kHuge, ThreadVariant::k256);
  const auto& tall = batched_strategy(TileShape::kTall, ThreadVariant::k256);
  const std::vector<GemmDims> dims = {{128, 256, 64}, {512, 128, 64}};
  // GEMM 0: 1x2 huge tiles. GEMM 1: 4x2 tall tiles... the figure uses eight
  // 128x64 tiles => 4 rows x 2 cols.
  std::vector<const TilingStrategy*> strategies = {&huge, &tall};
  const auto tiles = enumerate_tiles(dims, strategies);
  ASSERT_EQ(tiles.size(), 10u);
  // Six blocks: each of GEMM 0's tiles alone, GEMM 1's eight tiles in pairs.
  std::vector<std::vector<Tile>> blocks = {
      {tiles[0]},           {tiles[1]},           {tiles[2], tiles[3]},
      {tiles[4], tiles[5]}, {tiles[6], tiles[7]}, {tiles[8], tiles[9]}};
  const BatchPlan plan = build_plan(blocks, 256);
  validate_plan(plan, dims);
  EXPECT_EQ(plan.num_blocks(), 6);
  const auto [b2begin, b2end] = plan.block_tiles(2);
  EXPECT_EQ(b2end - b2begin, 2);
  EXPECT_EQ(plan.gemm_of_tile[static_cast<std::size_t>(b2begin)], 1);
}

// uniform_plan is the vbatch grid: for every Table-2 strategy over a ragged
// batch it passes validate_plan, puts one tile per block in enumerate_tiles
// order, and executes bit for bit like reference_gemm.
TEST(UniformPlan, OneTilePerBlockInEnumerationOrderAndBitExact) {
  const std::vector<GemmDims> dims = {
      {40, 72, 24}, {128, 16, 9}, {5, 130, 33}, {96, 96, 8}, {17, 23, 64}};
  for (const TilingStrategy& s : batched_strategies()) {
    SCOPED_TRACE(s.name());
    const BatchPlan plan = uniform_plan(dims, s);
    EXPECT_NO_THROW(validate_plan(plan, dims));
    EXPECT_EQ(plan.block_threads, s.threads);
    const std::vector<const TilingStrategy*> strategies(dims.size(), &s);
    const std::vector<Tile> tiles = enumerate_tiles(dims, strategies);
    ASSERT_EQ(plan.num_tiles(), static_cast<int>(tiles.size()));
    ASSERT_EQ(plan.num_blocks(), plan.num_tiles());
    for (int t = 0; t < plan.num_tiles(); ++t) {
      const auto ti = static_cast<std::size_t>(t);
      EXPECT_EQ(plan.block_tiles(t), std::make_pair(t, t + 1));
      EXPECT_EQ(plan.gemm_of_tile[ti], tiles[ti].gemm);
      EXPECT_EQ(plan.y_coord[ti], tiles[ti].ty);
      EXPECT_EQ(plan.x_coord[ti], tiles[ti].tx);
      EXPECT_EQ(plan.strategy_of_tile[ti], s.id);
    }

    Rng rng(static_cast<std::uint64_t>(s.id) + 7);
    std::vector<Matrixf> a, b, c, want;
    for (const GemmDims& d : dims) {
      a.emplace_back(static_cast<std::size_t>(d.m), static_cast<std::size_t>(d.k));
      b.emplace_back(static_cast<std::size_t>(d.k), static_cast<std::size_t>(d.n));
      c.emplace_back(static_cast<std::size_t>(d.m), static_cast<std::size_t>(d.n));
      fill_random(a.back(), rng);
      fill_random(b.back(), rng);
      fill_random(c.back(), rng);
      want.push_back(c.back());
    }
    std::vector<GemmOperands> ops;
    for (std::size_t i = 0; i < dims.size(); ++i) {
      ops.push_back(operands(a[i], b[i], c[i]));
      reference_gemm(operands(a[i], b[i], want[i]), 1.25f, 0.5f);
    }
    execute_plan(plan, ops, 1.25f, 0.5f);
    for (std::size_t i = 0; i < dims.size(); ++i)
      EXPECT_TRUE(c[i] == want[i]) << "gemm " << i;
  }
}

TEST(UniformPlan, RejectsTable1Strategies) {
  const std::vector<GemmDims> dims = {{32, 32, 32}};
  for (const TilingStrategy& s : single_gemm_strategies())
    EXPECT_THROW(uniform_plan(dims, s), CheckError) << s.name();
}

}  // namespace
}  // namespace ctb
