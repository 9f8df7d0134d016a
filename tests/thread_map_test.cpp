#include <gtest/gtest.h>

#include "kernels/thread_map.hpp"

namespace ctb {
namespace {

class ThreadMapAllStrategies : public ::testing::TestWithParam<int> {};

// The sub-tiles of all threads must tile BY x BX exactly: whole sub-tiles
// along both axes, one per thread, so every cell is covered once.
void expect_sub_tiles_partition(const TilingStrategy& s) {
  EXPECT_EQ(s.by % s.sub_y, 0) << s.name();
  EXPECT_EQ(s.bx % s.sub_x, 0) << s.name();
  EXPECT_EQ((s.by / s.sub_y) * (s.bx / s.sub_x), s.threads) << s.name();
}

TEST_P(ThreadMapAllStrategies, ExactTilePartition) {
  expect_sub_tiles_partition(batched_strategy_by_id(GetParam()));
}

TEST_P(ThreadMapAllStrategies, ActiveThreadsFullTile) {
  const TilingStrategy& s = batched_strategy_by_id(GetParam());
  EXPECT_EQ(active_threads_for_tile(s, s.by, s.bx), s.threads);
}

TEST_P(ThreadMapAllStrategies, ActiveThreadsSingleCell) {
  const TilingStrategy& s = batched_strategy_by_id(GetParam());
  EXPECT_EQ(active_threads_for_tile(s, 1, 1), 1);
}

INSTANTIATE_TEST_SUITE_P(Ids, ThreadMapAllStrategies,
                         ::testing::Range(0, 12));

TEST(ThreadMap, Table1StrategiesAlsoPartition) {
  for (const auto& s : single_gemm_strategies()) expect_sub_tiles_partition(s);
}

TEST(ThreadMap, ActiveThreadsHalfTile) {
  // large/256 (sub 4x4): a 32x64 clamp covers ceil(32/4)*ceil(64/4)
  // = 8*16 = 128 threads of 256.
  const auto& s = batched_strategy(TileShape::kLarge, ThreadVariant::k256);
  EXPECT_EQ(active_threads_for_tile(s, 32, 64), 128);
}

TEST(ThreadMap, ActiveThreadsRoundsUpPartialSubTiles) {
  // small/256 (sub 1x1): a 3x5 clamp needs exactly 15 threads.
  const auto& s = batched_strategy(TileShape::kSmall, ThreadVariant::k256);
  EXPECT_EQ(active_threads_for_tile(s, 3, 5), 15);
  // small/128 (sub 2x1): 3 rows span ceil(3/2)=2 sub-rows -> 2*5 = 10.
  const auto& s128 = batched_strategy(TileShape::kSmall, ThreadVariant::k128);
  EXPECT_EQ(active_threads_for_tile(s128, 3, 5), 10);
}

}  // namespace
}  // namespace ctb
