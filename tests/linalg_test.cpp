#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "linalg/gemm_ref.hpp"
#include "linalg/matrix.hpp"

namespace ctb {
namespace {

// ---------------------------------------------------------------- matrix --

TEST(Matrix, ShapeAndIndexing) {
  Matrixf m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  m(2, 3) = 7.0f;
  EXPECT_EQ(m(2, 3), 7.0f);
  EXPECT_EQ(m.data()[2 * 4 + 3], 7.0f);
}

TEST(Matrix, ViewSharesStorage) {
  Matrixf m(2, 2, 1.0f);
  auto v = m.view();
  v(0, 1) = 5.0f;
  EXPECT_EQ(m(0, 1), 5.0f);
}

TEST(Matrix, BlockViewAddressesSubmatrix) {
  Matrixf m(4, 6);
  fill_pattern(m);
  auto blk = m.view().block(1, 2, 2, 3);
  EXPECT_EQ(blk.rows(), 2u);
  EXPECT_EQ(blk.cols(), 3u);
  EXPECT_EQ(blk(0, 0), m(1, 2));
  EXPECT_EQ(blk(1, 2), m(2, 4));
}

TEST(Matrix, FillPatternIsInjectivePerCell) {
  Matrixf m(8, 8);
  fill_pattern(m);
  EXPECT_NE(m(0, 1), m(1, 0));
  EXPECT_NE(m(3, 4), m(4, 3));
}

TEST(Matrix, MaxAbsDiffAndAllclose) {
  Matrixf a(2, 2, 1.0f), b(2, 2, 1.0f);
  EXPECT_EQ(max_abs_diff(a, b), 0.0f);
  EXPECT_TRUE(allclose(a, b));
  b(1, 1) = 1.5f;
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 0.5f);
  EXPECT_FALSE(allclose(a, b));
}

TEST(Matrix, AllcloseShapeMismatchIsFalse) {
  Matrixf a(2, 2), b(2, 3);
  EXPECT_FALSE(allclose(a, b));
}

TEST(Matrix, FillRandomIsDeterministic) {
  Matrixf a(4, 4), b(4, 4);
  Rng r1(5), r2(5);
  fill_random(a, r1);
  fill_random(b, r2);
  EXPECT_TRUE(a == b);
}

// Matrix storage starts on a cache line whatever the allocator underneath
// returns, so a matrix whose rows are whole lines can take the executor's
// streamed tile store (DESIGN.md §9); copies and moves keep that.
TEST(Matrix, DataIsCacheLineAligned) {
  const auto aligned = [](const Matrixf& m) {
    return reinterpret_cast<std::uintptr_t>(m.data()) % kCacheLineBytes == 0;
  };
  for (const std::size_t cols : {1u, 3u, 16u, 1040u}) {
    Matrixf m(256, cols, 1.0f);
    EXPECT_TRUE(aligned(m)) << cols;
    const Matrixf copy = m;
    EXPECT_TRUE(aligned(copy)) << cols;
    EXPECT_EQ(copy, m);
    Matrixf assigned(2, 2);
    assigned = m;
    EXPECT_TRUE(aligned(assigned)) << cols;
    const float* storage = m.data();
    const Matrixf moved = std::move(m);
    EXPECT_EQ(moved.data(), storage) << cols;
    EXPECT_TRUE(aligned(moved)) << cols;
  }
}

// ------------------------------------------------------------------ gemm --

TEST(GemmRef, TinyKnownResult) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  Matrixf a(2, 2), b(2, 2), c(2, 2, 0.0f);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  b(0, 0) = 5;
  b(0, 1) = 6;
  b(1, 0) = 7;
  b(1, 1) = 8;
  gemm_naive(a, b, c, 1.0f, 0.0f);
  EXPECT_FLOAT_EQ(c(0, 0), 19);
  EXPECT_FLOAT_EQ(c(0, 1), 22);
  EXPECT_FLOAT_EQ(c(1, 0), 43);
  EXPECT_FLOAT_EQ(c(1, 1), 50);
}

TEST(GemmRef, AlphaBetaSemantics) {
  Matrixf a(1, 1), b(1, 1), c(1, 1);
  a(0, 0) = 3;
  b(0, 0) = 4;
  c(0, 0) = 10;
  gemm_naive(a, b, c, 2.0f, 0.5f);  // 2*12 + 0.5*10 = 29
  EXPECT_FLOAT_EQ(c(0, 0), 29.0f);
}

TEST(GemmRef, BetaZeroIgnoresGarbageC) {
  Matrixf a(2, 3), b(3, 2), c(2, 2);
  Rng rng(1);
  fill_random(a, rng);
  fill_random(b, rng);
  // NaN in C must not propagate when beta == 0.
  c.fill(std::numeric_limits<float>::quiet_NaN());
  gemm_naive(a, b, c, 1.0f, 0.0f);
  for (float v : c.flat()) EXPECT_FALSE(std::isnan(v));
}

TEST(GemmRef, ShapeMismatchThrows) {
  Matrixf a(2, 3), b(4, 2), c(2, 2);
  EXPECT_THROW(gemm_naive(a, b, c, 1.0f, 0.0f), CheckError);
}

TEST(GemmRef, OutputShapeMismatchThrows) {
  Matrixf a(2, 3), b(3, 2), c(3, 2);
  EXPECT_THROW(gemm_naive(a, b, c, 1.0f, 0.0f), CheckError);
}

struct GemmShape {
  int m, n, k;
};

class GemmVariants : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmVariants, BlockedMatchesNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 1000003 + n * 1009 + k));
  Matrixf a(static_cast<std::size_t>(m), static_cast<std::size_t>(k));
  Matrixf b(static_cast<std::size_t>(k), static_cast<std::size_t>(n));
  Matrixf c0(static_cast<std::size_t>(m), static_cast<std::size_t>(n));
  fill_random(a, rng);
  fill_random(b, rng);
  fill_random(c0, rng);
  Matrixf c1 = c0, c2 = c0;
  gemm_naive(a, b, c1, 1.5f, -0.5f);
  gemm_blocked(a, b, c2, 1.5f, -0.5f);
  EXPECT_TRUE(allclose(c1, c2)) << "m=" << m << " n=" << n << " k=" << k;
}

TEST_P(GemmVariants, ParallelMatchesNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 7 + n * 11 + k * 13));
  Matrixf a(static_cast<std::size_t>(m), static_cast<std::size_t>(k));
  Matrixf b(static_cast<std::size_t>(k), static_cast<std::size_t>(n));
  Matrixf c0(static_cast<std::size_t>(m), static_cast<std::size_t>(n));
  fill_random(a, rng);
  fill_random(b, rng);
  fill_random(c0, rng);
  Matrixf c1 = c0, c2 = c0;
  gemm_naive(a, b, c1, 1.0f, 1.0f);
  gemm_parallel(a, b, c2, 1.0f, 1.0f);
  EXPECT_TRUE(allclose(c1, c2));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmVariants,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{3, 5, 7},
                      GemmShape{16, 16, 16}, GemmShape{64, 64, 64},
                      GemmShape{65, 63, 66}, GemmShape{1, 128, 32},
                      GemmShape{128, 1, 32}, GemmShape{31, 33, 129},
                      GemmShape{100, 100, 100}));

TEST(GemmDimsStruct, FlopsAndValidity) {
  GemmDims d{4, 5, 6};
  EXPECT_EQ(d.flops(), 2LL * 4 * 5 * 6);
  EXPECT_TRUE(d.valid());
  EXPECT_FALSE((GemmDims{0, 5, 6}).valid());
  EXPECT_FALSE((GemmDims{4, -1, 6}).valid());
}

}  // namespace
}  // namespace ctb
