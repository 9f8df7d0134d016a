#include <gtest/gtest.h>

#include <span>
#include <vector>

#include <cmath>
#include <limits>

#include "core/api.hpp"
#include "kernels/work_builder.hpp"
#include "linalg/half.hpp"
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

// ---------------------------------------------------------- conversions --

TEST(Half, ExactSmallIntegersRoundTrip) {
  for (int i = -2048; i <= 2048; ++i) {  // |x| <= 2^11 exact in binary16
    const float f = static_cast<float>(i);
    EXPECT_EQ(half_bits_to_float(float_to_half_bits(f)), f) << i;
  }
}

TEST(Half, KnownBitPatterns) {
  EXPECT_EQ(float_to_half_bits(0.0f), 0x0000);
  EXPECT_EQ(float_to_half_bits(-0.0f), 0x8000);
  EXPECT_EQ(float_to_half_bits(1.0f), 0x3C00);
  EXPECT_EQ(float_to_half_bits(-2.0f), 0xC000);
  EXPECT_EQ(float_to_half_bits(65504.0f), 0x7BFF);  // max finite half
  EXPECT_EQ(half_bits_to_float(0x3C00), 1.0f);
  EXPECT_EQ(half_bits_to_float(0x7BFF), 65504.0f);
}

TEST(Half, OverflowBecomesInfinity) {
  EXPECT_EQ(float_to_half_bits(1e6f), 0x7C00);
  EXPECT_EQ(float_to_half_bits(-1e6f), 0xFC00);
  EXPECT_TRUE(std::isinf(half_bits_to_float(0x7C00)));
}

TEST(Half, NanPropagates) {
  const std::uint16_t bits =
      float_to_half_bits(std::numeric_limits<float>::quiet_NaN());
  EXPECT_EQ(bits & 0x7C00, 0x7C00);
  EXPECT_NE(bits & 0x03FF, 0);  // stays NaN, not Inf
  EXPECT_TRUE(std::isnan(half_bits_to_float(bits)));
}

TEST(Half, InfinityRoundTrips) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(half_bits_to_float(float_to_half_bits(inf)), inf);
  EXPECT_EQ(half_bits_to_float(float_to_half_bits(-inf)), -inf);
}

TEST(Half, SubnormalsRepresented) {
  // Smallest positive subnormal half = 2^-24.
  const float tiny = std::ldexp(1.0f, -24);
  EXPECT_EQ(float_to_half_bits(tiny), 0x0001);
  EXPECT_EQ(half_bits_to_float(0x0001), tiny);
  // Below half the smallest subnormal: flush to zero.
  EXPECT_EQ(float_to_half_bits(std::ldexp(1.0f, -26)), 0x0000);
}

TEST(Half, RoundToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 and the next half (1 + 2^-10):
  // ties to even keeps 1.0.
  EXPECT_EQ(float_to_half_bits(1.0f + std::ldexp(1.0f, -11)), 0x3C00);
  // Slightly above the halfway point rounds up.
  EXPECT_EQ(float_to_half_bits(1.0f + std::ldexp(1.0f, -11) * 1.01f),
            0x3C01);
  // Halfway between 1+2^-10 and 1+2^-9 (odd mantissa) rounds up to even.
  EXPECT_EQ(float_to_half_bits(1.0f + 3.0f * std::ldexp(1.0f, -11)),
            0x3C02);
}

TEST(Half, RoundTripIsIdempotent) {
  Rng rng(404);
  for (int i = 0; i < 2000; ++i) {
    const float x = rng.uniform_float(-100.0f, 100.0f);
    const float once = round_to_half(x);
    EXPECT_EQ(round_to_half(once), once);
    EXPECT_LE(std::fabs(once - x), std::fabs(x) * (1.0f / 1024.0f) + 1e-7f);
  }
}

TEST(Half, AllBitPatternsRoundTripThroughFloat) {
  // Every finite half converts to float and back to the same bits.
  for (std::uint32_t bits = 0; bits <= 0xFFFF; ++bits) {
    const auto h = static_cast<std::uint16_t>(bits);
    if ((h & 0x7C00) == 0x7C00 && (h & 0x3FF) != 0) continue;  // NaNs
    EXPECT_EQ(float_to_half_bits(half_bits_to_float(h)), h) << bits;
  }
}

TEST(Half, TypeWrapper) {
  const half_t h(1.5f);
  EXPECT_EQ(h.to_float(), 1.5f);
  EXPECT_EQ(half_t::from_bits(h.bits()), h);
  EXPECT_EQ(static_cast<float>(half_t(0.25f)), 0.25f);
}

// -------------------------------------------------------- fp16 GEMM path --

Matrixf rand_mat(int r, int c, Rng& rng) {
  Matrixf m(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
  fill_random(m, rng);
  return m;
}

TEST(Fp16Gemm, KernelMatchesFp16Reference) {
  Rng rng(17);
  const GemmDims d{48, 40, 56};
  const Matrixf a = rand_mat(d.m, d.k, rng);
  const Matrixf b = rand_mat(d.k, d.n, rng);
  Matrixf ref(static_cast<std::size_t>(d.m), static_cast<std::size_t>(d.n));
  gemm_naive_fp16(a, b, ref, 1.0f, 0.0f);

  for (int id : {1, 5, 11}) {  // small/256, medium/... spot strategies
    const TilingStrategy& s = batched_strategy_by_id(id);
    Matrixf c(static_cast<std::size_t>(d.m), static_cast<std::size_t>(d.n));
    GemmOperands g = operands(a, b, c);
    g.precision = Precision::kFp16;
    run_uniform(s, g, 1.0f, 0.0f);
    // Accumulation order differs between tilings, so compare within the
    // fp16 accumulation tolerance rather than exactly.
    EXPECT_LT(max_abs_diff(c, ref), 0.05f) << s.name();
    // And every output value must be exactly representable in binary16.
    for (float v : c.flat()) EXPECT_EQ(v, round_to_half(v));
  }
}

TEST(Fp16Gemm, DiffersFromFp32ByRoundingOnly) {
  Rng rng(18);
  const Matrixf a = rand_mat(32, 64, rng);
  const Matrixf b = rand_mat(64, 32, rng);
  Matrixf c16(32, 32), c32(32, 32);
  gemm_naive_fp16(a, b, c16, 1.0f, 0.0f);
  gemm_naive(a, b, c32, 1.0f, 0.0f);
  EXPECT_GT(max_abs_diff(c16, c32), 0.0f);   // rounding is visible
  EXPECT_LT(max_abs_diff(c16, c32), 0.05f);  // but small
}

TEST(Fp16Gemm, BatchedApiRoundsOutputs) {
  Rng rng(19);
  const Matrixf a = rand_mat(32, 32, rng);
  const Matrixf b = rand_mat(32, 32, rng);
  Matrixf c(32, 32);
  const std::vector<const Matrixf*> av{&a}, bv{&b};
  std::vector<Matrixf*> cv{&c};
  PlannerConfig config;
  config.precision = Precision::kFp16;
  batched_gemm(av, bv, cv, 1.0f, 0.0f, config);
  for (float v : c.flat()) EXPECT_EQ(v, round_to_half(v));
}

// ------------------------------------------------------------ fp16 timing --

TEST(Fp16Timing, HalvesByteTraffic) {
  const GemmDims d{64, 64, 64};
  const auto& s = batched_strategy(TileShape::kLarge, ThreadVariant::k256);
  const TileWork w32 = make_tile_work(s, d, 0, 0, Precision::kFp32);
  const TileWork w16 = make_tile_work(s, d, 0, 0, Precision::kFp16);
  EXPECT_EQ(w16.bytes_per_iter * 2, w32.bytes_per_iter);
  EXPECT_EQ(w16.epilogue_bytes * 2, w32.epilogue_bytes);
}

TEST(Fp16Timing, TensorCoresAccelerateComputeBoundBatches) {
  // Large compute-bound batch on V100: fp16 should land well above fp32
  // throughput (tensor cores), though below the full 8x (memory limits).
  const GpuArch& arch = gpu_arch(GpuModel::kV100);
  const std::vector<GemmDims> dims(64, GemmDims{512, 512, 512});
  const BatchedGemmPlanner planner{PlannerConfig{}};
  const PlanSummary s = planner.plan(dims);
  const double t32 = time_plan(arch, s.plan, dims, Precision::kFp32).time_us;
  const double t16 = time_plan(arch, s.plan, dims, Precision::kFp16).time_us;
  EXPECT_LT(t16, t32 / 1.5);
}

TEST(Fp16Timing, NoSpeedupWithoutFastFp16Hardware) {
  // Maxwell-class GPUs gain only the bandwidth halving, never a compute
  // speedup beyond ~2x.
  const GpuArch& arch = gpu_arch(GpuModel::kGTXTitanX);
  const std::vector<GemmDims> dims(16, GemmDims{256, 256, 256});
  const BatchedGemmPlanner planner{PlannerConfig{}};
  const PlanSummary s = planner.plan(dims);
  const double t32 = time_plan(arch, s.plan, dims, Precision::kFp32).time_us;
  const double t16 = time_plan(arch, s.plan, dims, Precision::kFp16).time_us;
  EXPECT_GE(t16, t32 / 2.2);
  EXPECT_LE(t16, t32 * 1.01);
}

}  // namespace
}  // namespace ctb
