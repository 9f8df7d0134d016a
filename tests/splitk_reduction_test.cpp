// Bit-exactness of split-K plans on the host (DESIGN.md §11).
//
// Split-K partitions a tile's K loop into BK-aligned slices, which the
// simulated device runs as separate blocks. Float addition is not
// associative, so separately computed slices cannot be summed bit-exactly;
// the block sweep instead runs a split tile's whole ascending (k0, p) chain
// at the slice that starts at 0 and skips the tile's other slices. The
// result is BITWISE identical to the unsplit execution wherever the plan
// places the slices. This test pins that contract under parallel_for at
// 1/2/4/8 threads, for one GEMM and mixed batches under hand-built uniform
// plans and planner-made plans, fp32 and fp16, N/T transpose variants, the
// implicit-GEMM conv path, every Table-2 strategy and every SIMD ISA
// reachable on the host, and for slice placements where a tile's first
// slice runs after its later ones, in blocks of their own or beside other
// GEMMs' tiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "dnn/implicit_gemm.hpp"
#include "kernels/functional.hpp"
#include "kernels/simd.hpp"
#include "telemetry/telemetry.hpp"
#include "util/parallel.hpp"

namespace ctb {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};
constexpr int kSliceCounts[] = {2, 3, 8};

Matrixf rand_mat(int r, int c, Rng& rng) {
  Matrixf m(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
  fill_random(m, rng);
  return m;
}

void expect_bitwise_equal(const Matrixf& unsplit, const Matrixf& split,
                          const std::string& what) {
  ASSERT_EQ(unsplit.rows(), split.rows());
  ASSERT_EQ(unsplit.cols(), split.cols());
  const auto u = unsplit.flat();
  const auto s = split.flat();
  for (std::size_t i = 0; i < u.size(); ++i)
    ASSERT_EQ(u[i], s[i]) << what << " diverges at flat index " << i;
}

struct BatchCase {
  std::vector<Matrixf> a, b, c;
  std::vector<GemmOperands> ops;
};

BatchCase make_batch(std::span<const GemmDims> dims, std::uint64_t seed,
                     Precision precision = Precision::kFp32) {
  BatchCase bc;
  Rng rng(seed);
  for (const auto& d : dims) {
    bc.a.push_back(rand_mat(d.m, d.k, rng));
    bc.b.push_back(rand_mat(d.k, d.n, rng));
    bc.c.push_back(rand_mat(d.m, d.n, rng));
  }
  for (std::size_t i = 0; i < dims.size(); ++i) {
    bc.ops.push_back(operands(bc.a[i], bc.b[i], bc.c[i]));
    bc.ops.back().precision = precision;
  }
  return bc;
}

/// Hand-built plans over one uniform strategy: every tile in its own block,
/// optionally split into `slices` K ranges. Deterministic and independent of
/// the planner, so the executor contract is tested in isolation.
BatchPlan one_tile_plan(std::span<const GemmDims> dims,
                       const TilingStrategy& s, int slices) {
  const std::vector<const TilingStrategy*> strategies(dims.size(), &s);
  std::vector<Tile> tiles = enumerate_tiles(dims, strategies);
  if (slices > 1) tiles = split_tiles_k(tiles, slices);
  std::vector<std::vector<Tile>> blocks;
  for (const Tile& t : tiles) blocks.push_back({t});
  return build_plan(blocks, s.threads);
}

// ---------------------------------------------------------- single GEMM --

TEST(SplitKSingleGemm, ThreadAndSliceSweepBitExact) {
  const auto& s = batched_strategy(TileShape::kMedium, ThreadVariant::k256);
  // Ragged in every dimension; K % BK != 0 puts the zero-padded tail step
  // inside the last slice.
  const std::vector<GemmDims> dims = {{70, 45, 77}};
  auto reference = make_batch(dims, 42);
  {
    ScopedParallelThreads guard(1);
    execute_plan(one_tile_plan(dims, s, 1), reference.ops, 1.5f, -0.5f);
  }
  for (int slices : kSliceCounts) {
    const BatchPlan split = one_tile_plan(dims, s, slices);
    ASSERT_TRUE(split.has_split());
    for (int threads : kThreadCounts) {
      auto split_case = make_batch(dims, 42);
      ScopedParallelThreads guard(threads);
      execute_plan(split, split_case.ops, 1.5f, -0.5f);
      expect_bitwise_equal(reference.c[0], split_case.c[0],
                           "single splitk=" + std::to_string(slices) +
                               " threads=" + std::to_string(threads));
    }
  }
}

class SplitKAllStrategies : public ::testing::TestWithParam<int> {};

TEST_P(SplitKAllStrategies, SingleGemmBitExact) {
  const TilingStrategy& s = batched_strategy_by_id(GetParam());
  const std::vector<GemmDims> dims = {
      {2 * s.by + 3, s.bx + 5, 6 * s.bk + 3}};
  auto reference = make_batch(dims, 51);
  {
    ScopedParallelThreads guard(1);
    execute_plan(one_tile_plan(dims, s, 1), reference.ops, 1.0f, 0.25f);
  }
  auto split = make_batch(dims, 51);
  {
    ScopedParallelThreads guard(4);
    execute_plan(one_tile_plan(dims, s, 4), split.ops, 1.0f, 0.25f);
  }
  expect_bitwise_equal(reference.c[0], split.c[0],
                       "all-strategies " + s.name());
}

INSTANTIATE_TEST_SUITE_P(Ids, SplitKAllStrategies, ::testing::Range(0, 12));

TEST(SplitKSingleGemm, Fp16BitExact) {
  const auto& s = batched_strategy(TileShape::kLarge, ThreadVariant::k128);
  const std::vector<GemmDims> dims = {{90, 130, 100}};
  auto reference = make_batch(dims, 99, Precision::kFp16);
  {
    ScopedParallelThreads guard(1);
    execute_plan(one_tile_plan(dims, s, 1), reference.ops, 1.0f, 0.5f);
  }
  const BatchPlan split = one_tile_plan(dims, s, 4);
  for (int threads : kThreadCounts) {
    auto split_case = make_batch(dims, 99, Precision::kFp16);
    ScopedParallelThreads guard(threads);
    execute_plan(split, split_case.ops, 1.0f, 0.5f);
    expect_bitwise_equal(reference.c[0], split_case.c[0],
                         "fp16 threads=" + std::to_string(threads));
  }
}

TEST(SplitKSingleGemm, TransposeVariantsBitExact) {
  const auto& s = batched_strategy(TileShape::kMedium, ThreadVariant::k256);
  const int m = 70, n = 45, k = 100;
  const std::vector<GemmDims> dims = {{m, n, k}};
  const BatchPlan unsplit = one_tile_plan(dims, s, 1);
  const BatchPlan split = one_tile_plan(dims, s, 4);
  for (const Op op_a : {Op::kN, Op::kT}) {
    for (const Op op_b : {Op::kN, Op::kT}) {
      const int ar = op_a == Op::kN ? m : k;
      const int ac = op_a == Op::kN ? k : m;
      const int br = op_b == Op::kN ? k : n;
      const int bc = op_b == Op::kN ? n : k;
      struct TCase {
        Matrixf a, b, c;
      };
      auto make = [&] {
        Rng rng(77);
        return TCase{rand_mat(ar, ac, rng), rand_mat(br, bc, rng),
                     rand_mat(m, n, rng)};
      };
      TCase reference = make();
      {
        ScopedParallelThreads guard(1);
        const GemmOperands g =
            operands(reference.a, reference.b, reference.c, op_a, op_b);
        execute_plan(unsplit, {&g, 1}, 1.0f, 0.25f);
      }
      for (int threads : kThreadCounts) {
        TCase split_case = make();
        ScopedParallelThreads guard(threads);
        const GemmOperands g =
            operands(split_case.a, split_case.b, split_case.c, op_a, op_b);
        execute_plan(split, {&g, 1}, 1.0f, 0.25f);
        expect_bitwise_equal(reference.c, split_case.c,
                             std::string("transpose op_a=") +
                                 (op_a == Op::kT ? "T" : "N") + " op_b=" +
                                 (op_b == Op::kT ? "T" : "N") + " threads=" +
                                 std::to_string(threads));
      }
    }
  }
}

// The implicit-GEMM path: B is an input tensor under a lowering, so slicing
// must offset the lowered (k, j) coordinates, not a pointer.
TEST(SplitKSingleGemm, ConvLoweringBitExact) {
  ConvShape shape;
  shape.name = "splitk_conv";
  shape.in_c = 7;
  shape.out_c = 33;
  shape.kernel = 3;
  shape.stride = 1;
  shape.pad = 1;
  shape.in_h = 9;
  shape.in_w = 10;
  Rng rng(31);
  const Tensor4 input = [&] {
    Tensor4 t(2, shape.in_c, shape.in_h, shape.in_w);
    fill_random(t, rng);
    return t;
  }();
  const Matrixf filters = random_filters(shape, rng);
  const std::vector<GemmDims> dims = {shape.gemm_dims(input.n())};
  const auto& s = batched_strategy(TileShape::kSmall, ThreadVariant::k128);

  Matrixf reference_out(static_cast<std::size_t>(dims[0].m),
                        static_cast<std::size_t>(dims[0].n));
  {
    ScopedParallelThreads guard(1);
    const GemmOperands g =
        implicit_conv_operands(shape, input, filters, reference_out);
    execute_plan(one_tile_plan(dims, s, 1), {&g, 1}, 1.0f, 0.0f);
  }
  const BatchPlan split = one_tile_plan(dims, s, 3);
  for (int threads : kThreadCounts) {
    Matrixf split_out(static_cast<std::size_t>(dims[0].m),
                      static_cast<std::size_t>(dims[0].n));
    ScopedParallelThreads guard(threads);
    const GemmOperands g =
        implicit_conv_operands(shape, input, filters, split_out);
    execute_plan(split, {&g, 1}, 1.0f, 0.0f);
    expect_bitwise_equal(reference_out, split_out,
                         "conv threads=" + std::to_string(threads));
  }
}

// --------------------------------------------------------------- vbatch --

TEST(SplitKVbatch, MixedSizesBitExact) {
  const auto& s = batched_strategy(TileShape::kMedium, ThreadVariant::k256);
  // Includes K=3 (a single BK step: stays unsplit) and ragged Ks.
  const std::vector<GemmDims> dims = {
      {33, 65, 19}, {128, 128, 64}, {100, 40, 77}, {16, 16, 3}};
  auto reference = make_batch(dims, 123);
  {
    ScopedParallelThreads guard(1);
    execute_plan(one_tile_plan(dims, s, 1), reference.ops, 1.25f, 0.5f);
  }
  const BatchPlan split = one_tile_plan(dims, s, 4);
  for (int threads : kThreadCounts) {
    auto split_case = make_batch(dims, 123);
    ScopedParallelThreads guard(threads);
    execute_plan(split, split_case.ops, 1.25f, 0.5f);
    for (std::size_t i = 0; i < dims.size(); ++i)
      expect_bitwise_equal(reference.c[i], split_case.c[i],
                           "vbatch gemm " + std::to_string(i) + " threads=" +
                               std::to_string(threads));
  }
}

// --------------------------------------------------------- batched plan --

TEST(SplitKBatchedPlan, HandBuiltPlanBitExact) {
  const auto& s = batched_strategy(TileShape::kMedium, ThreadVariant::k256);
  const std::vector<GemmDims> dims = {{70, 45, 77}, {64, 64, 160}, {33, 33, 24}};
  const BatchPlan unsplit = one_tile_plan(dims, s, 1);
  const BatchPlan split = one_tile_plan(dims, s, 4);
  ASSERT_TRUE(split.has_split());
  ASSERT_GT(split.num_blocks(), unsplit.num_blocks());
  validate_plan(split, dims);

  for (const Precision precision : {Precision::kFp32, Precision::kFp16}) {
    auto reference = make_batch(dims, 7, precision);
    {
      ScopedParallelThreads guard(1);
      execute_plan(unsplit, reference.ops, 2.0f, -1.0f);
    }
    for (int threads : kThreadCounts) {
      auto split_case = make_batch(dims, 7, precision);
      ScopedParallelThreads guard(threads);
      execute_plan(split, split_case.ops, 2.0f, -1.0f);
      for (std::size_t i = 0; i < dims.size(); ++i)
        expect_bitwise_equal(
            reference.c[i], split_case.c[i],
            std::string("plan ") +
                (precision == Precision::kFp16 ? "fp16" : "fp32") + " gemm " +
                std::to_string(i) + " threads=" + std::to_string(threads));
    }
  }
}

// The planner's split-K axis end to end: kForce produces a split plan for a
// TLP-scarce tall-skinny batch with strictly more blocks, and executing it
// matches the kOff plan bitwise at every thread count.
TEST(SplitKBatchedPlan, PlannerForcedSplitBitExact) {
  const std::vector<GemmDims> dims = {{512, 64, 1024}, {384, 64, 768}};
  PlannerConfig off;
  off.splitk = SplitKMode::kOff;
  const PlanSummary unsplit = BatchedGemmPlanner(off).plan(dims);
  ASSERT_FALSE(unsplit.plan.has_split());

  PlannerConfig force;
  force.splitk = SplitKMode::kForce;
  const PlanSummary split = BatchedGemmPlanner(force).plan(dims);
  ASSERT_TRUE(split.plan.has_split());
  validate_plan(split.plan, dims);
  EXPECT_GT(split.plan.num_blocks(), unsplit.plan.num_blocks());

  auto reference = make_batch(dims, 91);
  {
    ScopedParallelThreads guard(1);
    execute_plan(unsplit.plan, reference.ops, 1.0f, 0.5f);
  }
  for (int threads : kThreadCounts) {
    auto split_case = make_batch(dims, 91);
    ScopedParallelThreads guard(threads);
    execute_plan(split.plan, split_case.ops, 1.0f, 0.5f);
    for (std::size_t i = 0; i < dims.size(); ++i)
      expect_bitwise_equal(reference.c[i], split_case.c[i],
                           "planner-force gemm " + std::to_string(i) +
                               " threads=" + std::to_string(threads));
  }
}

// The auto trigger: a TLP-scarce tall-skinny batch may split (and did, on
// the quick-suite workload this mirrors), a machine-filling batch must not.
TEST(SplitKBatchedPlan, AutoTriggerRespectsTlpScarcity) {
  PlannerConfig config;  // kAuto
  const std::vector<GemmDims> plenty(64, GemmDims{256, 256, 64});
  const PlanSummary filled = BatchedGemmPlanner(config).plan(plenty);
  EXPECT_FALSE(filled.plan.has_split());
  // A scarce batch stays correct whether or not the simulator picks split.
  const std::vector<GemmDims> scarce = {{512, 64, 1024}};
  const PlanSummary summary = BatchedGemmPlanner(config).plan(scarce);
  validate_plan(summary.plan, scarce);
  auto reference = make_batch(scarce, 17);
  {
    ScopedParallelThreads guard(1);
    reference_gemm(reference.ops[0], 1.0f, 0.0f);
  }
  auto planned = make_batch(scarce, 17);
  {
    ScopedParallelThreads guard(4);
    execute_plan(summary.plan, planned.ops, 1.0f, 0.0f);
  }
  expect_bitwise_equal(reference.c[0], planned.c[0], "auto-trigger");
}

// ------------------------------------------------------------ SIMD ISAs --

TEST(SplitKSimd, IsaSweepBitExact) {
  const auto& s = batched_strategy(TileShape::kMedium, ThreadVariant::k256);
  const std::vector<GemmDims> dims = {{70, 45, 96}, {64, 64, 160}};
  const BatchPlan unsplit = one_tile_plan(dims, s, 1);
  const BatchPlan split = one_tile_plan(dims, s, 4);

  // Sweep every ISA up to the host's capability: requesting more clamps, so
  // each scope below genuinely dispatches a different micro-kernel.
  std::vector<SimdIsa> isas = {SimdIsa::kScalar};
  for (SimdIsa isa : {SimdIsa::kNeon, SimdIsa::kAvx2, SimdIsa::kAvx512})
    if (static_cast<int>(isa) <= static_cast<int>(detected_simd_isa()))
      isas.push_back(isa);

  for (SimdIsa isa : isas) {
    ScopedSimdIsa isa_guard(isa);
    auto reference = make_batch(dims, 29);
    {
      ScopedParallelThreads guard(1);
      execute_plan(unsplit, reference.ops, 1.5f, 0.25f);
    }
    for (int threads : kThreadCounts) {
      auto split_case = make_batch(dims, 29);
      ScopedParallelThreads guard(threads);
      execute_plan(split, split_case.ops, 1.5f, 0.25f);
      for (std::size_t i = 0; i < dims.size(); ++i)
        expect_bitwise_equal(
            reference.c[i], split_case.c[i],
            std::string("isa=") + simd_isa_name(isa) + " gemm " +
                std::to_string(i) + " threads=" + std::to_string(threads));
    }
  }
}

// Cross-ISA: the split result under the host's best ISA equals the scalar
// unsplit result — the strongest form of the contract, composing the SIMD
// determinism guarantee (DESIGN.md §6) with the split sweep's.
TEST(SplitKSimd, BestIsaSplitMatchesScalarUnsplit) {
  const auto& s = batched_strategy(TileShape::kLarge, ThreadVariant::k256);
  const std::vector<GemmDims> dims = {{130, 70, 200}};
  auto reference = make_batch(dims, 67);
  {
    ScopedSimdIsa isa_guard(SimdIsa::kScalar);
    ScopedParallelThreads guard(1);
    execute_plan(one_tile_plan(dims, s, 1), reference.ops, 1.0f, 0.0f);
  }
  auto split = make_batch(dims, 67);
  {
    ScopedSimdIsa isa_guard(detected_simd_isa());
    ScopedParallelThreads guard(8);
    execute_plan(one_tile_plan(dims, s, 8), split.ops, 1.0f, 0.0f);
  }
  expect_bitwise_equal(reference.c[0], split.c[0], "best-isa-vs-scalar");
}

// ------------------------------------------------------ slice placement --
//
// Plans the planner never emits: the slices of each split tile sit where a
// sweep that ran slices in plan order would read a chain before its start.
// The sweep finds each tile's first slice wherever it sits, runs the whole
// chain there and skips the rest, so every placement matches the unsplit
// plan and reference_gemm bit for bit, at 1 and 4 workers under every ISA.

enum class Placement { kDescendingK, kLaterSlicesFirst, kBesideOtherGemms };

/// Ragged GEMMs under the 32x32, BK = 8 strategy split 3 ways: GEMM 0 has
/// 6 tiles of 10 K steps, GEMM 1 4 tiles of 20 and GEMM 2 4 tiles of 3, so
/// 14 split C tiles carry 42 partial-K slices. GEMM 3's one K step keeps
/// its single tile full-K.
const std::vector<GemmDims> kPlacementDims = {
    {70, 45, 77}, {64, 64, 160}, {33, 33, 24}, {16, 16, 3}};
constexpr int kPlacementSlices = 42;
constexpr int kPlacementSplitTiles = 14;

BatchPlan placed_plan(Placement placement, const TilingStrategy& s) {
  const std::vector<const TilingStrategy*> strategies(kPlacementDims.size(),
                                                      &s);
  std::vector<Tile> tiles =
      split_tiles_k(enumerate_tiles(kPlacementDims, strategies), 3);
  std::vector<std::vector<Tile>> blocks;
  const auto chunk = [&](const std::vector<Tile>& list, std::size_t per) {
    for (std::size_t i = 0; i < list.size(); i += per)
      blocks.emplace_back(
          list.begin() + static_cast<std::ptrdiff_t>(i),
          list.begin() +
              static_cast<std::ptrdiff_t>(std::min(list.size(), i + per)));
  };
  switch (placement) {
    case Placement::kDescendingK:
      // The tile list reversed, two entries per block: every tile's slices
      // run in descending K order, its first slice last — after its later
      // slices in the same block, or in a later block.
      std::reverse(tiles.begin(), tiles.end());
      chunk(tiles, 2);
      break;
    case Placement::kLaterSlicesFirst: {
      // The leading blocks hold only later slices (k_begin > 0), three per
      // block; each first slice and the full-K tile follow in a block of
      // its own.
      std::vector<Tile> later, first;
      for (const Tile& t : tiles) (t.k_begin > 0 ? later : first).push_back(t);
      chunk(later, 3);
      chunk(first, 1);
      break;
    }
    case Placement::kBesideOtherGemms: {
      // Block j holds entry j of every GEMM's list, and the odd GEMMs'
      // lists run backwards: each block mixes GEMMs, one GEMM's first
      // slices beside another's last ones and the full-K tile.
      std::vector<std::vector<Tile>> per_gemm(kPlacementDims.size());
      for (const Tile& t : tiles)
        per_gemm[static_cast<std::size_t>(t.gemm)].push_back(t);
      for (std::size_t g = 1; g < per_gemm.size(); g += 2)
        std::reverse(per_gemm[g].begin(), per_gemm[g].end());
      for (std::size_t j = 0;; ++j) {
        std::vector<Tile> block;
        for (const auto& list : per_gemm)
          if (j < list.size()) block.push_back(list[j]);
        if (block.empty()) break;
        blocks.push_back(std::move(block));
      }
      break;
    }
  }
  return build_plan(blocks, s.threads);
}

/// The ISAs with a micro-kernel on this host, scalar first.
std::vector<SimdIsa> runnable_isas() {
  std::vector<SimdIsa> isas = {SimdIsa::kScalar};
  for (SimdIsa isa : {SimdIsa::kNeon, SimdIsa::kAvx2, SimdIsa::kAvx512})
    if (static_cast<int>(isa) <= static_cast<int>(detected_simd_isa()) &&
        simd_micro_kernel(isa) != nullptr)
      isas.push_back(isa);
  return isas;
}

std::int64_t counter_value(const std::string& name) {
  for (const auto& c : telemetry::snapshot().counters)
    if (c.name == name) return c.value;
  ADD_FAILURE() << "counter " << name << " missing from snapshot";
  return -1;
}

class SplitKPlacement : public ::testing::TestWithParam<Placement> {};

TEST_P(SplitKPlacement, MatchesUnsplitAndReferenceBitExact) {
  const auto& s = batched_strategy(TileShape::kMedium, ThreadVariant::k256);
  const BatchPlan plan = placed_plan(GetParam(), s);
  validate_plan(plan, kPlacementDims);
  ASSERT_EQ(plan.num_tiles(), kPlacementSlices + 1);
  const BatchPlan unsplit = one_tile_plan(kPlacementDims, s, 1);
  auto reference = make_batch(kPlacementDims, 71);
  for (const GemmOperands& g : reference.ops) reference_gemm(g, 1.5f, -0.5f);

  for (SimdIsa isa : runnable_isas()) {
    ScopedSimdIsa isa_guard(isa);
    auto want = make_batch(kPlacementDims, 71);
    {
      ScopedParallelThreads guard(1);
      execute_plan(unsplit, want.ops, 1.5f, -0.5f);
    }
    for (int threads : {1, 4}) {
      const std::string what = std::string("isa=") + simd_isa_name(isa) +
                               " threads=" + std::to_string(threads);
      auto got = make_batch(kPlacementDims, 71);
      ScopedParallelThreads guard(threads);
      telemetry::reset();
      telemetry::set_enabled(true);
      execute_plan(plan, got.ops, 1.5f, -0.5f);
      EXPECT_EQ(counter_value("exec.splitk.tiles"), kPlacementSlices) << what;
      EXPECT_EQ(counter_value("exec.splitk.groups"), kPlacementSplitTiles)
          << what;
      telemetry::set_enabled(false);
      telemetry::reset();
      for (std::size_t i = 0; i < kPlacementDims.size(); ++i) {
        const std::string gemm = what + " gemm " + std::to_string(i);
        expect_bitwise_equal(want.c[i], got.c[i], "unsplit " + gemm);
        expect_bitwise_equal(reference.c[i], got.c[i], "reference " + gemm);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Placements, SplitKPlacement,
    ::testing::Values(Placement::kDescendingK, Placement::kLaterSlicesFirst,
                      Placement::kBesideOtherGemms),
    [](const ::testing::TestParamInfo<Placement>& info) {
      switch (info.param) {
        case Placement::kDescendingK:
          return std::string("DescendingK");
        case Placement::kLaterSlicesFirst:
          return std::string("LaterSlicesFirst");
        case Placement::kBesideOtherGemms:
          break;
      }
      return std::string("BesideOtherGemms");
    });

}  // namespace
}  // namespace ctb
