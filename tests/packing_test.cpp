// Per-call panel packing (kernels/packing.hpp): the call's pack budget (a
// GEMM past it runs staged, bit-exact, and leaves the budget to the GEMMs
// after it), one pack per GEMM per call (never per K-slice, and the same
// bytes on every call), the lifetime rule the bit-exactness contract rests
// on — packed panels die with the executor call that packed them, so
// operands changed in place between two calls are always seen by the
// second — and the third block source: a convolution's B copied from its
// input tensor.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "kernels/functional.hpp"
#include "kernels/packing.hpp"
#include "kernels/simd.hpp"
#include "telemetry/telemetry.hpp"
#include "util/parallel.hpp"
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

struct GemmCase {
  Matrixf a, b, c;
  GemmOperands ops;

  explicit GemmCase(const GemmDims& d, std::uint64_t seed) {
    Rng rng(seed);
    a = rand_mat(d.m, d.k, rng);
    b = rand_mat(d.k, d.n, rng);
    c = rand_mat(d.m, d.n, rng);
    ops = operands(a, b, c);
  }
};

std::vector<GemmCase> make_batch(std::span<const GemmDims> dims,
                                 std::uint64_t seed) {
  std::vector<GemmCase> gemms;
  gemms.reserve(dims.size());
  for (std::size_t i = 0; i < dims.size(); ++i)
    gemms.emplace_back(dims[i], seed + i);
  return gemms;
}

std::vector<GemmOperands> ops_of(const std::vector<GemmCase>& gemms) {
  std::vector<GemmOperands> ops;
  for (const GemmCase& g : gemms) ops.push_back(g.ops);
  return ops;
}

void expect_bitwise_equal(const Matrixf& lhs, const Matrixf& rhs,
                          const std::string& what) {
  ASSERT_EQ(lhs.rows(), rhs.rows());
  ASSERT_EQ(lhs.cols(), rhs.cols());
  const auto l = lhs.flat();
  const auto r = rhs.flat();
  for (std::size_t i = 0; i < l.size(); ++i)
    ASSERT_EQ(l[i], r[i]) << what << " diverges at flat index " << i;
}

/// One tile per block over `tiles`, every tile under strategy `s`.
BatchPlan one_tile_blocks(const std::vector<Tile>& tiles,
                          const TilingStrategy& s) {
  std::vector<std::vector<Tile>> blocks;
  for (const Tile& t : tiles) blocks.push_back({t});
  return build_plan(blocks, s.threads);
}

// The ISAs this host can actually execute: always kScalar, plus every level
// up to detected_simd_isa() that has a micro-kernel.
std::vector<SimdIsa> runnable_isas() {
  std::vector<SimdIsa> isas{SimdIsa::kScalar};
  for (SimdIsa isa : {SimdIsa::kNeon, SimdIsa::kAvx2, SimdIsa::kAvx512})
    if (static_cast<int>(isa) <= static_cast<int>(detected_simd_isa()) &&
        simd_micro_kernel(isa) != nullptr)
      isas.push_back(isa);
  return isas;
}

std::int64_t counter_value(const telemetry::MetricsSnapshot& snap,
                           const std::string& name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return c.value;
  ADD_FAILURE() << "counter " << name << " missing from snapshot";
  return -1;
}

/// exec.pack.bytes charged by one call of `run`.
std::int64_t pack_bytes_of(const std::function<void()>& run) {
  telemetry::reset();
  telemetry::set_enabled(true);
  run();
  const std::int64_t bytes =
      counter_value(telemetry::snapshot(), "exec.pack.bytes");
  telemetry::set_enabled(false);
  telemetry::reset();
  return bytes;
}

// Nothing carries over between calls: every run of the same GEMM over the
// same operands packs it afresh and charges its full footprint.
TEST(PackPerCall, EveryRunChargesTheSamePackBytes) {
  const TilingStrategy& s = batched_strategy_by_id(5);
  const GemmDims d{128, 128, 64};
  GemmCase gc(d, 40);
  for (int iter = 0; iter < 3; ++iter)
    EXPECT_EQ(pack_bytes_of([&] { run_uniform(s, gc.ops, 1.0f, 0.0f); }),
              static_cast<std::int64_t>(pack_footprint_bytes(d)))
        << "run " << iter;
}

// ------------------------------------------------- the call's budget ------
// A GEMM past kPackCallBudgetBytes runs staged: each of its tiles packs its
// own micro-panels, the call packs none of its bytes, and its tiles count
// exec.dispatch.generic under the ISA whose kernel ran them. GEMMs after
// it in the batch still pack. Its C matches reference_gemm on its own,
// split along K, and beside packed GEMMs in one plan, with 1 worker and
// with 4.

// A GEMM past the call's pack budget (m, n <= 16): its one A and one B
// micro-panel of ceil(K / 8) steps are one step more than
// kPackCallBudgetBytes holds.
GemmDims over_budget_dims(int m, int n) {
  const auto steps = kPackCallBudgetBytes / (2 * kMicroBlock * sizeof(float));
  return {m, n, static_cast<int>(steps + 1) * kMicroK};
}

TEST(PackCallBudget, OverBudgetGemmRunsStaged) {
  constexpr float kA = 1.5f, kB = 0.5f;
  const TilingStrategy& s = batched_strategy_by_id(5);  // large/256
  const GemmDims big = over_budget_dims(3, 5);
  ASSERT_GT(pack_footprint_bytes(big), kPackCallBudgetBytes);
  ASSERT_LE(pack_footprint_bytes({big.m, big.n, big.k - kMicroK}),
            kPackCallBudgetBytes);
  const std::vector<GemmDims> dims = {big, {64, 64, 32}, {48, 80, 24}};
  const std::vector<const TilingStrategy*> strategies(dims.size(), &s);
  const std::vector<Tile> tiles = enumerate_tiles(dims, strategies);
  ASSERT_EQ(tiles.front().gemm, 0);
  const BatchPlan beside = one_tile_blocks(tiles, s);
  const BatchPlan split =
      one_tile_blocks(split_tiles_k({tiles.data(), 1}, 3), s);
  ASSERT_TRUE(split.has_split());

  std::vector<GemmCase> gemms = make_batch(dims, 60);
  const std::vector<GemmOperands> ops = ops_of(gemms);
  std::vector<Matrixf> c_init, want;
  for (const GemmCase& g : gemms) {
    c_init.push_back(g.c);
    want.push_back(g.c);
    GemmOperands reference = g.ops;
    reference.c = want.back().data();
    reference_gemm(reference, kA, kB);
  }
  const auto reset = [&] {
    for (std::size_t i = 0; i < gemms.size(); ++i)
      std::ranges::copy(c_init[i].flat(), gemms[i].c.flat().begin());
  };
  const auto expect_outputs = [&](std::size_t n, const std::string& what) {
    for (std::size_t i = 0; i < n; ++i)
      expect_bitwise_equal(gemms[i].c, want[i],
                           what + "/gemm" + std::to_string(i));
  };

  for (SimdIsa isa : runnable_isas()) {
    ScopedSimdIsa guard(isa);
    const std::string what = std::string("alone/") + simd_isa_name(isa);
    reset();
    telemetry::reset();
    telemetry::set_enabled(true);
    run_uniform(s, ops[0], kA, kB);
    const auto snap = telemetry::snapshot();
    EXPECT_EQ(counter_value(snap, "exec.pack.bytes"), 0) << what;
    EXPECT_EQ(counter_value(snap, "exec.dispatch.specialized"), 0) << what;
    EXPECT_EQ(counter_value(snap, "exec.dispatch.generic"), 1) << what;
    EXPECT_EQ(counter_value(snap, std::string("exec.simd.") +
                                      simd_isa_name(isa)),
              1)
        << what;
    telemetry::set_enabled(false);
    telemetry::reset();
    expect_outputs(1, what);
  }

  for (int threads : {1, 4}) {
    ScopedParallelThreads par(threads);
    const std::string t = "/threads" + std::to_string(threads);
    reset();
    run_uniform(s, ops[0], kA, kB);
    expect_outputs(1, "alone" + t);
    reset();
    execute_plan(split, {ops.data(), 1}, kA, kB);
    expect_outputs(1, "split" + t);
    reset();
    telemetry::reset();
    telemetry::set_enabled(true);
    execute_plan(beside, ops, kA, kB);
    const auto snap = telemetry::snapshot();
    EXPECT_EQ(counter_value(snap, "exec.pack.bytes"),
              static_cast<std::int64_t>(pack_footprint_bytes(dims[1]) +
                                        pack_footprint_bytes(dims[2])))
        << t;
    EXPECT_EQ(counter_value(snap, "exec.dispatch.generic"), 1) << t;
    EXPECT_EQ(counter_value(snap, "exec.dispatch.specialized"),
              beside.num_tiles() - 1)
        << t;
    telemetry::set_enabled(false);
    telemetry::reset();
    expect_outputs(dims.size(), "beside-packed" + t);
  }
}

// Split-K slices of one GEMM share its packed panels: each call of a split
// plan packs (and charges exec.pack.bytes for) each GEMM exactly once, not
// once per K-slice, and the split execution stays bit-exact against the
// unsplit plan.
TEST(PackPerCall, SplitKSlicesSharePackedPanels) {
  const TilingStrategy& s = batched_strategy_by_id(5);  // large/256
  const std::vector<GemmDims> dims = {{64, 64, 256}, {64, 128, 192}};
  const std::vector<const TilingStrategy*> strategies(dims.size(), &s);
  const std::vector<Tile> tiles = enumerate_tiles(dims, strategies);
  const std::vector<Tile> split = split_tiles_k(tiles, 4);
  ASSERT_GT(split.size(), tiles.size());
  const BatchPlan split_plan = one_tile_blocks(split, s);
  const BatchPlan unsplit_plan = one_tile_blocks(tiles, s);
  ASSERT_TRUE(split_plan.has_split());

  // Two runs each with the same beta chain.
  auto split_case = make_batch(dims, 80);
  const std::vector<GemmOperands> split_ops = ops_of(split_case);
  for (int iter = 0; iter < 2; ++iter) {
    EXPECT_EQ(pack_bytes_of([&] {
                execute_plan(split_plan, split_ops, 1.0f, 0.5f);
              }),
              static_cast<std::int64_t>(pack_footprint_bytes(dims[0]) +
                                        pack_footprint_bytes(dims[1])))
        << "run " << iter;
  }
  auto unsplit_case = make_batch(dims, 80);
  const std::vector<GemmOperands> unsplit_ops = ops_of(unsplit_case);
  execute_plan(unsplit_plan, unsplit_ops, 1.0f, 0.5f);
  execute_plan(unsplit_plan, unsplit_ops, 1.0f, 0.5f);
  for (std::size_t i = 0; i < dims.size(); ++i)
    expect_bitwise_equal(split_case[i].c, unsplit_case[i].c,
                         "splitk-vs-unsplit/gemm" + std::to_string(i));
}

// ------------------------------------------ mutation between calls ------
// Every entry point runs twice over the same operand pointers, and between
// the runs A(3, 5) and B(7, 9) of every GEMM are raised by 1 in place —
// interior elements, away from each operand's corners and centre, so a
// check that samples only those points cannot see the change. The second
// output must equal reference_gemm over the mutated operands bit for bit,
// under every runnable ISA.

using BatchRun = std::function<void(std::span<const GemmOperands>)>;

constexpr float kAlpha = 1.5f;

void mutate(GemmCase& g) {
  g.a(3, 5) += 1.0f;
  g.b(7, 9) += 1.0f;
}

void expect_second_call_sees_mutation(const std::vector<GemmDims>& dims,
                                      const BatchRun& run,
                                      const std::string& what) {
  std::vector<GemmCase> expected = make_batch(dims, 90);
  for (GemmCase& g : expected) {
    mutate(g);
    reference_gemm(g.ops, kAlpha, 0.0f);
  }
  for (SimdIsa isa : runnable_isas()) {
    ScopedSimdIsa guard(isa);
    std::vector<GemmCase> gemms = make_batch(dims, 90);
    const std::vector<GemmOperands> ops = ops_of(gemms);
    run(ops);
    for (GemmCase& g : gemms) mutate(g);
    run(ops);
    for (std::size_t i = 0; i < dims.size(); ++i)
      expect_bitwise_equal(gemms[i].c, expected[i].c,
                           what + "/" + simd_isa_name(isa) + "/gemm" +
                               std::to_string(i));
  }
}

const std::vector<GemmDims> kMutationBatch = {
    {128, 64, 32}, {96, 80, 48}, {40, 136, 24}};

TEST(PanelLifetime, MutationBetweenCallsRunSingleGemm) {
  const TilingStrategy& s = batched_strategy_by_id(5);
  expect_second_call_sees_mutation(
      {{128, 64, 32}},
      [&](std::span<const GemmOperands> ops) {
        run_uniform(s, ops[0], kAlpha, 0.0f);
      },
      "uniform_plan/single");
}

TEST(PanelLifetime, MutationBetweenCallsRunVbatch) {
  const TilingStrategy& s = batched_strategy_by_id(5);
  expect_second_call_sees_mutation(
      kMutationBatch,
      [&](std::span<const GemmOperands> ops) {
        run_uniform(s, ops, kAlpha, 0.0f);
      },
      "uniform_plan");
}

TEST(PanelLifetime, MutationBetweenCallsRunBatchedPlan) {
  const TilingStrategy& s = batched_strategy_by_id(5);
  const std::vector<const TilingStrategy*> strategies(kMutationBatch.size(),
                                                      &s);
  const std::vector<Tile> tiles = enumerate_tiles(kMutationBatch, strategies);
  const BatchPlan unsplit = one_tile_blocks(tiles, s);
  const BatchPlan split = one_tile_blocks(split_tiles_k(tiles, 3), s);
  ASSERT_TRUE(split.has_split());
  for (const BatchPlan* plan : {&unsplit, &split})
    expect_second_call_sees_mutation(
        kMutationBatch,
        [&](std::span<const GemmOperands> ops) {
          execute_plan(*plan, ops, kAlpha, 0.0f);
        },
        plan->has_split() ? "execute_plan/split" : "execute_plan");
}

TEST(PanelLifetime, MutationBetweenCallsExecutePlan) {
  const PlanSummary summary = BatchedGemmPlanner().plan(kMutationBatch);
  expect_second_call_sees_mutation(
      kMutationBatch,
      [&](std::span<const GemmOperands> ops) {
        execute_plan(summary.plan, ops, kAlpha, 0.0f);
      },
      "execute_plan");
}

// A lowered B packs to exactly its staged values, as whole panel sets and
// as the chunks a staged tile packs (any panel range, any K-step range):
// every kernel (1, 3, 5, 7) x stride (1, 2) x pad (0-3) over 1-3 images,
// at output widths under one micro-panel (7, 14), so that a block's rows
// cross output rows and images, and over it (28, 56); fp32 and fp16. The
// buffers start NaN-filled and compare as bits, so a float the packer
// skips, or a -0.0f pad, shows up.
TEST(PackConvB, PanelsEqualStagedValues) {
  const auto bits = [](float v) { return std::bit_cast<std::uint32_t>(v); };
  int cases = 0;
  for (int kernel : {1, 3, 5, 7})
    for (int stride : {1, 2})
      for (int pad = 0; pad <= 3; ++pad)
        for (int out_w : {7, 14, 28, 56}) {
          const int images = 1 + cases++ % 3;
          // The smallest output height of at least 2 whose input is real.
          int out_h = 2;
          while ((out_h - 1) * stride + kernel - 2 * pad < 1) ++out_h;
          const ConvLowering l{(out_h - 1) * stride + kernel - 2 * pad,
                               (out_w - 1) * stride + kernel - 2 * pad,
                               kernel, stride, pad};
          ASSERT_TRUE(l.valid());
          ASSERT_EQ(l.out_w(), out_w);
          const int channels = 2;
          Rng rng(static_cast<std::uint64_t>(cases));
          const Matrixf input =
              rand_mat(images * channels, l.in_h * l.in_w, rng);
          GemmOperands g;
          g.b = input.data();
          g.lowering = l;
          g.dims = {16, out_h * out_w * images, channels * kernel * kernel};
          const int panels = micro_panel_count(PanelSide::kB, g.dims);
          const int steps = (g.dims.k + kMicroK - 1) / kMicroK;
          for (Precision prec : {Precision::kFp32, Precision::kFp16}) {
            g.precision = prec;
            const std::string what =
                std::to_string(kernel) + "x" + std::to_string(kernel) +
                "/s" + std::to_string(stride) + "/p" + std::to_string(pad) +
                "/out " + std::to_string(out_h) + "x" +
                std::to_string(out_w) + "/n" + std::to_string(images) +
                (prec == Precision::kFp16 ? "/fp16" : "/fp32");
            // Chunk (first panel, panels, first step, steps): the whole set,
            // then every 3-panel x 5-step chunk.
            std::vector<std::array<int, 4>> chunks = {{0, panels, 0, steps}};
            for (int p0 = 0; p0 < panels; p0 += 3)
              for (int s0 = 0; s0 < steps; s0 += 5)
                chunks.push_back({p0, std::min(3, panels - p0), s0,
                                  std::min(5, steps - s0)});
            for (const auto& [p0, np, s0, ns] : chunks) {
              std::vector<float> out(
                  static_cast<std::size_t>(np) * ns * kMicroBlock,
                  std::nanf("1"));
              pack_panels(PanelSide::kB, g, p0, np, s0, s0 + ns, out.data());
              for (int c = 0; c < np; ++c)
                for (int step = 0; step < ns; ++step)
                  for (int p = 0; p < kMicroK; ++p)
                    for (int j = 0; j < kMicroTile; ++j) {
                      const int k = (s0 + step) * kMicroK + p;
                      const int col = (p0 + c) * kMicroTile + j;
                      ASSERT_EQ(bits(out[((static_cast<std::size_t>(c) * ns +
                                           step) * kMicroK + p) *
                                             kMicroTile + j]),
                                bits(staged_b_value(g, k, col)))
                          << what << " chunk (" << p0 << ", " << np << ", "
                          << s0 << ", " << ns << ") B(" << k << ", " << col
                          << ")";
                    }
            }
          }
        }
}

}  // namespace
}  // namespace ctb
