// The tile pipeline's one accumulation loop (the per-ISA micro-kernels of
// kernels/simd.hpp over kernels/packing.hpp micro-panels): every strategy
// packs when the call's budget admits it, whatever its BK or sub-tiles;
// packed micro-panels must reproduce the exact guarded staged values
// (transpose, fp16 rounding, zero padding); and the executors, whose tiles
// read per-call panel sets, must be bit-identical to execute_tile, whose
// tiles stage their own micro-panels, and to reference_gemm for edge and
// interior tiles, over stored and convolution-lowered B alike — also when
// GEMMs of one call share a panel set under different strategies, and when
// calls reuse, or run concurrently on, per-thread pack arenas.
#include <gtest/gtest.h>

#include <span>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "kernels/functional.hpp"
#include "kernels/packing.hpp"
#include "kernels/simd.hpp"
#include "telemetry/telemetry.hpp"
#include "util/parallel.hpp"
#include "run_uniform.hpp"

namespace ctb {
namespace {

Matrixf rand_mat(int r, int c, Rng& rng) {
  Matrixf m(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
  fill_random(m, rng);
  return m;
}

void expect_bitwise_equal(const Matrixf& lhs, const Matrixf& rhs,
                          const std::string& what) {
  ASSERT_EQ(lhs.rows(), rhs.rows());
  ASSERT_EQ(lhs.cols(), rhs.cols());
  const auto l = lhs.flat();
  const auto r = rhs.flat();
  for (std::size_t i = 0; i < l.size(); ++i) {
    ASSERT_EQ(l[i], r[i]) << what << " diverges at flat index " << i;
  }
}

// A convolution whose lowering is a GEMM's B: `channels` planes of
// in_h x in_w per image.
struct ConvGeometry {
  int channels, in_h, in_w, kernel, stride, pad, images;

  ConvLowering lowering() const { return {in_h, in_w, kernel, stride, pad}; }
  GemmDims dims(int m) const {
    const ConvLowering l = lowering();
    return {m, l.out_h() * l.out_w() * images, channels * kernel * kernel};
  }
  std::string name() const {
    return std::to_string(channels) + "x" + std::to_string(in_h) + "x" +
           std::to_string(in_w) + "/k" + std::to_string(kernel) + "s" +
           std::to_string(stride) + "p" + std::to_string(pad) + "/n" +
           std::to_string(images);
  }
};

// Every kernel (1, 3, 5, 7) x stride (1, 2) x pad (0-3) once, over 1-3
// images of a 2-channel 9x11 input.
std::vector<ConvGeometry> conv_geometries() {
  std::vector<ConvGeometry> geos;
  for (int kernel : {1, 3, 5, 7})
    for (int stride : {1, 2})
      for (int pad = 0; pad <= 3; ++pad)
        geos.push_back({2, 9, 11, kernel, stride, pad,
                        1 + static_cast<int>(geos.size() % 3)});
  return geos;
}

// One GEMM case owning its operand storage; op/precision-aware, with a
// stored or a convolution-lowered B.
struct GemmCase {
  Matrixf a, b, c;
  GemmOperands ops;

  GemmCase(const GemmDims& d, Op op_a, Op op_b, Precision prec,
           std::uint64_t seed) {
    Rng rng(seed);
    a = op_a == Op::kN ? rand_mat(d.m, d.k, rng) : rand_mat(d.k, d.m, rng);
    b = op_b == Op::kN ? rand_mat(d.k, d.n, rng) : rand_mat(d.n, d.k, rng);
    c = rand_mat(d.m, d.n, rng);
    ops = operands(a, b, c, op_a, op_b);
    ops.precision = prec;
  }

  // Implicit-GEMM style: `b` holds the NCHW input, one row per (image,
  // channel) plane, and B is its lowering under `geo`.
  GemmCase(const ConvGeometry& geo, int m, Precision prec,
           std::uint64_t seed) {
    const GemmDims d = geo.dims(m);
    Rng rng(seed);
    a = rand_mat(d.m, d.k, rng);
    b = rand_mat(geo.images * geo.channels, geo.in_h * geo.in_w, rng);
    c = rand_mat(d.m, d.n, rng);
    ops.a = a.data();
    ops.b = b.data();
    ops.c = c.data();
    ops.dims = d;
    ops.precision = prec;
    ops.lowering = geo.lowering();
  }
};

std::int64_t counter_value(const telemetry::MetricsSnapshot& snap,
                           const std::string& name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return c.value;
  ADD_FAILURE() << "counter " << name << " missing from snapshot";
  return -1;
}

// Ragged dims relative to a strategy: interior tiles plus an edge tile in
// every direction, K not a multiple of BK.
GemmDims ragged_dims(const TilingStrategy& s) {
  return GemmDims{2 * s.by + 3, 2 * s.bx + 5, 2 * s.bk + 3};
}

// A GEMM past the call's pack budget (m, n <= 16): its one A and one B
// micro-panel of ceil(K / 8) steps are one step more than
// kPackCallBudgetBytes holds, so its tiles run staged.
GemmDims over_budget_dims(int m, int n) {
  const auto steps = kPackCallBudgetBytes / (2 * kMicroBlock * sizeof(float));
  return {m, n, static_cast<int>(steps + 1) * kMicroK};
}

// Runs every tile of `g` through execute_tile: the staged mode, each tile
// packing its own micro-panels.
void execute_every_tile(const TilingStrategy& s, const GemmOperands& g,
                        float alpha, float beta) {
  for (int ty = 0; ty * s.by < g.dims.m; ++ty)
    for (int tx = 0; tx * s.bx < g.dims.n; ++tx)
      execute_tile(s, g, ty, tx, alpha, beta);
}

// Runs one GEMM three ways on fresh copies — its uniform plan (packed per
// call), execute_tile over every tile (staged per tile) and reference_gemm —
// and asserts bitwise-identical C. Every mode ends in the same tile store,
// so the reference arm is the one that checks the store.
template <typename MakeCase>
void expect_paths_agree(MakeCase&& make, const TilingStrategy& s, float alpha,
                        float beta, const std::string& what) {
  auto packed_case = make();
  run_uniform(s, packed_case.ops, alpha, beta);
  auto staged_case = make();
  execute_every_tile(s, staged_case.ops, alpha, beta);
  auto reference_case = make();
  reference_gemm(reference_case.ops, alpha, beta);
  expect_bitwise_equal(packed_case.c, staged_case.c, what + " vs staged");
  expect_bitwise_equal(packed_case.c, reference_case.c,
                       what + " vs reference_gemm");
}

// The exec.dispatch.* and exec.simd.* counters, which partition a call's
// tiles by path and by ISA.
const char* const kDispatchCounters[] = {
    "exec.dispatch.specialized", "exec.dispatch.generic", "exec.simd.scalar",
    "exec.simd.neon",            "exec.simd.avx2",        "exec.simd.avx512"};

using Counts = std::map<std::string, std::int64_t>;

// What a call counts when all of its `tiles` tiles ran packed under `isa`.
Counts packed_counts(long long tiles, SimdIsa isa) {
  Counts c;
  for (const char* name : kDispatchCounters) c[name] = 0;
  c["exec.dispatch.specialized"] = tiles;
  c[std::string("exec.simd.") + simd_isa_name(isa)] = tiles;
  return c;
}

// Runs `s` over ragged dims, checks C bitwise against reference_gemm, and
// checks the dispatch counts the call added against packed_counts.
void expect_packs_under(const TilingStrategy& s, SimdIsa isa,
                        const std::string& what) {
  const GemmDims d = ragged_dims(s);
  GemmCase run(d, Op::kN, Op::kT, Precision::kFp32, 1500);
  GemmCase reference(d, Op::kN, Op::kT, Precision::kFp32, 1500);
  telemetry::reset();
  telemetry::set_enabled(true);
  run_uniform(s, run.ops, 1.25f, 0.5f);
  const auto snap = telemetry::snapshot();
  Counts got;
  for (const char* name : kDispatchCounters)
    got[name] = counter_value(snap, name);
  telemetry::set_enabled(false);
  telemetry::reset();
  EXPECT_EQ(got, packed_counts(s.tiles_for(d.m, d.n), isa)) << what;
  reference_gemm(reference.ops, 1.25f, 0.5f);
  expect_bitwise_equal(run.c, reference.c, what);
}

// The packing rule: within the call's budget every Table-1/2 strategy
// packs, and its tiles run the active ISA's micro-kernel.
TEST(MicrokernelDispatch, EveryTable2IdPacks) {
  for (int id = 0; id < 12; ++id) {
    const TilingStrategy& s = batched_strategy_by_id(id);
    expect_packs_under(s, active_simd_isa(), s.name());
  }
}

TEST(MicrokernelDispatch, Table1SuitePacks) {
  for (const TilingStrategy& s : single_gemm_strategies())
    expect_packs_under(s, active_simd_isa(), "table1/" + s.name());
}

// Neither BK nor the sub-tiles enter the packing rule: a BK = 4 strategy
// (micro-panels pad K to 8, adding only +0 products) and a 32x32 strategy
// with 4x8 sub-tiles (sub-tiles exist only in the timing model) pack and
// run the active micro-kernel.
TEST(MicrokernelDispatch, PackingIgnoresBkAndSubTiles) {
  TilingStrategy bk4 = batched_strategy_by_id(0);
  bk4.bk = 4;
  expect_packs_under(bk4, active_simd_isa(), "bk4");
  TilingStrategy sub4x8 = batched_strategy_by_id(2);
  sub4x8.sub_x = 8;
  sub4x8.threads = 32;
  expect_packs_under(sub4x8, active_simd_isa(), "sub4x8");
}

// The packed micro-panel blocks must hold exactly the values the guarded
// staging produces — including the zero padding past M/N/K edges and fp16
// rounding — for both storage layouts (packing_test covers lowered B). The
// shapes cover full blocks (the fixed-width copies and transposes), edges
// in every direction and a GEMM smaller than one block. The output buffers
// start out NaN-filled, as the reused pack arena holds stale floats, so a
// float the packer fails to write shows up; values compare as bits, so a
// -0.0f padding would too.
TEST(Packing, PanelsReproduceStagedValuesIncludingPadding) {
  const auto bits = [](float v) { return std::bit_cast<std::uint32_t>(v); };
  for (const GemmDims& d : {GemmDims{35, 37, 19}, GemmDims{11, 13, 5},
                            GemmDims{48, 32, 24}, GemmDims{40, 72, 23}}) {
    for (Op op_a : {Op::kN, Op::kT})
      for (Op op_b : {Op::kN, Op::kT})
        for (Precision prec : {Precision::kFp32, Precision::kFp16}) {
          const GemmCase gc(d, op_a, op_b, prec, 77 + d.m);
          const std::string what =
              std::to_string(d.m) + "x" + std::to_string(d.n) + "x" +
              std::to_string(d.k) + "/op_a=" + to_string(op_a) +
              "/op_b=" + to_string(op_b) +
              (prec == Precision::kFp16 ? "/fp16" : "/fp32");
          std::vector<float> a(panel_set_floats(PanelSide::kA, d),
                               std::nanf("1"));
          std::vector<float> b(panel_set_floats(PanelSide::kB, d),
                               std::nanf("1"));
          pack_panel_set(PanelSide::kA, gc.ops, a.data());
          pack_panel_set(PanelSide::kB, gc.ops, b.data());
          const PackedGemm pk = packed_view(d, a.data(), b.data());
          ASSERT_EQ(micro_panel_count(PanelSide::kA, d), (d.m + 15) / 16);
          ASSERT_EQ(micro_panel_count(PanelSide::kB, d), (d.n + 15) / 16);
          ASSERT_EQ(pk.nsteps, (d.k + 7) / 8);
          for (int r = 0; r < micro_panel_count(PanelSide::kA, d); ++r) {
            const float* panel = pk.a_panel(r);
            for (int step = 0; step < pk.nsteps; ++step)
              for (int i = 0; i < 16; ++i)
                for (int p = 0; p < 8; ++p)
                  ASSERT_EQ(bits(panel[(step * 16 + i) * 8 + p]),
                            bits(staged_a_value(gc.ops, r * 16 + i,
                                                step * 8 + p)))
                      << what << " A panel " << r << " step " << step
                      << " (" << i << ", " << p << ")";
          }
          for (int c = 0; c < micro_panel_count(PanelSide::kB, d); ++c) {
            const float* panel = pk.b_panel(c);
            for (int step = 0; step < pk.nsteps; ++step)
              for (int p = 0; p < 8; ++p)
                for (int j = 0; j < 16; ++j)
                  ASSERT_EQ(bits(panel[(step * 8 + p) * 16 + j]),
                            bits(staged_b_value(gc.ops, step * 8 + p,
                                                c * 16 + j)))
                      << what << " B panel " << c << " step " << step
                      << " (" << p << ", " << j << ")";
          }
        }
  }
}

TEST(Packing, FootprintMatchesAllocation) {
  const GemmDims d{200, 150, 100};
  EXPECT_EQ((panel_set_floats(PanelSide::kA, d) +
             panel_set_floats(PanelSide::kB, d)) *
                sizeof(float),
            pack_footprint_bytes(d));
  EXPECT_EQ(pack_footprint_bytes(d), (13u + 10u) * 13u * 128u * 4u);
}

// Panel-set identity: the strategy is no part of it, so the B of two GEMMs
// that read it under different strategies matches (as does an A two GEMMs
// read with different N); keys that differ in operand, side, op, extent,
// K or precision never match. A lowered B matches exactly the lowered Bs
// over the same input with the same geometry — the rule that lets the
// convs of one inception stage share one B — and no stored B.
TEST(Packing, PanelKeysMatchOnlyIdenticalSets) {
  const GemmCase gc({100, 90, 40}, Op::kN, Op::kN, Precision::kFp32, 5);
  const PanelKey a = panel_key(PanelSide::kA, gc.ops);
  const PanelKey b = panel_key(PanelSide::kB, gc.ops);
  GemmOperands other = gc.ops;  // another GEMM over the same B
  other.dims.m = 64;
  other.a = gc.c.data();
  EXPECT_EQ(b, panel_key(PanelSide::kB, other));
  other = gc.ops;  // another GEMM over the same A
  other.dims.n = 31;
  EXPECT_EQ(a, panel_key(PanelSide::kA, other));
  other = gc.ops;
  other.b = gc.c.data();
  EXPECT_NE(b, panel_key(PanelSide::kB, other));  // operand
  other = gc.ops;
  other.op_b = Op::kT;
  EXPECT_NE(b, panel_key(PanelSide::kB, other));
  other = gc.ops;
  other.precision = Precision::kFp16;
  EXPECT_NE(b, panel_key(PanelSide::kB, other));
  other = gc.ops;
  other.dims.n = 89;
  EXPECT_NE(b, panel_key(PanelSide::kB, other));
  other = gc.ops;
  other.dims.k = 39;
  EXPECT_NE(b, panel_key(PanelSide::kB, other));
  EXPECT_NE(b, a);  // side

  const ConvGeometry geo{2, 9, 11, 3, 1, 1, 2};
  const GemmCase conv(geo, 40, Precision::kFp32, 6);
  const PanelKey lowered = panel_key(PanelSide::kB, conv.ops);
  other = conv.ops;  // another conv over the same input and geometry
  other.dims.m = 24;
  other.a = conv.c.data();
  EXPECT_EQ(lowered, panel_key(PanelSide::kB, other));
  other = conv.ops;
  other.b = conv.a.data();
  EXPECT_NE(lowered, panel_key(PanelSide::kB, other));  // input
  for (int field = 0; field < 5; ++field) {
    other = conv.ops;
    int* const fields[] = {&other.lowering.in_h, &other.lowering.in_w,
                           &other.lowering.kernel, &other.lowering.stride,
                           &other.lowering.pad};
    ++*fields[field];
    EXPECT_NE(lowered, panel_key(PanelSide::kB, other)) << "field " << field;
  }
  other = conv.ops;
  other.lowering = ConvLowering{};  // the same floats read as a stored B
  EXPECT_NE(lowered, panel_key(PanelSide::kB, other));
}

// Core bit-exactness sweep: all 12 Table-2 strategies x {fp32, fp16} x
// {kN, kT} on both operands, edge tiles included, with a non-trivial
// alpha/beta epilogue; plus three lowered-B convolutions per strategy,
// which together take every geometry of conv_geometries().
TEST(Microkernel, PackedMatchesStagedAllStrategies) {
  const std::vector<ConvGeometry> geos = conv_geometries();
  for (int id = 0; id < 12; ++id) {
    const TilingStrategy& s = batched_strategy_by_id(id);
    const GemmDims d = ragged_dims(s);
    for (Precision prec : {Precision::kFp32, Precision::kFp16}) {
      for (Op op_a : {Op::kN, Op::kT}) {
        for (Op op_b : {Op::kN, Op::kT}) {
          expect_paths_agree(
              [&] { return GemmCase(d, op_a, op_b, prec, 100 + id); },
              s, 1.25f, 0.5f,
              s.name() + (prec == Precision::kFp16 ? "/fp16" : "/fp32") +
                  "/op_a=" + to_string(op_a) + "/op_b=" + to_string(op_b));
        }
      }
      for (int g = 0; g < 3; ++g) {
        const ConvGeometry& geo = geos[static_cast<std::size_t>(3 * id + g) %
                                       geos.size()];
        expect_paths_agree(
            [&] { return GemmCase(geo, d.m, prec, 200 + id); }, s, 1.0f,
            0.0f, s.name() + "/conv " + geo.name());
      }
    }
  }
}

// Dims exact multiples of the tile: every tile is full, so no row store
// takes a masked tail. Also pins beta == 0 (prior skipped entirely).
TEST(Microkernel, FullTilesBitExact) {
  for (int id : {0, 5, 11}) {
    const TilingStrategy& s = batched_strategy_by_id(id);
    const GemmDims d{2 * s.by, 2 * s.bx, 3 * s.bk};
    expect_paths_agree(
        [&] { return GemmCase(d, Op::kN, Op::kN, Precision::kFp32,
                              300 + id); },
        s, 1.0f, 0.0f, s.name() + "/full-tile");
  }
}

TEST(Microkernel, Table1SingleGemmSuiteBitExact) {
  for (const TilingStrategy& s : single_gemm_strategies()) {
    const GemmDims d = ragged_dims(s);
    expect_paths_agree(
        [&] { return GemmCase(d, Op::kN, Op::kN, Precision::kFp32, 400); },
        s, 2.0f, 1.0f, "table1/" + s.name());
  }
}

// Batch case for the vbatch / batched-plan executors.
struct BatchCase {
  std::vector<GemmCase> gemms;
  std::vector<GemmOperands> ops;

  explicit BatchCase(std::span<const GemmDims> dims, std::uint64_t seed,
                     Precision prec = Precision::kFp32) {
    for (std::size_t i = 0; i < dims.size(); ++i)
      gemms.emplace_back(dims[i], Op::kN, Op::kN, prec, seed + 10 * i);
    for (auto& g : gemms) ops.push_back(g.ops);
  }
};

const std::vector<GemmDims>& ragged_batch() {
  static const std::vector<GemmDims> dims = {
      {33, 65, 19}, {128, 128, 64},  {100, 40, 77},
      {16, 16, 3},  {129, 257, 100}, {5, 7, 11},
  };
  return dims;
}

// The staged and reference arms of a batch executor's run: GEMM i of fresh
// copies of `dims` (seed `seed`) through execute_tile over every tile under
// *strategies[i], and through reference_gemm. `got` must match both bit
// for bit.
void expect_batch_matches_staged(const BatchCase& got,
                                 std::span<const GemmDims> dims,
                                 std::uint64_t seed,
                                 std::span<const TilingStrategy* const> s,
                                 float alpha, float beta,
                                 const std::string& what) {
  BatchCase staged(dims, seed), reference(dims, seed);
  for (std::size_t i = 0; i < dims.size(); ++i) {
    const std::string gemm = what + "/gemm" + std::to_string(i);
    execute_every_tile(*s[i], staged.ops[i], alpha, beta);
    reference_gemm(reference.ops[i], alpha, beta);
    expect_bitwise_equal(got.gemms[i].c, staged.gemms[i].c,
                         gemm + " vs staged");
    expect_bitwise_equal(got.gemms[i].c, reference.gemms[i].c,
                         gemm + " vs reference_gemm");
  }
}

// The strategy each GEMM of `plan` runs under.
std::vector<const TilingStrategy*> plan_strategies(const BatchPlan& plan,
                                                   std::size_t gemms) {
  std::vector<const TilingStrategy*> s(gemms, nullptr);
  for (std::size_t t = 0; t < plan.gemm_of_tile.size(); ++t)
    s[static_cast<std::size_t>(plan.gemm_of_tile[t])] =
        &batched_strategy_by_id(plan.strategy_of_tile[t]);
  return s;
}

TEST(Microkernel, VbatchPackedMatchesStaged) {
  for (auto shape : {TileShape::kSmall, TileShape::kLarge}) {
    const TilingStrategy& s = single_gemm_strategy(shape);
    auto packed_case = BatchCase(ragged_batch(), 500);
    run_uniform(s, packed_case.ops, 1.0f, 0.5f);
    const std::vector<const TilingStrategy*> uniform(ragged_batch().size(),
                                                     &s);
    expect_batch_matches_staged(packed_case, ragged_batch(), 500, uniform,
                                1.0f, 0.5f, "vbatch/" + s.name());
  }
}

// Full pipeline: the planner mixes strategies across GEMMs; plan execution
// over packed panels must match every GEMM's staged tiles bitwise for every
// policy.
TEST(Microkernel, BatchedPlanPackedMatchesStaged) {
  for (BatchingPolicy policy :
       {BatchingPolicy::kTilingOnly, BatchingPolicy::kThresholdOnly,
        BatchingPolicy::kBinaryOnly}) {
    PlannerConfig config;
    config.policy = policy;
    const BatchedGemmPlanner planner(config);
    const PlanSummary summary = planner.plan(ragged_batch());

    auto packed_case = BatchCase(ragged_batch(), 600);
    execute_plan(summary.plan, packed_case.ops, 1.5f, 0.25f);
    expect_batch_matches_staged(
        packed_case, ragged_batch(), 600,
        plan_strategies(summary.plan, ragged_batch().size()), 1.5f, 0.25f,
        std::string("plan/") + to_string(policy));
  }
}

// Packed tiles must stay bit-exact under host block parallelism
// (parallel_exec_test pins every executor the same way).
TEST(Microkernel, SpecializedParallelMatchesSerial) {
  const TilingStrategy& s = batched_strategy_by_id(5);
  const GemmDims d = ragged_dims(s);
  GemmCase serial_case(d, Op::kN, Op::kN, Precision::kFp32, 700);
  {
    ScopedParallelThreads guard(1);
    run_uniform(s, serial_case.ops, 1.0f, 0.0f);
  }
  GemmCase parallel_case(d, Op::kN, Op::kN, Precision::kFp32, 700);
  {
    ScopedParallelThreads guard(4);
    run_uniform(s, parallel_case.ops, 1.0f, 0.0f);
  }
  expect_bitwise_equal(serial_case.c, parallel_case.c, "parallel");
}

// The per-GEMM packing pass itself runs under parallel_for in the vbatch
// and batched-plan paths; budget decisions stay serial in batch order, so
// the same GEMMs pack regardless of thread count and the packed panels (and
// therefore C) must be bit-identical between serial and parallel packing.
TEST(Microkernel, ParallelPackingBitExact) {
  const TilingStrategy& s = single_gemm_strategy(TileShape::kMedium);
  auto serial_vbatch = BatchCase(ragged_batch(), 900);
  {
    ScopedParallelThreads guard(1);
    run_uniform(s, serial_vbatch.ops, 1.0f, 0.5f);
  }
  auto parallel_vbatch = BatchCase(ragged_batch(), 900);
  {
    ScopedParallelThreads guard(4);
    run_uniform(s, parallel_vbatch.ops, 1.0f, 0.5f);
  }
  for (std::size_t i = 0; i < serial_vbatch.gemms.size(); ++i)
    expect_bitwise_equal(serial_vbatch.gemms[i].c, parallel_vbatch.gemms[i].c,
                         "parallel-pack/vbatch/gemm" + std::to_string(i));

  PlannerConfig config;
  config.policy = BatchingPolicy::kThresholdOnly;
  const BatchedGemmPlanner planner(config);
  const PlanSummary summary = planner.plan(ragged_batch());
  auto serial_plan = BatchCase(ragged_batch(), 901);
  {
    ScopedParallelThreads guard(1);
    execute_plan(summary.plan, serial_plan.ops, 1.5f, 0.25f);
  }
  auto parallel_plan = BatchCase(ragged_batch(), 901);
  {
    ScopedParallelThreads guard(4);
    execute_plan(summary.plan, parallel_plan.ops, 1.5f, 0.25f);
  }
  for (std::size_t i = 0; i < serial_plan.gemms.size(); ++i)
    expect_bitwise_equal(serial_plan.gemms[i].c, parallel_plan.gemms[i].c,
                         "parallel-pack/plan/gemm" + std::to_string(i));
}

// ---------------------------------------------------------- SIMD dispatch --
// The micro-kernels (kernels/simd.hpp) must be bit-identical packed and
// staged under every ISA the host can run, and dispatch must fall back to
// the scalar kernel cleanly everywhere else.

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

// Every Table-1/2 strategy packs under every ISA, so all of its tiles count
// under the ISA whose micro-kernel ran them.
TEST(SimdDispatch, EveryTable2IdResolvesUnderEveryRunnableIsa) {
  for (SimdIsa isa : runnable_isas()) {
    ScopedSimdIsa guard(isa);
    const std::string tag = std::string("/") + simd_isa_name(isa);
    for (int id = 0; id < 12; ++id) {
      const TilingStrategy& s = batched_strategy_by_id(id);
      expect_packs_under(s, isa, s.name() + tag);
    }
    for (const TilingStrategy& s : single_gemm_strategies())
      expect_packs_under(s, isa, "table1/" + s.name() + tag);
  }
}

TEST(SimdDispatch, OddGeometriesAndKernellessIsas) {
  // BK = 4 packs and runs each ISA's micro-kernel.
  TilingStrategy bk4 = batched_strategy_by_id(0);
  bk4.bk = 4;
  for (SimdIsa isa : runnable_isas()) {
    ScopedSimdIsa guard(isa);
    expect_packs_under(bk4, isa, std::string("bk4/") + simd_isa_name(isa));
  }
  // An ISA the host reaches but has no kernel for (neon on x86-64) runs
  // the scalar micro-kernel, and its tiles count as scalar.
  if (detected_simd_isa() >= SimdIsa::kNeon &&
      simd_micro_kernel(SimdIsa::kNeon) == nullptr) {
    ScopedSimdIsa guard(SimdIsa::kNeon);
    expect_packs_under(bk4, SimdIsa::kScalar, "bk4/kernelless-neon");
  }
  // Requesting an ISA beyond the host clamps rather than dispatching a
  // kernel the CPU cannot execute.
  {
    ScopedSimdIsa guard(SimdIsa::kAvx512);
    EXPECT_LE(static_cast<int>(active_simd_isa()),
              static_cast<int>(detected_simd_isa()));
  }
}

// The acceptance sweep: every Table-2 strategy x {fp32, fp16} x {N, T} on
// both operands and a lowered-B convolution, ragged dims (edge tiles +
// padded K),
// packed bitwise equal to staged and to reference_gemm under EVERY runnable
// ISA.
TEST(SimdDispatch, PackedMatchesStagedAllStrategiesAllIsas) {
  const std::vector<ConvGeometry> geos = conv_geometries();
  for (SimdIsa isa : runnable_isas()) {
    ScopedSimdIsa guard(isa);
    const std::string tag = std::string("/") + simd_isa_name(isa);
    for (int id = 0; id < 12; ++id) {
      const TilingStrategy& s = batched_strategy_by_id(id);
      const GemmDims d = ragged_dims(s);
      for (Precision prec : {Precision::kFp32, Precision::kFp16}) {
        for (Op op_a : {Op::kN, Op::kT}) {
          for (Op op_b : {Op::kN, Op::kT}) {
            expect_paths_agree(
                [&] { return GemmCase(d, op_a, op_b, prec, 100 + id); },
                s, 1.25f, 0.5f,
                s.name() + (prec == Precision::kFp16 ? "/fp16" : "/fp32") +
                    "/op_a=" + to_string(op_a) + "/op_b=" + to_string(op_b) +
                    tag);
          }
        }
        const ConvGeometry& geo =
            geos[static_cast<std::size_t>(id) % geos.size()];
        expect_paths_agree(
            [&] { return GemmCase(geo, d.m, prec, 200 + id); }, s, 1.0f,
            0.0f, s.name() + "/conv " + geo.name() + tag);
      }
    }
    for (const TilingStrategy& s : single_gemm_strategies()) {
      const GemmDims d = ragged_dims(s);
      expect_paths_agree(
          [&] {
            return GemmCase(d, Op::kN, Op::kN, Precision::kFp32, 400);
          },
          s, 2.0f, 1.0f,
          "table1/" + s.name() + tag);
    }
  }
}

// Cross-ISA: the vector micro-kernels must agree bitwise with the scalar
// one directly (not just transitively via reference_gemm), and stay
// bit-exact at any thread count.
TEST(SimdDispatch, VectorIsaMatchesScalarIsaAtAnyThreadCount) {
  for (SimdIsa isa : runnable_isas()) {
    if (isa == SimdIsa::kScalar) continue;
    for (int id : {0, 3, 5, 7, 9, 11}) {
      const TilingStrategy& s = batched_strategy_by_id(id);
      const GemmDims d = ragged_dims(s);
      for (int threads : {1, 4}) {
        ScopedParallelThreads par(threads);
        GemmCase vec_case(d, Op::kN, Op::kT, Precision::kFp32, 1000);
        {
          ScopedSimdIsa guard(isa);
          run_uniform(s, vec_case.ops, 1.0f, 0.5f);
        }
        GemmCase scalar_case(d, Op::kN, Op::kT, Precision::kFp32, 1000);
        {
          ScopedSimdIsa guard(SimdIsa::kScalar);
          run_uniform(s, scalar_case.ops, 1.0f, 0.5f);
        }
        expect_bitwise_equal(vec_case.c, scalar_case.c,
                             s.name() + "/" + simd_isa_name(isa) +
                                 "-vs-scalar/threads" +
                                 std::to_string(threads));
      }
    }
  }
}

// Batched executors under the vector ISA (the single-GEMM sweep above
// already covers every geometry; this pins the vbatch/plan wiring).
TEST(SimdDispatch, BatchedExecutorsBitExactUnderVectorIsa) {
  if (detected_simd_isa() == SimdIsa::kScalar)
    GTEST_SKIP() << "host has no vector ISA";
  ScopedSimdIsa guard(detected_simd_isa());
  const TilingStrategy& s = single_gemm_strategy(TileShape::kLarge);
  auto packed_case = BatchCase(ragged_batch(), 500);
  run_uniform(s, packed_case.ops, 1.0f, 0.5f);
  const std::vector<const TilingStrategy*> uniform(ragged_batch().size(), &s);
  expect_batch_matches_staged(packed_case, ragged_batch(), 500, uniform, 1.0f,
                              0.5f, "simd-vbatch");

  PlannerConfig config;
  config.policy = BatchingPolicy::kThresholdOnly;
  const BatchedGemmPlanner planner(config);
  const PlanSummary summary = planner.plan(ragged_batch());
  auto packed_plan = BatchCase(ragged_batch(), 600);
  execute_plan(summary.plan, packed_plan.ops, 1.5f, 0.25f);
  expect_batch_matches_staged(
      packed_plan, ragged_batch(), 600,
      plan_strategies(summary.plan, ragged_batch().size()), 1.5f, 0.25f,
      "simd-plan");
}

// --------------------------------------- shared panel sets and arenas ----
// GEMMs of one call that read the same operand share one panel set,
// whatever their strategies; every set of a call is carved from the calling
// thread's reused arena. Sharing and reuse must change nothing but the
// exec.pack.{panels,bytes,reuse} counts.

/// One tile per block over explicit per-GEMM strategies (all of one thread
/// variant), optionally split along K into `splitk` slices.
BatchPlan explicit_plan(std::span<const GemmDims> dims,
                        std::span<const TilingStrategy* const> strategies,
                        int splitk = 1) {
  const std::vector<Tile> tiles =
      split_tiles_k(enumerate_tiles(dims, strategies), splitk);
  std::vector<std::vector<Tile>> blocks;
  for (const Tile& t : tiles) blocks.push_back({t});
  return build_plan(blocks, strategies[0]->threads);
}

/// A batch whose GEMMs all read one B — the im2col matrix an inception
/// stage 1 feeds its four branch convs, or x in a weight-gradient step —
/// each with its own A and C. Every GEMM has dims[0]'s N and K.
struct SharedBCase {
  Matrixf b;
  std::vector<Matrixf> a, c;
  std::vector<GemmOperands> ops;

  SharedBCase(std::span<const GemmDims> dims, Op op_a, Op op_b,
              std::uint64_t seed) {
    Rng rng(seed);
    const int n = dims[0].n, k = dims[0].k;
    b = op_b == Op::kN ? rand_mat(k, n, rng) : rand_mat(n, k, rng);
    for (const GemmDims& d : dims) {
      a.push_back(op_a == Op::kN ? rand_mat(d.m, k, rng)
                                 : rand_mat(k, d.m, rng));
      c.push_back(rand_mat(d.m, n, rng));
    }
    for (std::size_t i = 0; i < dims.size(); ++i)
      ops.push_back(operands(a[i], b, c[i], op_a, op_b));
  }
};

struct SharingCase {
  std::string name;
  std::vector<GemmDims> dims;
  std::vector<const TilingStrategy*> strategies;
  Op op_a, op_b;
  int splitk;
};

std::vector<SharingCase> sharing_cases() {
  const TilingStrategy* small = &batched_strategy_by_id(0);    // 16x16
  const TilingStrategy* medium = &batched_strategy_by_id(2);   // 32x32
  const TilingStrategy* large = &batched_strategy_by_id(4);    // 64x64
  const TilingStrategy* tall = &batched_strategy_by_id(6);     // 128x64
  const TilingStrategy* large256 = &batched_strategy_by_id(5); // 64x64
  const TilingStrategy* tall256 = &batched_strategy_by_id(7);  // 128x64
  // Inception 3a stage 1 at 14x14: four 1x1 branch convs over one im2col.
  const std::vector<GemmDims> stage1 = {
      {64, 196, 96}, {96, 196, 96}, {16, 196, 96}, {32, 196, 96}};
  // Inception 3b weight gradient: dW_i = dY_i x^T, x stored C_in x NHW.
  const std::vector<GemmDims> wgrad = {
      {128, 96, 203}, {128, 96, 203}, {32, 96, 203}, {64, 96, 203}};
  return {
      {"stage1/bx-agree", stage1, {large, tall, large, large}, Op::kN,
       Op::kN, 1},
      {"stage1/bx-disagree", stage1, {large, tall, medium, small}, Op::kN,
       Op::kN, 1},
      {"wgrad-nt/split", wgrad, {tall256, tall256, large256, large256},
       Op::kN, Op::kT, 3},
  };
}

/// Micro-panel reads of every tile of `plan`: one A panel per 16 in-range
/// rows and one B panel per 16 in-range columns — what exec.pack.reuse
/// counts before subtracting the distinct panels packed.
std::int64_t micro_panel_reads(const BatchPlan& plan,
                               std::span<const GemmDims> dims,
                               std::span<const TilingStrategy* const> s) {
  std::int64_t reads = 0;
  for (int t = 0; t < plan.num_tiles(); ++t) {
    const auto ti = static_cast<std::size_t>(t);
    const auto z = static_cast<std::size_t>(plan.gemm_of_tile[ti]);
    const int rows = std::min(s[z]->by, dims[z].m - plan.y_coord[ti] * s[z]->by);
    const int cols = std::min(s[z]->bx, dims[z].n - plan.x_coord[ti] * s[z]->bx);
    reads += (rows + 15) / 16 + (cols + 15) / 16;
  }
  return reads;
}

TEST(PackSharing, DistinctPanelSetsPackedOnceBitExact) {
  for (const SharingCase& sc : sharing_cases()) {
    const BatchPlan plan = explicit_plan(sc.dims, sc.strategies, sc.splitk);
    // The distinct sets: one A per GEMM and the one shared B, whether or
    // not the strategies agree on BX.
    std::int64_t panels = micro_panel_count(PanelSide::kB, sc.dims[0]);
    std::int64_t bytes = static_cast<std::int64_t>(
        panel_set_floats(PanelSide::kB, sc.dims[0]) * sizeof(float));
    for (const GemmDims& d : sc.dims) {
      panels += micro_panel_count(PanelSide::kA, d);
      bytes += static_cast<std::int64_t>(
          panel_set_floats(PanelSide::kA, d) * sizeof(float));
    }
    const std::int64_t reads =
        micro_panel_reads(plan, sc.dims, sc.strategies);

    SharedBCase staged(sc.dims, sc.op_a, sc.op_b, 1100);
    for (std::size_t i = 0; i < sc.dims.size(); ++i)
      execute_every_tile(*sc.strategies[i], staged.ops[i], 1.5f, 0.0f);
    for (SimdIsa isa : runnable_isas()) {
      ScopedSimdIsa isa_guard(isa);
      for (int threads : {1, 4}) {
        ScopedParallelThreads par(threads);
        const std::string what = sc.name + "/" + simd_isa_name(isa) +
                                 "/threads" + std::to_string(threads);
        SharedBCase packed(sc.dims, sc.op_a, sc.op_b, 1100);
        telemetry::reset();
        telemetry::set_enabled(true);
        execute_plan(plan, packed.ops, 1.5f, 0.0f);
        const auto snap = telemetry::snapshot();
        EXPECT_EQ(counter_value(snap, "exec.pack.panels"), panels) << what;
        EXPECT_EQ(counter_value(snap, "exec.pack.bytes"), bytes) << what;
        EXPECT_EQ(counter_value(snap, "exec.pack.reuse"), reads - panels)
            << what;
        EXPECT_EQ(counter_value(snap, "exec.dispatch.specialized"),
                  plan.num_tiles())
            << what;
        telemetry::set_enabled(false);
        telemetry::reset();
        for (std::size_t i = 0; i < sc.dims.size(); ++i)
          expect_bitwise_equal(packed.c[i], staged.c[i],
                               what + "/gemm" + std::to_string(i));
        // A second call repacks into the reused arena: same bits again.
        execute_plan(plan, packed.ops, 1.5f, 0.0f);
        for (std::size_t i = 0; i < sc.dims.size(); ++i)
          expect_bitwise_equal(packed.c[i], staged.c[i],
                               what + "/rerun/gemm" + std::to_string(i));
      }
    }
  }
}

// Inception-train's forward dispatch at batch 1: four 1x1-conv GEMMs over
// one x (256 channels x 3136 pixels) whose planned strategies disagree on
// BX — tall (64), medium (32) and wide (128) — and one filter that two of
// them read under different BY (tall 128, medium 32). The call packs x
// once and the shared filter once, and every C matches reference_gemm bit
// for bit under every runnable ISA.
TEST(PackSharing, SharedOperandsPackOnceAcrossStrategies) {
  const TilingStrategy* tall = &batched_strategy_by_id(6);    // 128x64
  const TilingStrategy* medium = &batched_strategy_by_id(2);  // 32x32
  const TilingStrategy* wide = &batched_strategy_by_id(8);    // 64x128
  const std::vector<GemmDims> dims = {
      {64, 3136, 256}, {96, 3136, 256}, {16, 3136, 256}, {64, 3136, 256}};
  const std::vector<const TilingStrategy*> strategies = {tall, medium, wide,
                                                         medium};
  const BatchPlan plan = explicit_plan(dims, strategies);
  Rng rng(1500);
  const Matrixf x = rand_mat(256, 3136, rng);
  const std::vector<Matrixf> w = {rand_mat(64, 256, rng),
                                  rand_mat(96, 256, rng),
                                  rand_mat(16, 256, rng)};
  const std::size_t w_of[] = {0, 1, 2, 0};  // GEMMs 0 and 3 share w[0]
  const auto make = [&](std::vector<Matrixf>& c) {
    std::vector<GemmOperands> ops;
    for (std::size_t i = 0; i < dims.size(); ++i) {
      c.emplace_back(static_cast<std::size_t>(dims[i].m), 3136u);
      ops.push_back(operands(w[w_of[i]], x, c.back()));
    }
    return ops;
  };
  std::vector<Matrixf> want;
  want.reserve(dims.size());
  for (const GemmOperands& g : make(want)) reference_gemm(g, 1.0f, 0.0f);

  for (SimdIsa isa : runnable_isas()) {
    ScopedSimdIsa isa_guard(isa);
    const std::string what = simd_isa_name(isa);
    std::vector<Matrixf> got;
    got.reserve(dims.size());
    const std::vector<GemmOperands> ops = make(got);
    telemetry::reset();
    telemetry::set_enabled(true);
    execute_plan(plan, ops, 1.0f, 0.0f);
    // x: 196 micro-panels; the filters: 4 + 6 + 1, w[0] packed once. Each
    // micro-panel is 32 steps of 128 floats.
    const std::int64_t panels = 196 + 4 + 6 + 1;
    const auto snap = telemetry::snapshot();
    EXPECT_EQ(counter_value(snap, "exec.pack.panels"), panels) << what;
    EXPECT_EQ(counter_value(snap, "exec.pack.bytes"), panels * 32 * 128 * 4)
        << what;
    EXPECT_EQ(counter_value(snap, "exec.pack.reuse"),
              micro_panel_reads(plan, dims, strategies) - panels)
        << what;
    telemetry::set_enabled(false);
    telemetry::reset();
    for (std::size_t i = 0; i < dims.size(); ++i)
      expect_bitwise_equal(got[i], want[i],
                           what + "/gemm" + std::to_string(i));
  }
}

// Two threads executing plans at once: each packs into its own arena, and
// the calls alternate between a small and a large batch so every arena
// grows and is reused mid-stream. Outputs are disjoint; each must match
// its serial run bit for bit. The TSan and ASan legs run this binary.
TEST(PackArena, ConcurrentCallsUseSeparateArenas) {
  const std::vector<SharingCase> cases = sharing_cases();
  std::vector<BatchPlan> plans;
  for (const SharingCase& sc : cases)
    plans.push_back(explicit_plan(sc.dims, sc.strategies, sc.splitk));
  auto run_all = [&](std::vector<SharedBCase>& out, std::uint64_t seed) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      out.emplace_back(cases[i].dims, cases[i].op_a, cases[i].op_b,
                       seed + i);
      execute_plan(plans[i], out.back().ops, 1.0f, 0.0f);
    }
  };
  std::vector<SharedBCase> ref[2], got[2];
  run_all(ref[0], 1200);
  run_all(ref[1], 1300);
  std::thread t0([&] { run_all(got[0], 1200); });
  std::thread t1([&] { run_all(got[1], 1300); });
  t0.join();
  t1.join();
  for (int t = 0; t < 2; ++t)
    for (std::size_t i = 0; i < cases.size(); ++i)
      for (std::size_t g = 0; g < got[t][i].c.size(); ++g)
        expect_bitwise_equal(got[t][i].c[g], ref[t][i].c[g],
                             "thread" + std::to_string(t) + "/" +
                                 cases[i].name + "/gemm" + std::to_string(g));
}

// Dispatch and pack counters: a packed run counts every tile as
// specialized plus the packed panels/bytes/reuse (packing_test's
// PackCallBudget cases count the staged mode).
TEST(Microkernel, DispatchCountersTrackPaths) {
  const TilingStrategy& s = batched_strategy_by_id(4);  // large/128
  const GemmDims d{2 * s.by, 3 * s.bx, 64};  // 2x3 tile grid
  telemetry::reset();
  telemetry::set_enabled(true);
  {
    GemmCase gc(d, Op::kN, Op::kN, Precision::kFp32, 900);
    run_uniform(s, gc.ops, 1.0f, 0.0f);
  }
  auto snap = telemetry::snapshot();
  EXPECT_EQ(counter_value(snap, "exec.dispatch.specialized"), 6);
  EXPECT_EQ(counter_value(snap, "exec.dispatch.generic"), 0);
  EXPECT_EQ(counter_value(snap, "exec.pack.panels"), 8 + 12);
  EXPECT_EQ(counter_value(snap, "exec.pack.bytes"),
            static_cast<std::int64_t>(pack_footprint_bytes(d)));
  // 6 tiles each read 4 A + 4 B micro-panels: 48 reads, 20 packings.
  EXPECT_EQ(counter_value(snap, "exec.pack.reuse"), 48 - 20);
  telemetry::set_enabled(false);
  telemetry::reset();
}

// exec.simd.* partitions ALL executed tiles by the ISA whose micro-kernel
// ran them, packed and staged alike.
TEST(Microkernel, SimdCountersPartitionTilesByIsa) {
  const TilingStrategy& s = batched_strategy_by_id(4);  // large/128
  const GemmDims d{2 * s.by, 3 * s.bx, 64};             // 2x3 tile grid
  const char* active_name = simd_isa_name(active_simd_isa());

  telemetry::reset();
  telemetry::set_enabled(true);
  {
    GemmCase gc(d, Op::kN, Op::kN, Precision::kFp32, 900);
    run_uniform(s, gc.ops, 1.0f, 0.0f);
  }
  auto snap = telemetry::snapshot();
  std::int64_t total = 0;
  for (const char* name : {"exec.simd.scalar", "exec.simd.neon",
                           "exec.simd.avx2", "exec.simd.avx512"}) {
    const std::int64_t v = counter_value(snap, name);
    total += v;
    EXPECT_EQ(v, std::string(name) ==
                         std::string("exec.simd.") + active_name
                     ? 6
                     : 0)
        << name;
  }
  EXPECT_EQ(total, 6);  // a partition: every tile counted exactly once

  // Forcing scalar dispatch moves all six tiles to exec.simd.scalar.
  telemetry::reset();
  {
    ScopedSimdIsa guard(SimdIsa::kScalar);
    GemmCase gc(d, Op::kN, Op::kN, Precision::kFp32, 900);
    run_uniform(s, gc.ops, 1.0f, 0.0f);
  }
  snap = telemetry::snapshot();
  EXPECT_EQ(counter_value(snap, "exec.simd.scalar"), 6);

  // A staged tile (its GEMM is past the pack budget) counts under the ISA
  // whose kernel ran it, not as scalar.
  telemetry::reset();
  {
    const SimdIsa isa = runnable_isas().back();
    ScopedSimdIsa guard(isa);
    GemmCase gc(over_budget_dims(3, 5), Op::kN, Op::kN, Precision::kFp32,
                 901);
    run_uniform(s, gc.ops, 1.0f, 0.0f);
    snap = telemetry::snapshot();
    EXPECT_EQ(counter_value(snap, "exec.dispatch.generic"), 1);
    EXPECT_EQ(counter_value(snap, std::string("exec.simd.") +
                                      simd_isa_name(isa)),
              1);
  }
  telemetry::set_enabled(false);
  telemetry::reset();
}

// CTB_SIMD_ISA names an ISA exactly; any other spelling is rejected, so a
// typo keeps the detected ISA (with a warning) instead of running scalar.
TEST(SimdIsaName, ParserAcceptsExactlyTheFourNames) {
  for (const SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kNeon, SimdIsa::kAvx2,
                            SimdIsa::kAvx512}) {
    SimdIsa parsed = isa == SimdIsa::kScalar ? SimdIsa::kAvx2 : SimdIsa::kScalar;
    EXPECT_TRUE(parse_simd_isa(simd_isa_name(isa), parsed));
    EXPECT_EQ(parsed, isa);
  }
  for (const char* bad : {"AVX512", "avx-512", "", "Scalar", "avx"}) {
    SimdIsa parsed = SimdIsa::kNeon;
    EXPECT_FALSE(parse_simd_isa(bad, parsed)) << '\'' << bad << '\'';
    EXPECT_EQ(parsed, SimdIsa::kNeon) << bad;
  }
  SimdIsa parsed = SimdIsa::kNeon;
  EXPECT_FALSE(parse_simd_isa(nullptr, parsed));
}

}  // namespace
}  // namespace ctb
