#include <gtest/gtest.h>

#include <span>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "kernels/functional.hpp"
#include "kernels/simd.hpp"
#include "linalg/gemm_ref.hpp"
#include "telemetry/telemetry.hpp"
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

struct Case {
  int m, n, k;
  float alpha, beta;
};

Matrixf rand_mat(int r, int c, Rng& rng) {
  Matrixf m(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
  fill_random(m, rng);
  return m;
}

void expect_matches_reference(const TilingStrategy& s, const Case& tc,
                              std::uint64_t seed) {
  Rng rng(seed);
  const Matrixf a = rand_mat(tc.m, tc.k, rng);
  const Matrixf b = rand_mat(tc.k, tc.n, rng);
  Matrixf c_init = rand_mat(tc.m, tc.n, rng);

  Matrixf c_ref = c_init;
  gemm_naive(a, b, c_ref, tc.alpha, tc.beta);

  Matrixf c_dev = c_init;
  const GemmOperands g = operands(a, b, c_dev);
  run_uniform(s, g, tc.alpha, tc.beta);
  EXPECT_TRUE(allclose(c_dev, c_ref))
      << s.name() << " m=" << tc.m << " n=" << tc.n << " k=" << tc.k
      << " max_diff=" << max_abs_diff(c_dev, c_ref);
}

// Every Table-2 strategy computes correct GEMMs, including edge tiles and
// K values that are not multiples of BK.
class FunctionalAllStrategies : public ::testing::TestWithParam<int> {};

TEST_P(FunctionalAllStrategies, ExactTileSizes) {
  const TilingStrategy& s = batched_strategy_by_id(GetParam());
  expect_matches_reference(s, Case{s.by, s.bx, 16, 1.0f, 0.0f}, 100);
}

TEST_P(FunctionalAllStrategies, MultipleTiles) {
  const TilingStrategy& s = batched_strategy_by_id(GetParam());
  expect_matches_reference(s, Case{2 * s.by, 3 * s.bx, 24, 1.0f, 0.0f}, 200);
}

TEST_P(FunctionalAllStrategies, RaggedEdges) {
  const TilingStrategy& s = batched_strategy_by_id(GetParam());
  expect_matches_reference(s, Case{s.by + 3, s.bx + 5, 19, 1.0f, 0.0f}, 300);
}

TEST_P(FunctionalAllStrategies, SmallerThanOneTile) {
  const TilingStrategy& s = batched_strategy_by_id(GetParam());
  expect_matches_reference(s, Case{5, 7, 11, 1.0f, 0.0f}, 400);
}

TEST_P(FunctionalAllStrategies, AlphaBeta) {
  const TilingStrategy& s = batched_strategy_by_id(GetParam());
  expect_matches_reference(s, Case{s.by, s.bx, 32, 2.5f, -0.75f}, 500);
}

INSTANTIATE_TEST_SUITE_P(Ids, FunctionalAllStrategies,
                         ::testing::Range(0, 12));

// Table-1 strategies drive the baselines; they must also be correct.
TEST(FunctionalTable1, AllStrategiesCorrect) {
  for (const auto& s : single_gemm_strategies()) {
    expect_matches_reference(s, Case{s.by + 7, s.bx + 9, 21, 1.0f, 1.0f},
                             600);
  }
}

TEST(Functional, KSmallerThanBk) {
  const auto& s = batched_strategy(TileShape::kSmall, ThreadVariant::k256);
  expect_matches_reference(s, Case{16, 16, 3, 1.0f, 0.0f}, 700);
}

TEST(Functional, KOne) {
  const auto& s = batched_strategy(TileShape::kMedium, ThreadVariant::k128);
  expect_matches_reference(s, Case{32, 32, 1, 1.0f, 0.0f}, 800);
}

TEST(Functional, BetaZeroOverwritesNaN) {
  const auto& s = batched_strategy(TileShape::kSmall, ThreadVariant::k256);
  Rng rng(900);
  const Matrixf a = rand_mat(16, 8, rng);
  const Matrixf b = rand_mat(8, 16, rng);
  Matrixf c(16, 16);
  c.fill(std::numeric_limits<float>::quiet_NaN());
  const GemmOperands g = operands(a, b, c);
  run_uniform(s, g, 1.0f, 0.0f);
  for (float v : c.flat()) EXPECT_FALSE(std::isnan(v));
}

TEST(Functional, ExecuteTileOutsideGemmThrows) {
  const auto& s = batched_strategy(TileShape::kSmall, ThreadVariant::k256);
  Rng rng(1000);
  const Matrixf a = rand_mat(16, 8, rng);
  const Matrixf b = rand_mat(8, 16, rng);
  Matrixf c(16, 16);
  const GemmOperands g = operands(a, b, c);
  EXPECT_THROW(execute_tile(s, g, 1, 0, 1.0f, 0.0f), CheckError);
}

// Negative tile coordinates used to pass the upper-bound check and write a
// full tile before C; the guard floats in front of C must stay untouched.
TEST(Functional, ExecuteTileNegativeCoordinatesThrow) {
  const auto& s = batched_strategy(TileShape::kSmall, ThreadVariant::k256);
  Rng rng(1010);
  const Matrixf a = rand_mat(32, 8, rng);
  const Matrixf b = rand_mat(8, 32, rng);
  constexpr float kGuard = 12345.0f;
  std::vector<float> storage(16 * 32 + 32 * 32, kGuard);
  Matrixf c(32, 32);
  GemmOperands g = operands(a, b, c);
  g.c = storage.data() + 16 * 32;  // 16 guard rows before C
  EXPECT_THROW(execute_tile(s, g, -1, 0, 1.0f, 0.0f), CheckError);
  EXPECT_THROW(execute_tile(s, g, 0, -1, 1.0f, 0.0f), CheckError);
  for (std::size_t i = 0; i < storage.size(); ++i)
    ASSERT_EQ(storage[i], kGuard) << "float " << i << " was written";
}

// A caller-built strategy must stay inside the geometry of Tables 1 and 2
// (BY, BX multiples of 16 up to 128, BK <= 8, sub_x <= 8) with sub-tiles
// covering its tile; anything else is rejected before C is touched.
// execute_tile is the one entry point that takes a caller-built strategy
// (a plan names Table-2 strategies by id). A 24x24 tile with 3x3 sub-tiles fits every limit but is not
// a whole grid of 16x16 micro-tiles.
TEST(Functional, OversizedStrategyGeometryThrows) {
  TilingStrategy tall = batched_strategy(TileShape::kHuge, ThreadVariant::k256);
  tall.by = 256;  // 256x128 over 8x8 sub-tiles needs 512 threads
  tall.threads = 512;
  TilingStrategy deep =
      batched_strategy(TileShape::kSmall, ThreadVariant::k256);
  deep.bk = 16;
  TilingStrategy wide_sub =
      batched_strategy(TileShape::kMedium, ThreadVariant::k128);
  wide_sub.sub_x = 16;  // 32x32 over 4x16 sub-tiles: 16 threads
  wide_sub.threads = 16;
  TilingStrategy uncovered =
      batched_strategy(TileShape::kMedium, ThreadVariant::k128);
  uncovered.threads = 64;  // 4x2 sub-tiles need 128 threads for 32x32
  TilingStrategy off_grid = batched_strategy_by_id(2);
  off_grid.by = off_grid.bx = 24;
  off_grid.sub_y = off_grid.sub_x = 3;
  off_grid.threads = 64;
  Rng rng(1020);
  const Matrixf a = rand_mat(256, 24, rng);
  const Matrixf b = rand_mat(24, 128, rng);
  const Matrixf c_init = rand_mat(256, 128, rng);
  for (const TilingStrategy& s : {tall, deep, wide_sub, uncovered, off_grid}) {
    Matrixf c = c_init;
    const GemmOperands g = operands(a, b, c);
    EXPECT_THROW(execute_tile(s, g, 0, 0, 1.0f, 0.0f), CheckError)
        << s.name();
    for (std::size_t i = 0; i < c.flat().size(); ++i)
      ASSERT_EQ(c.flat()[i], c_init.flat()[i]) << s.name() << " wrote C";
  }
}

// Uniform grids audit their operands like every plan: a bias
// epilogue shorter than M, or a missing A, throws before any tile runs.
TEST(Functional, GridEntryPointsAuditOperands) {
  const auto& s = single_gemm_strategy(TileShape::kSmall);
  Rng rng(1030);
  const Matrixf a = rand_mat(40, 16, rng);
  const Matrixf b = rand_mat(16, 24, rng);
  const Matrixf c_init = rand_mat(40, 24, rng);
  const std::vector<float> bias(8, 1.0f);  // M = 40 needs 40 values
  Matrixf c = c_init;
  GemmOperands short_bias = operands(a, b, c);
  short_bias.epilogue = epilogue_push(0, EpilogueOp::kBias);
  short_bias.epilogue_args.bias = bias.data();
  short_bias.epilogue_args.bias_len = static_cast<int>(bias.size());
  GemmOperands null_a = operands(a, b, c);
  null_a.a = nullptr;
  for (const GemmOperands& g : {short_bias, null_a}) {
    EXPECT_THROW(run_uniform(s, g, 1.0f, 0.0f), CheckError);
    EXPECT_THROW(run_uniform(s, {&g, 1}, 1.0f, 0.0f), CheckError);
  }
  for (std::size_t i = 0; i < c.flat().size(); ++i)
    ASSERT_EQ(c.flat()[i], c_init.flat()[i]) << "C written at " << i;
}

// A lowered B is audited like every other operand, before any tile runs:
// its geometry must be one a convolution can run with (the check
// check_conv_shape applies), its kernel^2 must divide K and its out_h *
// out_w divide N, its input must be present and its op kN. Each fault
// throws from every entry point with C untouched.
TEST(Functional, ConvLoweringAuditedBeforeMemoryAccess) {
  const auto& s = batched_strategy_by_id(0);
  Rng rng(1040);
  // 2 channels of 6x7 over 2 images, 3x3 kernel, stride 1, pad 1: K = 18,
  // N = 6 * 7 * 2 = 84.
  const ConvLowering conv{6, 7, 3, 1, 1};
  const Matrixf a = rand_mat(20, 18, rng);
  const Matrixf input = rand_mat(4, 42, rng);
  const Matrixf c_init = rand_mat(20, 84, rng);
  Matrixf c = c_init;
  GemmOperands good;
  good.a = a.data();
  good.b = input.data();
  good.c = c.data();
  good.dims = {20, 84, 18};
  good.lowering = conv;
  Matrixf want = c_init;
  GemmOperands reference = good;
  reference.c = want.data();
  reference_gemm(reference, 1.0f, 0.0f);

  std::vector<std::pair<std::string, GemmOperands>> faults;
  auto fault = [&](const std::string& what, auto&& mutate) {
    GemmOperands g = good;
    mutate(g);
    faults.emplace_back(what, g);
  };
  fault("K not whole channels", [](GemmOperands& g) { g.dims.k = 17; });
  fault("N not whole images", [](GemmOperands& g) { g.dims.n = 83; });
  fault("stride 0", [](GemmOperands& g) { g.lowering.stride = 0; });
  fault("negative pad", [](GemmOperands& g) { g.lowering.pad = -1; });
  fault("padded extent past int",
        [](GemmOperands& g) { g.lowering.pad = 1 << 30; });
  fault("kernel past the padded input",
        [](GemmOperands& g) { g.lowering.kernel = 9; });
  fault("empty input rows", [](GemmOperands& g) { g.lowering.in_h = 0; });
  fault("negative kernel", [](GemmOperands& g) { g.lowering.kernel = -3; });
  fault("null input", [](GemmOperands& g) { g.b = nullptr; });
  fault("transposed", [](GemmOperands& g) { g.op_b = Op::kT; });
  for (const auto& [what, g] : faults) {
    EXPECT_THROW(audit_operands({&g, 1}), CheckError) << what;
    EXPECT_THROW(run_uniform(s, g, 1.0f, 0.0f), CheckError) << what;
    EXPECT_THROW(run_uniform(s, {&g, 1}, 1.0f, 0.0f), CheckError) << what;
    EXPECT_THROW(execute_tile(s, g, 0, 0, 1.0f, 0.0f), CheckError) << what;
    EXPECT_THROW(reference_gemm(g, 1.0f, 0.0f), CheckError) << what;
    for (std::size_t i = 0; i < c.flat().size(); ++i)
      ASSERT_EQ(c.flat()[i], c_init.flat()[i]) << what << " wrote C";
  }
  run_uniform(s, good, 1.0f, 0.0f);
  for (std::size_t i = 0; i < c.flat().size(); ++i)
    ASSERT_EQ(c.flat()[i], want.flat()[i]) << "the healthy lowering at " << i;
}

TEST(Functional, OperandsValidateShapes) {
  Matrixf a(4, 8), b(7, 4), c(4, 4);
  EXPECT_THROW(operands(a, b, c), CheckError);
}

// ----------------------------------------------------------------- vbatch --

TEST(Vbatch, MixedSizesMatchReference) {
  const auto& s = single_gemm_strategy(TileShape::kSmall);
  Rng rng(1100);
  const std::vector<GemmDims> dims = {
      {16, 32, 128}, {64, 48, 64}, {64, 64, 128}};
  std::vector<Matrixf> as, bs, cs, refs;
  for (const auto& d : dims) {
    as.push_back(rand_mat(d.m, d.k, rng));
    bs.push_back(rand_mat(d.k, d.n, rng));
    cs.push_back(rand_mat(d.m, d.n, rng));
    refs.push_back(cs.back());
  }
  std::vector<GemmOperands> ops;
  for (std::size_t i = 0; i < dims.size(); ++i)
    ops.push_back(operands(as[i], bs[i], cs[i]));
  run_uniform(s, ops, 1.25f, 0.5f);
  for (std::size_t i = 0; i < dims.size(); ++i) {
    gemm_naive(as[i], bs[i], refs[i], 1.25f, 0.5f);
    EXPECT_TRUE(allclose(cs[i], refs[i])) << "gemm " << i;
  }
}

TEST(Vbatch, UniformLargeTileOnSmallGemms) {
  // The Fig. 3b pathology: large tiles on small GEMMs still compute
  // correctly (idle threads just do nothing).
  const auto& s = single_gemm_strategy(TileShape::kLarge);
  Rng rng(1200);
  const std::vector<GemmDims> dims = {{16, 16, 32}, {128, 100, 16}};
  std::vector<Matrixf> as, bs, cs, refs;
  for (const auto& d : dims) {
    as.push_back(rand_mat(d.m, d.k, rng));
    bs.push_back(rand_mat(d.k, d.n, rng));
    cs.push_back(rand_mat(d.m, d.n, rng));
    refs.push_back(cs.back());
  }
  std::vector<GemmOperands> ops;
  for (std::size_t i = 0; i < dims.size(); ++i)
    ops.push_back(operands(as[i], bs[i], cs[i]));
  run_uniform(s, ops, 1.0f, 0.0f);
  for (std::size_t i = 0; i < dims.size(); ++i) {
    gemm_naive(as[i], bs[i], refs[i], 1.0f, 0.0f);
    EXPECT_TRUE(allclose(cs[i], refs[i])) << "gemm " << i;
  }
}

// ------------------------------------------------------------------ plan --

TEST(RunBatchedPlan, ForeignGemmIndexThrows) {
  const auto& s = batched_strategy(TileShape::kSmall, ThreadVariant::k256);
  BatchPlan plan;
  plan.tile_offsets = {0, 1};
  plan.gemm_of_tile = {2};  // batch has one GEMM only
  plan.strategy_of_tile = {s.id};
  plan.y_coord = {0};
  plan.x_coord = {0};
  Rng rng(1300);
  Matrixf a = rand_mat(16, 8, rng), b = rand_mat(8, 16, rng), c(16, 16);
  std::vector<GemmOperands> ops = {operands(a, b, c)};
  EXPECT_THROW(execute_plan(plan, ops, 1.0f, 0.0f), CheckError);
}

// ---------------------------------------------------- streamed stores --
//
// A GEMM's tile stores stream past the cache (DESIGN.md §9) only under AVX2
// and AVX-512, for an fp32 C of at least kStreamStoreBytes on the vector row
// store whose rows all start on a cache line. Only the stores' cache policy
// changes, so every case matches reference_gemm bit for bit, streamed or
// not; exec.store.streamed tells which streamed.

// The ISAs this host can execute: scalar, plus every vector level up to
// detected_simd_isa() that has a micro-kernel.
std::vector<SimdIsa> runnable_isas() {
  std::vector<SimdIsa> isas{SimdIsa::kScalar};
  for (SimdIsa isa : {SimdIsa::kNeon, SimdIsa::kAvx2, SimdIsa::kAvx512})
    if (static_cast<int>(isa) <= static_cast<int>(detected_simd_isa()) &&
        simd_micro_kernel(isa) != nullptr)
      isas.push_back(isa);
  return isas;
}

constexpr int kStreamM = 256, kStreamN = 1040, kStreamK = 72;
static_assert(sizeof(float) * kStreamM * kStreamN >= kStreamStoreBytes,
              "the streaming GEMM's C must reach the threshold");
static_assert(sizeof(float) * kStreamM * 1008 < kStreamStoreBytes,
              "the small GEMM's C must stay below the threshold");

enum class StreamVariant { kPlain, kBiasRelu, kBeta };

/// exec.store.streamed over one call of `run`; -1 when the counter is
/// missing from the snapshot.
long long streamed_tiles_of(const std::function<void()>& run) {
  telemetry::reset();
  telemetry::set_enabled(true);
  run();
  long long streamed = -1;
  for (const auto& c : telemetry::snapshot().counters)
    if (c.name == "exec.store.streamed") streamed = c.value;
  telemetry::set_enabled(false);
  telemetry::reset();
  return streamed;
}

/// An m x n x kStreamK GEMM whose C sits `offset` floats past a
/// cache line and is followed by one canary float: a store past C's last
/// element changes the canary even where a sanitizer does not instrument
/// the streaming intrinsics. The reference is computed once; run() repeats
/// the GEMM from the same initial C under each ISA.
class StreamCase {
 public:
  StreamCase(int m, int n, StreamVariant v, std::size_t offset,
             Precision precision)
      : offset_(offset), cells_(static_cast<std::size_t>(m) * n) {
    Rng rng(1400);
    a_ = rand_mat(m, kStreamK, rng);
    b_ = rand_mat(kStreamK, n, rng);
    init_.resize(offset_ + cells_ + 1);
    for (float& x : init_) x = rng.uniform_float(-1.0f, 1.0f);
    init_.back() = std::bit_cast<float>(kCanary);
    g_.a = a_.data();
    g_.b = b_.data();
    g_.dims = {m, n, kStreamK};
    g_.precision = precision;
    EpilogueArgs& ea = g_.epilogue_args;
    switch (v) {
      case StreamVariant::kPlain:
        break;
      case StreamVariant::kBiasRelu:
        for (int i = 0; i < m; ++i) bias_.push_back(rng.uniform_float(-1, 1));
        g_.epilogue = epilogue_push(epilogue_push(0, EpilogueOp::kBias),
                                    EpilogueOp::kRelu);
        ea.bias = bias_.data();
        ea.bias_len = m;
        break;
      case StreamVariant::kBeta:
        alpha_ = 1.25f;
        beta_ = 0.5f;
        break;
    }
    ref_ = init_;
    GemmOperands r = g_;
    r.c = ref_.data() + offset_;
    reference_gemm(r, alpha_, beta_);
  }

  /// Runs the GEMM under `isa` through its uniform plan, expects C and the
  /// canary to equal the reference bit for bit, and returns
  /// exec.store.streamed.
  long long run(SimdIsa isa, const std::string& what) {
    const auto& s = batched_strategy(TileShape::kLarge, ThreadVariant::k256);
    c_ = init_;
    GemmOperands g = g_;
    g.c = c_.data() + offset_;
    ScopedSimdIsa scoped(isa);
    const long long streamed =
        streamed_tiles_of([&] { run_uniform(s, g, alpha_, beta_); });
    EXPECT_EQ(std::memcmp(c_.data() + offset_, ref_.data() + offset_,
                          cells_ * sizeof(float)),
              0)
        << what << ": C differs from reference_gemm";
    EXPECT_EQ(std::bit_cast<std::uint32_t>(c_.back()), kCanary)
        << what << ": the float past C was written";
    return streamed;
  }

  /// Tiles the uniform plan runs.
  long long tiles() const {
    const auto& s = batched_strategy(TileShape::kLarge, ThreadVariant::k256);
    return static_cast<long long>((g_.dims.m + s.by - 1) / s.by) *
           ((g_.dims.n + s.bx - 1) / s.bx);
  }

 private:
  static constexpr std::uint32_t kCanary = 0x7fc0beefu;
  using LineBuffer = std::vector<float, LineAlignedAllocator<float>>;

  std::size_t offset_, cells_;
  Matrixf a_, b_;
  LineBuffer init_, ref_, c_;  // offset_ floats, C, the canary
  std::vector<float> bias_;
  GemmOperands g_;
  float alpha_ = 1.0f, beta_ = 0.0f;
};

TEST(StreamedStore, LargeAlignedCStreamsUnderVectorIsasBitExact) {
  for (StreamVariant v : {StreamVariant::kPlain, StreamVariant::kBiasRelu,
                          StreamVariant::kBeta}) {
    StreamCase sc(kStreamM, kStreamN, v, 0, Precision::kFp32);
    for (SimdIsa isa : runnable_isas()) {
      const std::string what = std::string(simd_isa_name(isa)) +
                               " variant " +
                               std::to_string(static_cast<int>(v));
      const long long streamed = sc.run(isa, what);
      const bool streams = isa == SimdIsa::kAvx2 || isa == SimdIsa::kAvx512;
      EXPECT_EQ(streamed, streams ? sc.tiles() : 0) << what;
    }
  }
}

TEST(StreamedStore, MisalignedSmallOrFp16CNeverStreamsBitExact) {
  struct NoStream {
    int n;
    std::size_t offset;
    Precision precision;
    const char* name;
  };
  for (const NoStream& c : {
           NoStream{kStreamN, 1, Precision::kFp32, "C one float past a line"},
           NoStream{1030, 0, Precision::kFp32, "rows not whole lines"},
           NoStream{1008, 0, Precision::kFp32, "C below the threshold"},
           NoStream{kStreamN, 0, Precision::kFp16, "fp16"},
       }) {
    StreamCase sc(kStreamM, c.n, StreamVariant::kPlain, c.offset,
                  c.precision);
    for (SimdIsa isa : runnable_isas()) {
      const std::string what = std::string(simd_isa_name(isa)) + ' ' + c.name;
      EXPECT_EQ(sc.run(isa, what), 0) << what;
    }
  }
}

}  // namespace
}  // namespace ctb
