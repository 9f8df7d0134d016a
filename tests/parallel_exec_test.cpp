// Bit-exactness of the host parallel execution engine: every executor must
// produce byte-identical C matrices whether blocks run serially
// (set_parallel_threads(1)) or concurrently. This holds because blocks own
// disjoint C tiles and each tile keeps its serial per-element FMA chain —
// the property DESIGN.md §6 documents and this test enforces.
#include <gtest/gtest.h>

#include <span>

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/api.hpp"
#include "core/rf_policy.hpp"
#include "dnn/implicit_gemm.hpp"
#include "kernels/functional.hpp"
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

// Worker count for the parallel leg. More workers than the single hardware
// core is fine — oversubscription still exercises concurrent block order.
constexpr int kParallelThreads = 4;

Matrixf rand_mat(int r, int c, Rng& rng) {
  Matrixf m(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
  fill_random(m, rng);
  return m;
}

void expect_bitwise_equal(const Matrixf& serial, const Matrixf& parallel,
                          const std::string& what) {
  ASSERT_EQ(serial.rows(), parallel.rows());
  ASSERT_EQ(serial.cols(), parallel.cols());
  const auto s = serial.flat();
  const auto p = parallel.flat();
  for (std::size_t i = 0; i < s.size(); ++i) {
    ASSERT_EQ(s[i], p[i]) << what << " diverges at flat index " << i;
  }
}

// Dims with edge-guarded tiles: M, N, K not multiples of any BY/BX/BK.
const std::vector<GemmDims>& ragged_batch() {
  static const std::vector<GemmDims> dims = {
      {33, 65, 19}, {128, 128, 64},  {100, 40, 77},
      {16, 16, 3},  {129, 257, 100}, {5, 7, 11},
  };
  return dims;
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

// Runs `body` once serially and once with kParallelThreads workers on fresh
// copies of the same inputs, asserting bit-identical C outputs.
template <typename MakeCase, typename Body>
void expect_parallel_matches_serial(MakeCase&& make, Body&& body,
                                    const std::string& what) {
  auto serial_case = make();
  {
    ScopedParallelThreads guard(1);
    body(serial_case);
  }
  auto parallel_case = make();
  {
    ScopedParallelThreads guard(kParallelThreads);
    body(parallel_case);
  }
  for (std::size_t i = 0; i < serial_case.c.size(); ++i)
    expect_bitwise_equal(serial_case.c[i], parallel_case.c[i],
                         what + " gemm " + std::to_string(i));
}

// ---------------------------------------------------------- single GEMM --

class ParallelSingleGemm : public ::testing::TestWithParam<int> {};

TEST_P(ParallelSingleGemm, AllStrategiesBitExact) {
  const TilingStrategy& s = batched_strategy_by_id(GetParam());
  // Several tiles per dimension plus ragged edges and K % BK != 0.
  const std::vector<GemmDims> dims = {
      {2 * s.by + 3, 3 * s.bx + 5, 37}};
  expect_parallel_matches_serial(
      [&] { return make_batch(dims, 42); },
      [&](BatchCase& bc) { run_uniform(s, bc.ops[0], 1.5f, -0.5f); },
      "single_gemm " + s.name());
}

INSTANTIATE_TEST_SUITE_P(Ids, ParallelSingleGemm, ::testing::Range(0, 12));

TEST(ParallelSingleGemm, TransposeVariantsBitExact) {
  const auto& s = batched_strategy(TileShape::kMedium, ThreadVariant::k256);
  const int m = 70, n = 45, k = 29;
  for (const Op op_a : {Op::kN, Op::kT}) {
    for (const Op op_b : {Op::kN, Op::kT}) {
      const int ar = op_a == Op::kN ? m : k;
      const int ac = op_a == Op::kN ? k : m;
      const int br = op_b == Op::kN ? k : n;
      const int bc_ = op_b == Op::kN ? n : k;
      struct TCase {
        Matrixf a, b, c;
      };
      auto make = [&] {
        Rng rng(77);
        return TCase{rand_mat(ar, ac, rng), rand_mat(br, bc_, rng),
                     rand_mat(m, n, rng)};
      };
      TCase serial = make();
      {
        ScopedParallelThreads guard(1);
        run_uniform(s, operands(serial.a, serial.b, serial.c, op_a, op_b),
                        1.0f, 0.25f);
      }
      TCase parallel = make();
      {
        ScopedParallelThreads guard(kParallelThreads);
        run_uniform(
            s, operands(parallel.a, parallel.b, parallel.c, op_a, op_b),
            1.0f, 0.25f);
      }
      expect_bitwise_equal(serial.c, parallel.c,
                           std::string("transpose op_a=") +
                               (op_a == Op::kT ? "T" : "N") + " op_b=" +
                               (op_b == Op::kT ? "T" : "N"));
    }
  }
}

TEST(ParallelSingleGemm, Fp16BitExact) {
  const auto& s = batched_strategy(TileShape::kLarge, ThreadVariant::k128);
  const std::vector<GemmDims> dims = {{90, 130, 48}};
  expect_parallel_matches_serial(
      [&] { return make_batch(dims, 99, Precision::kFp16); },
      [&](BatchCase& bc) { run_uniform(s, bc.ops[0], 1.0f, 0.5f); },
      "single_gemm fp16");
}

// --------------------------------------------------------------- vbatch --

TEST(ParallelVbatch, MixedSizesBitExact) {
  const auto& s = single_gemm_strategy(TileShape::kMedium);
  expect_parallel_matches_serial(
      [&] { return make_batch(ragged_batch(), 123); },
      [&](BatchCase& bc) { run_uniform(s, bc.ops, 1.25f, 0.5f); },
      "vbatch");
}

// --------------------------------------------------------- batched plan --

void expect_policy_bit_exact(BatchingPolicy policy,
                             const RandomForest* forest = nullptr) {
  PlannerConfig config;
  config.policy = policy;
  config.forest = forest;
  const BatchedGemmPlanner planner(config);
  const PlanSummary summary = planner.plan(ragged_batch());
  validate_plan(summary.plan, ragged_batch());
  expect_parallel_matches_serial(
      [&] { return make_batch(ragged_batch(), 7); },
      [&](BatchCase& bc) {
        execute_plan(summary.plan, bc.ops, 2.0f, -1.0f);
      },
      std::string("plan policy=") + to_string(policy));
}

TEST(ParallelBatchedPlan, ThresholdPolicyBitExact) {
  expect_policy_bit_exact(BatchingPolicy::kThresholdOnly);
}

TEST(ParallelBatchedPlan, BinaryPolicyBitExact) {
  expect_policy_bit_exact(BatchingPolicy::kBinaryOnly);
}

TEST(ParallelBatchedPlan, AutoOfflinePolicyBitExact) {
  expect_policy_bit_exact(BatchingPolicy::kAutoOffline);
}

// Auto-offline also keeps one tile per block over the tiling engine's tiles
// and the uniform vbatch-tile plan. Both run bit-exactly at any thread count
// and write the same C as the threshold plan they replace (CI reruns this
// binary under every ISA).
TEST(ParallelBatchedPlan, AutoOfflineCandidatePlansBitExact) {
  const std::vector<GemmDims> none_wins = {{150, 13, 22}, {197, 106, 169},
                                           {14, 21, 32},  {81, 21, 148},
                                           {119, 33, 49}, {28, 215, 45}};
  const std::vector<GemmDims> uniform_wins = {{42, 23, 8}, {18, 124, 15}};
  PlannerConfig threshold;
  threshold.policy = BatchingPolicy::kThresholdOnly;
  for (const auto* dims : {&none_wins, &uniform_wins}) {
    const PlanSummary summary = BatchedGemmPlanner{}.plan(*dims);
    ASSERT_EQ(summary.heuristic, BatchingHeuristic::kNone);
    ASSERT_EQ(summary.plan.num_blocks(), summary.plan.num_tiles());
    const bool uniform = dims == &uniform_wins;
    for (const TilingStrategy* s : summary.tiling.per_gemm)
      ASSERT_EQ(s == &magma_uniform_strategy(*dims), uniform);
    const std::string what =
        std::string("auto-offline ") + (uniform ? "uniform" : "none");
    expect_parallel_matches_serial(
        [&] { return make_batch(*dims, 21); },
        [&](BatchCase& bc) {
          execute_plan(summary.plan, bc.ops, 1.5f, 0.5f);
        },
        what);

    BatchCase chosen = make_batch(*dims, 21);
    execute_plan(summary.plan, chosen.ops, 1.5f, 0.5f);
    BatchCase heuristic = make_batch(*dims, 21);
    execute_plan(BatchedGemmPlanner(threshold).plan(*dims).plan,
                     heuristic.ops, 1.5f, 0.5f);
    for (std::size_t i = 0; i < dims->size(); ++i)
      expect_bitwise_equal(heuristic.c[i], chosen.c[i],
                           what + " vs threshold gemm " + std::to_string(i));
  }
}

TEST(ParallelBatchedPlan, TilingOnlyPolicyBitExact) {
  expect_policy_bit_exact(BatchingPolicy::kTilingOnly);
}

TEST(ParallelBatchedPlan, RandomForestPolicyBitExact) {
  RfTrainingConfig config;
  config.num_cases = 40;
  config.forest.num_trees = 8;
  config.ranges.max_batch = 8;
  config.ranges.max_mn = 256;
  config.ranges.max_k = 512;
  const RandomForest forest = train_batching_forest(config);
  expect_policy_bit_exact(BatchingPolicy::kRandomForest, &forest);
}

TEST(ParallelBatchedPlan, Fp16BitExact) {
  PlannerConfig config;
  const BatchedGemmPlanner planner(config);
  const PlanSummary summary = planner.plan(ragged_batch());
  expect_parallel_matches_serial(
      [&] { return make_batch(ragged_batch(), 13, Precision::kFp16); },
      [&](BatchCase& bc) {
        execute_plan(summary.plan, bc.ops, 1.0f, 0.0f);
      },
      "plan fp16");
}

// ------------------------------------------------------ streamed stores --

// The default plan of a batch whose first two GEMMs' C stream past the cache
// (at least kStreamStoreBytes, rows on cache lines; DESIGN.md §9) beside one
// that does not writes the same bits at 1, 2 and 4 workers under the active
// ISA (CI reruns this binary under every ISA), and the float after each C
// stays untouched: sanitizers may not see a streamed store overrun.
TEST(ParallelStreamedStore, SameBitsAtOneTwoAndFourWorkers) {
  using LineBuffer = std::vector<float, LineAlignedAllocator<float>>;
  constexpr std::uint32_t kCanary = 0x7fc0beefu;
  const std::vector<GemmDims> dims = {
      {256, 1040, 72}, {256, 3136, 32}, {100, 40, 77}};
  ASSERT_GE(sizeof(float) * dims[0].m * dims[0].n, kStreamStoreBytes);
  const PlanSummary summary = BatchedGemmPlanner{}.plan(dims);
  Rng rng(93);
  std::vector<Matrixf> a, b;
  for (const GemmDims& d : dims) {
    a.push_back(rand_mat(d.m, d.k, rng));
    b.push_back(rand_mat(d.k, d.n, rng));
  }
  std::vector<std::vector<LineBuffer>> runs;
  for (const int threads : {1, 2, 4}) {
    Rng c_rng(94);
    std::vector<LineBuffer> c;
    for (const GemmDims& d : dims) {
      c.emplace_back(static_cast<std::size_t>(d.m) * d.n + 1);
      for (float& x : c.back()) x = c_rng.uniform_float(-1.0f, 1.0f);
      c.back().back() = std::bit_cast<float>(kCanary);
    }
    std::vector<GemmOperands> ops(dims.size());
    for (std::size_t i = 0; i < dims.size(); ++i) {
      ops[i].a = a[i].data();
      ops[i].b = b[i].data();
      ops[i].c = c[i].data();
      ops[i].dims = dims[i];
    }
    {
      ScopedParallelThreads guard(threads);
      execute_plan(summary.plan, ops, 1.5f, 0.5f);
    }
    for (std::size_t i = 0; i < dims.size(); ++i)
      EXPECT_EQ(std::bit_cast<std::uint32_t>(c[i].back()), kCanary)
          << threads << " workers, gemm " << i << ": the float past C";
    runs.push_back(std::move(c));
  }
  for (std::size_t t = 1; t < runs.size(); ++t)
    for (std::size_t i = 0; i < dims.size(); ++i)
      EXPECT_EQ(std::memcmp(runs[0][i].data(), runs[t][i].data(),
                            runs[0][i].size() * sizeof(float)),
                0)
          << "run " << t << " gemm " << i << " differs from 1 worker";
}

// Errors raised inside worker threads must surface on the caller, exactly
// like the serial path.
TEST(ParallelBatchedPlan, ForeignGemmIndexThrowsUnderParallelism) {
  const auto& s = batched_strategy(TileShape::kSmall, ThreadVariant::k256);
  BatchPlan plan;
  plan.tile_offsets = {0, 1};
  plan.gemm_of_tile = {2};  // batch has one GEMM only
  plan.strategy_of_tile = {s.id};
  plan.y_coord = {0};
  plan.x_coord = {0};
  Rng rng(17);
  Matrixf a = rand_mat(16, 8, rng), b = rand_mat(8, 16, rng), c(16, 16);
  std::vector<GemmOperands> ops = {operands(a, b, c)};
  ScopedParallelThreads guard(kParallelThreads);
  EXPECT_THROW(execute_plan(plan, ops, 1.0f, 0.0f), CheckError);
}

// ------------------------------------------------------ implicit conv GEMM --

TEST(ParallelImplicitGemm, ConvLoweringBitExact) {
  ConvShape shape;
  shape.name = "par_conv";
  shape.in_c = 5;
  shape.out_c = 9;
  shape.kernel = 3;
  shape.stride = 2;
  shape.pad = 1;
  shape.in_h = 13;
  shape.in_w = 11;
  Rng rng(31);
  Tensor4 input(2, shape.in_c, shape.in_h, shape.in_w);
  fill_random(input, rng);
  const Matrixf filters = random_filters(shape, rng);

  Tensor4 serial(1, 1, 1, 1), parallel(1, 1, 1, 1);
  {
    ScopedParallelThreads guard(1);
    serial = conv_forward_implicit(shape, input, filters);
  }
  {
    ScopedParallelThreads guard(kParallelThreads);
    parallel = conv_forward_implicit(shape, input, filters);
  }
  const auto s = serial.flat();
  const auto p = parallel.flat();
  ASSERT_EQ(s.size(), p.size());
  for (std::size_t i = 0; i < s.size(); ++i)
    ASSERT_EQ(s[i], p[i]) << "implicit conv diverges at " << i;
}

// ------------------------------------------------------- wrapper basics --

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<int> hits(1000, 0);
  parallel_for(static_cast<long long>(hits.size()),
               [&](long long i) { hits[static_cast<std::size_t>(i)]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, OverrideRoundTrips) {
  EXPECT_EQ(parallel_threads_override(), 0);
  {
    ScopedParallelThreads guard(3);
    EXPECT_EQ(parallel_threads_override(), 3);
    EXPECT_EQ(parallel_max_threads(), 3);
    {
      ScopedParallelThreads inner(1);
      EXPECT_EQ(parallel_max_threads(), 1);
    }
    EXPECT_EQ(parallel_threads_override(), 3);
  }
  EXPECT_EQ(parallel_threads_override(), 0);
  EXPECT_GE(parallel_max_threads(), 1);
}

TEST(ParallelFor, PropagatesExceptions) {
  ScopedParallelThreads guard(kParallelThreads);
  EXPECT_THROW(
      parallel_for(64,
                   [](long long i) {
                     if (i == 37) throw CheckError("boom");
                   }),
      CheckError);
}

TEST(ParallelFor, ZeroAndNegativeCountsAreNoops) {
  parallel_for(0, [](long long) { FAIL() << "must not be called"; });
  parallel_for(-5, [](long long) { FAIL() << "must not be called"; });
}

}  // namespace
}  // namespace ctb
