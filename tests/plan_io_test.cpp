#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/plan_io.hpp"

namespace ctb {
namespace {

std::vector<GemmDims> sample_batch() {
  return {{16, 32, 128}, {64, 64, 64}, {256, 256, 64}};
}

PlanSummary plan_sample() {
  const BatchedGemmPlanner planner{PlannerConfig{}};
  const auto dims = sample_batch();
  return planner.plan(dims);
}

TEST(PlanIo, SaveLoadRoundTrip) {
  const PlanSummary s = plan_sample();
  std::stringstream ss;
  save_plan(ss, s.plan);
  const BatchPlan loaded = load_plan(ss);
  EXPECT_EQ(loaded.tile_offsets, s.plan.tile_offsets);
  EXPECT_EQ(loaded.gemm_of_tile, s.plan.gemm_of_tile);
  EXPECT_EQ(loaded.strategy_of_tile, s.plan.strategy_of_tile);
  EXPECT_EQ(loaded.y_coord, s.plan.y_coord);
  EXPECT_EQ(loaded.x_coord, s.plan.x_coord);
  EXPECT_EQ(loaded.block_threads, s.plan.block_threads);
  EXPECT_EQ(loaded.smem_bytes, s.plan.smem_bytes);
  EXPECT_EQ(loaded.regs_per_thread, s.plan.regs_per_thread);
  // The reloaded plan still validates against the batch.
  const auto dims = sample_batch();
  EXPECT_NO_THROW(validate_plan(loaded, dims));
}

TEST(PlanIo, LoadedPlanExecutesIdentically) {
  const PlanSummary s = plan_sample();
  std::stringstream ss;
  save_plan(ss, s.plan);
  const BatchPlan loaded = load_plan(ss);

  const auto dims = sample_batch();
  Rng rng(5);
  std::vector<Matrixf> as, bs, c1, c2;
  for (const auto& d : dims) {
    as.emplace_back(static_cast<std::size_t>(d.m),
                    static_cast<std::size_t>(d.k));
    bs.emplace_back(static_cast<std::size_t>(d.k),
                    static_cast<std::size_t>(d.n));
    fill_random(as.back(), rng);
    fill_random(bs.back(), rng);
    c1.emplace_back(static_cast<std::size_t>(d.m),
                    static_cast<std::size_t>(d.n));
    c2.emplace_back(static_cast<std::size_t>(d.m),
                    static_cast<std::size_t>(d.n));
  }
  std::vector<GemmOperands> ops1, ops2;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    ops1.push_back(operands(as[i], bs[i], c1[i]));
    ops2.push_back(operands(as[i], bs[i], c2[i]));
  }
  execute_plan(s.plan, ops1, 1.0f, 0.0f);
  execute_plan(loaded, ops2, 1.0f, 0.0f);
  for (std::size_t i = 0; i < dims.size(); ++i)
    EXPECT_EQ(max_abs_diff(c1[i], c2[i]), 0.0f);
}

TEST(PlanIo, RejectsGarbage) {
  std::stringstream ss("definitely not a plan");
  EXPECT_THROW(load_plan(ss), CheckError);
}

TEST(PlanIo, RejectsTruncatedStream) {
  const PlanSummary s = plan_sample();
  std::stringstream ss;
  save_plan(ss, s.plan);
  std::string text = ss.str();
  text.resize(text.size() / 2);
  std::stringstream half(text);
  EXPECT_THROW(load_plan(half), CheckError);
}

TEST(PlanIo, RejectsBadBlockSize) {
  std::stringstream ss("ctb-batchplan-v1\n99 0 0\ntile 1 0\n");
  EXPECT_THROW(load_plan(ss), CheckError);
}

TEST(BatchSignature, SensitiveToShapesAndConfig) {
  const auto dims = sample_batch();
  auto mutated = dims;
  mutated[1].k += 1;
  PlannerConfig config;
  const BatchedGemmPlanner p(config);  // resolves thresholds
  EXPECT_NE(batch_signature(dims, p.config()),
            batch_signature(mutated, p.config()));

  PlannerConfig other = p.config();
  other.theta += 1;
  EXPECT_NE(batch_signature(dims, p.config()),
            batch_signature(dims, other));
}

TEST(BatchSignature, OrderMatters) {
  const std::vector<GemmDims> a = {{16, 16, 16}, {32, 32, 32}};
  const std::vector<GemmDims> b = {{32, 32, 32}, {16, 16, 16}};
  EXPECT_NE(batch_signature(a, PlannerConfig{}),
            batch_signature(b, PlannerConfig{}));
}

TEST(PlanCache, HitsOnRepeatedShape) {
  PlanCache cache;
  const auto dims = sample_batch();
  const PlanSummary& first = cache.plan(dims);
  const PlanSummary& second = cache.plan(dims);
  EXPECT_EQ(&first, &second);  // same cached object
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCache, DistinctShapesGetDistinctPlans) {
  PlanCache cache;
  const std::vector<GemmDims> a = {{16, 16, 16}};
  const std::vector<GemmDims> b = {{32, 32, 32}};
  cache.plan(a);
  cache.plan(b);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.misses(), 2);
}

TEST(PlanCache, CachedPlanIsValid) {
  PlanCache cache;
  const auto dims = sample_batch();
  EXPECT_NO_THROW(validate_plan(cache.plan(dims).plan, dims));
}

TEST(BatchSignature, GpuModelMatters) {
  const auto dims = sample_batch();
  PlannerConfig v100;
  v100.gpu = GpuModel::kV100;
  PlannerConfig m60;
  m60.gpu = GpuModel::kM60;
  EXPECT_NE(batch_signature(dims, BatchedGemmPlanner(v100).config()),
            batch_signature(dims, BatchedGemmPlanner(m60).config()));
}

TEST(PlanIo, EmptyishPlanRoundTrips) {
  // Single-tile plan: the smallest valid plan survives serialization.
  const std::vector<GemmDims> dims = {{8, 8, 8}};
  const BatchedGemmPlanner planner{PlannerConfig{}};
  const PlanSummary s = planner.plan(dims);
  std::stringstream ss;
  save_plan(ss, s.plan);
  const BatchPlan loaded = load_plan(ss);
  EXPECT_EQ(loaded.num_blocks(), 1);
  EXPECT_NO_THROW(validate_plan(loaded, dims));
}

TEST(PlanCache, ClearResets) {
  PlanCache cache;
  const auto dims = sample_batch();
  cache.plan(dims);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  cache.plan(dims);
  EXPECT_EQ(cache.misses(), 2);
}

// ------------------------------------------------- hardened load_plan --

TEST(PlanIo, RejectsUnsupportedVersion) {
  std::stringstream ss("ctb-batchplan-v4\n256 16384 84\ntile 1 0\n");
  try {
    load_plan(ss);
    FAIL() << "expected PlanIoError";
  } catch (const PlanIoError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported plan version"),
              std::string::npos);
  }
}

TEST(PlanIo, V2HeaderIsAcceptedButNeedsKRanges) {
  // v2 is a known version: the failure must come from the missing K-range
  // arrays, not from the header.
  std::stringstream ss(
      "ctb-batchplan-v2\n256 16384 84\n"
      "tile 2 0 1\ngemm 1 0\nstrategy 1 1\ny 1 0\nx 1 0\n");
  try {
    load_plan(ss);
    FAIL() << "expected PlanIoError";
  } catch (const PlanIoError& e) {
    EXPECT_EQ(std::string(e.what()).find("unsupported plan version"),
              std::string::npos);
  }
}

TEST(PlanIo, RejectsHugeDeclaredCountBeforeAllocating) {
  // A declared count past the cap must be rejected at the header, never
  // allocated (under ASan an attempted 99-trillion-element vector would be
  // loud).
  std::stringstream ss(
      "ctb-batchplan-v1\n256 16384 84\ntile 99999999999999 0\n");
  EXPECT_THROW(load_plan(ss), PlanIoError);
}

TEST(PlanIo, RejectsIntegerOverflowElement) {
  std::stringstream ss(
      "ctb-batchplan-v1\n256 16384 84\ntile 2 0 99999999999999\n");
  EXPECT_THROW(load_plan(ss), PlanIoError);
  // And a value no long long can hold (failbit path).
  std::stringstream ss2(
      "ctb-batchplan-v1\n256 16384 84\n"
      "tile 2 0 99999999999999999999999999999999\n");
  EXPECT_THROW(load_plan(ss2), PlanIoError);
}

TEST(PlanIo, RejectsTrailingGarbage) {
  const PlanSummary s = plan_sample();
  std::stringstream ss;
  save_plan(ss, s.plan);
  ss << " unexpected-trailer";
  EXPECT_THROW(load_plan(ss), PlanIoError);
}

TEST(PlanIo, RejectsStructurallyBrokenPlanAtLoad) {
  // Offsets [0, 2, 1] are non-monotone: the loader's final structural
  // validation must refuse, the caller never sees the plan.
  std::stringstream ss(
      "ctb-batchplan-v1\n256 16384 84\n"
      "tile 3 0 2 1\ngemm 1 0\nstrategy 1 1\ny 1 0\nx 1 0\n");
  EXPECT_THROW(load_plan(ss), PlanIoError);
}

TEST(PlanIo, ErrorCarriesWhatWhereContext) {
  std::stringstream ss("ctb-batchplan-v1\n256 16384 84\ntile 2 0 zz\n");
  try {
    load_plan(ss);
    FAIL() << "expected PlanIoError";
  } catch (const PlanIoError& e) {
    EXPECT_EQ(e.where(), "tile[1]");
    EXPECT_NE(std::string(e.what()).find("plan load failed at tile[1]"),
              std::string::npos);
  }
}

// ------------------------------------------- PlanCache strong guarantee --

TEST(PlanCache, FailedPlanDoesNotPoisonEntry) {
  PlannerConfig config;
  const BatchedGemmPlanner real(config);
  int calls = 0;
  PlanCache cache(config, [&](std::span<const GemmDims> dims) {
    if (++calls == 1) throw CheckError("transient planner failure");
    return real.plan(dims);
  });
  const auto dims = sample_batch();
  EXPECT_THROW(cache.plan(dims), CheckError);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.misses(), 0);
  // The identical signature retries cleanly after the failure...
  const PlanSummary& s = cache.plan(dims);
  EXPECT_NO_THROW(validate_plan(s.plan, dims));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 1);
  // ...and the retried entry serves hits.
  cache.plan(dims);
  EXPECT_EQ(cache.hits(), 1);
}

TEST(PlanCache, RejectsPlannerOutputThatFailsValidation) {
  PlannerConfig config;
  const BatchedGemmPlanner real(config);
  PlanCache cache(config, [&](std::span<const GemmDims> dims) {
    PlanSummary s = real.plan(dims);
    s.plan.gemm_of_tile[0] = -1;  // corrupt the planner's output
    return s;
  });
  const auto dims = sample_batch();
  EXPECT_THROW(cache.plan(dims), CheckError);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCache, RejectsDegenerateDims) {
  PlanCache cache;
  const std::vector<GemmDims> empty;
  EXPECT_THROW(cache.plan(empty), CheckError);
  const std::vector<GemmDims> zero_dim = {{0, 16, 16}};
  EXPECT_THROW(cache.plan(zero_dim), CheckError);
  EXPECT_EQ(cache.size(), 0u);
}

// ------------------------------------------------------ v3 epilogues --

std::vector<int> sample_epilogues() {
  // bias+relu, none, relu — one fused chain per sample_batch() GEMM.
  return {epilogue_push(epilogue_push(0, EpilogueOp::kBias),
                        EpilogueOp::kRelu),
          0, epilogue_push(0, EpilogueOp::kRelu)};
}

TEST(PlanIo, V3RoundTripWithEpilogues) {
  const BatchedGemmPlanner planner{PlannerConfig{}};
  const auto dims = sample_batch();
  const auto epilogues = sample_epilogues();
  const PlanSummary s = planner.plan(dims, epilogues);
  ASSERT_TRUE(s.plan.has_epilogue());

  std::stringstream ss;
  save_plan(ss, s.plan);
  EXPECT_EQ(ss.str().rfind("ctb-batchplan-v3", 0), 0u);
  const BatchPlan loaded = load_plan(ss);
  EXPECT_EQ(loaded.epilogue_of_gemm, s.plan.epilogue_of_gemm);
  EXPECT_NO_THROW(validate_plan(loaded, dims));

  // Byte-stable: re-serializing the loaded plan reproduces the stream.
  std::stringstream again;
  save_plan(again, loaded);
  EXPECT_EQ(again.str(), ss.str());
}

TEST(PlanIo, EpilogueFreePlanKeepsPreV3Bytes) {
  // A plan without epilogues must serialize exactly as before the format
  // grew the epilogue array — old readers keep working on new writers.
  const PlanSummary s = plan_sample();
  std::stringstream ss;
  save_plan(ss, s.plan);
  EXPECT_EQ(ss.str().find("ctb-batchplan-v3"), std::string::npos);
  EXPECT_EQ(ss.str().find("epilogue"), std::string::npos);
}

TEST(PlanIo, V3HeaderRequiresEpilogueArray) {
  // v3 is a known version: a v3 stream that carries no epilogue array is
  // malformed (it should have been written as v1/v2).
  const PlanSummary s = plan_sample();
  std::stringstream plain;
  save_plan(plain, s.plan);
  std::string text = plain.str();
  text.replace(0, std::string("ctb-batchplan-v1").size(),
               "ctb-batchplan-v3");
  std::stringstream ss(text);
  EXPECT_THROW(load_plan(ss), PlanIoError);
}

TEST(BatchSignature, EpiloguesChangeTheKey) {
  const PlannerConfig config;
  const auto dims = sample_batch();
  const auto epilogues = sample_epilogues();
  const std::uint64_t plain = batch_signature(dims, config);
  const std::uint64_t fused = batch_signature(dims, config, epilogues);
  EXPECT_NE(plain, fused);

  // An all-zero stream is the plain batch, whatever its length.
  const std::vector<int> zeros(dims.size(), 0);
  EXPECT_EQ(batch_signature(dims, config, zeros), plain);
  EXPECT_EQ(batch_signature(dims, config, {}), plain);

  // Chain placement matters: the same specs on different GEMMs differ.
  std::vector<int> rotated = epilogues;
  std::rotate(rotated.begin(), rotated.begin() + 1, rotated.end());
  EXPECT_NE(batch_signature(dims, config, rotated), fused);
}

TEST(PlanCache, EpiloguesArePartOfTheKey) {
  PlanCache cache;
  const auto dims = sample_batch();
  const auto epilogues = sample_epilogues();
  const PlanSummary& plain = cache.plan(dims);
  EXPECT_FALSE(plain.plan.has_epilogue());
  const PlanSummary& fused = cache.plan(dims, epilogues);
  ASSERT_TRUE(fused.plan.has_epilogue());
  EXPECT_EQ(fused.plan.epilogue_of_gemm, epilogues);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.misses(), 2);

  // Repeats hit their own entries; the all-zero stream hits the plain one.
  cache.plan(dims, epilogues);
  const std::vector<int> zeros(dims.size(), 0);
  cache.plan(dims, zeros);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 2);
}

}  // namespace
}  // namespace ctb
