#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>

#include "dnn/googlenet.hpp"
#include "dnn/grouped.hpp"
#include "dnn/inference.hpp"
#include "telemetry/telemetry.hpp"

namespace ctb {
namespace {

TEST(GoogleNet, Has57Convolutions) {
  EXPECT_EQ(googlenet_all_convs().size(), 57u);
  EXPECT_EQ(googlenet_stem_convs().size(), 3u);
  EXPECT_EQ(googlenet_inception_modules().size(), 9u);
}

TEST(GoogleNet, PaperGemmExample) {
  // inception3a/5x5_reduce must lower to the paper's 16x784x192 GEMM.
  const auto& m3a = googlenet_inception_modules().front();
  EXPECT_EQ(m3a.name, "inception3a");
  const GemmDims d = m3a.reduce5.gemm_dims(1);
  EXPECT_EQ(d.m, 16);
  EXPECT_EQ(d.n, 784);
  EXPECT_EQ(d.k, 192);
}

TEST(GoogleNet, ChannelsChainAcrossModules) {
  const auto& mods = googlenet_inception_modules();
  // 3a out = 64+128+32+32 = 256 = 3b in.
  EXPECT_EQ(mods[0].out_c(), 256);
  EXPECT_EQ(mods[1].in_c, 256);
  // 3b out = 128+192+96+64 = 480 = 4a in.
  EXPECT_EQ(mods[1].out_c(), 480);
  EXPECT_EQ(mods[2].in_c, 480);
  // 4e out = 256+320+128+128 = 832 = 5a in.
  EXPECT_EQ(mods[6].out_c(), 832);
  EXPECT_EQ(mods[7].in_c, 832);
  // 5b out = 384+384+128+128 = 1024 (final feature count).
  EXPECT_EQ(mods[8].out_c(), 1024);
}

TEST(GoogleNet, ReduceFeedsConvChannels) {
  for (const auto& m : googlenet_inception_modules()) {
    EXPECT_EQ(m.conv3x3.in_c, m.reduce3.out_c) << m.name;
    EXPECT_EQ(m.conv5x5.in_c, m.reduce5.out_c) << m.name;
    EXPECT_EQ(m.conv1x1.in_c, m.in_c) << m.name;
    EXPECT_EQ(m.pool_proj.in_c, m.in_c) << m.name;
  }
}

TEST(GoogleNet, SpatialSizesFollowNetwork) {
  const auto& mods = googlenet_inception_modules();
  EXPECT_EQ(mods[0].hw, 28);  // 3a/3b
  EXPECT_EQ(mods[2].hw, 14);  // 4a..4e
  EXPECT_EQ(mods[7].hw, 7);   // 5a/5b
}

TEST(GoogleNet, AllGemmDimsSmall) {
  // The paper's premise: all GoogleNet GEMMs have M, K < 1000, half the
  // M values under 100.
  int m_under_100 = 0;
  int k_under_1000 = 0;
  const auto convs = googlenet_all_convs();
  for (const auto& c : convs) {
    const GemmDims d = c.gemm_dims(1);
    EXPECT_LT(d.m, 1000) << c.name;
    m_under_100 += d.m < 100 ? 1 : 0;
    k_under_1000 += d.k < 1000 ? 1 : 0;
  }
  // "In general, all of these matrices' M, N and K are less than 1000, and
  // even half of these matrices' M are less than 100" -- the deep 3x3
  // convolutions exceed 1000 in K, so assert the bulk, not all.
  EXPECT_GE(k_under_1000, static_cast<int>(convs.size()) * 3 / 4);
  EXPECT_GE(m_under_100, static_cast<int>(convs.size()) / 3);
}

TEST(GoogleNet, StageGemmCounts) {
  const auto& m = googlenet_inception_modules().front();
  EXPECT_EQ(m.stage_gemms(1).size(), 4u);  // the paper's "four GEMMs"
  EXPECT_EQ(m.stage_gemms(2).size(), 2u);
  EXPECT_THROW(m.stage_gemms(3), CheckError);
}

// ----------------------------------------------------- inference (timing) --

TEST(GoogleNetTiming, OursFasterThanMagmaOnMostLayers) {
  const GpuArch& arch = gpu_arch(GpuModel::kV100);
  const auto times = time_googlenet_inceptions(arch, 1, PlannerConfig{});
  ASSERT_EQ(times.size(), 9u);
  int wins = 0;
  for (const auto& t : times) wins += t.ours_us < t.magma_us ? 1 : 0;
  EXPECT_GE(wins, 8);
}

TEST(GoogleNetTiming, OrderingMatchesPaper) {
  // default > stream > ours, as in the paper's 3.18 / 2.41 / 2.01 ms.
  const GpuArch& arch = gpu_arch(GpuModel::kV100);
  const GoogleNetTotals t = googlenet_forward_times(arch, 1, PlannerConfig{});
  EXPECT_GT(t.default_ms, t.stream_ms);
  EXPECT_GT(t.stream_ms, t.ours_ms);
}

TEST(GoogleNetTiming, SpeedupVsStreamInPaperBallpark) {
  // Paper: 2.41 / 2.01 = 1.20x over the stream baseline. Accept a broad
  // band (the substrate is a simulator).
  const GpuArch& arch = gpu_arch(GpuModel::kV100);
  const GoogleNetTotals t = googlenet_forward_times(arch, 1, PlannerConfig{});
  const double speedup = t.stream_ms / t.ours_ms;
  EXPECT_GT(speedup, 1.05);
  EXPECT_LT(speedup, 2.0);
}

TEST(GoogleNetTiming, LargerImageBatchCostsMore) {
  // N scales with the image batch, so every variant's time must grow.
  const GpuArch& arch = gpu_arch(GpuModel::kV100);
  const auto t1 = time_googlenet_inceptions(arch, 1, PlannerConfig{});
  const auto t4 = time_googlenet_inceptions(arch, 4, PlannerConfig{});
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_GT(t4[i].ours_us, t1[i].ours_us) << t1[i].name;
    EXPECT_GT(t4[i].magma_us, t1[i].magma_us) << t1[i].name;
  }
}

TEST(GoogleNetTiming, BatchingNarrowsTheGapAtLargerImageBatch) {
  // With more images (bigger N), every execution gets more TLP, so the
  // framework's relative advantage shrinks or holds (paper observation 3).
  const GpuArch& arch = gpu_arch(GpuModel::kV100);
  const auto t1 = time_googlenet_inceptions(arch, 1, PlannerConfig{});
  const auto t8 = time_googlenet_inceptions(arch, 8, PlannerConfig{});
  double mean1 = 0, mean8 = 0;
  for (std::size_t i = 0; i < t1.size(); ++i) {
    mean1 += t1[i].speedup_vs_magma();
    mean8 += t8[i].speedup_vs_magma();
  }
  EXPECT_LT(mean8, mean1 * 1.1);
}

// ------------------------------------------------ inference (functional) --

TEST(InceptionForward, BatchedMatchesReference) {
  // A scaled-down inception-like module keeps the test fast while covering
  // both stages, the pool branch, and the concat.
  InceptionModule m;
  m.name = "mini";
  m.in_c = 8;
  m.hw = 10;
  auto mk = [&](const char* name, int in_c, int out_c, int k) {
    ConvShape s;
    s.name = name;
    s.in_c = in_c;
    s.out_c = out_c;
    s.kernel = k;
    s.stride = 1;
    s.pad = k / 2;
    s.in_h = m.hw;
    s.in_w = m.hw;
    return s;
  };
  m.conv1x1 = mk("1x1", 8, 6, 1);
  m.reduce3 = mk("r3", 8, 4, 1);
  m.conv3x3 = mk("3x3", 4, 8, 3);
  m.reduce5 = mk("r5", 8, 3, 1);
  m.conv5x5 = mk("5x5", 3, 4, 5);
  m.pool_proj = mk("pp", 8, 5, 1);

  Rng rng(99);
  Tensor4 input(2, 8, 10, 10);
  fill_random(input, rng);
  const InceptionWeights w = random_inception_weights(m, rng);

  const Tensor4 ref = inception_forward_reference(m, input, w);
  const Tensor4 batched = inception_forward_batched(m, input, w,
                                                    PlannerConfig{});
  ASSERT_TRUE(ref.same_shape(batched));
  EXPECT_EQ(ref.c(), 6 + 8 + 4 + 5);
  EXPECT_LT(max_abs_diff(ref, batched), 1e-3f);
}

TEST(InceptionForward, RealInception3aShapes) {
  // Full-size 3a forward via the framework (batch 1) produces the right
  // output shape; values checked against the GEMM-path conv.
  const auto& m = googlenet_inception_modules().front();
  Rng rng(123);
  Tensor4 input(1, m.in_c, m.hw, m.hw);
  fill_random(input, rng);
  const InceptionWeights w = random_inception_weights(m, rng);
  const Tensor4 out = inception_forward_batched(m, input, w,
                                                PlannerConfig{});
  EXPECT_EQ(out.c(), m.out_c());
  EXPECT_EQ(out.h(), 28);
  EXPECT_EQ(out.w(), 28);
}

// --------------------------------------------------- grouped conv dispatch --

#ifdef CTB_TELEMETRY_ENABLED
std::int64_t counter_value(const telemetry::MetricsSnapshot& snap,
                           const std::string& name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return c.value;
  ADD_FAILURE() << "counter " << name << " missing from snapshot";
  return -1;
}
#endif

TEST(GroupedConv, SharedInputIsLoweredAndPackedOnce) {
  // Inception 3a stage 1's three 1x1 branch convs over the module input,
  // which share one lowering, plus two 3x3 convs over the same input that
  // differ from them in kernel and from each other in pad, which must not.
  // One group reads the input itself, the other one copy of it per conv,
  // whose B operands the executor must pack separately: conv Bs share a
  // panel set exactly when they lower one tensor with one geometry.
  const InceptionModule& m = googlenet_inception_modules().front();
  ConvShape same_pad = m.conv1x1;
  same_pad.name = "3x3/pad1";
  same_pad.out_c = 8;
  same_pad.kernel = 3;
  same_pad.pad = 1;
  ConvShape valid = same_pad;
  valid.name = "3x3/pad0";
  valid.pad = 0;
  Rng rng(17);
  Tensor4 input(1, m.in_c, m.hw, m.hw);
  fill_random(input, rng);
  const InceptionWeights w = random_inception_weights(m, rng);
  const Matrixf w3 = random_filters(same_pad, rng);
  const std::array<const ConvShape*, 5> shapes = {
      &m.conv1x1, &m.reduce3, &m.reduce5, &same_pad, &valid};
  const std::array<const Matrixf*, 5> filters = {&w.w1x1, &w.wr3, &w.wr5,
                                                 &w3, &w3};
  const std::array<Tensor4, 5> copies = {input, input, input, input, input};

  struct Run {
    std::vector<Tensor4> out;
    std::int64_t pack_bytes = 0, pack_reuse = 0;
  };
  auto run = [&](bool shared) {
    std::vector<GroupedConv> group(shapes.size());
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      group[i].shape = shapes[i];
      group[i].input = shared ? &input : &copies[i];
      group[i].filters = filters[i];
      group[i].relu = true;
    }
    Run r;
#ifdef CTB_TELEMETRY_ENABLED
    telemetry::reset();
    telemetry::set_enabled(true);
#endif
    r.out = grouped_conv_forward(group);
#ifdef CTB_TELEMETRY_ENABLED
    const auto snap = telemetry::snapshot();
    r.pack_bytes = counter_value(snap, "exec.pack.bytes");
    r.pack_reuse = counter_value(snap, "exec.pack.reuse");
    telemetry::set_enabled(false);
    telemetry::reset();
#endif
    return r;
  };
  const Run shared = run(true);
  const Run separate = run(false);
  ASSERT_EQ(shared.out.size(), separate.out.size());
  for (std::size_t i = 0; i < shared.out.size(); ++i) {
    ASSERT_TRUE(shared.out[i].same_shape(separate.out[i]));
    EXPECT_EQ(std::memcmp(shared.out[i].flat().data(),
                          separate.out[i].flat().data(),
                          shared.out[i].size() * sizeof(float)),
              0)
        << shapes[i]->name;
  }
#ifdef CTB_TELEMETRY_ENABLED
  EXPECT_LT(shared.pack_bytes, separate.pack_bytes);
  EXPECT_GT(shared.pack_reuse, separate.pack_reuse);
#endif
}

}  // namespace
}  // namespace ctb
