// Codegen guard for the explicit-SIMD micro-kernels
// (kernels/simd_kernels.inl).
//
// A helper that the compiler lowers badly (a broadcast that becomes a lane
// loop, an unaligned load that goes through the stack) costs the kernel
// 2-5x without changing a single output bit, so no bit-exactness test sees
// it. This test turns the codegen into a number: the GFLOP/s of what a
// packed tile runs — the micro-kernel walk (accumulate_micro_tiles) over a
// 64x64 and a 128x128 tile of 256-step micro-panels — divided by the
// GFLOP/s of an unfused mul+add register loop of the same vector width,
// compiled for the same ISA, both timed interleaved in one process and
// each kept at its best of N samples. The ratio cancels the host's clock
// and load, so nothing is timed in absolute terms.
//
// Floors: AVX-512 0.6 and AVX2 0.3. On a 4-vCPU AVX-512 Xeon VM (GCC 12)
// the walk measured 0.81-1.0 and 0.70-1.08 (best round of each of fifteen
// runs), while a lane-loop splat or a memcpy loadu measured 0.28-0.33 and
// 0.12. The test skips ISAs the host lacks, and whole builds where timing
// says nothing about codegen: unoptimized (-O0 coverage), sanitized, or
// without the SIMD layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "kernels/packing.hpp"
#include "kernels/simd.hpp"
#include "util/rng.hpp"

namespace ctb {
namespace {

#if defined(__x86_64__) && defined(__OPTIMIZE__) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#define CTB_ROOF_TIMED 1

// Independent accumulator chains: enough to cover mul+add latency on two
// vector ports, so the roof loop is throughput-bound.
constexpr int kChains = 12;

using V16 = float __attribute__((vector_size(64)));
using V8 = float __attribute__((vector_size(32)));

volatile float g_mul = 0.999f;
volatile float g_add = 0.001f;
volatile float g_sink = 0.0f;

template <typename V>
__attribute__((always_inline)) inline float mul_add_chains(long long iters,
                                                           float m, float a) {
  constexpr int kLanes = sizeof(V) / sizeof(float);
  float lanes[kChains * kLanes];
  for (int i = 0; i < kChains * kLanes; ++i)
    lanes[i] = 1.0f + a * static_cast<float>(i);
  V acc[kChains];
  std::memcpy(acc, lanes, sizeof lanes);
  const V vm = V{} + m;
  const V va = V{} + a;
  // Separate statements under the build's -ffp-contract=off: an unfused
  // vmulps + vaddps per chain step, the micro-kernel's own instruction mix.
  for (long long i = 0; i < iters; ++i)
    for (int j = 0; j < kChains; ++j) {
      const V p = acc[j] * vm;
      acc[j] = p + va;
    }
  std::memcpy(lanes, acc, sizeof lanes);
  float sum = 0.0f;
  for (float x : lanes) sum += x;
  return sum;
}

__attribute__((target("avx512f"))) float roof16(long long iters, float m,
                                                float a) {
  return mul_add_chains<V16>(iters, m, a);
}

__attribute__((target("avx2"))) float roof8(long long iters, float m,
                                            float a) {
  return mul_add_chains<V8>(iters, m, a);
}

using RoofFn = float (*)(long long, float, float);

double seconds_of(const auto& run) {
  const auto t0 = std::chrono::steady_clock::now();
  run();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Best-of-`reps` tile GFLOP/s over best-of-`reps` roof GFLOP/s, the two
/// sampled alternately so both see the same host state. The tile is
/// `by` x `bx`, every micro-tile of it inside the matrix.
double roof_ratio(SimdIsa isa, int lanes, RoofFn roof, int by, int bx) {
  constexpr int kSteps = 256;
  constexpr int kReps = 40;
  const SimdMicroKernelFn kernel = simd_micro_kernel(isa);
  EXPECT_NE(kernel, nullptr);
  if (kernel == nullptr) return 0.0;
  Rng rng(by * 1000 + bx);
  std::vector<float> a(static_cast<std::size_t>(by) * kMicroK * kSteps);
  std::vector<float> b(static_cast<std::size_t>(kMicroK) * bx * kSteps);
  for (float& v : a) v = rng.uniform_float(-1.0f, 1.0f);
  for (float& v : b) v = rng.uniform_float(-1.0f, 1.0f);
  PackedGemm pk;
  pk.nsteps = kSteps;
  pk.a = a.data();
  pk.b = b.data();
  std::vector<float> acc(static_cast<std::size_t>(by) * bx);

  const double tile_flops = 2.0 * by * bx * kMicroK * kSteps;
  // Roof iterations sized to the same FLOP count as one tile call.
  const long long iters = static_cast<long long>(
      tile_flops / (2.0 * kChains * lanes));
  const double roof_flops = 2.0 * kChains * lanes * static_cast<double>(iters);
  double best_tile = 0.0, best_roof = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const double tr = seconds_of([&] {
      g_sink = g_sink + roof(iters, g_mul, g_add);
    });
    const double tt = seconds_of([&] {
      accumulate_micro_tiles(kernel, pk, 0, 0, by, bx, /*accumulate=*/false,
                             acc.data(), bx);
      g_sink = g_sink + acc[static_cast<std::size_t>(rep) % acc.size()];
    });
    best_roof = std::max(best_roof, roof_flops / tr);
    best_tile = std::max(best_tile, tile_flops / tt);
  }
  const double ratio = best_tile / best_roof;
  std::printf("[ roof     ] %s %dx%d: tile %.1f GFLOP/s, mul+add %.1f GFLOP/s, "
              "ratio %.2f\n",
              simd_isa_name(isa), by, bx, best_tile * 1e-9, best_roof * 1e-9,
              ratio);
  return ratio;
}

#endif  // timed build

void expect_near_roof(SimdIsa isa, double floor) {
#ifndef CTB_ROOF_TIMED
  (void)isa;
  (void)floor;
  GTEST_SKIP() << "needs an optimized, unsanitized x86-64 build";
#else
  if (static_cast<int>(detected_simd_isa()) < static_cast<int>(isa) ||
      simd_micro_kernel(isa) == nullptr)
    GTEST_SKIP() << simd_isa_name(isa) << " not available on this host/build";
  const bool avx512 = isa == SimdIsa::kAvx512;
  for (const int tile : {64, 128}) {
    // A co-running process (another tenant, a parallel ctest) can hold the
    // shared L1/L2 through a whole round; a lowered codegen cannot clear
    // the floor in any round, so a few rounds cost nothing in sensitivity.
    double ratio = 0.0;
    for (int round = 0; round < 5 && ratio < floor; ++round)
      ratio = std::max(ratio, roof_ratio(isa, avx512 ? 16 : 8,
                                         avx512 ? &roof16 : &roof8, tile,
                                         tile));
    EXPECT_GE(ratio, floor)
        << simd_isa_name(isa) << ' ' << tile << 'x' << tile
        << " micro-kernel walk runs at " << ratio
        << " of the same-width mul+add loop: check the codegen of splat/"
           "loadu in simd_kernels.inl";
  }
#endif
}

TEST(SimdRoof, Avx512TileLoopNearMulAddRoof) {
  expect_near_roof(SimdIsa::kAvx512, 0.6);
}

TEST(SimdRoof, Avx2TileLoopNearMulAddRoof) {
  expect_near_roof(SimdIsa::kAvx2, 0.3);
}

}  // namespace
}  // namespace ctb
