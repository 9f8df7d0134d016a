// Host peak calibration: an unfused multiply-then-add loop at the vector
// width of the library's active SIMD ISA. The executor's tile loops keep
// multiply and add separate (-ffp-contract=off, bit-exactness), so this
// loop, not an FMA loop, is the roof host_peak_frac is measured against.
#include <cstdint>
#include <cstring>

#include "bench.hpp"
#include "kernels/simd.hpp"

namespace perfbench {
namespace {

// Independent accumulators: enough chains to cover mul+add latency on two
// vector ports, so the loop is throughput-bound.
constexpr int kChains = 12;
constexpr std::int64_t kItersPerChunk = 4096;

// GCC vector types; an alias template with a dependent vector_size would
// silently drop the attribute, so each width is spelled out.
using V16 = float __attribute__((vector_size(64)));
using V8 = float __attribute__((vector_size(32)));
using V4 = float __attribute__((vector_size(16)));
using V1 = float;

volatile float g_mul = 0.999f;
volatile float g_add = 0.001f;

template <typename V>
__attribute__((always_inline)) inline float mul_add_chains(
    std::int64_t iters, float m, float a) {
  constexpr int kLanes = sizeof(V) / sizeof(float);
  // Distinct start values per lane, so the compiler cannot collapse
  // identical lanes into one scalar chain.
  float lanes[kChains * kLanes];
  for (int i = 0; i < kChains * kLanes; ++i)
    lanes[i] = 1.0f + a * static_cast<float>(i);
  V acc[kChains];
  std::memcpy(acc, lanes, sizeof lanes);
  const V vm = V{} + m;
  const V va = V{} + a;
  for (std::int64_t i = 0; i < iters; ++i)
    for (int j = 0; j < kChains; ++j) acc[j] = acc[j] * vm + va;
  std::memcpy(lanes, acc, sizeof lanes);
  float sum = 0;
  for (float x : lanes) sum += x;
  return sum;
}

#if defined(__x86_64__)
__attribute__((target("avx512f"))) float chains16(std::int64_t n, float m,
                                                  float a) {
  return mul_add_chains<V16>(n, m, a);
}
__attribute__((target("avx2"))) float chains8(std::int64_t n, float m,
                                              float a) {
  return mul_add_chains<V8>(n, m, a);
}
#endif
float chains4(std::int64_t n, float m, float a) {
  return mul_add_chains<V4>(n, m, a);
}
float chains1(std::int64_t n, float m, float a) {
  return mul_add_chains<V1>(n, m, a);
}

using ChainFn = float (*)(std::int64_t, float, float);

ChainFn chain_fn(int lanes) {
#if defined(__x86_64__)
  if (lanes == 16) return chains16;
  if (lanes == 8) return chains8;
#endif
  return lanes == 4 ? chains4 : chains1;
}

volatile float g_sink = 0;

}  // namespace

int calib_lanes() {
  switch (ctb::active_simd_isa()) {
    case ctb::SimdIsa::kAvx512:
      return 16;
    case ctb::SimdIsa::kAvx2:
      return 8;
    case ctb::SimdIsa::kNeon:
      return 4;
    case ctb::SimdIsa::kScalar:
      break;
  }
  return 1;
}

double calib_gflops(double target_us) {
  const int lanes = calib_lanes();
  const ChainFn fn = chain_fn(lanes);
  const double flops_per_chunk = 2.0 * kChains * lanes * kItersPerChunk;
  std::int64_t chunks = 0;
  const double start = now_us();
  double elapsed = 0;
  do {
    g_sink = g_sink + fn(kItersPerChunk, g_mul, g_add);
    ++chunks;
    elapsed = now_us() - start;
  } while (elapsed < target_us);
  return flops_per_chunk * static_cast<double>(chunks) / (elapsed * 1e3);
}

}  // namespace perfbench
