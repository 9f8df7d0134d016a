// ISA detection and tile-loop dispatch for the explicit-SIMD layer.
#include "kernels/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace ctb {

namespace {

SimdIsa probe_host() {
#if defined(CTB_SIMD_ENABLED)
#if defined(__x86_64__) || defined(_M_X64)
  // avx512f covers every instruction the fp32 tile loop emits; the finer
  // subsets (dq/bw/vl) are irrelevant here.
  if (__builtin_cpu_supports("avx512f")) return SimdIsa::kAvx512;
  if (__builtin_cpu_supports("avx2")) return SimdIsa::kAvx2;
  return SimdIsa::kScalar;
#elif defined(__aarch64__) || defined(_M_ARM64)
  return SimdIsa::kNeon;  // advsimd is baseline on aarch64
#else
  return SimdIsa::kScalar;
#endif
#else
  return SimdIsa::kScalar;  // -DCTB_SIMD=OFF
#endif
}

SimdIsa clamp_to_detected(SimdIsa isa) {
  const SimdIsa det = detected_simd_isa();
  return static_cast<int>(isa) > static_cast<int>(det) ? det : isa;
}

SimdIsa initial_active_isa() {
  const char* env = std::getenv("CTB_SIMD_ISA");
  if (env != nullptr && *env != '\0')
    return clamp_to_detected(parse_simd_isa(env));
  return detected_simd_isa();
}

std::atomic<SimdIsa>& active_isa_atomic() {
  static std::atomic<SimdIsa> isa{initial_active_isa()};
  return isa;
}

}  // namespace

SimdIsa detected_simd_isa() {
  static const SimdIsa isa = probe_host();
  return isa;
}

SimdIsa active_simd_isa() {
  return active_isa_atomic().load(std::memory_order_relaxed);
}

void set_simd_isa(SimdIsa isa) {
  active_isa_atomic().store(clamp_to_detected(isa), std::memory_order_relaxed);
}

const char* simd_isa_name(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kNeon:
      return "neon";
    case SimdIsa::kAvx2:
      return "avx2";
    case SimdIsa::kAvx512:
      return "avx512";
    case SimdIsa::kScalar:
      break;
  }
  return "scalar";
}

SimdIsa parse_simd_isa(const char* name) {
  if (name == nullptr) return SimdIsa::kScalar;
  if (std::strcmp(name, "neon") == 0) return SimdIsa::kNeon;
  if (std::strcmp(name, "avx2") == 0) return SimdIsa::kAvx2;
  if (std::strcmp(name, "avx512") == 0) return SimdIsa::kAvx512;
  return SimdIsa::kScalar;
}

namespace {

const SimdLoopEntry* find_simd_loop(SimdIsa isa, int by, int bx, int bk) {
  int count = 0;
  const SimdLoopEntry* table = nullptr;
  switch (isa) {
    case SimdIsa::kNeon:
      table = simd_detail::neon_loops(&count);
      break;
    case SimdIsa::kAvx2:
      table = simd_detail::avx2_loops(&count);
      break;
    case SimdIsa::kAvx512:
      table = simd_detail::avx512_loops(&count);
      break;
    case SimdIsa::kScalar:
      break;  // scalar tiles run the scalar packed loop instead
  }
  for (int i = 0; i < count; ++i) {
    if (table[i].by == by && table[i].bx == bx && table[i].bk == bk)
      return &table[i];
  }
  return nullptr;
}

}  // namespace

SimdTileLoopFn simd_tile_loop(SimdIsa isa, int by, int bx, int bk) {
  const SimdLoopEntry* e = find_simd_loop(isa, by, bx, bk);
  return e == nullptr ? nullptr : e->fn;
}

SimdTileLoopFn simd_tile_loop_acc(SimdIsa isa, int by, int bx, int bk) {
  const SimdLoopEntry* e = find_simd_loop(isa, by, bx, bk);
  return e == nullptr ? nullptr : e->fn_acc;
}

SimdEpilogueRowFn simd_epilogue_row(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kNeon:
      return simd_detail::neon_epilogue_row();
    case SimdIsa::kAvx2:
      return simd_detail::avx2_epilogue_row();
    case SimdIsa::kAvx512:
      return simd_detail::avx512_epilogue_row();
    case SimdIsa::kScalar:
      break;  // scalar epilogues run the per-element chain in the caller
  }
  return nullptr;
}

}  // namespace ctb
