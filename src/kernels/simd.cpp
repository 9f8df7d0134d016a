// ISA detection, the scalar micro-kernel, and kernel dispatch.
#include "kernels/simd.hpp"

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace ctb {

namespace {

SimdIsa probe_host() {
#if defined(CTB_SIMD_ENABLED)
#if defined(__x86_64__) || defined(_M_X64)
  // avx512f covers every instruction the fp32 kernels emit; the finer
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

/// CTB_SIMD_ISA clamped to the detected ISA; unset or empty keeps the
/// detected one, and so does a value that names no ISA, with one warning
/// (a typo must not quietly run the scalar kernel).
SimdIsa initial_active_isa() {
  const char* env = std::getenv("CTB_SIMD_ISA");
  if (env == nullptr || *env == '\0') return detected_simd_isa();
  if (SimdIsa isa{}; parse_simd_isa(env, isa)) return clamp_to_detected(isa);
  std::fprintf(stderr,
               "warning: CTB_SIMD_ISA='%s' is not scalar, neon, avx2 or "
               "avx512; running the detected %s\n",
               env, simd_isa_name(detected_simd_isa()));
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

bool parse_simd_isa(const char* name, SimdIsa& isa) {
  if (name == nullptr) return false;
  for (const SimdIsa known : {SimdIsa::kScalar, SimdIsa::kNeon,
                              SimdIsa::kAvx2, SimdIsa::kAvx512})
    if (std::strcmp(name, simd_isa_name(known)) == 0) {
      isa = known;
      return true;
    }
  return false;
}

namespace {

/// The scalar ISA's micro-kernel (see SimdMicroKernelFn): fixed bounds, so
/// the compiler may vectorize the j loop at the baseline ISA and keep each
/// kRows x 16 block of sums in registers across the step range; per C
/// element the adds still arrive in ascending (step, p) order.
void scalar_micro_kernel(const float* a_panel, const float* b_panel,
                         int nsteps, float* acc, int ld_acc,
                         bool accumulate) {
  constexpr int kRows = 4;
  // Fresh tiles load their initial sums from a zero row (see the vector
  // kernel in simd_kernels.inl).
  static constexpr float kZeroRow[kMicroTile] = {};
  const std::size_t init_ld = accumulate ? ld_acc : 0;
  for (int i0 = 0; i0 < kMicroTile; i0 += kRows) {
    float* acc_blk = acc + static_cast<std::size_t>(i0) * ld_acc;
    const float* init = accumulate ? acc_blk : kZeroRow;
    float r[kRows][kMicroTile];
    for (int i = 0; i < kRows; ++i)
      for (int j = 0; j < kMicroTile; ++j) r[i][j] = init[i * init_ld + j];
    for (int step = 0; step < nsteps; ++step) {
      const float* a = a_panel + static_cast<std::size_t>(step) * kMicroBlock +
                       i0 * kMicroK;
      const float* b = b_panel + static_cast<std::size_t>(step) * kMicroBlock;
      for (int p = 0; p < kMicroK; ++p)
        for (int i = 0; i < kRows; ++i) {
          const float av = a[i * kMicroK + p];
          for (int j = 0; j < kMicroTile; ++j)
            r[i][j] += av * b[p * kMicroTile + j];
        }
    }
    for (int i = 0; i < kRows; ++i)
      for (int j = 0; j < kMicroTile; ++j) acc_blk[i * ld_acc + j] = r[i][j];
  }
}

}  // namespace

SimdMicroKernelFn simd_micro_kernel(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kNeon:
      return simd_detail::neon_micro_kernel();
    case SimdIsa::kAvx2:
      return simd_detail::avx2_micro_kernel();
    case SimdIsa::kAvx512:
      return simd_detail::avx512_micro_kernel();
    case SimdIsa::kScalar:
      break;
  }
  return &scalar_micro_kernel;
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
