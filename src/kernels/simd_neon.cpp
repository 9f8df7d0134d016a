// NEON instantiation of the shared SIMD kernels (4 fp32 lanes). NEON is
// baseline on aarch64, so no extra target flags are needed; on other
// targets, or under -DCTB_SIMD=OFF, its kernels are null stubs and the
// dispatcher never selects NEON.
#include "kernels/simd.hpp"

#if defined(CTB_SIMD_ENABLED) && (defined(__aarch64__) || defined(_M_ARM64))

#define CTB_SIMD_W 4
#include "kernels/simd_kernels.inl"

namespace ctb::simd_detail {

SimdMicroKernelFn neon_micro_kernel() { return &micro_kernel; }

SimdEpilogueRowFn neon_epilogue_row() { return &simd_epilogue_row_impl; }

}  // namespace ctb::simd_detail

#else

namespace ctb::simd_detail {

SimdMicroKernelFn neon_micro_kernel() { return nullptr; }

SimdEpilogueRowFn neon_epilogue_row() { return nullptr; }

}  // namespace ctb::simd_detail

#endif
