// AVX2 instantiation of the shared SIMD kernels (8 fp32 lanes). This file
// is compiled with -mavx2 on x86-64; on other targets, or under
// -DCTB_SIMD=OFF, its kernels are null stubs and the dispatcher never
// selects AVX2.
#include "kernels/simd.hpp"

#if defined(CTB_SIMD_ENABLED) && (defined(__x86_64__) || defined(_M_X64))

#define CTB_SIMD_W 8
#include "kernels/simd_kernels.inl"

namespace ctb::simd_detail {

SimdMicroKernelFn avx2_micro_kernel() { return &micro_kernel; }

SimdEpilogueRowFn avx2_epilogue_row() { return &simd_epilogue_row_impl; }

}  // namespace ctb::simd_detail

#else

namespace ctb::simd_detail {

SimdMicroKernelFn avx2_micro_kernel() { return nullptr; }

SimdEpilogueRowFn avx2_epilogue_row() { return nullptr; }

}  // namespace ctb::simd_detail

#endif
