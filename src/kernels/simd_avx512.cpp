// AVX-512 instantiation of the shared SIMD kernels (16 fp32 lanes). This
// file is compiled with -mavx512f on x86-64; on other targets, or under
// -DCTB_SIMD=OFF, its kernels are null stubs and the dispatcher never
// selects AVX-512.
#include "kernels/simd.hpp"

#if defined(CTB_SIMD_ENABLED) && (defined(__x86_64__) || defined(_M_X64))

#include <immintrin.h>

#define CTB_SIMD_W 16
// The streamed tile store (DESIGN.md §9): one non-temporal store per
// 64-byte-aligned chunk, one store fence per tile.
#define CTB_SIMD_STREAM_STORE(p, v) _mm512_stream_ps((p), (v))
#define CTB_SIMD_STREAM_FENCE() _mm_sfence()
#include "kernels/simd_kernels.inl"

namespace ctb::simd_detail {

SimdMicroKernelFn avx512_micro_kernel() { return &micro_kernel; }

SimdEpilogueRowFn avx512_epilogue_row() { return &simd_epilogue_row_impl; }

}  // namespace ctb::simd_detail

#else

namespace ctb::simd_detail {

SimdMicroKernelFn avx512_micro_kernel() { return nullptr; }

SimdEpilogueRowFn avx512_epilogue_row() { return nullptr; }

}  // namespace ctb::simd_detail

#endif
