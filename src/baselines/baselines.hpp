// Baseline batched-GEMM executions the paper compares against (Sections 3
// and 7, artifact appendix), timed through the simulator: default per-kernel
// execution, concurrent kernel execution over streams, cuBLAS-style
// same-size batching, and MAGMA-style vbatch. On the host every baseline's
// grid is a plan: the vbatch kernel is
// execute_plan(uniform_plan(dims, magma_uniform_strategy(dims)), ...).
#pragma once

#include <span>

#include "core/tiling_strategy.hpp"
#include "gpusim/arch.hpp"
#include "gpusim/sm_engine.hpp"
#include "linalg/gemm_ref.hpp"

namespace ctb {

struct BaselineResult {
  SimStats sim;
  double time_us = 0.0;  ///< includes host launch overheads.
};

/// Tile selection for a *standalone* GEMM (the library mindset cuBLAS/MAGMA
/// kernels embody): balance having enough tiles to occupy the GPU against
/// arithmetic intensity. Score = min(1, tiles / (2*SMs)) * AI; ties go to
/// the larger tile.
const TilingStrategy& single_gemm_heuristic(const GemmDims& dims,
                                            const GpuArch& arch);

/// Default execution: one kernel per GEMM, back to back in one stream.
BaselineResult run_default_timed(const GpuArch& arch,
                                 std::span<const GemmDims> batch);

/// Concurrent kernel execution: the same per-GEMM kernels spread over
/// `num_streams` CUDA streams.
BaselineResult run_cke_timed(const GpuArch& arch,
                             std::span<const GemmDims> batch,
                             int num_streams);

/// cuBLAS-style batched GEMM (cublasSgemmBatched): a single kernel, but only
/// for batches where every GEMM has identical M, N, K. Throws CheckError on
/// mixed sizes — exactly the API restriction the paper calls out.
BaselineResult run_samesize_batched_timed(const GpuArch& arch,
                                          std::span<const GemmDims> batch);

/// MAGMA-style vbatch: one kernel, gridDim.z = batch, one uniform tiling
/// strategy, bubble blocks padding the grid to the largest GEMM.
BaselineResult run_magma_timed(const GpuArch& arch,
                               std::span<const GemmDims> batch);

}  // namespace ctb
