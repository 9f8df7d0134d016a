// Builds the timing-model work descriptors (gpusim::KernelWork) for each
// kernel variant from the same tiling/batching decisions the functional
// executors run. Keeping one producer for both paths guarantees that what
// the benchmarks time is what the tests verify.
#pragma once

#include <span>

#include "core/batch_plan.hpp"
#include "core/tiling_strategy.hpp"
#include "gpusim/work.hpp"
#include "linalg/gemm_ref.hpp"

namespace ctb {

/// TileWork for tile (ty, tx) of a GEMM under a strategy. Edge tiles clamp
/// their loads, stores, and flop counts to the in-range region. FP16
/// halves every byte count.
TileWork make_tile_work(const TilingStrategy& strategy, const GemmDims& dims,
                        int ty, int tx,
                        Precision precision = Precision::kFp32);

/// Split-K variant: the tile executes only the K range [k_begin, k_end) —
/// its main-loop iterations and flops scale to the slice, while the
/// epilogue traffic stays whole-tile (a partial tile reads/writes the
/// split-K workspace accumulator instead of C; same BY x BX footprint).
/// This is how the occupancy/timing model sees split-K's extra blocks
/// carry proportionally less work each.
TileWork make_tile_work(const TilingStrategy& strategy, const GemmDims& dims,
                        int ty, int tx, Precision precision, int k_begin,
                        int k_end);

/// Fig. 2 kernel: one block per tile, block size = strategy.threads.
KernelWork work_single_gemm(const GemmDims& dims,
                            const TilingStrategy& strategy);

/// vbatch-style kernel: uniform strategy, grid = (max tiles) x batch with
/// bubble blocks for the padding, uniform block size. `double_buffered`
/// distinguishes cuBLAS-quality kernels (true) from MAGMA's phase-
/// serialized vbatch templates (false).
KernelWork work_vbatch(std::span<const GemmDims> batch,
                       const TilingStrategy& strategy,
                       bool double_buffered = false,
                       double code_efficiency = 1.0);

/// Persistent-threads kernel for a batching plan: one block per plan block,
/// unified block size and the plan's static smem/register footprint.
KernelWork work_from_plan(const BatchPlan& plan,
                          std::span<const GemmDims> batch,
                          Precision precision = Precision::kFp32);

}  // namespace ctb
