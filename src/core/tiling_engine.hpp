// Tiling engine (paper Section 4.2.3).
//
// Selects one Table-2 strategy per GEMM of a batch. The algorithm gives
// priority to TLP, then trades it for ILP:
//
//   1. Build, per GEMM, a priority queue of feasible strategies (BY <= M and
//      BX <= N; `small` is always feasible so every GEMM has a candidate),
//      smallest first. Start with the 256-thread variants.
//   2. Pop one strategy per queue (a queue down to its last element is
//      "topped", not popped) and evaluate the batch TLP (Eq. 1).
//   3. TLP above the architecture threshold means parallelism to spare:
//      repeat step 2 with larger tiles. Otherwise accept the current
//      selection.
//   Exception: when every queue is exhausted while TLP is still above the
//   threshold, restart with the 128-thread variants (fewer threads per tile,
//   deeper per-thread sub-tiles, i.e. more ILP headroom).
#pragma once

#include <span>
#include <vector>

#include "core/perf_model.hpp"
#include "core/tiling_strategy.hpp"
#include "linalg/gemm_ref.hpp"

namespace ctb {

struct TilingConfig {
  /// Architecture-dependent TLP threshold; 65536 on V100 (paper Section 7).
  long long tlp_threshold = 65536;
};

struct TilingResult {
  /// One Table-2 strategy per GEMM, parallel to the input batch.
  std::vector<const TilingStrategy*> per_gemm;
  /// Thread variant shared by every selected strategy (unified structure).
  ThreadVariant variant = ThreadVariant::k256;
  /// Batch TLP of the accepted selection (Eq. 1).
  long long tlp = 0;
  /// Number of step-2 evaluations performed (diagnostic).
  int iterations = 0;
};

/// Runs the selection algorithm. Requires a non-empty batch of valid dims.
TilingResult select_tiling(std::span<const GemmDims> dims,
                           const TilingConfig& config = {});

/// Feasible Table-2 strategies for a single GEMM under `variant`, smallest
/// first. `small` is always included even when M or N is below 16 so every
/// GEMM has at least one candidate.
std::vector<const TilingStrategy*> feasible_strategies(const GemmDims& dims,
                                                       ThreadVariant variant);

/// The tiling strategy MAGMA-style vbatch uses: a single uniform 256-thread
/// Table-2 strategy (small, medium or large) for the whole batch, chosen
/// with the single-GEMM mindset of
/// maximizing data reuse for the largest GEMM — ignoring how many GEMMs are
/// batched (the coordination gap the paper's Fig. 8 measures).
const TilingStrategy& magma_uniform_strategy(std::span<const GemmDims> dims);

}  // namespace ctb
