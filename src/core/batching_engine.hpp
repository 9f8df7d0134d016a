// Batching engine (paper Section 5): assigns tiles to thread blocks,
// balancing TLP against ILP.
//
// Two heuristics:
//   * Threshold batching — TLP first. While the batch still has parallelism
//     to spare (remaining tiles + built blocks, in threads, above half the
//     tiling TLP threshold), each new block is filled with tiles until their
//     summed K exceeds theta; once TLP gets scarce, the rest go one tile per
//     block.
//   * Binary batching — ILP first. Tiles are sorted by K ascending and
//     paired min-with-max so every pair's summed K lands near theta
//     (greedy solution of Eq. 5); at most two tiles per block.
//
// The choice between the two is made offline (try both) or online by the
// random-forest policy in core/api.
#pragma once

#include <span>
#include <vector>

#include "core/batch_plan.hpp"

namespace ctb {

struct BatchingConfig {
  /// Workload threshold theta: total K per block above which further
  /// batching stops paying (256 on V100, paper Section 7).
  int theta = 256;
  /// The tiling engine's TLP threshold; threshold batching keeps batching
  /// only while TLP exceeds half of it.
  long long tlp_threshold = 65536;
};

enum class BatchingHeuristic { kThreshold, kBinary, kNone };

const char* to_string(BatchingHeuristic h);

/// One tile per block — the tiling-engine-only configuration (paper
/// Section 7.1 evaluates this alone).
BatchPlan batch_none(std::span<const Tile> tiles, int block_threads);

/// Every GEMM under one Table-2 strategy `s`, one tile per block, tiles in
/// enumerate_tiles order: the MAGMA vbatch grid (paper §6), and for a single
/// GEMM the one-tile-per-block kernel of Fig. 2. Its bubble blocks are a
/// timing artefact that work_vbatch models. Throws CheckError when `s` is
/// not a Table-2 strategy (id < 0), since a plan names strategies by id.
BatchPlan uniform_plan(std::span<const GemmDims> dims,
                       const TilingStrategy& s);

/// Threshold batching (TLP priority).
BatchPlan batch_threshold(std::span<const Tile> tiles, int block_threads,
                          const BatchingConfig& config = {});

/// Binary batching (ILP priority).
BatchPlan batch_binary(std::span<const Tile> tiles, int block_threads,
                       const BatchingConfig& config = {});

/// Dispatches on the heuristic enum.
BatchPlan batch_tiles(BatchingHeuristic heuristic, std::span<const Tile> tiles,
                      int block_threads, const BatchingConfig& config = {});

}  // namespace ctb
