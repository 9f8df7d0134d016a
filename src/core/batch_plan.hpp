// Batching plan: the tile list plus the five auxiliary arrays of the paper's
// programming interface (Section 6, Fig. 6). A plan fully describes which
// thread block executes which tiles of which GEMM under which tiling
// strategy — any batching scheme is expressible.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/epilogue.hpp"
#include "core/tiling_strategy.hpp"
#include "linalg/gemm_ref.hpp"

namespace ctb {

/// One C-tile of one GEMM, before block assignment. A tile may cover only a
/// K-slice of its GEMM (split-K): k_begin/k_end describe the half-open
/// range of the K loop this entry executes. k_end == 0 is the sentinel for
/// "full K" so plain tile enumeration never marks a plan as split.
struct Tile {
  int gemm = 0;                             ///< index into the batch.
  int ty = 0;                               ///< tile row (Y_Coordinate).
  int tx = 0;                               ///< tile col (X_Coordinate).
  int k = 0;                                ///< K extent this entry executes
                                            ///< (slice length for split-K);
                                            ///< drives batching load accounting.
  int k_begin = 0;                          ///< start of the K-slice.
  int k_end = 0;                            ///< end of the K-slice; 0 = full K.
  const TilingStrategy* strategy = nullptr; ///< owning GEMM's strategy.
};

/// The executable plan. Arrays follow Fig. 6 exactly:
///   tile_offsets ("Tile")       — CSR offsets, size num_blocks + 1; block b
///                                 owns tiles [tile_offsets[b], tile_offsets[b+1]).
///   gemm_of_tile ("GEMM")       — owning GEMM per tile.
///   strategy_of_tile ("Tiling strategy") — Table-2 id (0..11) per tile.
///   y_coord / x_coord           — tile position within its GEMM.
///   k_begin / k_end ("K_Range")  — optional sixth aux array pair (split-K):
///                                 when present (both sized num_tiles) each
///                                 tile executes the half-open K range
///                                 [k_begin, k_end) of its GEMM. Empty for
///                                 legacy unsplit plans.
///   epilogue_of_gemm ("Epilogue") — optional per-GEMM fused epilogue spec
///                                 (epilogue.hpp packed chains), sized to the
///                                 batch when present. Indexed by GEMM id,
///                                 not tile id: every tile of a GEMM shares
///                                 one epilogue, applied inside the tile
///                                 store after the tile's whole K chain.
///                                 Empty for epilogue-free plans.
struct BatchPlan {
  std::vector<int> tile_offsets;
  std::vector<int> gemm_of_tile;
  std::vector<int> strategy_of_tile;
  std::vector<int> y_coord;
  std::vector<int> x_coord;
  std::vector<int> k_begin;
  std::vector<int> k_end;
  std::vector<int> epilogue_of_gemm;

  /// Unified block size shared by all blocks (128 or 256).
  int block_threads = 256;
  /// Static launch footprint: the kernel is compiled once, so shared memory
  /// and registers are sized for the largest strategy present in the plan.
  int smem_bytes = 0;
  int regs_per_thread = 0;

  /// Equal plans run the same blocks, tiles and footprint.
  bool operator==(const BatchPlan&) const = default;

  int num_blocks() const {
    return static_cast<int>(tile_offsets.empty() ? 0
                                                 : tile_offsets.size() - 1);
  }
  int num_tiles() const { return static_cast<int>(gemm_of_tile.size()); }
  /// Tiles of block b as [begin, end) into the tile arrays.
  std::pair<int, int> block_tiles(int b) const {
    return {tile_offsets[static_cast<std::size_t>(b)],
            tile_offsets[static_cast<std::size_t>(b) + 1]};
  }
  /// True when the plan carries the split-K aux arrays.
  bool has_split() const { return !k_begin.empty(); }
  /// True when the plan carries per-GEMM epilogue specs.
  bool has_epilogue() const { return !epilogue_of_gemm.empty(); }
  /// Packed epilogue spec of GEMM g; 0 (no epilogue) when the array is
  /// absent or g falls outside it (a degraded plan may cover fewer GEMMs).
  int gemm_epilogue(int g) const {
    return g >= 0 && g < static_cast<int>(epilogue_of_gemm.size())
               ? epilogue_of_gemm[static_cast<std::size_t>(g)]
               : 0;
  }
  /// K range of tile t given its GEMM's K extent; {0, K} for unsplit plans.
  std::pair<int, int> tile_k_range(int t, int K) const {
    if (!has_split()) return {0, K};
    return {k_begin[static_cast<std::size_t>(t)],
            k_end[static_cast<std::size_t>(t)]};
  }
};

/// Expands a tiling selection into the flat tile list, GEMM by GEMM in row-
/// major tile order. `strategies` is parallel to `dims`.
std::vector<Tile> enumerate_tiles(
    std::span<const GemmDims> dims,
    std::span<const TilingStrategy* const> strategies);

/// Builds a plan assigning the given tile groups to blocks, computing the
/// unified launch footprint. Each inner vector becomes one block. When any
/// tile carries an explicit K range (k_end != 0) the plan gets the split-K
/// aux arrays; sentinel full-K tiles are materialized as [0, t.k).
BatchPlan build_plan(std::span<const std::vector<Tile>> blocks,
                     int block_threads);

/// Splits each tile's K extent into up to `slices` contiguous BK-aligned
/// ranges (each at least one BK step; the last carries the ragged tail),
/// emitted adjacently in ascending K order so downstream batching keeps
/// slices of one tile in plan order. Tiles whose K loop has fewer steps
/// than `slices` get one slice per step; single-step tiles stay full-K
/// sentinels. Slice entries carry k = range length so batching engines
/// account the per-slice load. `slices <= 1` returns the input unchanged.
std::vector<Tile> split_tiles_k(std::span<const Tile> tiles, int slices);

/// Dims-independent structural invariants: block size is 128 or 256, the
/// offset array starts at 0, is monotone, and ends at the tile count, all
/// five aux arrays agree on the tile count, every GEMM id / coordinate is
/// non-negative, every strategy id names a Table-2 strategy of the plan's
/// unified thread structure, and the static launch footprint covers the
/// strategies present without being overflow-adjacent garbage. Split-K
/// plans additionally need both K-range arrays sized to the tile count,
/// every range non-empty with a non-negative BK-aligned start. Epilogue
/// specs, when present, must all be canonical packed chains
/// (epilogue_packed_valid) and the array must cover every GEMM id the tiles
/// reference. Throws CheckError on the first violation. load_plan runs this
/// before returning, so a deserialized plan is always structurally sound.
void validate_plan_structure(const BatchPlan& plan);

/// Checks every invariant of a plan against the batch it claims to cover:
/// validate_plan_structure plus GEMM ids within the batch, coordinates
/// inside each GEMM's tile grid, one consistent strategy per GEMM, and
/// every tile of every GEMM covered exactly once. For split-K plans the
/// exactly-once check generalizes: the K ranges of each (GEMM, ty, tx)
/// coordinate must form an exact, gap-free, non-overlapping ascending
/// partition of [0, K), with interior boundaries BK-aligned. Throws
/// CheckError with a description on the first violation.
void validate_plan(const BatchPlan& plan, std::span<const GemmDims> dims);

/// Useful floating-point operations of one pass over the batch: sum of
/// 2*m*n*k per GEMM (the conventional GEMM FLOP count; the beta*C update is
/// not charged). 64-bit: a single DNN layer batch already exceeds 2^31.
long long batch_flops(std::span<const GemmDims> dims);

/// Debug rendering of the aux arrays (small plans only).
std::string to_string(const BatchPlan& plan);

}  // namespace ctb
