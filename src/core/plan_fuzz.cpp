#include "core/plan_fuzz.hpp"

#include <algorithm>
#include <climits>

#include "core/tiling_strategy.hpp"

namespace ctb {

const std::vector<PlanFault>& all_plan_faults() {
  static const std::vector<PlanFault> faults = {
      PlanFault::kTruncateOffsets,      PlanFault::kTruncateGemm,
      PlanFault::kTruncateStrategy,     PlanFault::kTruncateY,
      PlanFault::kTruncateX,            PlanFault::kDuplicateTile,
      PlanFault::kSwapGemmIds,          PlanFault::kTransposeCoords,
      PlanFault::kGemmIdNegative,       PlanFault::kGemmIdPastEnd,
      PlanFault::kStrategyIdNegative,   PlanFault::kStrategyIdPastEnd,
      PlanFault::kYCoordNegative,       PlanFault::kYCoordPastEnd,
      PlanFault::kXCoordNegative,       PlanFault::kXCoordPastEnd,
      PlanFault::kOffsetsNonMonotone,   PlanFault::kOffsetsFirstNonZero,
      PlanFault::kOffsetsBackMismatch,  PlanFault::kThreadVariantMismatch,
      PlanFault::kBlockThreadsInvalid,  PlanFault::kOffsetsOverflow,
      PlanFault::kCoordOverflow,        PlanFault::kSmemOverflow,
      PlanFault::kRegsOverflow,         PlanFault::kSplitOverlap,
      PlanFault::kSplitGap,             PlanFault::kSplitEndPastK,
      PlanFault::kSplitZeroLength,      PlanFault::kSplitUnaligned,
      PlanFault::kSplitTruncated,       PlanFault::kEpilogueBadOpId,
      PlanFault::kEpilogueNonCanonical, PlanFault::kEpilogueArrayMismatch,
  };
  return faults;
}

const char* to_string(PlanFault fault) {
  switch (fault) {
    case PlanFault::kTruncateOffsets: return "truncate-offsets";
    case PlanFault::kTruncateGemm: return "truncate-gemm";
    case PlanFault::kTruncateStrategy: return "truncate-strategy";
    case PlanFault::kTruncateY: return "truncate-y";
    case PlanFault::kTruncateX: return "truncate-x";
    case PlanFault::kDuplicateTile: return "duplicate-tile";
    case PlanFault::kSwapGemmIds: return "swap-gemm-ids";
    case PlanFault::kTransposeCoords: return "transpose-coords";
    case PlanFault::kGemmIdNegative: return "gemm-id-negative";
    case PlanFault::kGemmIdPastEnd: return "gemm-id-past-end";
    case PlanFault::kStrategyIdNegative: return "strategy-id-negative";
    case PlanFault::kStrategyIdPastEnd: return "strategy-id-past-end";
    case PlanFault::kYCoordNegative: return "y-coord-negative";
    case PlanFault::kYCoordPastEnd: return "y-coord-past-end";
    case PlanFault::kXCoordNegative: return "x-coord-negative";
    case PlanFault::kXCoordPastEnd: return "x-coord-past-end";
    case PlanFault::kOffsetsNonMonotone: return "offsets-non-monotone";
    case PlanFault::kOffsetsFirstNonZero: return "offsets-first-nonzero";
    case PlanFault::kOffsetsBackMismatch: return "offsets-back-mismatch";
    case PlanFault::kThreadVariantMismatch:
      return "thread-variant-mismatch";
    case PlanFault::kBlockThreadsInvalid: return "block-threads-invalid";
    case PlanFault::kOffsetsOverflow: return "offsets-overflow";
    case PlanFault::kCoordOverflow: return "coord-overflow";
    case PlanFault::kSmemOverflow: return "smem-overflow";
    case PlanFault::kRegsOverflow: return "regs-overflow";
    case PlanFault::kSplitOverlap: return "split-overlap";
    case PlanFault::kSplitGap: return "split-gap";
    case PlanFault::kSplitEndPastK: return "split-end-past-k";
    case PlanFault::kSplitZeroLength: return "split-zero-length";
    case PlanFault::kSplitUnaligned: return "split-unaligned";
    case PlanFault::kSplitTruncated: return "split-truncated";
    case PlanFault::kEpilogueBadOpId: return "epilogue-bad-op-id";
    case PlanFault::kEpilogueNonCanonical: return "epilogue-non-canonical";
    case PlanFault::kEpilogueArrayMismatch:
      return "epilogue-array-mismatch";
  }
  return "?";
}

namespace {

std::size_t st(int v) { return static_cast<std::size_t>(v); }

}  // namespace

std::vector<FaultedPlan> inject_plan_fault(const BatchPlan& plan,
                                           PlanFault fault) {
  std::vector<FaultedPlan> out;
  const int n = plan.num_tiles();
  auto add = [&](BatchPlan p, std::string note) {
    out.push_back(FaultedPlan{std::move(p), std::move(note)});
  };

  switch (fault) {
    case PlanFault::kTruncateOffsets:
      if (!plan.tile_offsets.empty() && n > 0) {
        BatchPlan p = plan;
        p.tile_offsets.pop_back();
        add(std::move(p), "dropped the last tile offset");
      }
      break;
    case PlanFault::kTruncateGemm:
      if (n > 0) {
        BatchPlan p = plan;
        p.gemm_of_tile.pop_back();
        add(std::move(p), "dropped the last GEMM id");
      }
      break;
    case PlanFault::kTruncateStrategy:
      if (n > 0) {
        BatchPlan p = plan;
        p.strategy_of_tile.pop_back();
        add(std::move(p), "dropped the last strategy id");
      }
      break;
    case PlanFault::kTruncateY:
      if (n > 0) {
        BatchPlan p = plan;
        p.y_coord.pop_back();
        add(std::move(p), "dropped the last Y coordinate");
      }
      break;
    case PlanFault::kTruncateX:
      if (n > 0) {
        BatchPlan p = plan;
        p.x_coord.pop_back();
        add(std::move(p), "dropped the last X coordinate");
      }
      break;
    case PlanFault::kDuplicateTile:
      if (n > 0) {
        BatchPlan p = plan;
        const int t = n - 1;
        p.gemm_of_tile.push_back(p.gemm_of_tile[st(t)]);
        p.strategy_of_tile.push_back(p.strategy_of_tile[st(t)]);
        p.y_coord.push_back(p.y_coord[st(t)]);
        p.x_coord.push_back(p.x_coord[st(t)]);
        if (p.has_split()) {
          p.k_begin.push_back(p.k_begin[st(t)]);
          p.k_end.push_back(p.k_end[st(t)]);
        }
        p.tile_offsets.back() += 1;
        add(std::move(p), "appended a duplicate of the last tile");
      }
      break;
    case PlanFault::kSwapGemmIds: {
      // Swap the GEMM ids of two tiles of different GEMMs *at different
      // coordinates*: each GEMM then holds a duplicate or out-of-grid
      // coordinate, so coverage validation must trip. (Equal-coordinate
      // swaps — e.g. two single-tile GEMMs both at (0,0) — describe the
      // same work and stay valid, so they are skipped.)
      bool done = false;
      for (int i = 0; i < n && !done; ++i) {
        for (int t = i + 1; t < n && !done; ++t) {
          if (plan.gemm_of_tile[st(t)] == plan.gemm_of_tile[st(i)]) continue;
          if (plan.y_coord[st(t)] == plan.y_coord[st(i)] &&
              plan.x_coord[st(t)] == plan.x_coord[st(i)])
            continue;
          BatchPlan p = plan;
          std::swap(p.gemm_of_tile[st(i)], p.gemm_of_tile[st(t)]);
          add(std::move(p), "swapped GEMM ids of tiles " +
                                std::to_string(i) + " and " +
                                std::to_string(t));
          done = true;
        }
      }
      break;
    }
    case PlanFault::kTransposeCoords: {
      // Transposing (ty, tx) of one tile lands on a coordinate that is
      // either outside the GEMM's tile grid or already owned by another
      // tile (the original coverage was complete), so it can never pass.
      for (int t = 0; t < n; ++t) {
        if (plan.y_coord[st(t)] != plan.x_coord[st(t)]) {
          BatchPlan p = plan;
          std::swap(p.y_coord[st(t)], p.x_coord[st(t)]);
          add(std::move(p),
              "transposed the coordinates of tile " + std::to_string(t));
          break;
        }
      }
      break;
    }
    case PlanFault::kGemmIdNegative:
      if (n > 0) {
        BatchPlan p = plan;
        p.gemm_of_tile[0] = -1;
        add(std::move(p), "GEMM id of tile 0 set to -1");
      }
      break;
    case PlanFault::kGemmIdPastEnd:
      if (n > 0) {
        BatchPlan p = plan;
        const int past = *std::max_element(plan.gemm_of_tile.begin(),
                                           plan.gemm_of_tile.end()) +
                         1;
        p.gemm_of_tile[st(n - 1)] = past;
        add(std::move(p), "GEMM id of the last tile set one past the batch");
      }
      break;
    case PlanFault::kStrategyIdNegative:
      if (n > 0) {
        BatchPlan p = plan;
        p.strategy_of_tile[0] = -1;
        add(std::move(p), "strategy id of tile 0 set to -1");
      }
      break;
    case PlanFault::kStrategyIdPastEnd:
      if (n > 0) {
        BatchPlan p = plan;
        p.strategy_of_tile[0] = static_cast<int>(batched_strategies().size());
        add(std::move(p), "strategy id of tile 0 set past Table 2");
      }
      break;
    case PlanFault::kYCoordNegative:
      if (n > 0) {
        BatchPlan p = plan;
        p.y_coord[0] = -1;
        add(std::move(p), "Y coordinate of tile 0 set to -1");
      }
      break;
    case PlanFault::kYCoordPastEnd:
      if (n > 0) {
        BatchPlan p = plan;
        const int past = *std::max_element(plan.y_coord.begin(),
                                           plan.y_coord.end()) +
                         4096;
        p.y_coord[st(n - 1)] = past;
        add(std::move(p), "Y coordinate of the last tile set past the grid");
      }
      break;
    case PlanFault::kXCoordNegative:
      if (n > 0) {
        BatchPlan p = plan;
        p.x_coord[0] = -1;
        add(std::move(p), "X coordinate of tile 0 set to -1");
      }
      break;
    case PlanFault::kXCoordPastEnd:
      if (n > 0) {
        BatchPlan p = plan;
        const int past = *std::max_element(plan.x_coord.begin(),
                                           plan.x_coord.end()) +
                         4096;
        p.x_coord[st(n - 1)] = past;
        add(std::move(p), "X coordinate of the last tile set past the grid");
      }
      break;
    case PlanFault::kOffsetsNonMonotone:
      if (plan.tile_offsets.size() >= 2 && n > 0) {
        BatchPlan p = plan;
        p.tile_offsets[1] = -5;
        add(std::move(p), "tile offset 1 set to -5 (descending)");
      }
      if (plan.tile_offsets.size() >= 3 &&
          plan.tile_offsets[1] != plan.tile_offsets[2]) {
        BatchPlan p = plan;
        std::swap(p.tile_offsets[1], p.tile_offsets[2]);
        add(std::move(p), "swapped tile offsets 1 and 2");
      }
      break;
    case PlanFault::kOffsetsFirstNonZero:
      if (n > 0) {
        BatchPlan p = plan;
        p.tile_offsets[0] = 1;
        add(std::move(p), "first tile offset set to 1");
      }
      break;
    case PlanFault::kOffsetsBackMismatch:
      if (!plan.tile_offsets.empty()) {
        BatchPlan p = plan;
        p.tile_offsets.back() += 1;
        add(std::move(p), "last tile offset exceeds the tile count by 1");
      }
      break;
    case PlanFault::kThreadVariantMismatch:
      if (n > 0) {
        // Table-2 ids encode shape*2 + variant bit, so id^1 is the same
        // shape under the other thread count — a unified-thread-structure
        // violation the kernel could not launch.
        BatchPlan p = plan;
        p.strategy_of_tile[0] ^= 1;
        add(std::move(p),
            "strategy of tile 0 flipped to the other thread variant");
      }
      break;
    case PlanFault::kBlockThreadsInvalid: {
      BatchPlan p = plan;
      p.block_threads = 96;
      add(std::move(p), "block_threads set to 96");
      BatchPlan q = plan;
      q.block_threads = 0;
      add(std::move(q), "block_threads set to 0");
      break;
    }
    case PlanFault::kOffsetsOverflow:
      if (!plan.tile_offsets.empty() && n > 0) {
        BatchPlan p = plan;
        p.tile_offsets.back() = INT_MAX;
        add(std::move(p), "last tile offset set to INT_MAX");
      }
      break;
    case PlanFault::kCoordOverflow:
      if (n > 0) {
        BatchPlan p = plan;
        p.y_coord[0] = INT_MAX - 1;
        add(std::move(p), "Y coordinate of tile 0 set near INT_MAX");
        BatchPlan q = plan;
        q.x_coord[0] = INT_MAX - 1;
        add(std::move(q), "X coordinate of tile 0 set near INT_MAX");
      }
      break;
    case PlanFault::kSmemOverflow: {
      BatchPlan p = plan;
      p.smem_bytes = INT_MAX;
      add(std::move(p), "smem footprint set to INT_MAX");
      BatchPlan q = plan;
      q.smem_bytes = -4;
      add(std::move(q), "smem footprint set negative");
      break;
    }
    case PlanFault::kRegsOverflow: {
      BatchPlan p = plan;
      p.regs_per_thread = 1 << 20;
      add(std::move(p), "register footprint set to 2^20");
      BatchPlan q = plan;
      q.regs_per_thread = -1;
      add(std::move(q), "register footprint set negative");
      break;
    }
    case PlanFault::kSplitOverlap:
      // Pull a later slice's start back one BK step: it now overlaps the
      // preceding slice of the same coordinate while staying BK-aligned and
      // non-empty, so only the partition check can catch it.
      for (int t = 0; plan.has_split() && t < n; ++t) {
        const int bk = batched_strategy_by_id(plan.strategy_of_tile[st(t)]).bk;
        if (plan.k_begin[st(t)] >= bk) {
          BatchPlan p = plan;
          p.k_begin[st(t)] -= bk;
          add(std::move(p), "slice " + std::to_string(t) +
                                " start pulled back one BK step (overlap)");
          break;
        }
      }
      break;
    case PlanFault::kSplitGap:
      // Push a later slice's start forward one BK step, leaving a hole in
      // the coordinate's K coverage (the range stays non-empty).
      for (int t = 0; plan.has_split() && t < n; ++t) {
        const int bk = batched_strategy_by_id(plan.strategy_of_tile[st(t)]).bk;
        if (plan.k_begin[st(t)] > 0 &&
            plan.k_begin[st(t)] + bk < plan.k_end[st(t)]) {
          BatchPlan p = plan;
          p.k_begin[st(t)] += bk;
          add(std::move(p), "slice " + std::to_string(t) +
                                " start pushed forward one BK step (gap)");
          break;
        }
      }
      break;
    case PlanFault::kSplitEndPastK:
      if (plan.has_split() && n > 0) {
        // The final slice of the last tile coordinate ends at K; one more
        // BK step runs past the GEMM's K extent.
        const int t = n - 1;
        const int bk = batched_strategy_by_id(plan.strategy_of_tile[st(t)]).bk;
        BatchPlan p = plan;
        p.k_end[st(t)] += bk;
        add(std::move(p), "last slice extended one BK step past K");
        BatchPlan q = plan;
        q.k_end[st(t)] = INT_MAX - 1;
        add(std::move(q), "last slice end set near INT_MAX");
      }
      break;
    case PlanFault::kSplitZeroLength:
      // Collapse a later entry (k_begin > 0) to a zero-length range: the
      // tile still appears in its coordinate's chain but covers nothing.
      for (int t = 0; plan.has_split() && t < n; ++t) {
        if (plan.k_begin[st(t)] > 0) {
          BatchPlan p = plan;
          p.k_end[st(t)] = p.k_begin[st(t)];
          add(std::move(p), "later slice " + std::to_string(t) +
                                " collapsed to a zero-length range");
          break;
        }
      }
      break;
    case PlanFault::kSplitUnaligned:
      for (int t = 0; plan.has_split() && t < n; ++t) {
        if (plan.k_begin[st(t)] > 0) {
          BatchPlan p = plan;
          p.k_begin[st(t)] += 1;
          add(std::move(p), "slice " + std::to_string(t) +
                                " start knocked off the BK grid");
          break;
        }
      }
      break;
    case PlanFault::kSplitTruncated:
      if (plan.has_split() && n > 0) {
        BatchPlan p = plan;
        p.k_begin.pop_back();
        p.k_end.pop_back();
        add(std::move(p), "dropped the last K range");
        BatchPlan q = plan;
        q.k_end.pop_back();
        add(std::move(q), "dropped the last K-range end only");
      }
      break;
    case PlanFault::kEpilogueBadOpId:
      if (plan.has_epilogue()) {
        // Overwrite the first spec with an op id one past the enum, and
        // append the same bad id to the first non-full chain — both leave
        // every other nibble well-formed, so only per-nibble validation
        // can catch them.
        BatchPlan p = plan;
        p.epilogue_of_gemm[0] = kNumEpilogueOps + 1;
        add(std::move(p), "epilogue spec of GEMM 0 set to an unknown op id");
        for (std::size_t g = 0; g < plan.epilogue_of_gemm.size(); ++g) {
          const int spec = plan.epilogue_of_gemm[g];
          const int nops = epilogue_num_ops(spec);
          if (spec != 0 && nops < kMaxEpilogueOps) {
            BatchPlan q = plan;
            q.epilogue_of_gemm[g] = spec | ((kNumEpilogueOps + 1)
                                            << (4 * nops));
            add(std::move(q), "unknown op id appended to the chain of GEMM " +
                                  std::to_string(g));
            break;
          }
        }
      }
      break;
    case PlanFault::kEpilogueNonCanonical:
      if (plan.has_epilogue()) {
        // A nonzero nibble after the zero terminator (0x20 decodes as "no
        // ops" but compares unequal to 0), garbage above the nibble area,
        // and a negative spec.
        BatchPlan p = plan;
        p.epilogue_of_gemm[0] = 0x20;
        add(std::move(p),
            "epilogue spec of GEMM 0 holds an op past the terminator");
        BatchPlan q = plan;
        q.epilogue_of_gemm[0] = 1 << (4 * kMaxEpilogueOps);
        add(std::move(q),
            "epilogue spec of GEMM 0 set above the nibble area");
        BatchPlan r = plan;
        r.epilogue_of_gemm[0] = -1;
        add(std::move(r), "epilogue spec of GEMM 0 set negative");
      }
      break;
    case PlanFault::kEpilogueArrayMismatch: {
      if (!plan.has_epilogue()) break;
      // Truncate only when the remainder still carries a nonzero spec —
      // an emptied or all-zero array is a *valid* plain plan, not a fault.
      BatchPlan p = plan;
      p.epilogue_of_gemm.pop_back();
      bool any = false;
      for (int v : p.epilogue_of_gemm) any = any || v != 0;
      if (any)
        add(std::move(p), "dropped the last epilogue spec");
      BatchPlan q = plan;
      q.epilogue_of_gemm.push_back(0);
      add(std::move(q), "appended a spec past the batch");
      break;
    }
  }
  return out;
}

}  // namespace ctb
