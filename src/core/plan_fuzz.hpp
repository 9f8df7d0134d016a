// Plan corruption library for the fault-injection harness.
//
// Takes structurally valid plans (real planner output) and applies a catalog
// of deterministic corruptions to the five auxiliary arrays of the paper's
// programming interface (Fig. 6) plus the unified launch footprint:
// truncation, duplication, swapped entries, out-of-range ids and
// coordinates, non-monotone offsets, strategy/thread-structure mismatches,
// and overflow-adjacent extents. Every corruption class must be rejected by
// validate_plan / audit_plan_operands *before* any executor memory access;
// tests/fault_injection_test.cpp asserts exactly that (and CI repeats the
// suite under ASan+UBSan). Mutations use no RNG so failures replay exactly.
#pragma once

#include <string>
#include <vector>

#include "core/batch_plan.hpp"

namespace ctb {

/// The corruption catalog. One enumerator per failure class; a class may
/// expand into several concrete mutations (see inject_plan_fault).
enum class PlanFault : int {
  // Truncation — one per aux array.
  kTruncateOffsets = 0,
  kTruncateGemm,
  kTruncateStrategy,
  kTruncateY,
  kTruncateX,
  // Duplication and swapped entries.
  kDuplicateTile,
  kSwapGemmIds,
  kTransposeCoords,
  // Out-of-range ids and coordinates.
  kGemmIdNegative,
  kGemmIdPastEnd,
  kStrategyIdNegative,
  kStrategyIdPastEnd,
  kYCoordNegative,
  kYCoordPastEnd,
  kXCoordNegative,
  kXCoordPastEnd,
  // Offset-array corruption.
  kOffsetsNonMonotone,
  kOffsetsFirstNonZero,
  kOffsetsBackMismatch,
  // Strategy / thread-structure mismatches.
  kThreadVariantMismatch,
  kBlockThreadsInvalid,
  // Overflow-adjacent extents.
  kOffsetsOverflow,
  kCoordOverflow,
  kSmemOverflow,
  kRegsOverflow,
  // Split-K K-range corruption (apply to split plans only: every class
  // returns no variants for a plan without the K-range aux arrays).
  kSplitOverlap,     ///< adjacent slices of one tile overlap by one BK step.
  kSplitGap,         ///< coverage of one tile's K extent leaves a hole.
  kSplitEndPastK,    ///< k_end runs past the owning GEMM's K (+ INT_MAX).
  kSplitZeroLength,  ///< a later entry (k_begin > 0) with an empty range.
  kSplitUnaligned,   ///< k_begin knocked off the BK grid.
  kSplitTruncated,   ///< K-range arrays shorter than the tile count.
  // Epilogue-array corruption (apply to epilogue-carrying plans only:
  // every class returns no variants for a plan without the array).
  kEpilogueBadOpId,        ///< nibble holds an op id past the enum.
  kEpilogueNonCanonical,   ///< nonzero nibble after the terminator,
                           ///< garbage above the nibble area, negative spec.
  kEpilogueArrayMismatch,  ///< array length disagrees with the batch size.
};

/// All corruption classes, enumeration order.
const std::vector<PlanFault>& all_plan_faults();

const char* to_string(PlanFault fault);

/// One corrupted plan plus a human-readable description of the mutation.
struct FaultedPlan {
  BatchPlan plan;
  std::string note;
};

/// Applies `fault` to copies of `plan` at deterministic positions. Returns
/// every applicable variant; empty when the plan is too small for the
/// mutation (e.g. swapping GEMM ids needs at least two GEMMs).
std::vector<FaultedPlan> inject_plan_fault(const BatchPlan& plan,
                                           PlanFault fault);

}  // namespace ctb
