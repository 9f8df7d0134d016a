// Public API of the coordinated tiling and batching framework.
//
// Typical use:
//
//   ctb::PlannerConfig config;                       // V100 defaults
//   ctb::BatchedGemmPlanner planner(config);
//   ctb::PlanSummary s = planner.plan(dims);         // tiling + batching
//   ctb::execute_plan(s.plan, operands, alpha, beta) // bit-exact results
//   ctb::TimedResult t = time_plan(arch, s.plan, dims);  // simulated time
//
// or the one-call convenience `batched_gemm(...)` over host matrices.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/batching_engine.hpp"
#include "core/tiling_engine.hpp"
#include "gpusim/arch.hpp"
#include "gpusim/sm_engine.hpp"
#include "kernels/functional.hpp"
#include "rf/random_forest.hpp"

namespace ctb {

/// How the planner picks between the two batching heuristics.
enum class BatchingPolicy {
  kThresholdOnly,  ///< always threshold batching (TLP priority)
  kBinaryOnly,     ///< always binary batching (ILP priority)
  kAutoOffline,    ///< time four plans through the simulator at the
                   ///< configured precision and keep the fastest: the
                   ///< threshold/binary winner with its split-K decision,
                   ///< one tile per block over the tiling engine's tiles,
                   ///< and every GEMM under the uniform vbatch tile
                   ///< (magma_uniform_strategy) one tile per block; a tie
                   ///< keeps the earlier. kForce times only the first.
  kRandomForest,   ///< online random-forest selection (paper Section 5)
  kTilingOnly,     ///< one tile per block (tiling engine alone, Fig. 8)
};

const char* to_string(BatchingPolicy policy);

/// Split-K planning mode — the third scheduling axis (DESIGN.md §11).
enum class SplitKMode {
  kAuto,   ///< consider split-K only when the unsplit plan is TLP-scarce
           ///< (launched threads < tlp_threshold / 2) and keep it when the
           ///< simulator says it wins
  kOff,    ///< never split (the degraded serving configuration: no extra
           ///< simulator sweep on the fallback path)
  kForce,  ///< skip the scarcity trigger and keep the fastest *split*
           ///< candidate whenever the batch's K extents allow one
};

const char* to_string(SplitKMode mode);

/// TLP threshold for an architecture: 65536 on V100 (paper), scaled for
/// other GPUs by their thread capacity (0.4 * SMs * threads-per-SM, which
/// reproduces 65536 exactly on the V100 preset).
long long default_tlp_threshold(const GpuArch& arch);

/// Workload threshold theta (256 on V100, paper Section 7).
int default_theta(const GpuArch& arch);

struct PlannerConfig {
  GpuModel gpu = GpuModel::kV100;
  /// Zero values mean "derive from the architecture".
  long long tlp_threshold = 0;
  int theta = 0;
  BatchingPolicy policy = BatchingPolicy::kAutoOffline;
  /// Required when policy == kRandomForest.
  const RandomForest* forest = nullptr;
  /// Execution precision (kFp16 = tensor-core semantics; planning itself is
  /// precision-independent, the strategy tables are the paper's FP32 suite).
  Precision precision = Precision::kFp32;
  /// Split-K scheduling axis: when a batch's tiles cannot fill the machine,
  /// each tile's K loop may be partitioned into BK-aligned slices that the
  /// simulated device runs as extra blocks. The host runs a split tile's
  /// slices as one carried chain at its first slice, so results are
  /// bit-identical to the unsplit plan (see execute_plan). Candidate
  /// split plans are sim-compared against the unsplit plan via time_plan.
  SplitKMode splitk = SplitKMode::kAuto;
};

/// The configuration the plan service degrades to when the full planner
/// fails: threshold batching needs one linear pass over the batch (no
/// simulator sweep, no forest), so a fallback plan stays computable when
/// the full planner is down. Everything but the selection policy, split-K
/// (off) and the then-unused forest pointer is preserved.
PlannerConfig degraded_fallback_config(const PlannerConfig& config);

/// Everything the planner decided, plus the executable plan. `tiling` and
/// `heuristic` describe the plan that was kept: auto-offline's one-tile-
/// per-block candidates both read kNone, and the uniform one carries the
/// vbatch tile in every `tiling.per_gemm` entry.
struct PlanSummary {
  TilingResult tiling;
  BatchingHeuristic heuristic = BatchingHeuristic::kNone;
  BatchPlan plan;
};

class BatchedGemmPlanner {
 public:
  explicit BatchedGemmPlanner(PlannerConfig config = {});

  /// Plans a batch: tiling engine, then batching engine under the configured
  /// policy. The returned plan passes validate_plan().
  PlanSummary plan(std::span<const GemmDims> dims) const;

  const PlannerConfig& config() const { return config_; }
  const GpuArch& arch() const { return arch_; }

 private:
  /// kAutoOffline (see BatchingPolicy): fills summary.heuristic and
  /// summary.plan, and summary.tiling when the uniform plan wins.
  void plan_auto_offline(PlanSummary& summary, std::span<const GemmDims> dims,
                         std::span<const Tile> tiles, int threads,
                         const BatchingConfig& batching_config) const;

  /// Split-K candidate generation: when enabled and triggered, sweeps
  /// power-of-two slice counts over the enumerated tiles, batches each
  /// candidate with the already-chosen heuristic, and replaces summary.plan
  /// when the simulator prefers a split plan (always, under kForce).
  /// `plan_us` is summary.plan's simulated time if the caller has it, or
  /// negative; returns summary.plan's simulated time on exit (`plan_us`
  /// when the sweep does not run).
  double consider_splitk(PlanSummary& summary, std::span<const Tile> tiles,
                         int threads, const BatchingConfig& batching_config,
                         std::span<const GemmDims> dims,
                         double plan_us = -1.0) const;

  PlannerConfig config_;
  GpuArch arch_;
};

/// Simulated execution time of a plan as one persistent-threads kernel
/// launch (includes the host launch overhead).
struct TimedResult {
  SimStats sim;
  double time_us = 0.0;
};

TimedResult time_plan(const GpuArch& arch, const BatchPlan& plan,
                      std::span<const GemmDims> dims,
                      Precision precision = Precision::kFp32);

// Functional execution is execute_plan (kernels/functional.hpp, included
// above): it audits the operands and validates the plan against the dims
// they carry, and throws CheckError before any matrix element is touched if
// either is inconsistent.

/// One-call host convenience: plans, validates, functionally executes, and
/// times the batch. a/b/c are parallel arrays of host matrices.
struct BatchedGemmResult {
  PlanSummary summary;
  TimedResult timing;
};

/// Degenerate-input contract (both overloads): an empty batch, a null
/// matrix pointer, any GEMM with m, n, or k == 0, mismatched inner
/// dimensions, or a C whose shape differs from op(A)*op(B) throws
/// CheckError deterministically, before any element of any C is written.
/// batched_gemm plans its own batch, so a plan that fails validation is a
/// planner bug, and it throws too.
BatchedGemmResult batched_gemm(std::span<const Matrixf* const> a,
                               std::span<const Matrixf* const> b,
                               std::span<Matrixf* const> c, float alpha,
                               float beta, const PlannerConfig& config = {});

/// One GEMM of a transpose-aware batch: C = alpha * op(A)*op(B) + beta*C.
/// Stored shapes follow BLAS conventions (op == kT means the matrix holds
/// the transpose of the logical operand).
struct GemmEntry {
  const Matrixf* a = nullptr;
  const Matrixf* b = nullptr;
  Matrixf* c = nullptr;
  Op op_a = Op::kN;
  Op op_b = Op::kN;
  /// Fused epilogue chain applied inside the tile store (core/epilogue.hpp);
  /// 0 means plain GEMM. Operands for the chain's ops live in
  /// `epilogue_args` and must satisfy audit_operands (present, correctly
  /// sized).
  int epilogue = 0;
  EpilogueArgs epilogue_args{};
};

/// Transpose-aware batched GEMM; each entry may use its own op pair.
BatchedGemmResult batched_gemm(std::span<const GemmEntry> entries,
                               float alpha, float beta,
                               const PlannerConfig& config = {});

}  // namespace ctb
