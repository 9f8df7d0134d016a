// Functional executors for the simulated device kernels.
//
// These run the paper's code skeletons on the CPU, thread block by thread
// block. There is one executor: the persistent-threads block sweep of
// Fig. 7 driven by the five auxiliary arrays. The MAGMA vbatch kernel is a
// plan with one uniform strategy and one tile per block (paper §6), and the
// single-GEMM kernel of Fig. 2 is vbatch over one GEMM. Double buffering
// changes only timing, not values, so the functional path uses single
// buffers; the timing model accounts for the pipeline.
//
// Every tile runs one pipeline: the active ISA's one micro-kernel
// (simd.hpp) accumulates its K range over its 16x16 micro-tiles into a
// row-major accumulator, then one store (alpha/beta, fp16 rounding, the
// fused epilogue chain). The kernel reads micro-panels (packing.hpp): a
// GEMM whose footprint fits the call's pack budget is packed once per call,
// and every other tile stages its own micro-panels a chunk of K at a time.
// Both modes add the same staged values in the same (k0, p) order, so
// results are bit-exact across modes, executors and ISAs;
// `exec.dispatch.{specialized,generic}` count packed and staged tiles.
//
// Execution is block-parallel on the host: blocks fan out over
// ctb::parallel_for (OpenMP, serial fallback). This is safe and bit-exact
// because blocks write disjoint C tiles — complete single coverage is
// guaranteed by validate_plan, and by construction for the vbatch grid —
// while each block's tile chain and per-element FMA order stay serial.
// set_parallel_threads(1) forces the serial path; parallel_exec_test
// asserts bit-identical C either way.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/batch_plan.hpp"
#include "core/tiling_strategy.hpp"
#include "linalg/gemm_ref.hpp"

namespace ctb {

/// One GEMM's operands on the simulated device. The logical problem is
/// C(MxN) = alpha * op(A)(MxK) * op(B)(KxN) + beta * C; all storage is
/// row-major with leading dimension == stored column count. With Op::kT an
/// operand is stored transposed (A storage KxM, B storage NxK), and the
/// kernel's staging loads transpose on the fly — exactly what the guarded
/// global->shared copies of a real NT/TN kernel do.
struct GemmOperands {
  const float* a = nullptr;
  const float* b = nullptr;
  float* c = nullptr;
  GemmDims dims;
  Op op_a = Op::kN;
  Op op_b = Op::kN;
  /// kFp16 emulates the tensor-core path: staged A/B values round through
  /// binary16, accumulation stays FP32, and the epilogue rounds C to
  /// binary16 (storage remains float arrays holding half-exact values).
  Precision precision = Precision::kFp32;
  /// Optional gather for logical B(k, j). When set, `b` may be null and the
  /// staging loads call the gather instead of reading memory — this is the
  /// implicit-GEMM convolution path (the real kernel computes the input
  /// address from (k, j) instead of reading a materialized im2col matrix).
  ///
  /// THREAD SAFETY: the executors invoke the gather concurrently from many
  /// host threads (one per in-flight block), always through a const
  /// GemmOperands. The callable must therefore be a pure function of
  /// (k, j): it may read captured state but must not mutate it or any other
  /// shared state. implicit_conv_operands satisfies this by capturing the
  /// shape by value and the input tensor by const pointer.
  std::function<float(int k, int j)> b_gather;
  /// Packed fused-epilogue chain (epilogue.hpp), applied inside the tile
  /// store — after the split-K fix-up join — instead of a separate
  /// elementwise pass over C. 0 = none (byte-identical to the plain store).
  /// For plan-driven execution the plan's epilogue_of_gemm entry must match
  /// this spec; audit_plan_operands enforces the agreement.
  int epilogue = 0;
  /// Operands for the ops named by `epilogue`; audited for presence, extent,
  /// and (for permutations) bijectivity before any matrix memory is touched.
  EpilogueArgs epilogue_args;
};

/// Executes one C tile (ty, tx) of `g` under `strategy` in the staged mode:
/// the tile packs its own micro-panels, runs the active ISA's micro-kernel
/// over them, and applies the tile store. Audits `g` (audit_operands) and
/// rejects a geometry outside Tables 1 and 2's (check_geometry: BY and BX
/// multiples of 16 up to 128, BK <= 8, sub-tiles covering the tile) or a
/// tile outside the GEMM before touching memory.
void execute_tile(const TilingStrategy& strategy, const GemmOperands& g,
                  int ty, int tx, float alpha, float beta);

/// Fig. 2: classic one-tile-per-block single GEMM — run_vbatch over one
/// GEMM.
void run_single_gemm(const TilingStrategy& strategy, const GemmOperands& g,
                     float alpha, float beta);

/// MAGMA vbatch: one uniform strategy, one tile per block, every tile of
/// every GEMM. The device grid's bubble blocks (sized by the largest GEMM)
/// are modelled by work_vbatch and execute nothing here. Audits the
/// operands and the strategy geometry first.
void run_vbatch(const TilingStrategy& strategy,
                std::span<const GemmOperands> batch, float alpha, float beta);

/// Audits the operand array alone: every GEMM has valid dims, an A pointer,
/// a B pointer or gather, and a C pointer; any fused-epilogue spec is a
/// canonical chain whose operands are present with the right extents
/// (bias_len == m, residual m x n, permutations bijective on their axis,
/// at most one permutation per axis). Throws CheckError naming the
/// offending batch index, before any matrix element is touched.
void audit_operands(std::span<const GemmOperands> batch);

/// Full pre-execution audit: audit_operands, then validate_plan against the
/// dims the operands actually carry (not the dims the plan was built from —
/// that closes the gap where a stale plan meets a reshaped batch). Rejects
/// every corruption class in the fault-injection catalog before the
/// executor reads or writes any matrix memory.
void audit_plan_operands(const BatchPlan& plan,
                         std::span<const GemmOperands> batch);

/// Reference execution of one GEMM — the graceful-degradation path and the
/// oracle for the fused epilogue. A transpose-, gather-, and precision-aware
/// naive triple loop with the same ascending-k accumulation and alpha/beta
/// epilogue as gemm_naive / gemm_naive_fp16, so its C output is
/// bit-identical to the host oracles; any fused-epilogue chain on `g` is
/// applied per element with exactly the executor semantics (epilogue.hpp),
/// so fused executor output is bit-identical to this reference too.
void reference_gemm(const GemmOperands& g, float alpha, float beta);

/// Fig. 7: persistent-threads batched kernel driven by the plan's aux
/// arrays. `batch` is indexed by the plan's GEMM ids. Runs
/// audit_plan_operands first, so a corrupt plan or operand array throws
/// before any memory access.
void run_batched_plan(const BatchPlan& plan,
                      std::span<const GemmOperands> batch, float alpha,
                      float beta);

/// Convenience: wraps host matrices as device operands (they share storage
/// in the simulator). Shapes are validated.
GemmOperands operands(const Matrixf& a, const Matrixf& b, Matrixf& c);

/// Transpose-aware variant: logical dims are derived from the stored shapes
/// and the ops (e.g. op_a == kT means `a` stores K x M).
GemmOperands operands(const Matrixf& a, const Matrixf& b, Matrixf& c,
                      Op op_a, Op op_b);

}  // namespace ctb
