// Functional executors for the simulated device kernels.
//
// These run the paper's code skeletons on the CPU, thread block by thread
// block. There is one executor, execute_plan: the persistent-threads block
// sweep of Fig. 7 driven by the five auxiliary arrays. The MAGMA vbatch
// kernel and the single-GEMM kernel of Fig. 2 are plans too, with one
// uniform strategy and one tile per block (paper §6; uniform_plan in
// core/batching_engine.hpp). execute_tile runs one tile of a caller-built
// strategy. Double buffering changes only timing, not values, so the
// functional path uses single buffers; the timing model accounts for the
// pipeline.
//
// Every tile runs one pipeline: the active ISA's one micro-kernel
// (simd.hpp) accumulates its K chain over its 16x16 micro-tiles into a
// row-major accumulator, then one store (alpha/beta, fp16 rounding, the
// fused epilogue chain). The kernel reads micro-panels (packing.hpp): a
// GEMM whose footprint fits the call's pack budget is packed once per call,
// and every other tile stages its own micro-panels a chunk of K at a time.
// Both modes add the same staged values in the same (k0, p) order, so
// results are bit-exact across modes, executors and ISAs;
// `exec.dispatch.{specialized,generic}` count packed and staged tiles.
//
// Operands are plain data: a B operand is a stored matrix (N or T layout)
// or, for implicit-GEMM convolution, the NCHW input of a ConvLowering that
// the packer unrolls as it copies. No operand calls back into user code,
// so no executor call can start inside another one.
//
// Execution is block-parallel on the host: blocks fan out over
// ctb::parallel_for (OpenMP, serial fallback). This is safe and bit-exact
// because blocks write disjoint C tiles — validate_plan guarantees complete
// single coverage — while each block's tile chain and per-element FMA order stay serial. A
// split-K tile runs its slices as one chain at the slice that starts at 0
// and skips the others, so it too has one owner and one store.
// set_parallel_threads(1) forces the serial path; parallel_exec_test
// asserts bit-identical C either way.
#pragma once

#include <algorithm>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "core/batch_plan.hpp"
#include "core/epilogue.hpp"
#include "core/tiling_strategy.hpp"
#include "linalg/gemm_ref.hpp"

namespace ctb {

/// How a convolution's B is read from its input tensor (implicit GEMM,
/// paper §7.3): B is im2col's column matrix, never materialized. Logical
/// B(k, j) decodes k into (channel, kh, kw) and j into (image, oh, ow) and
/// reads input(image, channel, oh * stride - pad + kh, ow * stride - pad +
/// kw), or +0.0f where that tap falls in the padding. The channel count is
/// K / kernel^2 and the image count N / (out_h * out_w), so the GEMM's dims
/// carry them; kernel == 0 (the default) means B is a stored matrix.
struct ConvLowering {
  int in_h = 0;
  int in_w = 0;
  int kernel = 0;
  int stride = 1;
  int pad = 0;

  /// Whether B is lowered from a tensor at all.
  bool active() const { return kernel != 0; }
  int out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  int out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
  /// Whether a convolution can run with this geometry: extents, kernel and
  /// stride at least 1, pad at least 0, and a kernel no taller or wider
  /// than the padded input (integer division alone would round some
  /// out_h() / out_w() below 1 up to 1). The padded extents are summed in
  /// long long and must fit an int, so that a corrupt pad neither overflows
  /// this check nor out_h() / out_w(). check_conv_shape and audit_operands
  /// both apply it.
  bool valid() const {
    const long long padded_h = in_h + 2LL * pad, padded_w = in_w + 2LL * pad;
    return in_h >= 1 && in_w >= 1 && kernel >= 1 && stride >= 1 &&
           pad >= 0 && kernel <= std::min(padded_h, padded_w) &&
           std::max(padded_h, padded_w) <= std::numeric_limits<int>::max();
  }
  bool operator==(const ConvLowering&) const = default;
};

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
  /// When active, `b` points at a convolution's NCHW input and B is its
  /// lowering (op_b must be kN); the staging loads compute the input
  /// address from (k, j), as the real implicit-GEMM kernel does.
  ConvLowering lowering;
  /// Packed fused-epilogue chain (epilogue.hpp), applied inside the tile
  /// store — after the tile's whole K chain, split or not — instead of a
  /// separate elementwise pass over C. 0 = none (byte-identical to the
  /// plain store). This is the chain's one record: plans carry none, so
  /// any plan for these dims runs it.
  int epilogue = 0;
  /// Operands for the ops named by `epilogue`; audited for presence and
  /// extent before any matrix memory is touched.
  EpilogueArgs epilogue_args;
};
static_assert(std::is_trivially_copyable_v<GemmOperands>,
              "operands are plain data: nothing in them runs code");

/// A GEMM's tile stores stream past the cache (non-temporal stores, one
/// fence per tile; DESIGN.md §9) when its C holds at least this many bytes,
/// is fp32 on the vector row store, starts every row on a cache line (C
/// line-aligned, N a multiple of 16) and the call runs under AVX2 or
/// AVX-512. Only the stores' cache policy changes, never a value;
/// exec.store.streamed counts the tiles.
inline constexpr std::size_t kStreamStoreBytes = std::size_t{1} << 20;

/// Executes one C tile (ty, tx) of `g` under `strategy` in the staged mode:
/// the tile packs its own micro-panels, runs the active ISA's micro-kernel
/// over them, and applies the tile store. Audits `g` (audit_operands) and
/// rejects a geometry outside Tables 1 and 2's (check_geometry: BY and BX
/// multiples of 16 up to 128, BK <= 8, sub-tiles covering the tile) or a
/// tile outside the GEMM before touching memory.
void execute_tile(const TilingStrategy& strategy, const GemmOperands& g,
                  int ty, int tx, float alpha, float beta);

/// Audits the operand array alone: every GEMM has valid dims and A, B and C
/// pointers; an active lowering has a geometry ConvLowering::valid accepts,
/// kN B, a kernel^2 that divides K and an out_h * out_w that divides N;
/// any fused-epilogue spec is a canonical chain, and a chain with a bias
/// has its bias present with bias_len == m. Throws CheckError naming the
/// offending batch index, before any matrix element is touched.
void audit_operands(std::span<const GemmOperands> batch);

/// Full pre-execution audit: audit_operands, then validate_plan against the
/// dims the operands actually carry (not the dims the plan was built from —
/// that closes the gap where a stale plan meets a reshaped batch). Rejects
/// every corruption class in the fault-injection catalog before the
/// executor reads or writes any matrix memory.
void audit_plan_operands(const BatchPlan& plan,
                         std::span<const GemmOperands> batch);

/// Reference execution of one GEMM — the executor's oracle, fused epilogue
/// included. A naive triple loop over the staged
/// operand values (staged_a_value / staged_b_value: transpose, lowering and
/// fp16 rounding resolved per element) with the same ascending-k
/// accumulation and alpha/beta epilogue as gemm_naive / gemm_naive_fp16, so
/// its C output is bit-identical to the host oracles; any fused-epilogue
/// chain on `g` is applied per element with exactly the executor semantics
/// (epilogue.hpp), so fused executor output is bit-identical to this
/// reference too.
void reference_gemm(const GemmOperands& g, float alpha, float beta);

/// The one executor (Fig. 7): computes C = alpha * op(A) * op(B) + beta * C
/// for every GEMM of `batch` (indexed by the plan's GEMM ids), block by
/// block, each GEMM under the Table-2 strategy its tiles name in
/// plan.strategy_of_tile. Runs audit_plan_operands first, so a corrupt plan
/// or operand array throws CheckError before any matrix element is read or
/// written.
void execute_plan(const BatchPlan& plan, std::span<const GemmOperands> batch,
                  float alpha, float beta);

/// Convenience: wraps host matrices as device operands (they share storage
/// in the simulator). Shapes are validated.
GemmOperands operands(const Matrixf& a, const Matrixf& b, Matrixf& c);

/// Transpose-aware variant: logical dims are derived from the stored shapes
/// and the ops (e.g. op_a == kT means `a` stores K x M).
GemmOperands operands(const Matrixf& a, const Matrixf& b, Matrixf& c,
                      Op op_a, Op op_b);

}  // namespace ctb
