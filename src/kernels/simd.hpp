// Runtime-dispatched explicit-SIMD tile loops for packed tiles.
//
// The scalar packed loop (functional.cpp) leaves vectorization to the
// compiler over runtime trip counts. This layer is the hand-vectorized K
// loop instead: per-ISA translation units (simd_avx2.cpp,
// simd_avx512.cpp, simd_neon.cpp) instantiate one shared tile-loop template
// (simd_kernels.inl) per distinct Table-1/2 tile geometry, vectorizing along
// the j (x) axis so every vector lane owns exactly one C element.
//
// Determinism (DESIGN.md §6): lanes are independent C elements, so each
// element's accumulation chain is still scalar-ordered — ascending (k0, p)
// over the staged panel values — and the multiply and add are written as
// separate statements under the global -ffp-contract=off, so no lane ever
// sees a fused or reassociated operation. The SIMD result is bit-identical
// to the scalar packed loop and the generic executor for every geometry,
// precision, transpose mode, and gather.
//
// Dispatch: `detected_simd_isa()` probes the host once (CPUID on x86-64,
// NEON is baseline on aarch64); `active_simd_isa()` starts from the
// detection, optionally overridden by CTB_SIMD_ISA=scalar|neon|avx2|avx512
// in the environment, and is clamped so it never exceeds what the host
// supports. Building with -DCTB_SIMD=OFF compiles every per-ISA table to an
// empty stub and detection reports kScalar, so the scalar packed loop
// carries every packed tile.
//
// This header deliberately defines no inline functions: it is included by
// translation units compiled with different target flags (-mavx2, -mavx512f),
// and keeping it declaration-only removes any chance of ODR-merging function
// bodies compiled for different ISAs.
#pragma once

namespace ctb {

/// Instruction sets the dispatcher can select, in increasing capability
/// order (the order set_simd_isa clamps against).
enum class SimdIsa { kScalar = 0, kNeon = 1, kAvx2 = 2, kAvx512 = 3 };

/// Interior K loop over the packed panels of one (ty, tx) tile: accumulates
/// `nsteps` BY x BK / BK x BX panel blocks into a row-major BY x BX
/// accumulator (`acc[i * BX + j]`), fully overwriting it (every element is
/// the sum-from-zero, so callers need not clear the scratch). The caller
/// applies the alpha/beta epilogue; the loop touches nothing else.
///
/// Each table entry also carries an accumulate-in variant with the same
/// signature (`fn_acc`): instead of starting from zero it loads the vector
/// accumulators from `acc` and continues the chain — the split-K fix-up
/// reduction continues a tile's ascending (k0, p) chain across K slices
/// through it. Pass `a_panel`/`b_panel` pre-offset to the slice's first
/// step and `nsteps` = the slice's step count.
using SimdTileLoopFn = void (*)(const float* a_panel, const float* b_panel,
                                int nsteps, float* acc);

/// One geometry's tile loops in a per-ISA table. BK is 8 for every suite
/// entry (paper §4.2.2); it is part of the key anyway so a future suite
/// cannot silently match the wrong kernel.
struct SimdLoopEntry {
  int by, bx, bk;
  SimdTileLoopFn fn;
  SimdTileLoopFn fn_acc;
};

/// One tile's rows of store work (DESIGN.md §9, §12): C = alpha * acc +
/// beta * C, then the fused epilogue chain, for `rows` C rows starting at
/// logical row `row0`, `n` columns each. Tile row i reads accumulator row
/// `acc + i * acc_stride`; its logical row gi = row0 + i lands at
/// `c + di * ldc`, where di = row_perm[gi] under a row permutation and gi
/// otherwise, and reads residual row `residual + gi * ldc` and bias
/// `bias[gi]`. `c` and `residual` point at the tile's first column of
/// matrix row 0. `ops` holds the packed chain's op ids in order (the
/// integer values of ctb::EpilogueOp, epilogue.hpp — kept as plain ints so
/// this header stays dependency-free); the kernel applies the value ops
/// (bias=1, relu=2, residual=3) per vector chunk in chain order and ignores
/// permutation ids. A plain store is the empty chain. `n` may be any
/// length: the ragged tail is handled with masked partial loads/stores, so
/// edge tiles never fall back to the scalar path. fp32 only — fp16 rounds
/// after every op and stays scalar.
struct EpilogueRowArgs {
  const float* acc = nullptr;  ///< row-major tile accumulator
  int acc_stride = 0;          ///< floats between accumulator rows
  int rows = 0;                ///< C rows to store
  int row0 = 0;                ///< logical C row of tile row 0
  int n = 0;                   ///< valid columns in every row
  float* c = nullptr;          ///< C at (row 0, the tile's first column)
  int ldc = 0;                 ///< floats between C (and residual) rows
  const int* row_perm = nullptr;    ///< destination rows (kRowPerm only)
  const float* residual = nullptr;  ///< like `c` (kResidual ops only)
  const float* bias = nullptr;      ///< one value per C row (kBias only)
  float alpha = 1.0f;
  float beta = 0.0f;  ///< prior scale; C is read when nonzero
  int ops[4] = {0, 0, 0, 0};  ///< op ids in chain order
  int nops = 0;
};

/// Vectorized store of a tile's rows; bit-identical to the scalar
/// per-element chain (separate multiply/add statements, sign-preserving
/// relu select) for every op combination.
using SimdEpilogueRowFn = void (*)(const EpilogueRowArgs& rows);

namespace simd_detail {
/// Per-ISA geometry tables, defined in their own translation units so each
/// can be compiled with the matching target flags. On hosts (or builds)
/// without the ISA they return an empty table (*count == 0).
const SimdLoopEntry* avx2_loops(int* count);
const SimdLoopEntry* avx512_loops(int* count);
const SimdLoopEntry* neon_loops(int* count);
/// Per-ISA tile-store row kernels; nullptr when the ISA is unavailable.
SimdEpilogueRowFn avx2_epilogue_row();
SimdEpilogueRowFn avx512_epilogue_row();
SimdEpilogueRowFn neon_epilogue_row();
}  // namespace simd_detail

/// Best ISA the host supports (memoized; kScalar when CTB_SIMD=OFF).
SimdIsa detected_simd_isa();

/// The ISA the executors dispatch on: detection clamped by CTB_SIMD_ISA and
/// any set_simd_isa() call. Never exceeds detected_simd_isa(); requesting an
/// ISA the host lacks (e.g. neon on x86-64) selects an empty table, and the
/// dispatcher falls back to the scalar packed loop — still bit-exact.
SimdIsa active_simd_isa();

/// Overrides the active ISA (clamped to the detected one). For in-process
/// A/B comparisons in tests and benchmarks; takes effect on the next
/// executor call.
void set_simd_isa(SimdIsa isa);

/// "scalar" | "neon" | "avx2" | "avx512" — used in telemetry names, CSV
/// headers, and perf-report fields.
const char* simd_isa_name(SimdIsa isa);

/// Parses a simd_isa_name string (as in CTB_SIMD_ISA); returns kScalar for
/// anything unrecognized.
SimdIsa parse_simd_isa(const char* name);

/// The `isa` tile loop for the given geometry, or nullptr when that ISA has
/// no kernel for it (unknown geometry, ISA unavailable on this host/build,
/// or isa == kScalar, which by design has no entries here — scalar tiles run
/// the scalar packed loop).
SimdTileLoopFn simd_tile_loop(SimdIsa isa, int by, int bx, int bk);

/// The accumulate-in (chain-continuation) variant of simd_tile_loop; same
/// availability: non-null exactly when simd_tile_loop is.
SimdTileLoopFn simd_tile_loop_acc(SimdIsa isa, int by, int bx, int bk);

/// The `isa` tile-store row kernel, or nullptr (isa == kScalar, or the
/// ISA is unavailable on this host/build) — the caller then runs the scalar
/// per-element chain, which is bit-identical.
SimdEpilogueRowFn simd_epilogue_row(SimdIsa isa);

/// RAII ISA override for tests and benchmarks.
class ScopedSimdIsa {
 public:
  explicit ScopedSimdIsa(SimdIsa isa) : saved_(active_simd_isa()) {
    set_simd_isa(isa);
  }
  ~ScopedSimdIsa() { set_simd_isa(saved_); }
  ScopedSimdIsa(const ScopedSimdIsa&) = delete;
  ScopedSimdIsa& operator=(const ScopedSimdIsa&) = delete;

 private:
  SimdIsa saved_;
};

}  // namespace ctb
