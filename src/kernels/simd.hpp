// Runtime-dispatched micro-kernels.
//
// Every tile runs as a grid of kMicroTile x kMicroTile micro-tiles over
// micro-panels (packing.hpp), packed per call or staged per tile, and each
// ISA has exactly one micro-kernel for them: the per-ISA translation units
// (simd_avx2.cpp, simd_avx512.cpp, simd_neon.cpp) instantiate the shared
// kernel (simd_kernels.inl) at their vector width, and simd.cpp holds the
// fixed-bound plain C++ kernel of the scalar ISA. The kernels vectorize
// along the j (x) axis, so every vector lane owns exactly one C element.
//
// Determinism (DESIGN.md §6): lanes are independent C elements, so each
// element's accumulation chain is still scalar-ordered — ascending (k0, p)
// over the staged panel values — and the multiply and add are written as
// separate statements under the global -ffp-contract=off, so no lane ever
// sees a fused or reassociated operation. Every ISA's kernel is
// bit-identical to the scalar one and to reference_gemm for every
// strategy, precision, transpose mode, and lowered conv B, packed or
// staged.
//
// Dispatch: `detected_simd_isa()` probes the host once (CPUID on x86-64,
// NEON is baseline on aarch64); `active_simd_isa()` starts from the
// detection, optionally overridden by CTB_SIMD_ISA=scalar|neon|avx2|avx512
// in the environment, and is clamped so it never exceeds what the host
// supports. Building with -DCTB_SIMD=OFF compiles every vector kernel to a
// null stub and detection reports kScalar, so the scalar kernel carries
// every tile.
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

/// Micro-panel geometry (packing.hpp): A packs as kMicroTile-row panels
/// and B as kMicroTile-column panels, both in blocks kMicroK deep along K.
/// kMicroTile must divide 16, the smallest Table-1/2 tile extent, so that
/// every Table-1/2 tile is a whole grid of micro-tiles.
inline constexpr int kMicroTile = 16;
inline constexpr int kMicroK = 8;
/// Floats in one micro-panel block (16 x 8 of A, 8 x 16 of B).
inline constexpr int kMicroBlock = kMicroTile * kMicroK;

/// The packed micro-kernel: accumulates `nsteps` consecutive blocks of one
/// A micro-panel (block `step` at `a_panel[step * kMicroBlock]`, element
/// (i, p) at `[i * kMicroK + p]`) and one B micro-panel (element (p, j) at
/// `[p * kMicroTile + j]`) into the 16 x 16 micro-tile at `acc`, whose rows
/// are `ld_acc` floats apart. With `accumulate` false the micro-tile is
/// overwritten with the sums from +0; with it true the kernel continues the
/// chains already in `acc` (an exact reload: float round-trips through
/// memory are bit-preserving), which is how a staged tile extends its
/// ascending (k0, p) chain across the K chunks it packs. The flag is read
/// once, outside the K loop. Nothing outside the micro-tile is touched.
using SimdMicroKernelFn = void (*)(const float* a_panel, const float* b_panel,
                                   int nsteps, float* acc, int ld_acc,
                                   bool accumulate);

/// One tile's rows of store work (DESIGN.md §9, §12): C = alpha * acc +
/// beta * C, then the fused epilogue chain, for `rows` C rows starting at
/// matrix row `row0`, `n` columns each. Tile row i reads accumulator row
/// `acc + i * acc_stride` and bias `bias[row0 + i]`, and lands at
/// `c + (row0 + i) * ldc`; `c` points at the tile's first column of matrix
/// row 0. `ops` holds the packed chain's op ids in order (the integer
/// values of ctb::EpilogueOp, epilogue.hpp — kept as plain ints so this
/// header stays dependency-free); the kernel applies them (bias=1, relu=2)
/// per vector chunk in chain order. A plain store is the empty chain. `n`
/// may be any length: the ragged tail is handled with masked partial
/// loads/stores, so edge tiles never fall back to the scalar path. fp32
/// only — fp16 rounds after every op and stays scalar. With `stream` set,
/// the AVX2 and AVX-512 kernels write every full-width chunk with a
/// non-temporal store, which needs each chunk vector-aligned (the caller's
/// streaming rule guarantees it), and end the call with one store fence;
/// values are unchanged.
struct EpilogueRowArgs {
  const float* acc = nullptr;  ///< row-major tile accumulator
  int acc_stride = 0;          ///< floats between accumulator rows
  int rows = 0;                ///< C rows to store
  int row0 = 0;                ///< matrix row of tile row 0
  int n = 0;                   ///< valid columns in every row
  float* c = nullptr;          ///< C at (row 0, the tile's first column)
  int ldc = 0;                 ///< floats between C rows
  const float* bias = nullptr;  ///< one value per C row (kBias only)
  float alpha = 1.0f;
  float beta = 0.0f;  ///< prior scale; C is read when nonzero
  int ops[4] = {0, 0, 0, 0};  ///< op ids in chain order
  int nops = 0;
  bool stream = false;  ///< full chunks bypass the cache (AVX2, AVX-512)
};

/// Vectorized store of a tile's rows; bit-identical to the scalar
/// per-element chain (separate multiply/add statements, sign-preserving
/// relu select) for every op combination.
using SimdEpilogueRowFn = void (*)(const EpilogueRowArgs& rows);

namespace simd_detail {
/// Per-ISA kernels, defined in their own translation units so each can be
/// compiled with the matching target flags; nullptr when the ISA is
/// unavailable on this host/build.
SimdMicroKernelFn avx2_micro_kernel();
SimdMicroKernelFn avx512_micro_kernel();
SimdMicroKernelFn neon_micro_kernel();
SimdEpilogueRowFn avx2_epilogue_row();
SimdEpilogueRowFn avx512_epilogue_row();
SimdEpilogueRowFn neon_epilogue_row();
}  // namespace simd_detail

/// Best ISA the host supports (memoized; kScalar when CTB_SIMD=OFF).
SimdIsa detected_simd_isa();

/// The ISA the executors dispatch on: detection clamped by CTB_SIMD_ISA and
/// any set_simd_isa() call. Never exceeds detected_simd_isa(); requesting an
/// ISA the host lacks (e.g. neon on x86-64) finds no kernel, and the
/// dispatcher falls back to the scalar kernel — still bit-exact.
SimdIsa active_simd_isa();

/// Overrides the active ISA (clamped to the detected one). For in-process
/// A/B comparisons in tests and benchmarks; takes effect on the next
/// executor call.
void set_simd_isa(SimdIsa isa);

/// "scalar" | "neon" | "avx2" | "avx512" — used in telemetry names, CSV
/// headers, and perf-report fields.
const char* simd_isa_name(SimdIsa isa);

/// Parses a simd_isa_name string (as in CTB_SIMD_ISA): for exactly
/// "scalar", "neon", "avx2" or "avx512" sets `isa` and returns true; for
/// anything else (another case or spelling, empty, null) returns false and
/// leaves `isa` alone.
bool parse_simd_isa(const char* name, SimdIsa& isa);

/// The `isa` micro-kernel: the plain C++ kernel for kScalar, the vector
/// kernel for a vector ISA, or nullptr when that ISA is unavailable on this
/// host/build — the caller then runs the scalar kernel, which is
/// bit-identical.
SimdMicroKernelFn simd_micro_kernel(SimdIsa isa);

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
