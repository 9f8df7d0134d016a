// Operand micro-panel packing for the packed tiles.
//
// The generic executor re-stages the same A row-panel for every tile in a
// C-tile row and the same B column-panel for every tile in a C-tile column,
// paying per-element bounds/transpose/fp16/gather branches each time. The
// packing pass resolves all of that once per operand: a *panel set* holds
// one operand of one GEMM as micro-panels — A as kMicroTile-row panels, B
// as kMicroTile-column panels (simd.hpp) — each a sequence of kMicroK-deep
// blocks (A block `a[i * kMicroK + p]`, B block `b[p * kMicroTile + j]`,
// zero-padded past the matrix edges, values rounded through binary16 on
// the fp16 path, `b_gather` materialized). The layout does not depend on
// the tiling strategy: a packed BY x BX tile is a grid of 16 x 16
// micro-tiles, each run by the active ISA's one micro-kernel. A set is
// identified by its PanelKey, so the GEMMs of one executor call that read
// the same operand share one set whatever their strategies (DESIGN.md §9).
//
// Bit-exactness: `staged_a_value` / `staged_b_value` are the single source
// of truth for staged operand values — the generic executor's SharedTiles
// staging calls the same functions. fp32 operands in memory are copied by
// branch-free fixed-width copies instead, which read the same elements and
// write the same +0.0f padding, so a packed block holds exactly the values
// the generic path would have staged. K pads to a multiple of kMicroK
// rather than of the strategy's BK, and that cannot show: past K every
// product is 0 * 0 = +0, and a chain that starts from +0 is never -0 under
// round-to-nearest, so adding +0 leaves it unchanged.
//
// Panel storage is transient per executor call, carved from a per-thread
// arena and bounded by the pack-arena budget (see `pack_arena_budget`): a
// call admits eligible GEMMs in batch order until the budget is exhausted,
// and every GEMM past that point runs through the generic unpacked staging
// path instead.
#pragma once

#include <cstddef>

#include "kernels/functional.hpp"
#include "kernels/simd.hpp"
#include "linalg/half.hpp"

namespace ctb {

/// The exact value the kernel's guarded global->shared staging produces for
/// logical A(gi, gk): zero past the M/K edge, transpose resolved, rounded
/// through binary16 on the fp16 path.
inline float staged_a_value(const GemmOperands& g, int gi, int gk) {
  const auto& d = g.dims;
  float v = 0.0f;
  if (gi < d.m && gk < d.k) {
    v = g.op_a == Op::kN ? g.a[static_cast<std::size_t>(gi) * d.k + gk]
                         : g.a[static_cast<std::size_t>(gk) * d.m + gi];
  }
  if (g.precision == Precision::kFp16) v = round_to_half(v);
  return v;
}

/// The exact staged value for logical B(gk, gj): zero past the K/N edge,
/// transpose resolved or the implicit-GEMM gather invoked, fp16-rounded.
inline float staged_b_value(const GemmOperands& g, int gk, int gj) {
  const auto& d = g.dims;
  float v = 0.0f;
  if (gk < d.k && gj < d.n) {
    if (g.b_gather) {
      v = g.b_gather(gk, gj);
    } else {
      v = g.op_b == Op::kN ? g.b[static_cast<std::size_t>(gk) * d.n + gj]
                           : g.b[static_cast<std::size_t>(gj) * d.k + gk];
    }
  }
  if (g.precision == Precision::kFp16) v = round_to_half(v);
  return v;
}

/// The operand a panel set holds.
enum class PanelSide { kA, kB };

/// Identity of one panel set: everything that determines its bytes except
/// the operand values behind the pointer (operand pointer, side, op,
/// extent — M for A, N for B — K, precision). Two GEMMs whose keys match
/// read byte-identical panels, whatever their strategies. A gather B never
/// matches anything, itself included: the callable's identity is
/// unobservable.
struct PanelKey {
  const float* operand = nullptr;
  PanelSide side = PanelSide::kA;
  Op op = Op::kN;
  int extent = 0;
  int k = 0;
  Precision precision = Precision::kFp32;
  bool gather = false;

  bool matches(const PanelKey& o) const {
    return !gather && !o.gather && operand == o.operand && side == o.side &&
           op == o.op && extent == o.extent && k == o.k &&
           precision == o.precision;
  }
};

/// The key of the `side` panel set of `g`.
PanelKey panel_key(PanelSide side, const GemmOperands& g);

/// Micro-panels in the `side` set of a GEMM with dims `d`: ceil(M / 16)
/// (A) or ceil(N / 16) (B).
int micro_panel_count(PanelSide side, const GemmDims& d);

/// Floats in the `side` set: micro_panel_count panels of ceil(K / kMicroK)
/// blocks of kMicroBlock floats.
std::size_t panel_set_floats(PanelSide side, const GemmDims& d);

/// Writes the `side` panel set of `g` to `out`, which holds
/// panel_set_floats(side, g.dims) floats of any prior content. Counts
/// `exec.pack.panels` and `exec.pack.bytes` for the one set. Safe to call
/// from inside a parallel_for worker (it only reads `g` and writes `out`).
void pack_panel_set(PanelSide side, const GemmOperands& g, float* out);

/// Packed panels of one GEMM as the micro-kernels read them: its A and B
/// panel sets. A view — the sets belong to the executor call's arena, live
/// only as long as that call, and may be shared with other GEMMs of the
/// call.
///
/// Layout: A micro-panel `r` holds `nsteps` consecutive 16 x 8 blocks,
/// block `step` storing staged A(16r + i, 8 step + p) at `[i * 8 + p]`;
/// B micro-panel `c` holds `nsteps` 8 x 16 blocks, block `step` storing
/// staged B(8 step + p, 16c + j) at `[p * 16 + j]`.
struct PackedGemm {
  int nsteps = 0;  ///< K-steps: ceil(K / kMicroK)
  const float* a = nullptr;
  const float* b = nullptr;

  bool valid() const { return nsteps > 0 && a != nullptr && b != nullptr; }
  const float* a_panel(int r) const {
    return a + static_cast<std::size_t>(r) * nsteps * kMicroBlock;
  }
  const float* b_panel(int c) const {
    return b + static_cast<std::size_t>(c) * nsteps * kMicroBlock;
  }
};

/// The PackedGemm view over dims `d` reading the given sets.
PackedGemm packed_view(const GemmDims& d, const float* a, const float* b);

/// Bytes of both panel sets of a GEMM with dims `d` — the per-GEMM figure
/// admission charges against the pack-arena budget, whether or not the
/// GEMM's sets end up shared.
std::size_t pack_footprint_bytes(const GemmDims& d);

/// Runs `kernel` over the micro-tiles of one packed tile that intersect the
/// matrix: the tile's top-left micro-panels are A panel `row_panel` and B
/// panel `col_panel`, `rows` x `cols` of it lie inside the matrix, and
/// micro-tile (i, j) accumulates steps [step_lo, step_hi) into
/// `acc + 16 i * ld_acc + 16 j`. `accumulate` as in SimdMicroKernelFn.
/// Accumulator cells outside the intersecting micro-tiles are left as they
/// are.
void accumulate_micro_tiles(SimdMicroKernelFn kernel, const PackedGemm& pk,
                            int row_panel, int col_panel, int rows, int cols,
                            int step_lo, int step_hi, bool accumulate,
                            float* acc, int ld_acc);

/// Pack-arena budget in bytes for a single executor call (default 256 MiB,
/// overridable at startup with CTB_PACK_BUDGET=<bytes>). GEMMs whose packs
/// would push the call's cumulative packed bytes past the budget fall back
/// to the generic unpacked staging path; 0 disables packing entirely (the
/// lever the bit-exactness tests use to force the generic path).
std::size_t pack_arena_budget();
void set_pack_arena_budget(std::size_t bytes);

/// Per-GEMM pack admission cap in bytes (default 64 MiB, overridable at
/// startup with CTB_PACK_GEMM_BUDGET=<bytes>). A single GEMM whose pack
/// footprint exceeds this runs generic without consuming any of the
/// cumulative arena budget, so one oversized GEMM cannot starve the rest of
/// the batch out of packing; 0 disables packing for every GEMM (equivalent
/// to a zero arena budget).
std::size_t pack_gemm_budget();
void set_pack_gemm_budget(std::size_t bytes);

/// RAII budget override for tests and benchmarks.
class ScopedPackArenaBudget {
 public:
  explicit ScopedPackArenaBudget(std::size_t bytes)
      : saved_(pack_arena_budget()) {
    set_pack_arena_budget(bytes);
  }
  ~ScopedPackArenaBudget() { set_pack_arena_budget(saved_); }
  ScopedPackArenaBudget(const ScopedPackArenaBudget&) = delete;
  ScopedPackArenaBudget& operator=(const ScopedPackArenaBudget&) = delete;

 private:
  std::size_t saved_;
};

/// RAII per-GEMM cap override for tests and benchmarks.
class ScopedPackGemmBudget {
 public:
  explicit ScopedPackGemmBudget(std::size_t bytes)
      : saved_(pack_gemm_budget()) {
    set_pack_gemm_budget(bytes);
  }
  ~ScopedPackGemmBudget() { set_pack_gemm_budget(saved_); }
  ScopedPackGemmBudget(const ScopedPackGemmBudget&) = delete;
  ScopedPackGemmBudget& operator=(const ScopedPackGemmBudget&) = delete;

 private:
  std::size_t saved_;
};

}  // namespace ctb
