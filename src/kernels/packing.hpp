// Operand micro-panel packing for the tile pipeline.
//
// Every tile runs the active ISA's one micro-kernel (simd.hpp) over its
// 16 x 16 micro-tiles, and the kernel reads operands as micro-panels: A as
// kMicroTile-row panels, B as kMicroTile-column panels, each a sequence of
// kMicroK-deep blocks (A block `a[i * kMicroK + p]`, B block
// `b[p * kMicroTile + j]`, zero-padded past the matrix edges, values
// rounded through binary16 on the fp16 path). `pack_panels` writes any
// range of panels and K steps of one operand, so both ways a tile gets its
// panels read operands through one packer:
//
// - A GEMM the call's budget admits is packed once per executor call as
//   two *panel sets* (every panel, every step — `pack_panel_set`). The
//   layout does not depend on the tiling strategy, and a set is identified
//   by its PanelKey, so the GEMMs of one call that read the same operand
//   share one set whatever their strategies (DESIGN.md §9).
// - Any other tile stages its own micro-panels, a fixed chunk of K steps at
//   a time, into scratch on its own stack (functional.cpp).
//
// Every block has one of three sources — an N-layout matrix, a T-layout
// matrix, or a convolution's input under its ConvLowering — and every block
// of every source is copied: fixed-width row copies or transposes for the
// stored layouts, conv_b_rows (im2col's own map) for a lowering. On the
// fp16 path the copied block is then rounded in place.
//
// Bit-exactness: `staged_a_value` / `staged_b_value` are the single source
// of truth for staged operand values. The copies read the same elements and
// write the same +0.0f padding, and round_to_half(+0.0f) is +0.0f, so a
// block holds exactly the staged values. K pads to a multiple of kMicroK
// rather than of the strategy's BK, and that cannot show: past K every
// product is 0 * 0 = +0, and a chain that starts from +0 is never -0 under
// round-to-nearest, so adding +0 leaves it unchanged.
//
// Panel sets are transient per executor call, carved from a per-thread
// arena and bounded by kPackCallBudgetBytes: a call admits GEMMs in batch
// order while their footprints fit, and the tiles of every GEMM past that
// point stage their own micro-panels instead.
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

/// Logical B(k, j) of the lowering `l` over the NCHW `input`, for a GEMM of
/// depth `k_extent` (so k_extent / kernel^2 channels): im2col's map decoded
/// per element. The oracle that conv_b_rows's copies are tested against;
/// it does not share their code.
float conv_b_value(const ConvLowering& l, const float* input, int k_extent,
                   int k, int j);

/// Copies B(k, j0), ..., B(k, j0 + count - 1) of the lowering `l` over
/// `input` (GEMM depth `k_extent`) for each of the `rows` rows k = k0,
/// k0 + 1, ..., row k to dst + (k - k0) * ld: per output row a row's span
/// covers, one contiguous copy of an input row (a strided gather when
/// stride > 1). The span's split into output rows and its clipping to the
/// image are worked out once per filter tap, not once per row. Taps in the
/// padding are +0.0f in B and are not written, so the caller zero-fills
/// `dst` first. Spans may start and end mid-row and cross images;
/// j0 + count must not pass N. The one fast implementation of the
/// lowering: im2col fills each row of its value-initialized column matrix
/// through it, and the packer the zero-filled blocks of a lowered B
/// micro-panel (consecutive blocks of a B micro-panel are consecutive
/// 16-float rows), one call per panel.
void conv_b_rows(const ConvLowering& l, const float* input, int k_extent,
                 int k0, int rows, int j0, int count, float* dst,
                 std::size_t ld);

/// The exact staged value for logical B(gk, gj): zero past the K/N edge,
/// transpose or lowering resolved, fp16-rounded.
inline float staged_b_value(const GemmOperands& g, int gk, int gj) {
  const auto& d = g.dims;
  float v = 0.0f;
  if (gk < d.k && gj < d.n) {
    if (g.lowering.active()) {
      v = conv_b_value(g.lowering, g.b, d.k, gk, gj);
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
/// extent — M for A, N for B — K, precision, and a B's lowering). Two GEMMs
/// whose keys are equal read byte-identical panels, whatever their
/// strategies: conv B operands match exactly when they lower one input with
/// one geometry.
struct PanelKey {
  const float* operand = nullptr;
  PanelSide side = PanelSide::kA;
  Op op = Op::kN;
  int extent = 0;
  int k = 0;
  Precision precision = Precision::kFp32;
  ConvLowering lowering;

  bool operator==(const PanelKey&) const = default;
};

/// The key of the `side` panel set of `g`.
PanelKey panel_key(PanelSide side, const GemmOperands& g);

/// Micro-panels in the `side` set of a GEMM with dims `d`: ceil(M / 16)
/// (A) or ceil(N / 16) (B).
int micro_panel_count(PanelSide side, const GemmDims& d);

/// Floats in the `side` set: micro_panel_count panels of ceil(K / kMicroK)
/// blocks of kMicroBlock floats.
std::size_t panel_set_floats(PanelSide side, const GemmDims& d);

/// Writes micro-panels [first_panel, first_panel + panels) of the `side`
/// operand of `g`, K steps [step_lo, step_hi) of each, to `out`: panel by
/// panel, each (step_hi - step_lo) consecutive kMicroBlock-float blocks.
/// The panels must intersect the matrix and the steps lie below
/// ceil(K / kMicroK). Counts nothing; safe to call from inside a
/// parallel_for worker (it only reads `g` and writes `out`).
void pack_panels(PanelSide side, const GemmOperands& g, int first_panel,
                 int panels, int step_lo, int step_hi, float* out);

/// Writes the whole `side` panel set of `g` to `out`, which holds
/// panel_set_floats(side, g.dims) floats of any prior content, and counts
/// `exec.pack.panels` and `exec.pack.bytes` for the one set.
void pack_panel_set(PanelSide side, const GemmOperands& g, float* out);

/// Micro-panels as the micro-kernel reads them: a GEMM's A and B panel
/// sets, or the chunk a staged tile packed for itself. A view — panel sets
/// belong to the executor call's arena, live only as long as that call, and
/// may be shared with other GEMMs of the call.
///
/// Layout: A micro-panel `r` holds `nsteps` consecutive 16 x 8 blocks,
/// block `step` storing staged A(16r + i, 8 step + p) at `[i * 8 + p]`;
/// B micro-panel `c` holds `nsteps` 8 x 16 blocks, block `step` storing
/// staged B(8 step + p, 16c + j) at `[p * 16 + j]` (a staged chunk numbers
/// its panels and steps from its first ones).
struct PackedGemm {
  int nsteps = 0;  ///< K steps per panel: ceil(K / kMicroK) for a set
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
/// admission charges against kPackCallBudgetBytes, whether or not the
/// GEMM's sets end up shared.
std::size_t pack_footprint_bytes(const GemmDims& d);

/// Panel bytes one executor call may pack: GEMMs are admitted in batch order
/// while their footprints still fit, and the tiles of the rest stage their
/// own micro-panels. The packed and staged modes are bit-identical, so the
/// budget bounds memory and never changes a value.
inline constexpr std::size_t kPackCallBudgetBytes = std::size_t{256} << 20;

/// Runs `kernel` over the micro-tiles of one packed tile that intersect the
/// matrix: the tile's top-left micro-panels are A panel `row_panel` and B
/// panel `col_panel`, `rows` x `cols` of it lie inside the matrix, and
/// micro-tile (i, j) accumulates all `pk.nsteps` steps into
/// `acc + 16 i * ld_acc + 16 j`. `accumulate` as in SimdMicroKernelFn.
/// Accumulator cells outside the intersecting micro-tiles are left as they
/// are.
void accumulate_micro_tiles(SimdMicroKernelFn kernel, const PackedGemm& pk,
                            int row_panel, int col_panel, int rows, int cols,
                            bool accumulate, float* acc, int ld_acc);

}  // namespace ctb
