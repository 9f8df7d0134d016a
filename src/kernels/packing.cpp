#include "kernels/packing.hpp"

#include <algorithm>
#include <cstring>

#include "telemetry/telemetry.hpp"
#include "util/assert.hpp"

namespace ctb {

namespace {

int ceil_div(int a, int b) { return (a + b - 1) / b; }

// Branch-free fp32 block copies. A micro-panel block is R x C (16 x 8 of
// A, 8 x 16 of B); its source is the matrix storage at the block's origin,
// whose rows run along the block's rows (N layout) or, transposed, along
// its columns (T layout). A full block is a copy or transpose of
// compile-time extent, so each source row is a fixed run of moves rather
// than a call sized at run time. A block that crosses an M, N or K edge is
// zero-filled first, which writes the same +0.0f staged_*_value returns
// past the edge, and then copies its in-range `rows` x `cols`.
template <int R, int C>
void copy_block(const float* src, std::size_t ld, bool transposed, int rows,
                int cols, float* blk) {
  if (rows == R && cols == C) {
    if (!transposed) {
      for (int r = 0; r < R; ++r)
        std::memcpy(blk + r * C, src + r * ld, C * sizeof(float));
    } else {
      for (int c = 0; c < C; ++c)
        for (int r = 0; r < R; ++r) blk[r * C + c] = src[c * ld + r];
    }
    return;
  }
  std::fill_n(blk, R * C, 0.0f);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      blk[r * C + c] = transposed ? src[c * ld + r] : src[r * ld + c];
}

/// A block at (row0, k0): staged A(row0 + i, k0 + p) to
/// blk[i * kMicroK + p]. T storage is K x M.
void copy_a_block(const GemmOperands& g, int row0, int k0, float* blk) {
  const auto& d = g.dims;
  const bool t = g.op_a == Op::kT;
  const std::size_t ld = t ? d.m : d.k;
  copy_block<kMicroTile, kMicroK>(
      g.a + (t ? k0 * ld + row0 : row0 * ld + k0), ld, t,
      std::min(kMicroTile, d.m - row0), std::min(kMicroK, d.k - k0), blk);
}

/// B block at (k0, col0): staged B(k0 + p, col0 + j) to
/// blk[p * kMicroTile + j]. T storage is N x K.
void copy_b_block(const GemmOperands& g, int k0, int col0, float* blk) {
  const auto& d = g.dims;
  const bool t = g.op_b == Op::kT;
  const std::size_t ld = t ? d.k : d.n;
  copy_block<kMicroK, kMicroTile>(
      g.b + (t ? col0 * ld + k0 : k0 * ld + col0), ld, t,
      std::min(kMicroK, d.k - k0), std::min(kMicroTile, d.n - col0), blk);
}

}  // namespace

PanelKey panel_key(PanelSide side, const GemmOperands& g) {
  PanelKey key;
  key.side = side;
  key.k = g.dims.k;
  key.precision = g.precision;
  if (side == PanelSide::kA) {
    key.operand = g.a;
    key.op = g.op_a;
    key.extent = g.dims.m;
  } else {
    key.operand = g.b;
    key.op = g.op_b;
    key.extent = g.dims.n;
    key.gather = static_cast<bool>(g.b_gather);
  }
  return key;
}

int micro_panel_count(PanelSide side, const GemmDims& d) {
  return ceil_div(side == PanelSide::kA ? d.m : d.n, kMicroTile);
}

std::size_t panel_set_floats(PanelSide side, const GemmDims& d) {
  return static_cast<std::size_t>(micro_panel_count(side, d)) *
         static_cast<std::size_t>(ceil_div(d.k, kMicroK)) * kMicroBlock;
}

std::size_t pack_footprint_bytes(const GemmDims& d) {
  return (panel_set_floats(PanelSide::kA, d) +
          panel_set_floats(PanelSide::kB, d)) *
         sizeof(float);
}

void pack_panels(PanelSide side, const GemmOperands& g, int first_panel,
                 int panels, int step_lo, int step_hi, float* out) {
  const bool a_side = side == PanelSide::kA;
  const int rows = a_side ? kMicroTile : kMicroK;  // block rows x cols
  const int cols = a_side ? kMicroK : kMicroTile;
  const bool copy = g.precision == Precision::kFp32 &&
                    (a_side || !g.b_gather);
  float* blk = out;
  for (int t = first_panel; t < first_panel + panels; ++t) {
    const int origin = t * kMicroTile;
    for (int step = step_lo; step < step_hi; ++step, blk += kMicroBlock) {
      const int k0 = step * kMicroK;
      if (copy) {
        if (a_side)
          copy_a_block(g, origin, k0, blk);
        else
          copy_b_block(g, k0, origin, blk);
        continue;
      }
      // fp16 and gather: per-element staging (rounding, gather call).
      for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
          blk[r * cols + c] = a_side
                                  ? staged_a_value(g, origin + r, k0 + c)
                                  : staged_b_value(g, k0 + r, origin + c);
    }
  }
}

void pack_panel_set(PanelSide side, const GemmOperands& g, float* out) {
  CTB_CHECK(g.a != nullptr && g.dims.valid());
  CTB_CHECK_MSG(g.b != nullptr || g.b_gather,
                "B operand needs storage or a gather");
  const int panels = micro_panel_count(side, g.dims);
  pack_panels(side, g, 0, panels, 0, ceil_div(g.dims.k, kMicroK), out);
  CTB_TEL_COUNT("exec.pack.panels", panels);
  CTB_TEL_COUNT("exec.pack.bytes",
                panel_set_floats(side, g.dims) * sizeof(float));
}

PackedGemm packed_view(const GemmDims& d, const float* a, const float* b) {
  PackedGemm pk;
  pk.nsteps = ceil_div(d.k, kMicroK);
  pk.a = a;
  pk.b = b;
  return pk;
}

void accumulate_micro_tiles(SimdMicroKernelFn kernel, const PackedGemm& pk,
                            int row_panel, int col_panel, int rows, int cols,
                            int step_lo, int step_hi, bool accumulate,
                            float* acc, int ld_acc) {
  const auto first_step = static_cast<std::size_t>(step_lo) * kMicroBlock;
  for (int i = 0; i * kMicroTile < rows; ++i) {
    const float* a = pk.a_panel(row_panel + i) + first_step;
    float* acc_row = acc + static_cast<std::size_t>(i) * kMicroTile * ld_acc;
    for (int j = 0; j * kMicroTile < cols; ++j)
      kernel(a, pk.b_panel(col_panel + j) + first_step, step_hi - step_lo,
             acc_row + j * kMicroTile, ld_acc, accumulate);
  }
}

}  // namespace ctb
