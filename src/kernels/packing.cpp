#include "kernels/packing.hpp"

#include <algorithm>
#include <cstring>

#include "telemetry/telemetry.hpp"
#include "util/assert.hpp"

namespace ctb {

namespace {

int ceil_div(int a, int b) { return (a + b - 1) / b; }

// Branch-free block copies. A micro-panel block is R x C (16 x 8 of A,
// 8 x 16 of B); its source is the matrix storage at the block's origin,
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

/// Copies `n` floats. A run of 4 to 16 (at most one micro-panel row) is a
/// few moves of fixed width, the last one overlapping, where a call sized
/// at run time would cost more than the copy.
inline void copy_run(const float* from, int n, float* to) {
  if (n < 4 || n > 16) {
    std::copy_n(from, n, to);
    return;
  }
  for (int i = 0; i + 4 < n; i += 4)
    std::memcpy(to + i, from + i, 4 * sizeof(float));
  std::memcpy(to + n - 4, from + n - 4, 4 * sizeof(float));
}

}  // namespace

float conv_b_value(const ConvLowering& l, const float* input, int k_extent,
                   int k, int j) {
  const int taps = l.kernel * l.kernel;
  const int oh = l.out_h(), ow = l.out_w();
  const int iy = j / ow % oh * l.stride - l.pad + k / l.kernel % l.kernel;
  const int ix = j % ow * l.stride - l.pad + k % l.kernel;
  if (iy < 0 || iy >= l.in_h || ix < 0 || ix >= l.in_w) return 0.0f;
  // The (image, channel) plane: image j / (oh * ow), channel k / taps.
  const std::size_t plane =
      static_cast<std::size_t>(j / (oh * ow)) * (k_extent / taps) + k / taps;
  return input[(plane * l.in_h + iy) * l.in_w + ix];
}

void conv_b_rows(const ConvLowering& l, const float* input, int k_extent,
                 int k0, int rows, int j0, int count, float* dst,
                 std::size_t ld) {
  // Local copies of the geometry: the stores below could otherwise force
  // reloads of it.
  const int in_h = l.in_h, in_w = l.in_w, kernel = l.kernel;
  const int stride = l.stride, pad = l.pad;
  const int oh = l.out_h(), ow = l.out_w();
  const int taps = kernel * kernel;
  const std::ptrdiff_t plane = static_cast<std::ptrdiff_t>(in_h) * in_w;
  const std::ptrdiff_t image_stride = k_extent / taps * plane;
  const std::ptrdiff_t row_step = static_cast<std::ptrdiff_t>(stride) * in_w;
  const auto ceil_div_stride = [stride](int a) {
    return stride == 1 ? a : ceil_div(a, stride);
  };
  // The output pixel of column j0.
  const int image0 = j0 / (oh * ow), y0 = j0 / ow % oh, x_first = j0 % ow;
  // Rows t, t + taps, t + 2 * taps, ... share a filter tap (kh, kw): they
  // read the same pixels of consecutive channel planes. So each tap walks
  // the span once, clips each piece of it to the image once, and copies
  // the piece for every row of the tap.
  int c = k0 / taps, kh = k0 / kernel % kernel, kw = k0 % kernel;
  for (int t = 0; t < std::min(taps, rows); ++t) {
    const std::ptrdiff_t first_plane = c * plane;
    // Output columns x in [x0, x1) read in-image input columns
    // ix = x * stride - pad + kw; the columns outside read the padding.
    const int x0 = kw >= pad ? 0 : ceil_div_stride(pad - kw);
    const int x1 =
        std::min(ow, ceil_div_stride(std::max(0, in_w + pad - kw)));
    // The span's pieces: the rest of its first output row, whole rows
    // image by image, the head of its last row. A piece is output rows
    // y, ..., y + n - 1 of `image`, columns [x, end), stored from dst
    // column count - left on, one output row every `ow` columns; its rows
    // q in [q0, q1) read in-image input rows iy + q * stride.
    for (int image = image0, y = y0, x = x_first, left = count; left > 0;) {
      const int n = x > 0 || left < ow ? 1 : std::min(oh - y, left / ow);
      const int end = std::min(ow, x + left);
      const int iy = y * stride - pad + kh;
      const int q0 = iy >= 0 ? 0 : ceil_div_stride(-iy);
      const int q1 = std::min(n, ceil_div_stride(std::max(0, in_h - iy)));
      const int lo = std::max(x, x0), len = std::min(end, x1) - lo;
      if (q0 < q1 && len > 0) {
        const float* src =
            input + (first_plane + image * image_stride +
                     static_cast<std::ptrdiff_t>(iy + q0 * stride) * in_w +
                     lo * stride - pad + kw);
        float* out = dst + (t * ld + (count - left) + q0 * ow + lo - x);
        for (int r = t; r < rows; r += taps, src += plane, out += taps * ld) {
          const float* from = src;
          float* to = out;
          for (int q = q0; q < q1; ++q, from += row_step, to += ow) {
            if (stride == 1) {
              copy_run(from, len, to);
            } else {
              for (int e = 0; e < len; ++e) to[e] = from[e * stride];
            }
          }
        }
      }
      left -= (n - 1) * ow + end - x;
      x = 0;
      if ((y += n) == oh) {
        y = 0;
        ++image;
      }
    }
    // The tap of row t + 1.
    if (++kw < kernel) continue;
    kw = 0;
    if (++kh < kernel) continue;
    kh = 0;
    ++c;
  }
}

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
    key.lowering = g.lowering;
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
  const auto& d = g.dims;
  const std::size_t panel_floats =
      static_cast<std::size_t>(step_hi - step_lo) * kMicroBlock;
  for (int t = first_panel; t < first_panel + panels; ++t) {
    float* const panel = out + (t - first_panel) * panel_floats;
    const int origin = t * kMicroTile;
    if (side == PanelSide::kB && g.lowering.active()) {
      // The blocks of a B micro-panel are consecutive 16-float rows: zero
      // them, which writes the padding taps and everything past N or K,
      // then copy the in-image taps of all their rows at once.
      std::fill_n(panel, panel_floats, 0.0f);
      const int k0 = step_lo * kMicroK;
      conv_b_rows(g.lowering, g.b, d.k, k0,
                  std::min(d.k, step_hi * kMicroK) - k0, origin,
                  std::min(kMicroTile, d.n - origin), panel, kMicroTile);
    } else {
      float* blk = panel;
      for (int step = step_lo; step < step_hi; ++step, blk += kMicroBlock) {
        if (side == PanelSide::kA)
          copy_a_block(g, origin, step * kMicroK, blk);
        else
          copy_b_block(g, step * kMicroK, origin, blk);
      }
    }
    if (g.precision == Precision::kFp16)
      for (std::size_t i = 0; i < panel_floats; ++i)
        panel[i] = round_to_half(panel[i]);
  }
}

void pack_panel_set(PanelSide side, const GemmOperands& g, float* out) {
  CTB_CHECK(g.a != nullptr && g.b != nullptr && g.dims.valid());
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
                            bool accumulate, float* acc, int ld_acc) {
  for (int i = 0; i * kMicroTile < rows; ++i) {
    const float* a = pk.a_panel(row_panel + i);
    float* acc_row = acc + static_cast<std::size_t>(i) * kMicroTile * ld_acc;
    for (int j = 0; j * kMicroTile < cols; ++j)
      kernel(a, pk.b_panel(col_panel + j), pk.nsteps,
             acc_row + j * kMicroTile, ld_acc, accumulate);
  }
}

}  // namespace ctb
