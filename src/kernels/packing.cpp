#include "kernels/packing.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "telemetry/telemetry.hpp"
#include "util/assert.hpp"

namespace ctb {

namespace {

constexpr std::size_t kDefaultPackArenaBytes = 256u << 20;  // 256 MiB
constexpr std::size_t kDefaultPackGemmBytes = 64u << 20;    // 64 MiB

std::size_t env_bytes_or(const char* name, std::size_t fallback) {
  const char* env = std::getenv(name);
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != nullptr && *end == '\0') return static_cast<std::size_t>(v);
  }
  return fallback;
}

std::atomic<std::size_t>& pack_budget_atomic() {
  static std::atomic<std::size_t> budget{
      env_bytes_or("CTB_PACK_BUDGET", kDefaultPackArenaBytes)};
  return budget;
}

std::atomic<std::size_t>& pack_gemm_budget_atomic() {
  static std::atomic<std::size_t> budget{
      env_bytes_or("CTB_PACK_GEMM_BUDGET", kDefaultPackGemmBytes)};
  return budget;
}

}  // namespace

std::size_t pack_arena_budget() {
  return pack_budget_atomic().load(std::memory_order_relaxed);
}

void set_pack_arena_budget(std::size_t bytes) {
  pack_budget_atomic().store(bytes, std::memory_order_relaxed);
}

std::size_t pack_gemm_budget() {
  return pack_gemm_budget_atomic().load(std::memory_order_relaxed);
}

void set_pack_gemm_budget(std::size_t bytes) {
  pack_gemm_budget_atomic().store(bytes, std::memory_order_relaxed);
}

namespace {

int ceil_div(int a, int b) { return (a + b - 1) / b; }

int panel_count(PanelSide side, const TilingStrategy& s, const GemmDims& d) {
  return side == PanelSide::kA ? ceil_div(d.m, s.by) : ceil_div(d.n, s.bx);
}

// Branch-free fp32 block copies, one per {N, T} storage layout of each
// operand. The in-range rectangle is copied; a block that crosses an M, N or
// K edge is zero-filled first, which writes the same +0.0f staged_*_value
// returns past the edge.

/// `rows` rows of W floats, `ld` apart in storage, to a dense W-wide block.
/// W is a compile-time constant, so each row is a fixed run of vector moves
/// rather than a memmove call sized at run time. Rows go in chunks of at
/// most 64 floats: GCC expands a longer fixed-size memcpy to `rep movs`,
/// whose start-up costs more than the vector moves.
template <int W>
void copy_rows(const float* src, std::size_t ld, int rows, float* dst) {
  constexpr int kChunk = W < 64 ? W : 64;
  for (int r = 0; r < rows; ++r)
    for (int j = 0; j < W; j += kChunk)
      std::memcpy(dst + r * W + j, src + r * ld + j, kChunk * sizeof(float));
}

/// `rows` rows of `width` floats, `ld` apart in storage, to a block whose
/// rows are `stride` floats apart. Full rows of the tile extents in use (BK
/// for A, BX for B) take a fixed-width copy; ragged edge rows and any other
/// extent keep the runtime-length one.
void copy_rows(const float* src, std::size_t ld, int rows, int width,
               int stride, float* dst) {
  if (width == stride) {
    switch (width) {
      case 8: return copy_rows<8>(src, ld, rows, dst);
      case 16: return copy_rows<16>(src, ld, rows, dst);
      case 32: return copy_rows<32>(src, ld, rows, dst);
      case 64: return copy_rows<64>(src, ld, rows, dst);
      case 128: return copy_rows<128>(src, ld, rows, dst);
    }
  }
  for (int r = 0; r < rows; ++r)
    std::copy_n(src + static_cast<std::size_t>(r) * ld, width,
                dst + r * stride);
}

/// A block at (row0, k0): staged A(row0 + i, k0 + p) to blk[i * BK + p].
void copy_a_block(const GemmOperands& g, int by, int bk, int row0, int k0,
                  float* blk) {
  const auto& d = g.dims;
  const int rows = std::min(by, d.m - row0);
  const int cols = std::min(bk, d.k - k0);
  if (rows < by || cols < bk) std::fill_n(blk, by * bk, 0.0f);
  if (g.op_a == Op::kN) {  // storage M x K: row i is contiguous along k
    copy_rows(g.a + static_cast<std::size_t>(row0) * d.k + k0,
              static_cast<std::size_t>(d.k), rows, cols, bk, blk);
  } else {  // storage K x M: row p is contiguous along i
    const float* src = g.a + static_cast<std::size_t>(k0) * d.m + row0;
    for (int p = 0; p < cols; ++p) {
      const float* row = src + static_cast<std::size_t>(p) * d.m;
      for (int i = 0; i < rows; ++i) blk[i * bk + p] = row[i];
    }
  }
}

/// B block at (k0, col0): staged B(k0 + p, col0 + j) to blk[p * BX + j].
void copy_b_block(const GemmOperands& g, int bk, int bx, int k0, int col0,
                  float* blk) {
  const auto& d = g.dims;
  const int rows = std::min(bk, d.k - k0);
  const int cols = std::min(bx, d.n - col0);
  if (rows < bk || cols < bx) std::fill_n(blk, bk * bx, 0.0f);
  if (g.op_b == Op::kN) {  // storage K x N: row p is contiguous along j
    copy_rows(g.b + static_cast<std::size_t>(k0) * d.n + col0,
              static_cast<std::size_t>(d.n), rows, cols, bx, blk);
  } else {  // storage N x K: row j is contiguous along p
    const float* src = g.b + static_cast<std::size_t>(col0) * d.k + k0;
    for (int j = 0; j < cols; ++j) {
      const float* row = src + static_cast<std::size_t>(j) * d.k;
      for (int p = 0; p < rows; ++p) blk[p * bx + j] = row[p];
    }
  }
}

}  // namespace

PanelKey panel_key(PanelSide side, const TilingStrategy& s,
                   const GemmOperands& g) {
  PanelKey key;
  key.side = side;
  key.k = g.dims.k;
  key.bk = s.bk;
  key.precision = g.precision;
  if (side == PanelSide::kA) {
    key.operand = g.a;
    key.op = g.op_a;
    key.extent = g.dims.m;
    key.tile = s.by;
  } else {
    key.operand = g.b;
    key.op = g.op_b;
    key.extent = g.dims.n;
    key.tile = s.bx;
    key.gather = static_cast<bool>(g.b_gather);
  }
  return key;
}

std::size_t panel_set_floats(PanelSide side, const TilingStrategy& s,
                             const GemmDims& d) {
  return static_cast<std::size_t>(panel_count(side, s, d)) *
         static_cast<std::size_t>(ceil_div(d.k, s.bk)) *
         static_cast<std::size_t>(side == PanelSide::kA ? s.by : s.bx) *
         static_cast<std::size_t>(s.bk);
}

std::size_t pack_footprint_bytes(const TilingStrategy& s, const GemmDims& d) {
  return (panel_set_floats(PanelSide::kA, s, d) +
          panel_set_floats(PanelSide::kB, s, d)) *
         sizeof(float);
}

void pack_panel_set(PanelSide side, const TilingStrategy& s,
                    const GemmOperands& g, float* out) {
  CTB_CHECK(g.a != nullptr && g.dims.valid());
  CTB_CHECK_MSG(g.b != nullptr || g.b_gather,
                "B operand needs storage or a gather");
  const bool a_side = side == PanelSide::kA;
  const int panels = panel_count(side, s, g.dims);
  const int nsteps = ceil_div(g.dims.k, s.bk);
  const int rows = a_side ? s.by : s.bk;  // block rows x cols, row-major
  const int cols = a_side ? s.bk : s.bx;
  const bool copy = g.precision == Precision::kFp32 &&
                    (a_side || !g.b_gather);
  float* blk = out;
  for (int t = 0; t < panels; ++t) {
    for (int step = 0; step < nsteps; ++step, blk += rows * cols) {
      const int k0 = step * s.bk;
      const int origin = t * (a_side ? s.by : s.bx);
      if (copy) {
        if (a_side)
          copy_a_block(g, s.by, s.bk, origin, k0, blk);
        else
          copy_b_block(g, s.bk, s.bx, k0, origin, blk);
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
  CTB_TEL_COUNT("exec.pack.panels", panels);
  CTB_TEL_COUNT("exec.pack.bytes",
                panel_set_floats(side, s, g.dims) * sizeof(float));
}

PackedGemm packed_view(const TilingStrategy& s, const GemmDims& d,
                       const float* a, const float* b) {
  PackedGemm pk;
  pk.by = s.by;
  pk.bx = s.bx;
  pk.bk = s.bk;
  pk.nsteps = ceil_div(d.k, s.bk);
  pk.ty_count = panel_count(PanelSide::kA, s, d);
  pk.tx_count = panel_count(PanelSide::kB, s, d);
  pk.a = a;
  pk.b = b;
  return pk;
}

}  // namespace ctb
