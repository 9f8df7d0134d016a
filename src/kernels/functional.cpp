#include "kernels/functional.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "kernels/packing.hpp"
#include "kernels/simd.hpp"
#include "linalg/half.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace ctb {

namespace {

// Largest tile is 128x128: the tile accumulator and a staged tile's
// micro-panels are sized for it.
constexpr int kMaxBy = 128;
constexpr int kMaxBx = 128;
// Deepest BK step and widest per-thread sub-tile across Tables 1 and 2.
constexpr int kMaxBk = 8;
constexpr int kMaxSubX = 8;
// K steps (of kMicroK) a staged tile packs per micro-kernel pass: 32 KiB
// each of A and B micro-panels at the largest tile.
constexpr int kStageSteps = 8;

int ceil_div(int a, int b) { return (a + b - 1) / b; }

/// Rejects a strategy outside the geometry of Tables 1 and 2 before any
/// memory is touched: BY and BX must be whole grids of 16x16 micro-tiles
/// that fit the accumulator, and the per-thread sub-tiles (which the timing
/// model charges) must tile the C tile exactly. Every Table-1/2 strategy
/// passes; a caller-built one is checked.
void check_geometry(const TilingStrategy& s) {
  CTB_CHECK_MSG(s.by >= 1 && s.by <= kMaxBy && s.by % kMicroTile == 0 &&
                    s.bx >= 1 && s.bx <= kMaxBx && s.bx % kMicroTile == 0 &&
                    s.bk >= 1 && s.bk <= kMaxBk && s.sub_y >= 1 &&
                    s.sub_x >= 1 && s.sub_x <= kMaxSubX &&
                    s.by % s.sub_y == 0 && s.bx % s.sub_x == 0 &&
                    s.threads == (s.by / s.sub_y) * (s.bx / s.sub_x),
                "strategy " << s.name() << " has unsupported geometry BY="
                            << s.by << " BX=" << s.bx << " BK=" << s.bk
                            << " sub-tile " << s.sub_y << 'x' << s.sub_x
                            << " over " << s.threads
                            << " threads (limits BY, BX multiples of "
                            << kMicroTile << " up to " << kMaxBy
                            << ", BK <= " << kMaxBk << ", sub_x <= "
                            << kMaxSubX << ")");
}

/// One GEMM's fused epilogue chain, decoded once per executor call so the
/// tile store does not re-read the packed spec for every tile.
struct EpilogueChain {
  int nops = 0;
  int ops[kMaxEpilogueOps] = {};  ///< EpilogueOp values in chain order
  bool bias = false;

  explicit EpilogueChain(int spec = 0) : nops(epilogue_num_ops(spec)) {
    for (int o = 0; o < nops; ++o) {
      const EpilogueOp op = epilogue_op_at(spec, o);
      ops[o] = static_cast<int>(op);
      bias = bias || op == EpilogueOp::kBias;
    }
  }
};

/// How one GEMM's tiles run in one executor call, resolved once per GEMM:
/// the packed panels (invalid: each tile stages its own micro-panels), the
/// call's micro-kernel, the vector row store (null: the scalar per-element
/// store), the decoded epilogue chain and whether the tile stores stream.
struct PackedDispatch {
  PackedGemm pack;
  SimdMicroKernelFn kernel = nullptr;
  SimdEpilogueRowFn store_row = nullptr;
  EpilogueChain epilogue;
  bool stream = false;
};

/// The ISA every tile of one call runs under, read once per call: the
/// active one, or scalar when it has no kernel on this host (neon on
/// x86-64).
SimdIsa call_isa() {
  const SimdIsa isa = active_simd_isa();
  return simd_micro_kernel(isa) != nullptr ? isa : SimdIsa::kScalar;
}

/// The streaming rule (DESIGN.md §9): `g`'s tile stores bypass the cache
/// when its C is at least kStreamStoreBytes, goes through the vector row
/// store in fp32, starts every row on a cache line, and `isa` has
/// streaming stores. Under it every full-width chunk a tile stores is
/// vector-aligned: tile columns start at multiples of 16.
bool streams_c(const GemmOperands& g, const PackedDispatch& d, SimdIsa isa) {
  const GemmDims& dims = g.dims;
  return (isa == SimdIsa::kAvx2 || isa == SimdIsa::kAvx512) &&
         d.store_row != nullptr && g.precision == Precision::kFp32 &&
         reinterpret_cast<std::uintptr_t>(g.c) % kCacheLineBytes == 0 &&
         dims.n * sizeof(float) % kCacheLineBytes == 0 &&
         static_cast<std::size_t>(dims.m) * dims.n * sizeof(float) >=
             kStreamStoreBytes;
}

/// The unpacked dispatch of `g` under `isa`: its tiles stage their own
/// micro-panels for the ISA's micro-kernel.
PackedDispatch staged_dispatch(const GemmOperands& g, SimdIsa isa) {
  PackedDispatch d;
  d.kernel = simd_micro_kernel(isa);
  d.store_row = simd_epilogue_row(isa);
  d.epilogue = EpilogueChain(g.epilogue);
  d.stream = streams_c(g, d, isa);
  return d;
}

/// Per-ISA tile accounting: exec.simd.* partitions every executed tile by
/// the ISA whose micro-kernel ran it, so the four counters always sum to
/// the call's total tiles.
void count_simd_tiles(SimdIsa isa, long long tiles) {
  switch (isa) {
    case SimdIsa::kAvx512:
      CTB_TEL_COUNT("exec.simd.avx512", tiles);
      return;
    case SimdIsa::kAvx2:
      CTB_TEL_COUNT("exec.simd.avx2", tiles);
      return;
    case SimdIsa::kNeon:
      CTB_TEL_COUNT("exec.simd.neon", tiles);
      return;
    case SimdIsa::kScalar:
      break;
  }
  CTB_TEL_COUNT("exec.simd.scalar", tiles);
}

/// Dispatch accounting for `tiles` tiles of one GEMM that resolved to `d`
/// in a call whose micro-kernel belongs to `isa`.
void count_dispatch(const PackedDispatch& d, SimdIsa isa, long long tiles) {
  if (d.pack.valid())
    CTB_TEL_COUNT("exec.dispatch.specialized", tiles);
  else
    CTB_TEL_COUNT("exec.dispatch.generic", tiles);
  count_simd_tiles(isa, tiles);
}

/// Per-thread panel arena: every panel set an executor call packs is carved
/// from the calling thread's arena, which grows to the largest call and is
/// then reused — no per-call allocation and no zero-fill (packing writes
/// every float). It holds at most the admitted bytes of one call, so it
/// never exceeds kPackCallBudgetBytes. Operands run no code, so a call never
/// starts inside another one on the same thread, and the call's tiles read
/// its panels until it returns.
float* reserve_thread_arena(std::size_t floats) {
  static thread_local std::unique_ptr<float[]> buf;
  static thread_local std::size_t capacity = 0;  // floats
  if (floats > capacity) {
    buf.reset();  // free first: the peak stays one arena, not two
    buf = std::make_unique_for_overwrite<float[]>(floats);
    capacity = floats;
  }
  return buf.get();
}

/// The packed operands of one executor call: decides and packs in one
/// place, and resolves each GEMM's PackedDispatch.
///
/// The packing rule: a GEMM packs when its footprint still fits the call's
/// budget. Admission is per GEMM, serial in batch order, and a GEMM that
/// does not fit consumes none of the budget: its tiles stage their own
/// micro-panels, and the GEMMs after it may still pack.
///
/// Each admitted GEMM then resolves its A and B panel sets by PanelKey: a
/// set an earlier GEMM of the call already resolved is shared, so an
/// operand several GEMMs read is packed once, whatever their strategies.
/// Every distinct set is carved from the thread's panel arena, packed one set
/// per parallel_for task (disjoint storage, order-independent contents:
/// bit-exact at any thread count), and dies with the call: nothing packed
/// survives to the next call, so operands may change freely between calls.
class CallPacks {
 public:
  /// `strategy[z] == nullptr` marks a GEMM the call does not run; `plan`
  /// holds the tiles the call executes.
  CallPacks(const BatchPlan& plan, std::span<const GemmOperands> batch,
            std::span<const TilingStrategy* const> strategy);

  const PackedDispatch& operator[](std::size_t z) const {
    return dispatch_[z];
  }

 private:
  std::vector<PackedDispatch> dispatch_;
};

CallPacks::CallPacks(const BatchPlan& plan,
                     std::span<const GemmOperands> batch,
                     std::span<const TilingStrategy* const> strategy)
    : dispatch_(batch.size()) {
  // Per GEMM: tiles the call runs, and the micro-panels they read (one A
  // panel per 16 in-range rows and one B panel per 16 in-range columns).
  std::vector<long long> tiles(batch.size(), 0), reads(batch.size(), 0);
  for (std::size_t t = 0; t < plan.gemm_of_tile.size(); ++t) {
    const auto z = static_cast<std::size_t>(plan.gemm_of_tile[t]);
    const TilingStrategy& s = *strategy[z];
    const GemmDims& d = batch[z].dims;
    ++tiles[z];
    reads[z] +=
        ceil_div(std::min(s.by, d.m - plan.y_coord[t] * s.by), kMicroTile) +
        ceil_div(std::min(s.bx, d.n - plan.x_coord[t] * s.bx), kMicroTile);
  }
  // One distinct panel set of the call, packed from the first GEMM that
  // needs it (any GEMM with a matching key yields the same bytes).
  struct Slot {
    PanelKey key;
    const GemmOperands* g = nullptr;
    std::size_t offset = 0;  // floats into the call's arena block
  };
  std::vector<Slot> slots;
  std::vector<std::array<int, 2>> slot_of(batch.size(), {-1, -1});
  const SimdIsa isa = call_isa();
  std::size_t used = 0;
  std::size_t arena_floats = 0;
  long long distinct_panels = 0;
  for (std::size_t z = 0; z < batch.size(); ++z) {
    if (strategy[z] == nullptr) continue;
    const GemmOperands& g = batch[z];
    PackedDispatch& d = dispatch_[z];
    d = staged_dispatch(g, isa);
    const std::size_t bytes = pack_footprint_bytes(g.dims);
    if (bytes > kPackCallBudgetBytes - used) continue;
    used += bytes;
    d.pack = packed_view(g.dims, nullptr, nullptr);
    for (const PanelSide side : {PanelSide::kA, PanelSide::kB}) {
      const PanelKey key = panel_key(side, g);
      std::size_t idx = 0;
      while (idx < slots.size() && slots[idx].key != key) ++idx;
      if (idx == slots.size()) {
        slots.push_back({key, &g, arena_floats});
        arena_floats += panel_set_floats(side, g.dims);
        distinct_panels += micro_panel_count(side, g.dims);
      }
      slot_of[z][static_cast<std::size_t>(side)] = static_cast<int>(idx);
    }
  }

  float* const arena =
      arena_floats > 0 ? reserve_thread_arena(arena_floats) : nullptr;
  parallel_for(static_cast<long long>(slots.size()), [&](long long i) {
    const Slot& slot = slots[static_cast<std::size_t>(i)];
    pack_panel_set(slot.key.side, *slot.g, arena + slot.offset);
  });

  long long packed_reads = 0;
  for (std::size_t z = 0; z < batch.size(); ++z) {
    if (strategy[z] == nullptr) continue;
    PackedDispatch& d = dispatch_[z];
    if (slot_of[z][0] >= 0) {
      d.pack.a = arena + slots[static_cast<std::size_t>(slot_of[z][0])].offset;
      d.pack.b = arena + slots[static_cast<std::size_t>(slot_of[z][1])].offset;
      packed_reads += reads[z];
    }
    count_dispatch(d, isa, tiles[z]);
  }
  // Every micro-panel read past the first of each distinct micro-panel is a
  // staging the staged mode would repeat.
  if (packed_reads > 0)
    CTB_TEL_COUNT("exec.pack.reuse", packed_reads - distinct_panels);
}

/// Conventional useful-FLOP count of one pass over the batch (2*m*n*k per
/// GEMM; beta*C not charged) — feeds the "exec.flops" counter that perf
/// reports turn into GFLOP/s. Only evaluated when telemetry is enabled.
[[maybe_unused]] long long flops_of(std::span<const GemmOperands> batch) {
  long long total = 0;
  for (const auto& g : batch)
    total += 2LL * g.dims.m * g.dims.n * g.dims.k;
  return total;
}

// ------------------------------------------------------ tile pipeline ----
//
// Every tile runs accumulate_tile over its whole K chain into a row-major
// BY x BX accumulator, then store_tile. Accumulation is one loop: the
// call's micro-kernel over micro-panels, packed per call or staged per
// tile. Per C element both add the same staged values in ascending
// (k0, p) order, so which mode ran never shows in the bits.

/// Accumulates the K chain of tile (ty, tx) into `acc`: the call's
/// micro-kernel runs over the micro-tiles that intersect the matrix. A
/// packed GEMM's tile reads the call's panel sets. Any other tile packs
/// its own micro-panels, kStageSteps K steps at a time, into scratch in
/// this frame and continues the chain across the chunks — an exact reload,
/// so the bits equal one pass over packed panels.
void accumulate_tile(const TilingStrategy& s, const GemmOperands& g,
                     const PackedDispatch& d, int ty, int tx, float* acc) {
  const GemmDims& dims = g.dims;
  const int rows = std::min(s.by, dims.m - ty * s.by);
  const int cols = std::min(s.bx, dims.n - tx * s.bx);
  const int row_panel = ty * s.by / kMicroTile;
  const int col_panel = tx * s.bx / kMicroTile;
  if (d.pack.valid()) {
    accumulate_micro_tiles(d.kernel, d.pack, row_panel, col_panel, rows, cols,
                           /*accumulate=*/false, acc, s.bx);
    return;
  }
  alignas(64) float a[kMaxBy / kMicroTile * kStageSteps * kMicroBlock];
  alignas(64) float b[kMaxBx / kMicroTile * kStageSteps * kMicroBlock];
  const int steps = ceil_div(dims.k, kMicroK);
  for (int lo = 0; lo < steps; lo += kStageSteps) {
    const int hi = std::min(steps, lo + kStageSteps);
    pack_panels(PanelSide::kA, g, row_panel, ceil_div(rows, kMicroTile), lo,
                hi, a);
    pack_panels(PanelSide::kB, g, col_panel, ceil_div(cols, kMicroTile), lo,
                hi, b);
    accumulate_micro_tiles(d.kernel, PackedGemm{hi - lo, a, b}, 0, 0, rows,
                           cols, /*accumulate=*/lo > 0, acc, s.bx);
  }
}

/// Scalar application of the op chain to one element's base value in C row
/// `gi`. fp16 rounds after every op — the fused chain emulates a sequence
/// of binary16 stores, so it stays bit-identical to running the same ops
/// as separate passes over a half-precision C.
float apply_epilogue_value(float v, const EpilogueChain& chain,
                           const EpilogueArgs& ea, bool fp16, int gi) {
  for (int o = 0; o < chain.nops; ++o) {
    if (static_cast<EpilogueOp>(chain.ops[o]) == EpilogueOp::kBias)
      v += ea.bias[gi];
    else
      v = v > 0.0f ? v : 0.0f;
    if (fp16) v = round_to_half(v);
  }
  return v;
}

/// The one tile store: C = alpha * acc + beta * C over the tile's in-range
/// rows and columns (beta == 0 never reads C; fp16 rounds the result), then
/// the fused epilogue chain, if any. fp32 rows go through the vector row
/// kernel — a plain tile is its empty chain; fp16 rows and builds without
/// a vector unit take the scalar per-element chain. The two are
/// bit-identical, and so is a streamed store (streams_c), which changes
/// only the cache policy of the vector kernel's stores.
void store_tile(const TilingStrategy& s, const GemmOperands& g,
                const PackedDispatch& d, int ty, int tx, float alpha,
                float beta, const float* acc) {
  const GemmDims& dims = g.dims;
  const int row0 = ty * s.by;
  const int col0 = tx * s.bx;
  const int rows = std::min(s.by, dims.m - row0);
  const int cols = std::min(s.bx, dims.n - col0);
  const EpilogueChain& chain = d.epilogue;
  const EpilogueArgs& ea = g.epilogue_args;
  const bool fp16 = g.precision == Precision::kFp16;
  if (chain.nops > 0) {
    CTB_TEL_COUNT("exec.epilogue.fused", 1);
    CTB_TEL_COUNT("exec.epilogue.ops", chain.nops);
  }

  if (!fp16 && d.store_row != nullptr) {
    EpilogueRowArgs r;
    r.acc = acc;
    r.acc_stride = s.bx;
    r.rows = rows;
    r.row0 = row0;
    r.n = cols;
    r.c = g.c + col0;
    r.ldc = dims.n;
    if (chain.bias) r.bias = ea.bias;
    r.alpha = alpha;
    r.beta = beta;
    r.nops = chain.nops;
    std::copy_n(chain.ops, chain.nops, r.ops);
    r.stream = d.stream;
    if (d.stream) CTB_TEL_COUNT("exec.store.streamed", 1);
    d.store_row(r);
    return;
  }

  for (int i = 0; i < rows; ++i) {
    const int gi = row0 + i;
    const float* arow = acc + static_cast<std::size_t>(i) * s.bx;
    float* crow = g.c + static_cast<std::size_t>(gi) * dims.n + col0;
    for (int j = 0; j < cols; ++j) {
      float* cell = crow + j;
      float v;
      if (fp16) {
        const float prior = beta == 0.0f ? 0.0f : beta * round_to_half(*cell);
        v = round_to_half(alpha * arow[j] + prior);
      } else {
        const float prior = beta == 0.0f ? 0.0f : beta * *cell;
        v = alpha * arow[j] + prior;
      }
      *cell = chain.nops == 0 ? v
                              : apply_epilogue_value(v, chain, ea, fp16, gi);
    }
  }
}

/// One whole tile: its K chain, then the store. The accumulator lives in
/// this frame.
void run_tile(const TilingStrategy& s, const GemmOperands& g,
              const PackedDispatch& d, int ty, int tx, float alpha,
              float beta) {
  alignas(64) float acc[kMaxBy * kMaxBx];
  accumulate_tile(s, g, d, ty, tx, acc);
  store_tile(s, g, d, ty, tx, alpha, beta, acc);
}

/// Split-K accounting, evaluated only when telemetry is enabled: the plan's
/// partial-K tiles, or with `first` only those starting at 0, one per split
/// C tile.
[[maybe_unused]] long long partial_k_tiles(const BatchPlan& plan,
                                           std::span<const GemmOperands> batch,
                                           bool first) {
  long long n = 0;
  for (int t = 0; t < plan.num_tiles(); ++t) {
    const int k = batch[static_cast<std::size_t>(
                            plan.gemm_of_tile[static_cast<std::size_t>(t)])]
                      .dims.k;
    const auto [kb, ke] = plan.tile_k_range(t, k);
    n += (kb != 0 || ke != k) && (!first || kb == 0);
  }
  return n;
}

}  // namespace

void execute_tile(const TilingStrategy& s, const GemmOperands& g, int ty,
                  int tx, float alpha, float beta) {
  audit_operands({&g, 1});
  check_geometry(s);
  CTB_CHECK_MSG(ty >= 0 && tx >= 0 &&
                    static_cast<long long>(ty) * s.by < g.dims.m &&
                    static_cast<long long>(tx) * s.bx < g.dims.n,
                "tile (" << ty << "," << tx << ") outside GEMM");
  run_tile(s, g, staged_dispatch(g, call_isa()), ty, tx, alpha, beta);
}

namespace {

/// The audit of a conv B: a geometry a convolution can run with, read
/// untransposed, whose filter taps and output pixels tile K and N exactly
/// (whole channels, whole images).
void audit_lowering(const GemmOperands& g, std::size_t i) {
  const ConvLowering& l = g.lowering;
  CTB_CHECK_MSG(l.valid() && g.op_b == Op::kN,
                "GEMM " << i << " lowers its op " << to_string(g.op_b)
                        << " B from a " << l.in_h << 'x' << l.in_w
                        << " input with a " << l.kernel << 'x' << l.kernel
                        << " kernel, stride " << l.stride << ", pad "
                        << l.pad << " (needs op N and a runnable geometry)");
  const long long taps = static_cast<long long>(l.kernel) * l.kernel;
  const long long pixels = static_cast<long long>(l.out_h()) * l.out_w();
  CTB_CHECK_MSG(g.dims.k % taps == 0 && g.dims.n % pixels == 0,
                "GEMM " << i << " K=" << g.dims.k << ", N=" << g.dims.n
                        << " are not whole channels of " << taps
                        << " taps and whole images of " << pixels
                        << " pixels");
}

/// Epilogue half of the operand audit: the spec is a canonical chain, and
/// a chain with a bias has its operand present with the exact extent. Runs
/// before any matrix element is touched.
void audit_epilogue(const GemmOperands& g, std::size_t i) {
  const int spec = g.epilogue;
  CTB_CHECK_MSG(epilogue_packed_valid(spec),
                "GEMM " << i << " has malformed epilogue spec " << spec);
  const EpilogueArgs& ea = g.epilogue_args;
  if (epilogue_has_op(spec, EpilogueOp::kBias))
    CTB_CHECK_MSG(ea.bias != nullptr && ea.bias_len == g.dims.m,
                  "GEMM " << i << " bias operand: need " << g.dims.m
                          << " values, have "
                          << (ea.bias != nullptr ? ea.bias_len : 0));
}

}  // namespace

void audit_operands(std::span<const GemmOperands> batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const GemmOperands& g = batch[i];
    CTB_CHECK_MSG(g.dims.valid(), "GEMM " << i << " has degenerate dims "
                                          << g.dims.m << 'x' << g.dims.n
                                          << 'x' << g.dims.k);
    CTB_CHECK_MSG(g.a != nullptr, "GEMM " << i << " has no A storage");
    CTB_CHECK_MSG(g.b != nullptr, "GEMM " << i << " has no B storage");
    CTB_CHECK_MSG(g.c != nullptr, "GEMM " << i << " has no C storage");
    if (g.lowering.active()) audit_lowering(g, i);
    audit_epilogue(g, i);
  }
}

void audit_plan_operands(const BatchPlan& plan,
                         std::span<const GemmOperands> batch) {
  audit_operands(batch);
  std::vector<GemmDims> dims(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) dims[i] = batch[i].dims;
  validate_plan(plan, dims);
  // The plan's per-GEMM epilogue record must agree with what the operands
  // carry — a stale fused plan meeting a reshaped (or de-fused) batch is
  // rejected here, exactly like a dims mismatch.
  for (std::size_t i = 0; i < batch.size(); ++i)
    CTB_CHECK_MSG(plan.gemm_epilogue(static_cast<int>(i)) ==
                      batch[i].epilogue,
                  "GEMM " << i << " epilogue mismatch: plan has "
                          << epilogue_to_string(
                                 plan.gemm_epilogue(static_cast<int>(i)))
                          << ", operands carry "
                          << epilogue_to_string(batch[i].epilogue));
}

void reference_gemm(const GemmOperands& g, float alpha, float beta) {
  audit_operands({&g, 1});
  const auto& d = g.dims;
  const bool fp16 = g.precision == Precision::kFp16;
  const EpilogueChain chain(g.epilogue);
  const EpilogueArgs& ea = g.epilogue_args;
  for (int i = 0; i < d.m; ++i) {
    for (int j = 0; j < d.n; ++j) {
      float acc = 0.0f;
      for (int k = 0; k < d.k; ++k)
        acc += staged_a_value(g, i, k) * staged_b_value(g, k, j);
      float* cell = &g.c[static_cast<std::size_t>(i) * d.n + j];
      float v;
      if (fp16) {
        const float prior =
            beta == 0.0f ? 0.0f : beta * round_to_half(*cell);
        v = round_to_half(alpha * acc + prior);
      } else {
        const float prior = beta == 0.0f ? 0.0f : beta * *cell;
        v = alpha * acc + prior;
      }
      *cell = chain.nops == 0 ? v
                              : apply_epilogue_value(v, chain, ea, fp16, i);
    }
  }
}

void execute_plan(const BatchPlan& plan, std::span<const GemmOperands> batch,
                  float alpha, float beta) {
  CTB_TEL_SPAN("exec.execute_plan");
  try {
    CTB_TEL_SPAN("exec.audit");
    audit_plan_operands(plan, batch);
  } catch (const CheckError&) {
    // An audit rejection is a postmortem moment: the plan passed validation
    // but its aux arrays do not fit these operands. Leave a flight trail
    // (and persist it when a dump directory is configured) before the
    // exception unwinds to the caller.
    CTB_TEL_FLIGHT(kGuardReject, "audit_plan_operands",
                   static_cast<std::int64_t>(batch.size()),
                   plan.num_tiles());
    telemetry::flight_autodump("audit_reject");
    throw;
  }
  CTB_TEL_FLIGHT(kExec, "execute_plan", plan.num_blocks(), plan.num_tiles());
  CTB_TEL_COUNT("exec.plan_runs", 1);
  CTB_TEL_COUNT("exec.blocks", plan.num_blocks());
  CTB_TEL_COUNT("exec.tiles", plan.num_tiles());
  CTB_TEL_COUNT("exec.flops", flops_of(batch));
  CTB_TEL_COUNT("exec.c.passes", batch.size());
  if (plan.has_split()) {
    CTB_TEL_COUNT("exec.splitk.tiles", partial_k_tiles(plan, batch, false));
    CTB_TEL_COUNT("exec.splitk.groups", partial_k_tiles(plan, batch, true));
  }

  // A validated plan tiles each GEMM with one Table-2 strategy (which always
  // passes check_geometry), though strategies vary across GEMMs; GEMMs the
  // plan never names stay null and unpacked.
  std::vector<const TilingStrategy*> strategy(batch.size(), nullptr);
  for (std::size_t t = 0; t < plan.gemm_of_tile.size(); ++t)
    strategy[static_cast<std::size_t>(plan.gemm_of_tile[t])] =
        &batched_strategy_by_id(plan.strategy_of_tile[t]);
  const CallPacks packs = [&] {
    CTB_TEL_SPAN("exec.pack");
    return CallPacks(plan, batch, strategy);
  }();

  // Blocks run concurrently — the plan covers each C tile once, so no two
  // blocks touch the same tile — while each block's tile chain stays
  // serial, exactly like persistent thread blocks on the device.
  //
  // Split-K: the slices of a split C tile form one carried chain, and float
  // addition is not associative, so they cannot run apart and be summed.
  // The tile's slice that starts at 0 runs the whole chain and stores
  // (validate_plan guarantees each C tile exactly one such slice); its later
  // slices run nothing. Each C tile thus keeps one owner, one ascending
  // (k0, p) chain and one store, with no atomics: the bits equal the unsplit
  // plan's at any thread count.
  CTB_TEL_SPAN("exec.sweep");
  parallel_for(plan.num_blocks(), [&](long long b) {
    const auto [begin, end] = plan.block_tiles(static_cast<int>(b));
    for (int t = begin; t < end; ++t) {
      const auto ti = static_cast<std::size_t>(t);
      // A later slice: its tile's chain runs at the slice starting at 0.
      if (plan.has_split() && plan.k_begin[ti] != 0) continue;
      const auto z = static_cast<std::size_t>(plan.gemm_of_tile[ti]);
      run_tile(*strategy[z], batch[z], packs[z], plan.y_coord[ti],
               plan.x_coord[ti], alpha, beta);
    }
  });
}

GemmOperands operands(const Matrixf& a, const Matrixf& b, Matrixf& c) {
  return operands(a, b, c, Op::kN, Op::kN);
}

GemmOperands operands(const Matrixf& a, const Matrixf& b, Matrixf& c,
                      Op op_a, Op op_b) {
  GemmOperands g;
  g.dims = gemm_dims_for(op_a, op_b, a, b);
  CTB_CHECK_MSG(static_cast<int>(c.rows()) == g.dims.m &&
                    static_cast<int>(c.cols()) == g.dims.n,
                "operand shape mismatch");
  g.a = a.data();
  g.b = b.data();
  g.c = c.data();
  g.op_a = op_a;
  g.op_b = op_b;
  return g;
}

}  // namespace ctb
