// Per-GEMM fused epilogue descriptors (DESIGN.md §12).
//
// The paper's aux-array interface describes *where* each tile's output goes;
// this module describes *what happens to it* on the way out. A plan may carry
// one epilogue spec per GEMM — a short, ordered chain of elementwise ops
// (bias add, ReLU) that the executors apply inside the tile store, after the
// tile's whole K chain. Fusing the epilogue into the store removes the
// separate read+write pass over C that the dnn layers otherwise pay per
// elementwise op.
//
// Encoding: a spec is a single non-negative int holding up to kMaxEpilogueOps
// op ids, one per nibble, applied lowest nibble first. The encoding is
// canonical — a zero nibble terminates the chain and no nonzero nibble may
// follow it — so equal chains always compare equal as ints and the spec can
// ride through batch_signature, plan serialization, and cache keys as plain
// data. 0 means "no epilogue" and is byte-identical to today's store path.
//
// Value semantics (the single source of truth; reference_gemm and every
// executor implement exactly this):
//   v = alpha * acc  +  (beta != 0 ? beta * C[gi][gj] : 0)   // fp16: rounded
//   for each op in chain order:
//     kBias:     v += args.bias[gi]          (one value per C row)
//     kRelu:     v = v > 0.0f ? v : 0.0f
//     (fp16: v rounds to binary16 after the base value and after every
//      op — the fused chain emulates a sequence of half-precision stores,
//      so it stays bit-identical to the unfused multi-pass form)
//   C[gi][gj] = v
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace ctb {

/// Epilogue op ids, one per nibble of a packed spec. Values are part of the
/// ctb-batchplan-v3 serialization format — append only, never renumber.
/// Ids 3, 4 and 5 are retired and stay reserved, so a serialized id never
/// changes meaning: every entry point rejects them as malformed, and a new
/// op takes id 6 or above.
enum class EpilogueOp : int {
  kNone = 0,  ///< chain terminator / empty spec
  kBias = 1,  ///< v += bias[row]
  kRelu = 2,  ///< v = max(v, 0)
};

/// Number of distinct op ids (valid ids are 1..kNumEpilogueOps).
inline constexpr int kNumEpilogueOps = 2;

/// Ops per spec: one nibble each in a packed int, lowest nibble first.
inline constexpr int kMaxEpilogueOps = 4;

/// Number of ops in a packed spec (0 for the empty spec). Assumes the spec
/// is canonical; garbage input still terminates.
int epilogue_num_ops(int spec);

/// The i-th op of a packed spec (0-based, chain order).
EpilogueOp epilogue_op_at(int spec, int i);

/// True iff `spec` is a canonical packed chain: non-negative, no bits above
/// the nibble area, every nibble a valid op id or zero, and no nonzero
/// nibble after a zero one (zero-terminated).
bool epilogue_packed_valid(int spec);

/// The one normalization of a batch's per-GEMM epilogue stream, shared by
/// every planning and serving entry point: an all-zero stream becomes empty
/// (so it plans, caches and hashes exactly like no stream); otherwise the
/// stream must hold one spec per GEMM and every spec must pass
/// epilogue_packed_valid, else CheckError. Returns the normalized view.
std::span<const int> normalize_epilogues(std::span<const int> epilogues,
                                         std::size_t gemms);

/// Appends `op` to the chain; CTB_CHECKs the spec is canonical with a free
/// slot and `op` is a real op id.
int epilogue_push(int spec, EpilogueOp op);

/// True iff the chain contains `op`.
bool epilogue_has_op(int spec, EpilogueOp op);

const char* to_string(EpilogueOp op);

/// Renders a spec as "bias+relu" (empty spec -> "none").
std::string epilogue_to_string(int spec);

/// Per-GEMM epilogue operands. Plain pointers like GemmOperands: the caller
/// owns the storage and keeps it alive across execution. audit checks every
/// operand named by the GEMM's spec is present with the right extent before
/// any memory is touched; lengths are explicit so the audit cannot be
/// fooled by a short buffer.
struct EpilogueArgs {
  const float* bias = nullptr;  ///< kBias: one value per C row
  int bias_len = 0;             ///< must equal dims.m
};

}  // namespace ctb
