#include "core/epilogue.hpp"

#include "util/assert.hpp"

namespace ctb {

namespace {

inline int nibble(int spec, int i) { return (spec >> (4 * i)) & 0xF; }

}  // namespace

int epilogue_num_ops(int spec) {
  int n = 0;
  while (n < kMaxEpilogueOps && nibble(spec, n) != 0) ++n;
  return n;
}

EpilogueOp epilogue_op_at(int spec, int i) {
  return static_cast<EpilogueOp>(nibble(spec, i));
}

bool epilogue_packed_valid(int spec) {
  if (spec < 0) return false;
  if (spec >> (4 * kMaxEpilogueOps) != 0) return false;
  bool terminated = false;
  for (int i = 0; i < kMaxEpilogueOps; ++i) {
    const int id = nibble(spec, i);
    if (id == 0) {
      terminated = true;
    } else {
      if (terminated) return false;  // nonzero nibble after the terminator
      if (id > kNumEpilogueOps) return false;
    }
  }
  return true;
}

std::span<const int> normalize_epilogues(std::span<const int> epilogues,
                                         std::size_t gemms) {
  bool any_epilogue = false;
  for (int e : epilogues) any_epilogue = any_epilogue || e != 0;
  if (!any_epilogue) return {};
  CTB_CHECK_MSG(epilogues.size() == gemms,
                "epilogue stream holds " << epilogues.size()
                                         << " entries for " << gemms
                                         << " GEMMs");
  for (std::size_t i = 0; i < epilogues.size(); ++i)
    CTB_CHECK_MSG(epilogue_packed_valid(epilogues[i]),
                  "GEMM " << i << " has malformed epilogue spec "
                          << epilogues[i]);
  return epilogues;
}

int epilogue_push(int spec, EpilogueOp op) {
  CTB_CHECK(epilogue_packed_valid(spec));
  const int id = static_cast<int>(op);
  CTB_CHECK_MSG(id >= 1 && id <= kNumEpilogueOps, "bad epilogue op " << id);
  const int n = epilogue_num_ops(spec);
  CTB_CHECK_MSG(n < kMaxEpilogueOps, "epilogue chain full");
  return spec | (id << (4 * n));
}

bool epilogue_has_op(int spec, EpilogueOp op) {
  const int n = epilogue_num_ops(spec);
  for (int i = 0; i < n; ++i)
    if (epilogue_op_at(spec, i) == op) return true;
  return false;
}

const char* to_string(EpilogueOp op) {
  switch (op) {
    case EpilogueOp::kNone: return "none";
    case EpilogueOp::kBias: return "bias";
    case EpilogueOp::kRelu: return "relu";
  }
  return "?";
}

std::string epilogue_to_string(int spec) {
  const int n = epilogue_num_ops(spec);
  if (n == 0) return "none";
  std::string out;
  for (int i = 0; i < n; ++i) {
    if (i) out += '+';
    out += to_string(epilogue_op_at(spec, i));
  }
  return out;
}

}  // namespace ctb
