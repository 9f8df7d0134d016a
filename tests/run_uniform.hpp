// Test helper shared by the executor tests: runs a batch through the one
// executor as a uniform grid.
#pragma once

#include <span>
#include <vector>

#include "core/batching_engine.hpp"
#include "kernels/functional.hpp"

namespace ctb {

/// Runs `batch` through execute_plan as the uniform grid (one tile per
/// block) of the Table-2 strategy `s` names by id, or of the one with the
/// same BY x BX when `s` is a Table-1 strategy (on the host only the tile
/// shape matters). Fused epilogues travel on the operands.
inline void run_uniform(const TilingStrategy& s,
                        std::span<const GemmOperands> batch, float alpha,
                        float beta) {
  std::vector<GemmDims> dims;
  for (const GemmOperands& g : batch) dims.push_back(g.dims);
  const TilingStrategy& tile =
      s.id >= 0 ? batched_strategy_by_id(s.id)
                : batched_strategy(s.shape, ThreadVariant::k256);
  execute_plan(uniform_plan(dims, tile), batch, alpha, beta);
}

inline void run_uniform(const TilingStrategy& s, const GemmOperands& g,
                        float alpha, float beta) {
  run_uniform(s, {&g, 1}, alpha, beta);
}

}  // namespace ctb
