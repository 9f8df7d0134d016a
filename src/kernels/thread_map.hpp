// Thread-to-sub-tile mapping inside a C tile.
//
// The BY x BX tile is covered by a (BY/sub_y) x (BX/sub_x) grid of per-thread
// sub-tiles (paper Fig. 5). The host executor does not walk them (its tiles
// run 16x16 micro-tiles); the map lives in the timing model, whose work
// builder charges a clamped edge tile only its active threads.
#pragma once

#include "core/tiling_strategy.hpp"
#include "util/assert.hpp"

namespace ctb {

/// Number of threads with at least one in-range element for a clamped tile
/// of mc x nc (<= BY x BX) — the "active" threads; the rest idle (paper
/// Fig. 3b). Result is in [1, strategy.threads].
inline int active_threads_for_tile(const TilingStrategy& s, int mc, int nc) {
  CTB_DCHECK(mc >= 1 && mc <= s.by && nc >= 1 && nc <= s.bx);
  const int rows = (mc + s.sub_y - 1) / s.sub_y;
  const int cols = (nc + s.sub_x - 1) / s.sub_x;
  return rows * cols;
}

}  // namespace ctb
