#include "core/batch_plan.hpp"

#include <algorithm>
#include <sstream>

#include "util/assert.hpp"

namespace ctb {

std::vector<Tile> enumerate_tiles(
    std::span<const GemmDims> dims,
    std::span<const TilingStrategy* const> strategies) {
  CTB_CHECK(dims.size() == strategies.size());
  std::vector<Tile> tiles;
  for (std::size_t g = 0; g < dims.size(); ++g) {
    const TilingStrategy& s = *strategies[g];
    const int ty_count = (dims[g].m + s.by - 1) / s.by;
    const int tx_count = (dims[g].n + s.bx - 1) / s.bx;
    for (int ty = 0; ty < ty_count; ++ty) {
      for (int tx = 0; tx < tx_count; ++tx) {
        tiles.push_back(
            Tile{static_cast<int>(g), ty, tx, dims[g].k, 0, 0, &s});
      }
    }
  }
  return tiles;
}

BatchPlan build_plan(std::span<const std::vector<Tile>> blocks,
                     int block_threads) {
  BatchPlan plan;
  plan.block_threads = block_threads;
  plan.tile_offsets.reserve(blocks.size() + 1);
  plan.tile_offsets.push_back(0);
  bool any_split = false;
  for (const auto& block : blocks)
    for (const Tile& t : block) any_split = any_split || t.k_end != 0;
  for (const auto& block : blocks) {
    for (const Tile& t : block) {
      CTB_CHECK(t.strategy != nullptr);
      CTB_CHECK_MSG(t.strategy->threads == block_threads,
                    "unified thread structure violated: strategy "
                        << t.strategy->name() << " in a " << block_threads
                        << "-thread plan");
      plan.gemm_of_tile.push_back(t.gemm);
      plan.strategy_of_tile.push_back(t.strategy->id);
      plan.y_coord.push_back(t.ty);
      plan.x_coord.push_back(t.tx);
      if (any_split) {
        plan.k_begin.push_back(t.k_end != 0 ? t.k_begin : 0);
        plan.k_end.push_back(t.k_end != 0 ? t.k_end : t.k);
      }
      plan.smem_bytes = std::max(plan.smem_bytes, t.strategy->smem_bytes());
      plan.regs_per_thread =
          std::max(plan.regs_per_thread, t.strategy->regs_per_thread());
    }
    plan.tile_offsets.push_back(static_cast<int>(plan.gemm_of_tile.size()));
  }
  return plan;
}

std::vector<Tile> split_tiles_k(std::span<const Tile> tiles, int slices) {
  if (slices <= 1) return {tiles.begin(), tiles.end()};
  std::vector<Tile> out;
  out.reserve(tiles.size() * static_cast<std::size_t>(slices));
  for (const Tile& t : tiles) {
    CTB_CHECK(t.strategy != nullptr);
    CTB_CHECK_MSG(t.k_end == 0, "split_tiles_k over an already-split tile");
    const int bk = t.strategy->bk;
    const int nsteps = (t.k + bk - 1) / bk;
    const int n = std::min(slices, nsteps);
    if (n <= 1) {
      out.push_back(t);
      continue;
    }
    // Distribute K steps as evenly as possible; earlier slices take the
    // extra step so the ragged K tail always lands in the last slice.
    const int q = nsteps / n;
    const int r = nsteps % n;
    int step = 0;
    for (int s = 0; s < n; ++s) {
      const int take = q + (s < r ? 1 : 0);
      Tile slice = t;
      slice.k_begin = step * bk;
      slice.k_end = std::min((step + take) * bk, t.k);
      slice.k = slice.k_end - slice.k_begin;
      out.push_back(slice);
      step += take;
    }
  }
  return out;
}

namespace {
// Upper bounds for the static launch footprint: far beyond any real
// strategy (the largest Table-2 smem footprint is 16 KiB and registers
// clamp at 255) yet tight enough to reject overflow-adjacent garbage from
// corrupted or adversarial plans before anything scales by them.
constexpr int kMaxPlanSmemBytes = 1 << 20;
constexpr int kMaxPlanRegsPerThread = 255;
}  // namespace

void validate_plan_structure(const BatchPlan& plan) {
  CTB_CHECK_MSG(plan.block_threads == 128 || plan.block_threads == 256,
                "plan block size must be 128 or 256, got "
                    << plan.block_threads);
  CTB_CHECK_MSG(!plan.tile_offsets.empty(), "plan has no offset array");
  CTB_CHECK_MSG(plan.tile_offsets.front() == 0,
                "tile offsets must start at 0, got "
                    << plan.tile_offsets.front());
  CTB_CHECK_MSG(plan.tile_offsets.back() == plan.num_tiles(),
                "tile offsets end at " << plan.tile_offsets.back()
                                       << " but the plan stores "
                                       << plan.num_tiles() << " tiles");
  CTB_CHECK_MSG(static_cast<int>(plan.strategy_of_tile.size()) ==
                    plan.num_tiles(),
                "strategy array holds " << plan.strategy_of_tile.size()
                                        << " entries for "
                                        << plan.num_tiles() << " tiles");
  CTB_CHECK_MSG(static_cast<int>(plan.y_coord.size()) == plan.num_tiles(),
                "Y-coordinate array holds " << plan.y_coord.size()
                                            << " entries for "
                                            << plan.num_tiles() << " tiles");
  CTB_CHECK_MSG(static_cast<int>(plan.x_coord.size()) == plan.num_tiles(),
                "X-coordinate array holds " << plan.x_coord.size()
                                            << " entries for "
                                            << plan.num_tiles() << " tiles");
  for (std::size_t i = 1; i < plan.tile_offsets.size(); ++i)
    CTB_CHECK_MSG(plan.tile_offsets[i] >= plan.tile_offsets[i - 1],
                  "tile offsets must be monotone (offset "
                      << i << " is " << plan.tile_offsets[i] << " after "
                      << plan.tile_offsets[i - 1] << ")");

  int needed_smem = 0;
  int needed_regs = 0;
  const int num_strategies = static_cast<int>(batched_strategies().size());
  for (int t = 0; t < plan.num_tiles(); ++t) {
    CTB_CHECK_MSG(plan.gemm_of_tile[static_cast<std::size_t>(t)] >= 0,
                  "tile " << t << " has negative GEMM id "
                          << plan.gemm_of_tile[static_cast<std::size_t>(t)]);
    CTB_CHECK_MSG(plan.y_coord[static_cast<std::size_t>(t)] >= 0 &&
                      plan.x_coord[static_cast<std::size_t>(t)] >= 0,
                  "tile " << t << " has negative coordinates ("
                          << plan.y_coord[static_cast<std::size_t>(t)] << ","
                          << plan.x_coord[static_cast<std::size_t>(t)]
                          << ")");
    const int sid = plan.strategy_of_tile[static_cast<std::size_t>(t)];
    CTB_CHECK_MSG(sid >= 0 && sid < num_strategies,
                  "tile " << t << " uses unknown strategy id " << sid);
    const TilingStrategy& s = batched_strategy_by_id(sid);
    CTB_CHECK_MSG(s.threads == plan.block_threads,
                  "strategy id " << sid << " breaks the unified "
                                 << plan.block_threads
                                 << "-thread structure");
    needed_smem = std::max(needed_smem, s.smem_bytes());
    needed_regs = std::max(needed_regs, s.regs_per_thread());
  }
  CTB_CHECK_MSG(plan.smem_bytes >= needed_smem &&
                    plan.smem_bytes <= kMaxPlanSmemBytes,
                "plan smem footprint " << plan.smem_bytes
                                       << " B outside [" << needed_smem
                                       << ", " << kMaxPlanSmemBytes << "]");
  CTB_CHECK_MSG(plan.regs_per_thread >= needed_regs &&
                    plan.regs_per_thread <= kMaxPlanRegsPerThread,
                "plan register footprint "
                    << plan.regs_per_thread << " outside [" << needed_regs
                    << ", " << kMaxPlanRegsPerThread << "]");

  // Split-K aux arrays: either absent entirely or complete, every range
  // non-empty with a BK-aligned start (K-independent invariants; range ends
  // are checked against the batch dims in validate_plan).
  CTB_CHECK_MSG(plan.k_begin.size() == plan.k_end.size(),
                "K-range arrays disagree: " << plan.k_begin.size()
                                            << " begins vs "
                                            << plan.k_end.size() << " ends");
  if (plan.has_split()) {
    CTB_CHECK_MSG(static_cast<int>(plan.k_begin.size()) == plan.num_tiles(),
                  "K-range arrays hold " << plan.k_begin.size()
                                         << " entries for "
                                         << plan.num_tiles() << " tiles");
    for (int t = 0; t < plan.num_tiles(); ++t) {
      const int kb = plan.k_begin[static_cast<std::size_t>(t)];
      const int ke = plan.k_end[static_cast<std::size_t>(t)];
      CTB_CHECK_MSG(kb >= 0, "tile " << t << " has negative k_begin " << kb);
      CTB_CHECK_MSG(ke > kb, "tile " << t << " has empty K range [" << kb
                                     << "," << ke << ")");
      const TilingStrategy& s = batched_strategy_by_id(
          plan.strategy_of_tile[static_cast<std::size_t>(t)]);
      CTB_CHECK_MSG(kb % s.bk == 0,
                    "tile " << t << " k_begin " << kb
                            << " not aligned to BK=" << s.bk);
    }
  }

  // Epilogue specs: every entry a canonical packed chain, and the array
  // covers every GEMM id the tiles reference (batch-size agreement is
  // checked against dims in validate_plan).
  if (plan.has_epilogue()) {
    for (std::size_t g = 0; g < plan.epilogue_of_gemm.size(); ++g)
      CTB_CHECK_MSG(epilogue_packed_valid(plan.epilogue_of_gemm[g]),
                    "GEMM " << g << " has malformed epilogue spec "
                            << plan.epilogue_of_gemm[g]);
    for (int t = 0; t < plan.num_tiles(); ++t)
      CTB_CHECK_MSG(plan.gemm_of_tile[static_cast<std::size_t>(t)] <
                        static_cast<int>(plan.epilogue_of_gemm.size()),
                    "tile " << t << " references GEMM "
                            << plan.gemm_of_tile[static_cast<std::size_t>(t)]
                            << " past the " << plan.epilogue_of_gemm.size()
                            << "-entry epilogue array");
  }
}

void validate_plan(const BatchPlan& plan, std::span<const GemmDims> dims) {
  validate_plan_structure(plan);

  if (plan.has_epilogue())
    CTB_CHECK_MSG(plan.epilogue_of_gemm.size() == dims.size(),
                  "epilogue array holds " << plan.epilogue_of_gemm.size()
                                          << " entries for " << dims.size()
                                          << " GEMMs");

  // Per tile: GEMM id in range, one consistent strategy per GEMM,
  // coordinates inside the GEMM's tile grid, K range inside K.
  std::vector<int> gemm_strategy(dims.size(), -1);
  std::vector<int> tiles_of(dims.size(), 0);
  for (int t = 0; t < plan.num_tiles(); ++t) {
    const int g = plan.gemm_of_tile[static_cast<std::size_t>(t)];
    CTB_CHECK_MSG(g >= 0 && g < static_cast<int>(dims.size()),
                  "tile " << t << " references GEMM " << g);
    const int sid = plan.strategy_of_tile[static_cast<std::size_t>(t)];
    const TilingStrategy& s = batched_strategy_by_id(sid);
    if (gemm_strategy[static_cast<std::size_t>(g)] < 0)
      gemm_strategy[static_cast<std::size_t>(g)] = sid;
    CTB_CHECK_MSG(gemm_strategy[static_cast<std::size_t>(g)] == sid,
                  "GEMM " << g << " tiled with two strategies");
    const int ty = plan.y_coord[static_cast<std::size_t>(t)];
    const int tx = plan.x_coord[static_cast<std::size_t>(t)];
    const auto& d = dims[static_cast<std::size_t>(g)];
    const int ty_count = (d.m + s.by - 1) / s.by;
    const int tx_count = (d.n + s.bx - 1) / s.bx;
    CTB_CHECK_MSG(ty >= 0 && ty < ty_count && tx >= 0 && tx < tx_count,
                  "tile (" << ty << "," << tx << ") out of range for GEMM "
                           << g);
    if (plan.has_split()) {
      const int ke = plan.k_end[static_cast<std::size_t>(t)];
      CTB_CHECK_MSG(ke <= d.k, "tile " << t << " K range ends at " << ke
                                       << " past K=" << d.k << " of GEMM "
                                       << g);
      CTB_CHECK_MSG(ke == d.k || ke % s.bk == 0,
                    "tile " << t << " interior K boundary " << ke
                            << " not aligned to BK=" << s.bk);
    }
    ++tiles_of[static_cast<std::size_t>(g)];
  }

  // Coverage runs over one flat array of (GEMM, ty, tx) cells: GEMM g's tile
  // grid occupies cells [cell_base[g], cell_base[g] + tiles_for) in
  // row-major order, so every check below is a linear pass. A GEMM with
  // fewer tiles than cells cannot be covered and gets no cells, which keeps
  // the array no larger than the plan whatever dims claim.
  std::vector<int> cell_base(dims.size(), -1);
  std::vector<int> grid_x(dims.size(), 0);
  std::size_t cells = 0;
  for (std::size_t g = 0; g < dims.size(); ++g) {
    if (gemm_strategy[g] < 0) continue;
    const TilingStrategy& s = batched_strategy_by_id(gemm_strategy[g]);
    grid_x[g] = (dims[g].n + s.bx - 1) / s.bx;
    const long long expected = s.tiles_for(dims[g].m, dims[g].n);
    if (expected > tiles_of[g]) continue;
    cell_base[g] = static_cast<int>(cells);
    cells += static_cast<std::size_t>(expected);
  }
  const auto cell_of = [&](int t) -> int {
    const auto g = static_cast<std::size_t>(
        plan.gemm_of_tile[static_cast<std::size_t>(t)]);
    if (cell_base[g] < 0) return -1;
    return cell_base[g] +
           plan.y_coord[static_cast<std::size_t>(t)] * grid_x[g] +
           plan.x_coord[static_cast<std::size_t>(t)];
  };
  const auto expected_tiles = [&](std::size_t g) {
    return batched_strategy_by_id(gemm_strategy[g])
        .tiles_for(dims[g].m, dims[g].n);
  };

  if (!plan.has_split()) {
    std::vector<int> count(cells, 0);
    for (int t = 0; t < plan.num_tiles(); ++t)
      if (const int c = cell_of(t); c >= 0)
        ++count[static_cast<std::size_t>(c)];
    for (std::size_t g = 0; g < dims.size(); ++g) {
      CTB_CHECK_MSG(gemm_strategy[g] >= 0, "GEMM " << g << " has no tiles");
      const long long expected = expected_tiles(g);
      for (long long c = 0; cell_base[g] >= 0 && c < expected; ++c)
        CTB_CHECK_MSG(count[static_cast<std::size_t>(cell_base[g] + c)] < 2,
                      "tile (" << c / grid_x[g] << "," << c % grid_x[g]
                               << ") of GEMM " << g << " assigned twice");
      CTB_CHECK_MSG(tiles_of[g] == expected,
                    "GEMM " << g << " covered by " << tiles_of[g]
                            << " tiles, expected " << expected);
    }
    return;
  }

  // Split-K coverage: the slices of each (GEMM, ty, tx) cell must form an
  // exact, gap-free, non-overlapping ascending partition of [0, K). Slices
  // are bucketed by cell and each cell's chain is ordered by K range, so
  // overlap and gap both show up as next.k_begin != prev.k_end.
  std::vector<int> cell_start(cells + 1, 0);
  for (int t = 0; t < plan.num_tiles(); ++t)
    if (const int c = cell_of(t); c >= 0)
      ++cell_start[static_cast<std::size_t>(c) + 1];
  for (std::size_t c = 0; c < cells; ++c) cell_start[c + 1] += cell_start[c];
  std::vector<int> by_cell(static_cast<std::size_t>(cell_start.back()));
  {
    std::vector<int> next(cell_start.begin(), cell_start.end() - 1);
    for (int t = 0; t < plan.num_tiles(); ++t)
      if (const int c = cell_of(t); c >= 0)
        by_cell[static_cast<std::size_t>(next[static_cast<std::size_t>(c)]++)] =
            t;
  }
  const auto kb = [&](int t) {
    return plan.k_begin[static_cast<std::size_t>(t)];
  };
  const auto ke = [&](int t) {
    return plan.k_end[static_cast<std::size_t>(t)];
  };
  for (std::size_t g = 0; g < dims.size(); ++g) {
    CTB_CHECK_MSG(gemm_strategy[g] >= 0, "GEMM " << g << " has no tiles");
    const long long expected = expected_tiles(g);
    const int K = dims[g].k;
    long long coords = 0;
    if (cell_base[g] < 0) {
      // Fewer slices than cells: each coordinate that is covered has one
      // slice starting at 0.
      for (int t = 0; t < plan.num_tiles(); ++t)
        coords += plan.gemm_of_tile[static_cast<std::size_t>(t)] ==
                      static_cast<int>(g) &&
                  kb(t) == 0;
    }
    for (long long c = 0; cell_base[g] >= 0 && c < expected; ++c) {
      const auto cell = static_cast<std::size_t>(cell_base[g] + c);
      const auto first = by_cell.begin() + cell_start[cell];
      const auto last = by_cell.begin() + cell_start[cell + 1];
      if (first == last) continue;
      ++coords;
      std::sort(first, last, [&](int a, int b) {
        return std::pair(kb(a), ke(a)) < std::pair(kb(b), ke(b));
      });
      const long long ty = c / grid_x[g];
      const long long tx = c % grid_x[g];
      CTB_CHECK_MSG(kb(*first) == 0, "tile (" << ty << "," << tx
                                              << ") of GEMM " << g
                                              << " K coverage starts at "
                                              << kb(*first) << ", not 0");
      for (auto it = first + 1; it != last; ++it)
        CTB_CHECK_MSG(kb(*it) == ke(*(it - 1)),
                      "tile (" << ty << "," << tx << ") of GEMM " << g
                               << " K ranges "
                               << (kb(*it) < ke(*(it - 1)) ? "overlap"
                                                           : "leave a gap")
                               << " at k=" << kb(*it));
      CTB_CHECK_MSG(ke(*(last - 1)) == K,
                    "tile (" << ty << "," << tx << ") of GEMM " << g
                             << " K coverage ends at " << ke(*(last - 1))
                             << ", not K=" << K);
    }
    CTB_CHECK_MSG(coords == expected,
                  "GEMM " << g << " covered by " << coords
                          << " tile coordinates, expected " << expected);
  }
}

long long batch_flops(std::span<const GemmDims> dims) {
  long long total = 0;
  for (const GemmDims& d : dims)
    total += 2LL * d.m * d.n * d.k;
  return total;
}

std::string to_string(const BatchPlan& plan) {
  std::ostringstream os;
  os << "BatchPlan{blocks=" << plan.num_blocks()
     << ", tiles=" << plan.num_tiles() << ", T=" << plan.block_threads
     << ", smem=" << plan.smem_bytes << "B, regs=" << plan.regs_per_thread
     << "}\n";
  os << "  Tile:     ";
  for (int v : plan.tile_offsets) os << v << ' ';
  os << "\n  GEMM:     ";
  for (int v : plan.gemm_of_tile) os << v << ' ';
  os << "\n  Strategy: ";
  for (int v : plan.strategy_of_tile) os << v << ' ';
  os << "\n  Y_Coord:  ";
  for (int v : plan.y_coord) os << v << ' ';
  os << "\n  X_Coord:  ";
  for (int v : plan.x_coord) os << v << ' ';
  if (plan.has_split()) {
    os << "\n  K_Begin:  ";
    for (int v : plan.k_begin) os << v << ' ';
    os << "\n  K_End:    ";
    for (int v : plan.k_end) os << v << ' ';
  }
  if (plan.has_epilogue()) {
    os << "\n  Epilogue: ";
    for (int v : plan.epilogue_of_gemm)
      os << epilogue_to_string(v) << ' ';
  }
  os << '\n';
  return os.str();
}

}  // namespace ctb
