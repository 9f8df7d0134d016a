#include "core/batching_engine.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"
#include "util/assert.hpp"

namespace ctb {

const char* to_string(BatchingHeuristic h) {
  switch (h) {
    case BatchingHeuristic::kThreshold:
      return "threshold";
    case BatchingHeuristic::kBinary:
      return "binary";
    case BatchingHeuristic::kNone:
      return "none";
  }
  return "?";
}

BatchPlan batch_none(std::span<const Tile> tiles, int block_threads) {
  CTB_TEL_SPAN("plan.batch.none");
  std::vector<std::vector<Tile>> blocks;
  blocks.reserve(tiles.size());
  for (const Tile& t : tiles) blocks.push_back({t});
  return build_plan(blocks, block_threads);
}

BatchPlan uniform_plan(std::span<const GemmDims> dims,
                       const TilingStrategy& s) {
  CTB_CHECK_MSG(s.id >= 0, "strategy " << s.name()
                                       << " is not a Table-2 strategy");
  const std::vector<const TilingStrategy*> strategies(dims.size(), &s);
  return batch_none(enumerate_tiles(dims, strategies), s.threads);
}

BatchPlan batch_threshold(std::span<const Tile> tiles, int block_threads,
                          const BatchingConfig& config) {
  CTB_CHECK(config.theta > 0);
  CTB_TEL_SPAN("plan.batch.threshold");
  std::vector<std::vector<Tile>> blocks;
  std::size_t i = 0;
  while (i < tiles.size()) {
    const long long remaining =
        static_cast<long long>(tiles.size() - i) +
        static_cast<long long>(blocks.size());
    const long long tlp_now = remaining * block_threads;
    if (tlp_now > config.tlp_threshold / 2) {
      // Parallelism to spare: deepen this block along K until theta.
      std::vector<Tile> block;
      long long sum_k = 0;
      while (i < tiles.size() && sum_k <= config.theta) {
        block.push_back(tiles[i]);
        sum_k += tiles[i].k;
        ++i;
      }
      blocks.push_back(std::move(block));
    } else {
      // TLP is scarce: the rest go one tile per block.
      for (; i < tiles.size(); ++i) blocks.push_back({tiles[i]});
    }
  }
  return build_plan(blocks, block_threads);
}

BatchPlan batch_binary(std::span<const Tile> tiles, int block_threads,
                       const BatchingConfig& config) {
  CTB_CHECK(config.theta > 0);
  CTB_TEL_SPAN("plan.batch.binary");
  std::vector<Tile> sorted(tiles.begin(), tiles.end());
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Tile& a, const Tile& b) { return a.k < b.k; });
  std::vector<std::vector<Tile>> blocks;
  std::size_t lo = 0;
  std::size_t hi = sorted.size();
  while (lo < hi) {
    if (hi - lo == 1) {
      blocks.push_back({sorted[lo]});
      ++lo;
      break;
    }
    // Pair min-K with max-K so K_i + K_j clusters around theta (the greedy
    // solution of the paper's Eq. 5) — unless even the pair's K already
    // exceeds theta on the big tile alone and pairing would only serialize
    // two already-deep tiles.
    const Tile& small = sorted[lo];
    const Tile& big = sorted[hi - 1];
    if (big.k >= config.theta) {
      blocks.push_back({big});
      --hi;
      continue;
    }
    blocks.push_back({small, big});
    ++lo;
    --hi;
  }
  return build_plan(blocks, block_threads);
}

BatchPlan batch_tiles(BatchingHeuristic heuristic, std::span<const Tile> tiles,
                      int block_threads, const BatchingConfig& config) {
  switch (heuristic) {
    case BatchingHeuristic::kThreshold:
      return batch_threshold(tiles, block_threads, config);
    case BatchingHeuristic::kBinary:
      return batch_binary(tiles, block_threads, config);
    case BatchingHeuristic::kNone:
      return batch_none(tiles, block_threads);
  }
  CTB_CHECK_MSG(false, "unknown heuristic");
  return {};
}

}  // namespace ctb
