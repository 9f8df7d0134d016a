#include "core/api.hpp"

#include <algorithm>
#include <string>

#include "core/rf_policy.hpp"
#include "kernels/work_builder.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace ctb {

const char* to_string(BatchingPolicy policy) {
  switch (policy) {
    case BatchingPolicy::kThresholdOnly:
      return "threshold-only";
    case BatchingPolicy::kBinaryOnly:
      return "binary-only";
    case BatchingPolicy::kAutoOffline:
      return "auto-offline";
    case BatchingPolicy::kRandomForest:
      return "random-forest";
    case BatchingPolicy::kTilingOnly:
      return "tiling-only";
  }
  return "?";
}

const char* to_string(SplitKMode mode) {
  switch (mode) {
    case SplitKMode::kAuto:
      return "auto";
    case SplitKMode::kOff:
      return "off";
    case SplitKMode::kForce:
      return "force";
  }
  return "?";
}

long long default_tlp_threshold(const GpuArch& arch) {
  // 0.4 * thread capacity; equals the paper's 65536 on the V100 preset
  // (0.4 * 80 SMs * 2048 threads).
  return static_cast<long long>(0.4 * arch.sm_count *
                                arch.max_threads_per_sm);
}

int default_theta(const GpuArch& arch) {
  (void)arch;  // 256 worked across every architecture the paper evaluated
  return 256;
}

namespace {

/// Planner counters of the plan that BatchedGemmPlanner::plan returns: its
/// batching heuristic and the shape of its blocks, once per plan rather
/// than once per candidate the planner built.
void count_plan(const PlanSummary& summary, std::span<const GemmDims> dims) {
  if (!telemetry::enabled()) return;
  switch (summary.heuristic) {
    case BatchingHeuristic::kThreshold:
      CTB_TEL_COUNT("plan.heuristic.threshold", 1);
      break;
    case BatchingHeuristic::kBinary:
      CTB_TEL_COUNT("plan.heuristic.binary", 1);
      break;
    case BatchingHeuristic::kNone:
      CTB_TEL_COUNT("plan.heuristic.none", 1);
      break;
  }
  const BatchPlan& plan = summary.plan;
  for (int b = 0; b < plan.num_blocks(); ++b) {
    const auto [begin, end] = plan.block_tiles(b);
    long long sum_k = 0;
    for (int t = begin; t < end; ++t) {
      const int g = plan.gemm_of_tile[static_cast<std::size_t>(t)];
      const auto [kb, ke] =
          plan.tile_k_range(t, dims[static_cast<std::size_t>(g)].k);
      sum_k += ke - kb;
    }
    CTB_TEL_HIST("batching.tiles_per_block", end - begin);
    CTB_TEL_HIST("batching.sum_k_per_block", sum_k);
  }
}

}  // namespace

PlannerConfig degraded_fallback_config(const PlannerConfig& config) {
  PlannerConfig fallback = config;
  fallback.policy = BatchingPolicy::kThresholdOnly;
  fallback.forest = nullptr;
  // Split-K candidates need a simulator sweep per slice count; the fallback
  // keeps to the one linear batching pass.
  fallback.splitk = SplitKMode::kOff;
  return fallback;
}

BatchedGemmPlanner::BatchedGemmPlanner(PlannerConfig config)
    : config_(config), arch_(gpu_arch(config.gpu)) {
  if (config_.tlp_threshold <= 0)
    config_.tlp_threshold = default_tlp_threshold(arch_);
  if (config_.theta <= 0) config_.theta = default_theta(arch_);
  if (config_.policy == BatchingPolicy::kRandomForest)
    CTB_CHECK_MSG(config_.forest != nullptr && config_.forest->trained(),
                  "random-forest policy requires a trained forest");
}

PlanSummary BatchedGemmPlanner::plan(std::span<const GemmDims> dims) const {
  CTB_CHECK_MSG(!dims.empty(), "empty batch");
  CTB_TEL_SPAN("plan.total");
  if (telemetry::enabled()) {
    // Dynamic name, so no site cache — planning is never the hot path.
    const std::string name =
        std::string("plan.policy.") + to_string(config_.policy);
    telemetry::counter(name.c_str()).add(1);
  }
  PlanSummary summary;

  TilingConfig tiling_config;
  tiling_config.tlp_threshold = config_.tlp_threshold;
  summary.tiling = select_tiling(dims, tiling_config);

  const std::vector<Tile> tiles =
      enumerate_tiles(dims, summary.tiling.per_gemm);
  const int threads = static_cast<int>(summary.tiling.variant);

  BatchingConfig batching_config;
  batching_config.theta = config_.theta;
  batching_config.tlp_threshold = config_.tlp_threshold;

  switch (config_.policy) {
    case BatchingPolicy::kTilingOnly:
      summary.heuristic = BatchingHeuristic::kNone;
      break;
    case BatchingPolicy::kThresholdOnly:
      summary.heuristic = BatchingHeuristic::kThreshold;
      break;
    case BatchingPolicy::kBinaryOnly:
      summary.heuristic = BatchingHeuristic::kBinary;
      break;
    case BatchingPolicy::kRandomForest:
      summary.heuristic = rf_choose(*config_.forest, dims);
      break;
    case BatchingPolicy::kAutoOffline:
      plan_auto_offline(summary, dims, tiles, threads, batching_config);
      count_plan(summary, dims);
      return summary;
  }
  summary.plan = batch_tiles(summary.heuristic, tiles, threads,
                             batching_config);
  consider_splitk(summary, tiles, threads, batching_config, dims);
  CTB_TEL_FLIGHT(kPlanDecision, to_string(summary.heuristic),
                 summary.plan.num_blocks(), summary.plan.num_tiles());
  count_plan(summary, dims);
  return summary;
}

void BatchedGemmPlanner::plan_auto_offline(
    PlanSummary& summary, std::span<const GemmDims> dims,
    std::span<const Tile> tiles, int threads,
    const BatchingConfig& batching_config) const {
  // Fixed-shape workloads (e.g. DNN training steps) can afford to time
  // candidate plans once and keep the fastest (paper Section 5 tries the two
  // heuristics). A plan's launch footprint is its largest strategy's, so one
  // tile per block and the uniform vbatch tile can beat both.
  CTB_TEL_SPAN("plan.auto_offline");
  const auto timed = [&](const BatchPlan& p) {
    return time_plan(arch_, p, dims, config_.precision).time_us;
  };
  // Identical aux arrays time identically, so no candidate equal to a plan
  // already timed is simulated again.
  const BatchPlan thr = batch_threshold(tiles, threads, batching_config);
  const BatchPlan bin = batch_binary(tiles, threads, batching_config);
  const double t_thr = timed(thr);
  const double t_bin = bin == thr ? t_thr : timed(bin);
  const bool thr_wins = t_thr <= t_bin;
  summary.heuristic =
      thr_wins ? BatchingHeuristic::kThreshold : BatchingHeuristic::kBinary;
  summary.plan = thr_wins ? thr : bin;
  double best_us = consider_splitk(summary, tiles, threads, batching_config,
                                   dims, thr_wins ? t_thr : t_bin);

  enum { kHeuristic, kNoneWins, kUniformWins } winner = kHeuristic;
  double t_none = -1.0, t_uniform = -1.0;
  // Forced split-K asks for a split plan; these candidates never split.
  if (config_.splitk != SplitKMode::kForce) {
    BatchPlan none = batch_none(tiles, threads);
    const TilingStrategy& u = magma_uniform_strategy(dims);
    BatchPlan uniform = uniform_plan(dims, u);
    const bool none_new = none != thr && none != bin;
    const bool uniform_new =
        uniform != thr && uniform != bin && uniform != none;
    if (none_new) t_none = timed(none);
    if (uniform_new) t_uniform = timed(uniform);
    // Only a strictly faster candidate replaces the heuristic's plan, so no
    // batch plans slower than the threshold/binary winner with its split-K
    // decision.
    if (none_new && t_none < best_us) {
      best_us = t_none;
      winner = kNoneWins;
      summary.heuristic = BatchingHeuristic::kNone;
      summary.plan = std::move(none);
    }
    if (uniform_new && t_uniform < best_us) {
      best_us = t_uniform;
      winner = kUniformWins;
      summary.heuristic = BatchingHeuristic::kNone;
      summary.plan = std::move(uniform);
      summary.tiling.per_gemm.assign(dims.size(), &u);
      summary.tiling.variant = static_cast<ThreadVariant>(u.threads);
      summary.tiling.tlp = batch_tlp(dims, summary.tiling.per_gemm);
    }
  }
  switch (winner) {
    case kHeuristic:
      if (thr_wins)
        CTB_TEL_COUNT("plan.auto.threshold_wins", 1);
      else
        CTB_TEL_COUNT("plan.auto.binary_wins", 1);
      break;
    case kNoneWins:
      CTB_TEL_COUNT("plan.auto.none_wins", 1);
      break;
    case kUniformWins:
      CTB_TEL_COUNT("plan.auto.uniform_wins", 1);
      break;
  }
  const char* decision =
      winner == kUniformWins ? "uniform" : to_string(summary.heuristic);
  CTB_DEBUG("auto-offline: threshold=" << t_thr << "us binary=" << t_bin
                                       << "us none=" << t_none
                                       << "us uniform=" << t_uniform
                                       << "us -> " << decision << " ("
                                       << best_us << "us)");
  CTB_TEL_FLIGHT(kPlanDecision, decision, summary.plan.num_blocks(),
                 summary.plan.num_tiles());
}

PlanSummary BatchedGemmPlanner::plan(std::span<const GemmDims> dims,
                                     std::span<const int> epilogues) const {
  epilogues = normalize_epilogues(epilogues, dims.size());
  PlanSummary summary = plan(dims);
  if (!epilogues.empty())
    summary.plan.epilogue_of_gemm.assign(epilogues.begin(), epilogues.end());
  return summary;
}

/// Upper bound on K slices per tile: split-K candidates sweep powers of two
/// (2, 4, ..., kMaxSplitK).
constexpr int kMaxSplitK = 8;

double BatchedGemmPlanner::consider_splitk(
    PlanSummary& summary, std::span<const Tile> tiles, int threads,
    const BatchingConfig& batching_config, std::span<const GemmDims> dims,
    double plan_us) const {
  if (config_.splitk == SplitKMode::kOff) return plan_us;
  // TLP-scarcity trigger: a plan already launching at least half the TLP
  // threshold's worth of threads fills the machine, so extra split-K blocks
  // would only add the slices' workspace traffic. Mirrors the batching
  // engine's own "merge only while TLP exceeds half the threshold" guard.
  const long long launched =
      static_cast<long long>(summary.plan.num_blocks()) *
      summary.plan.block_threads;
  if (config_.splitk == SplitKMode::kAuto &&
      launched >= config_.tlp_threshold / 2)
    return plan_us;
  CTB_TEL_SPAN("plan.splitk.consider");
  const double unsplit_us =
      plan_us >= 0.0
          ? plan_us
          : time_plan(arch_, summary.plan, dims, config_.precision).time_us;
  BatchPlan best_split;
  double best_split_us = 0.0;
  std::size_t last_size = tiles.size();
  for (int slices = 2; slices <= kMaxSplitK; slices *= 2) {
    const std::vector<Tile> split = split_tiles_k(tiles, slices);
    // Sizes stop growing once every tile is down to one BK step per slice;
    // nothing new to evaluate past that point.
    if (split.size() == last_size) break;
    last_size = split.size();
    BatchPlan candidate =
        batch_tiles(summary.heuristic, split, threads, batching_config);
    CTB_TEL_COUNT("plan.splitk.considered", 1);
    const double t =
        time_plan(arch_, candidate, dims, config_.precision).time_us;
    if (best_split.num_tiles() == 0 || t < best_split_us) {
      best_split = std::move(candidate);
      best_split_us = t;
    }
  }
  if (best_split.num_tiles() == 0)  // K loops too short to split
    return unsplit_us;
  if (config_.splitk != SplitKMode::kForce && best_split_us >= unsplit_us) {
    CTB_TEL_FLIGHT(kSplitK, "rejected", best_split.num_tiles(),
                   summary.plan.num_tiles());
    return unsplit_us;
  }
  CTB_TEL_COUNT("plan.splitk.chosen", 1);
  CTB_TEL_FLIGHT(kSplitK, "chosen", best_split.num_tiles(),
                 summary.plan.num_tiles());
  CTB_DEBUG("split-K: unsplit=" << unsplit_us << "us split=" << best_split_us
                                << "us (" << best_split.num_tiles()
                                << " tiles) -> split");
  summary.plan = std::move(best_split);
  return best_split_us;
}

TimedResult time_plan(const GpuArch& arch, const BatchPlan& plan,
                      std::span<const GemmDims> dims, Precision precision) {
  TimedResult result;
  const KernelWork work = work_from_plan(plan, dims, precision);
  result.sim = simulate_kernel(arch, work);
  result.time_us = result.sim.makespan_us + arch.kernel_launch_us;
  return result;
}

BatchedGemmResult batched_gemm(std::span<const Matrixf* const> a,
                               std::span<const Matrixf* const> b,
                               std::span<Matrixf* const> c, float alpha,
                               float beta, const PlannerConfig& config) {
  CTB_CHECK_MSG(a.size() == b.size() && b.size() == c.size(),
                "operand array sizes differ");
  std::vector<GemmEntry> entries(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    entries[i].a = a[i];
    entries[i].b = b[i];
    entries[i].c = c[i];
  }
  return batched_gemm(entries, alpha, beta, config);
}

BatchedGemmResult batched_gemm(std::span<const GemmEntry> entries,
                               float alpha, float beta,
                               const PlannerConfig& config) {
  CTB_CHECK_MSG(!entries.empty(), "empty batch");

  std::vector<GemmDims> dims(entries.size());
  std::vector<GemmOperands> ops(entries.size());
  std::vector<int> epilogues(entries.size(), 0);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const GemmEntry& e = entries[i];
    CTB_CHECK_MSG(e.a != nullptr && e.b != nullptr && e.c != nullptr,
                  "GEMM " << i << " has a null operand matrix");
    ops[i] = operands(*e.a, *e.b, *e.c, e.op_a, e.op_b);
    ops[i].precision = config.precision;
    ops[i].epilogue = e.epilogue;
    ops[i].epilogue_args = e.epilogue_args;
    epilogues[i] = e.epilogue;
    dims[i] = ops[i].dims;
    CTB_CHECK_MSG(dims[i].valid(), "GEMM " << i << " has degenerate dims "
                                           << dims[i].m << 'x' << dims[i].n
                                           << 'x' << dims[i].k);
  }

  const BatchedGemmPlanner planner(config);
  BatchedGemmResult result;
  result.summary = planner.plan(dims, epilogues);
  execute_plan(result.summary.plan, ops, alpha, beta);
  result.timing = time_plan(planner.arch(), result.summary.plan, dims,
                            config.precision);
  return result;
}

}  // namespace ctb
