#include "core/plan_io.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <utility>

#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "util/assert.hpp"

namespace ctb {

namespace {
// v1 carries the five aux arrays of Fig. 6; v2 appends the split-K K-range
// pair; v3 appends the per-GEMM epilogue array (and always carries the
// K-range pair, possibly empty, so the array order is fixed). Plans without
// the optional arrays are still written in the oldest format that can
// express them, so their serialized form is byte-identical to every
// earlier release.
constexpr const char* kMagicV1 = "ctb-batchplan-v1";
constexpr const char* kMagicV2 = "ctb-batchplan-v2";
constexpr const char* kMagicV3 = "ctb-batchplan-v3";
constexpr const char* kMagicPrefix = "ctb-batchplan-";
// Cap on declared element counts, applied before any allocation: a plan
// with 2^26 tiles would be hundreds of MiB of text, far beyond any real
// batch, so larger declarations are adversarial by construction.
constexpr long long kMaxPlanElems = 1LL << 26;

long long read_int64(std::istream& is, const std::string& where,
                     long long lo, long long hi) {
  long long v = 0;
  if (!(is >> v)) throw PlanIoError("expected an integer", where);
  if (v < lo || v > hi)
    throw PlanIoError("value " + std::to_string(v) + " outside [" +
                          std::to_string(lo) + ", " + std::to_string(hi) +
                          "]",
                      where);
  return v;
}

void write_array(std::ostream& os, const char* name,
                 const std::vector<int>& v) {
  os << name << ' ' << v.size();
  for (int x : v) os << ' ' << x;
  os << '\n';
}

std::vector<int> read_array(std::istream& is, const char* name) {
  std::string tag;
  if (!(is >> tag) || tag != name)
    throw PlanIoError("expected array '" + std::string(name) + "'",
                      tag.empty() ? std::string("array header")
                                  : "array header '" + tag + "'");
  const long long count =
      read_int64(is, std::string(name) + " count", 0, kMaxPlanElems);
  std::vector<int> v(static_cast<std::size_t>(count));
  for (long long i = 0; i < count; ++i) {
    v[static_cast<std::size_t>(i)] = static_cast<int>(read_int64(
        is, std::string(name) + "[" + std::to_string(i) + "]",
        std::numeric_limits<int>::min(), std::numeric_limits<int>::max()));
  }
  return v;
}
}  // namespace

void save_plan(std::ostream& os, const BatchPlan& plan) {
  const char* magic = plan.has_epilogue() ? kMagicV3
                      : plan.has_split()  ? kMagicV2
                                          : kMagicV1;
  os << magic << '\n';
  os << plan.block_threads << ' ' << plan.smem_bytes << ' '
     << plan.regs_per_thread << '\n';
  write_array(os, "tile", plan.tile_offsets);
  write_array(os, "gemm", plan.gemm_of_tile);
  write_array(os, "strategy", plan.strategy_of_tile);
  write_array(os, "y", plan.y_coord);
  write_array(os, "x", plan.x_coord);
  if (plan.has_split() || plan.has_epilogue()) {
    write_array(os, "kbegin", plan.k_begin);
    write_array(os, "kend", plan.k_end);
  }
  if (plan.has_epilogue()) write_array(os, "epilogue", plan.epilogue_of_gemm);
}

BatchPlan load_plan(std::istream& is) {
  std::string magic;
  if (!(is >> magic)) throw PlanIoError("empty stream", "header");
  if (magic != kMagicV1 && magic != kMagicV2 && magic != kMagicV3) {
    if (magic.rfind(kMagicPrefix, 0) == 0)
      throw PlanIoError("unsupported plan version '" + magic + "'",
                        "header");
    throw PlanIoError("not a ctb plan stream", "header");
  }
  BatchPlan plan;
  plan.block_threads =
      static_cast<int>(read_int64(is, "block_threads", 1, 4096));
  plan.smem_bytes =
      static_cast<int>(read_int64(is, "smem_bytes", 0, 1LL << 26));
  plan.regs_per_thread =
      static_cast<int>(read_int64(is, "regs_per_thread", 0, 4096));
  plan.tile_offsets = read_array(is, "tile");
  plan.gemm_of_tile = read_array(is, "gemm");
  plan.strategy_of_tile = read_array(is, "strategy");
  plan.y_coord = read_array(is, "y");
  plan.x_coord = read_array(is, "x");
  if (magic == kMagicV2 || magic == kMagicV3) {
    plan.k_begin = read_array(is, "kbegin");
    plan.k_end = read_array(is, "kend");
    if (magic == kMagicV2 && plan.k_begin.empty())
      throw PlanIoError("v2 plan without K ranges", "kbegin");
  }
  if (magic == kMagicV3) {
    plan.epilogue_of_gemm = read_array(is, "epilogue");
    if (plan.epilogue_of_gemm.empty())
      throw PlanIoError("v3 plan without epilogues", "epilogue");
  }
  std::string rest;
  if (is >> rest)
    throw PlanIoError("trailing garbage '" + rest + "'", "end of stream");
  try {
    validate_plan_structure(plan);
  } catch (const CheckError& e) {
    throw PlanIoError(e.what(), "structural validation");
  }
  return plan;
}

std::uint64_t batch_signature(std::span<const GemmDims> dims,
                              const PlannerConfig& config) {
  return batch_signature(dims, config, {});
}

std::uint64_t batch_signature(std::span<const GemmDims> dims,
                              const PlannerConfig& config,
                              std::span<const int> epilogues) {
  // FNV-1a over the shape stream plus the planning knobs.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(static_cast<std::uint64_t>(config.gpu));
  mix(static_cast<std::uint64_t>(config.policy));
  mix(static_cast<std::uint64_t>(config.tlp_threshold));
  mix(static_cast<std::uint64_t>(config.theta));
  mix(static_cast<std::uint64_t>(config.splitk));
  for (const auto& d : dims) {
    mix(static_cast<std::uint64_t>(d.m));
    mix(static_cast<std::uint64_t>(d.n));
    mix(static_cast<std::uint64_t>(d.k));
  }
  // Epilogue chains change what the plan executes, so they are part of the
  // reuse key. An all-zero stream IS the plain batch and must hash like one
  // (every entry point normalizes the same way); for a real chain the count
  // is mixed first so an empty epilogue stream stays distinguishable from
  // shapes that happen to collide with spec values.
  bool any_epilogue = false;
  for (int e : epilogues) any_epilogue = any_epilogue || e != 0;
  if (any_epilogue) {
    mix(static_cast<std::uint64_t>(epilogues.size()));
    for (int e : epilogues) mix(static_cast<std::uint64_t>(e));
  }
  return h;
}

PlanCache::PlanCache(PlannerConfig config) : planner_(config) {}

PlanCache::PlanCache(PlannerConfig config, PlannerFn planner_fn)
    : planner_(config), planner_fn_(std::move(planner_fn)) {}

void PlanCache::clear() {
  CTB_TEL_COUNT("cache.evict", cache_.size());
  cache_.clear();
}

const PlanSummary& PlanCache::plan(std::span<const GemmDims> dims) {
  return plan(dims, {});
}

const PlanSummary& PlanCache::plan(std::span<const GemmDims> dims,
                                   std::span<const int> epilogues) {
  CTB_CHECK_MSG(!dims.empty(), "cannot plan an empty batch");
  for (std::size_t i = 0; i < dims.size(); ++i)
    CTB_CHECK_MSG(dims[i].valid(), "GEMM " << i << " has degenerate dims "
                                           << dims[i].m << 'x' << dims[i].n
                                           << 'x' << dims[i].k);
  epilogues = normalize_epilogues(epilogues, dims.size());
  const std::uint64_t key =
      batch_signature(dims, planner_.config(), epilogues);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++hits_;
    CTB_TEL_COUNT("cache.hit", 1);
    CTB_TEL_FLIGHT(kCacheHit, "plan", static_cast<std::int64_t>(key),
                   static_cast<std::int64_t>(dims.size()));
    return *it->second;
  }
  // Plan and validate completely before touching the cache or the counters:
  // a planner that throws (or emits a plan that fails validation) must not
  // leave a poisoned entry behind, so the same batch can be retried.
  CTB_TEL_SPAN("cache.plan_miss");
  PlanSummary summary =
      planner_fn_ ? planner_fn_(dims) : planner_.plan(dims);
  // Epilogues ride along as a per-GEMM aux array: batching and split-K
  // decisions are epilogue-independent, so an injected test planner's
  // result gains them the same way the real planner's does.
  if (!epilogues.empty())
    summary.plan.epilogue_of_gemm.assign(epilogues.begin(), epilogues.end());
  validate_plan(summary.plan, dims);
  ++misses_;
  CTB_TEL_COUNT("cache.miss", 1);
  CTB_TEL_FLIGHT(kCacheMiss, "plan", static_cast<std::int64_t>(key),
                 static_cast<std::int64_t>(dims.size()));
  return *cache_
              .emplace(key,
                       std::make_shared<const PlanSummary>(std::move(summary)))
              .first->second;
}

std::shared_ptr<const PlanSummary> PlanCache::lookup(std::uint64_t signature) {
  auto it = cache_.find(signature);
  if (it == cache_.end()) {
    ++misses_;
    CTB_TEL_COUNT("cache.miss", 1);
    CTB_TEL_FLIGHT(kCacheMiss, "lookup",
                   static_cast<std::int64_t>(signature), 0);
    return nullptr;
  }
  ++hits_;
  CTB_TEL_COUNT("cache.hit", 1);
  CTB_TEL_FLIGHT(kCacheHit, "lookup", static_cast<std::int64_t>(signature),
                 0);
  return it->second;
}

std::shared_ptr<const PlanSummary> PlanCache::peek(
    std::uint64_t signature) const {
  auto it = cache_.find(signature);
  return it == cache_.end() ? nullptr : it->second;
}

std::shared_ptr<const PlanSummary> PlanCache::upsert(std::uint64_t signature,
                                                     PlanSummary summary) {
  auto stored = std::make_shared<const PlanSummary>(std::move(summary));
  cache_.insert_or_assign(signature, stored);
  return stored;
}

}  // namespace ctb
