// ctb::service — resilient plan serving (DESIGN.md §10).
//
// The library's PlanCache is a single-threaded memoizer: perfect for one
// training loop, unusable as the front door for concurrent mixed-shape
// lookups. PlanService wraps it for serving:
//
//   * kShards caches, each behind its own mutex, safe under concurrent
//     parallel_for callers;
//   * inline planning: a miss plans on the caller's thread, and when the
//     full planner (auto-offline / RF) is down the threshold-only fallback
//     plan is served instead (state kDegraded) and upgraded in place by a
//     later hit once the planner answers again;
//   * retry with deterministic exponential backoff around transient planner
//     failures (PlanCache's strong exception guarantee means a failed
//     attempt leaves nothing behind), and quarantine of signatures whose
//     plans repeatedly fail, so one poisoned shape is served the fallback
//     plan instead of re-running a failing planner on every request;
//   * a virtual clock hook making every backoff reproducible in tests, and
//     failpoints (service/failpoint.hpp) at the planner and fallback
//     boundaries for chaos drills.
//
// Every plan handed out — hit, fresh, degraded, or upgraded — has passed
// validate_plan against its batch, and executes through the ordinary
// validate/audit/execute path, so served results are bit-exact with direct
// planning. State transitions are counted under the service.* telemetry
// taxonomy and mirrored in a per-service ServiceStats, which counts even
// while telemetry is disabled at runtime.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/api.hpp"
#include "core/plan_io.hpp"
#include "util/assert.hpp"

namespace ctb::service {

/// Thrown when the service cannot produce any valid plan for a batch: the
/// full planner failed after all retries (or the signature is quarantined)
/// AND fallback planning failed too (e.g. allocation failure during
/// degradation). Extends CheckError so
/// existing catch sites treat it as the typed, clean failure it is.
class PlanServiceError : public CheckError {
 public:
  using CheckError::CheckError;
};

/// Failed full-planning attempts are retried kMaxRetries times (so
/// kMaxRetries + 1 attempts per episode); the backoff before retry r
/// (1-based) is kBackoffBaseUs << (r - 1).
inline constexpr int kMaxRetries = 2;
inline constexpr std::int64_t kBackoffBaseUs = 100;
/// Consecutive failed full-planning episodes for one signature before it
/// is quarantined (served the fallback without invoking the full planner
/// again until release_quarantined()).
inline constexpr int kQuarantineThreshold = 3;
/// Cache shards, each behind its own mutex.
inline constexpr int kShards = 8;

/// Deterministic test clock for the retry backoff: the service advances it
/// instead of sleeping, so backoff is reproducible bit-for-bit. Thread-safe;
/// concurrent callers may back off at once.
class VirtualClock {
 public:
  std::int64_t now_us() const { return now_.load(std::memory_order_acquire); }
  void advance(std::int64_t us) {
    now_.fetch_add(us, std::memory_order_acq_rel);
  }

 private:
  std::atomic<std::int64_t> now_{0};
};

/// How a ServedPlan was produced (the service state machine's terminal
/// states; see DESIGN.md §10 for the full diagram).
enum class ServeState {
  kHit,          ///< cached full plan
  kPlanned,      ///< fresh full plan
  kDegraded,     ///< fallback plan (full planner down)
  kUpgraded,     ///< full plan that just replaced a degraded entry
  kQuarantined,  ///< fallback plan for a signature under quarantine
};

const char* to_string(ServeState state);

/// A served plan. The shared_ptr keeps the plan alive even if a concurrent
/// upgrade replaces the cache entry mid-execution.
struct ServedPlan {
  std::shared_ptr<const PlanSummary> summary;
  ServeState state = ServeState::kHit;

  /// Trace id of the request that produced this response (telemetry/trace
  /// .hpp): the id every span, histogram exemplar, and flight-recorder
  /// event emitted while serving carries. Callers executing the plan can
  /// re-install it (ScopedTraceContext) so execution joins the same trail.
  std::uint64_t trace_id = 0;

  /// True when this response carries the fallback plan, not the full one.
  bool degraded() const {
    return state == ServeState::kDegraded ||
           state == ServeState::kQuarantined;
  }
};

struct PlanServiceConfig {
  /// Configuration of the *full* planner. The fallback planner is derived
  /// from it via degraded_fallback_config (threshold-only, no forest).
  PlannerConfig planner;
  /// Must be 0 (inline planning, the only serving mode); the constructor
  /// throws CheckError for any other value.
  std::int64_t deadline_us = 0;
  /// Deterministic backoff clock for tests; nullptr = sleep on the real
  /// clock. Must outlive the service.
  VirtualClock* clock = nullptr;
  /// Test injection for the full planner (same contract as
  /// PlanCache::PlannerFn); the fallback planner is never replaced, so a
  /// degraded answer is always a genuinely planned one.
  PlanCache::PlannerFn planner_fn;
};

/// Per-service mirror of the service.* telemetry counters: it counts even
/// while telemetry is disabled at runtime, and one service's stats never
/// mix with another's, so tests and callers can observe its state machine.
struct ServiceStats {
  std::int64_t admitted = 0;     ///< responses served (any state)
  std::int64_t hits = 0;         ///< lookups that found a cache entry
  std::int64_t misses = 0;       ///< lookups that found nothing
  std::int64_t degraded = 0;     ///< responses carrying a fallback plan
  std::int64_t upgraded = 0;     ///< degraded entries replaced by full plans
  std::int64_t retried = 0;      ///< full-planning retry attempts
  std::int64_t quarantined = 0;  ///< signatures placed under quarantine
};

/// Sharded plan service. Thread-safe: any number of threads may call get()
/// concurrently. Construction and destruction are not concurrent with use
/// (ordinary object lifetime rules).
class PlanService {
 public:
  /// Throws CheckError when config.deadline_us is not 0.
  explicit PlanService(PlanServiceConfig config = {});

  PlanService(const PlanService&) = delete;
  PlanService& operator=(const PlanService&) = delete;

  /// Serves a plan for the batch. Always returns a plan that passed
  /// validate_plan against `dims`, or throws: CheckError on degenerate
  /// input (empty batch, invalid dims — caller errors, as in PlanCache),
  /// PlanServiceError when both the full planner and the fallback failed.
  ServedPlan get(std::span<const GemmDims> dims);

  /// Forwards to get(dims), ignoring `epilogues`: a plan carries no
  /// fused-epilogue chain (the operands do). perfbench's workloads still
  /// call this form; delete it once they call get(dims).
  ServedPlan get(std::span<const GemmDims> dims,
                 std::span<const int> epilogues);

  /// Drops all entries and metadata.
  void clear();

  /// Total cached entries across shards (degraded entries included).
  std::size_t size() const;

  ServiceStats stats() const;

  /// Whether the batch's signature is quarantined.
  bool is_quarantined(std::span<const GemmDims> dims) const;

  /// Lifts quarantine everywhere (operator action after a planner fix):
  /// quarantined signatures keep their fallback entries but become eligible
  /// for upgrade again. Returns how many signatures were released.
  std::size_t release_quarantined();

 private:
  /// Per-signature serving metadata, colocated with the shard's cache.
  struct Meta {
    bool degraded = false;
    bool quarantined = false;
    int failures = 0;  ///< consecutive failed full-planning episodes
  };

  struct Shard {
    mutable std::mutex mu;
    PlanCache cache;
    std::unordered_map<std::uint64_t, Meta> meta;
    explicit Shard(PlannerConfig config) : cache(std::move(config)) {}
  };

  Shard& shard_for(std::uint64_t sig) const {
    return *shards_[sig % shards_.size()];
  }

  void backoff(std::int64_t us);

  ServedPlan serve(std::uint64_t sig, std::span<const GemmDims> dims);
  ServedPlan admit_cold(std::uint64_t sig, std::span<const GemmDims> dims,
                        Shard& sh, bool quarantined);
  ServedPlan serve_fallback(std::uint64_t sig, std::span<const GemmDims> dims,
                            Shard& sh, ServeState state,
                            const std::string& why);
  ServedPlan upgrade_inline(std::uint64_t sig, std::span<const GemmDims> dims,
                            Shard& sh,
                            std::shared_ptr<const PlanSummary> fallback);
  ServedPlan count_degraded(std::shared_ptr<const PlanSummary> plan,
                            ServeState state);

  PlanSummary plan_full(std::span<const GemmDims> dims);
  PlanSummary plan_full_with_retries(std::span<const GemmDims> dims);
  std::shared_ptr<const PlanSummary> make_fallback(
      std::span<const GemmDims> dims);
  std::shared_ptr<const PlanSummary> install_full(std::uint64_t sig,
                                                  Shard& sh,
                                                  PlanSummary summary);

  void record_failure(std::uint64_t sig, Shard& sh);

  PlanServiceConfig config_;
  BatchedGemmPlanner full_planner_;
  BatchedGemmPlanner fallback_planner_;
  std::vector<std::unique_ptr<Shard>> shards_;

  struct AtomicStats {
    std::atomic<std::int64_t> admitted{0};
    std::atomic<std::int64_t> hits{0};
    std::atomic<std::int64_t> misses{0};
    std::atomic<std::int64_t> degraded{0};
    std::atomic<std::int64_t> upgraded{0};
    std::atomic<std::int64_t> retried{0};
    std::atomic<std::int64_t> quarantined{0};
  };
  mutable AtomicStats stats_;
};

}  // namespace ctb::service
