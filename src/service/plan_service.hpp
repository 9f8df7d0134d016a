// ctb::service — resilient, deadline-bounded plan serving (DESIGN.md §10).
//
// The library's PlanCache is a single-threaded memoizer: perfect for one
// training loop, unusable as the front door for millions of mixed-shape
// lookups. PlanService wraps it for serving:
//
//   * N-way sharded caches (per-shard mutex) safe under concurrent
//     parallel_for callers, fronted by a cheap lock-free membership filter
//     that lets definite misses skip the shard lock entirely;
//   * deadline-bounded lookup: when the full planner (auto-offline / RF)
//     cannot answer within the request deadline, the instantly-computable
//     threshold-only fallback plan is served *now* (state kDegraded) and a
//     background worker upgrades the cache entry when real planning lands;
//   * retry with deterministic exponential backoff around transient planner
//     failures (PlanCache's strong exception guarantee means a failed
//     attempt leaves nothing behind), and quarantine of signatures whose
//     plans repeatedly fail validate_plan, so one poisoned shape degrades
//     to the fallback plan instead of wedging the service;
//   * a virtual clock hook making every timeout/backoff decision
//     reproducible in tests, and failpoints (service/failpoint.hpp) at the
//     planner and fallback boundaries for chaos drills.
//
// Every plan handed out — hit, fresh, degraded, or upgraded — has passed
// validate_plan against its batch, and executes through the ordinary
// validate/audit/execute path, so served results are bit-exact with direct
// planning. State transitions are counted under the service.* telemetry
// taxonomy and mirrored in an always-on ServiceStats (available even when
// telemetry is compiled out).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/api.hpp"
#include "core/plan_io.hpp"
#include "util/assert.hpp"

namespace ctb::service {

/// Thrown when the service cannot produce any valid plan for a batch: the
/// full planner failed after all retries AND fallback planning failed too
/// (e.g. allocation failure during degradation). Extends CheckError so
/// existing catch sites treat it as the typed, clean failure it is.
class PlanServiceError : public CheckError {
 public:
  enum class Kind {
    kPlannerFailed,   ///< full planner exhausted its retry budget
    kFallbackFailed,  ///< the instant fallback path failed as well
  };

  PlanServiceError(Kind kind, const std::string& what)
      : CheckError(what), kind_(kind) {}

  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

/// Deterministic test clock: time only moves when a test (or a delay
/// failpoint) advances it, so deadline-miss and backoff decisions are
/// reproducible bit-for-bit. Thread-safe; the service's worker thread reads
/// it concurrently with the test advancing it.
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
  kPlanned,      ///< fresh full plan, computed within the deadline
  kDegraded,     ///< instant fallback plan (deadline missed or planner down)
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
  /// 0 when telemetry is compiled out.
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
  /// Cache shards. <= 0 means "from the CTB_PLAN_SHARDS env var, default
  /// 8"; always clamped to [1, 256].
  int shards = 0;
  /// Request deadline in microseconds. 0 disables the deadline machinery
  /// entirely (fully inline planning, no worker thread — deterministic, the
  /// replay bench uses this). < 0 means "from CTB_PLAN_DEADLINE_US,
  /// default 0".
  std::int64_t deadline_us = -1;
  /// Retries after a failed full-planning attempt (so max_retries + 1
  /// attempts total), with exponential backoff between attempts.
  int max_retries = 2;
  /// Backoff before retry r (1-based) is backoff_base_us << (r - 1),
  /// advanced on the virtual clock when one is installed, slept (capped)
  /// otherwise.
  std::int64_t backoff_base_us = 100;
  /// Consecutive failed full-planning episodes for one signature before it
  /// is quarantined (served the fallback without invoking the full planner
  /// again until release_quarantined()).
  int quarantine_threshold = 3;
  /// Membership filter size in bits (rounded up to a multiple of 64).
  std::size_t filter_bits = std::size_t{1} << 16;
  /// Deterministic clock for tests; nullptr = std::chrono::steady_clock.
  /// Must outlive the service.
  VirtualClock* clock = nullptr;
  /// Test injection for the full planner (same contract as
  /// PlanCache::PlannerFn); the fallback planner is never replaced, so a
  /// degraded answer is always a genuinely planned one.
  PlanCache::PlannerFn planner_fn;
};

/// Always-on mirror of the service.* telemetry counters, so tests and
/// callers can observe the state machine even under -DCTB_TELEMETRY=OFF.
struct ServiceStats {
  std::int64_t admitted = 0;         ///< responses served (any state)
  std::int64_t hits = 0;             ///< lookups that found a cache entry
  std::int64_t misses = 0;           ///< lookups that found nothing
  std::int64_t filter_rejects = 0;   ///< misses decided by the filter alone
  std::int64_t degraded = 0;         ///< responses carrying a fallback plan
  std::int64_t upgraded = 0;         ///< degraded entries replaced by full plans
  std::int64_t retried = 0;          ///< full-planning retry attempts
  std::int64_t quarantined = 0;      ///< signatures placed under quarantine
  std::int64_t deadline_misses = 0;  ///< lookups whose deadline expired
};

/// Sharded, deadline-bounded plan service. Thread-safe: any number of
/// threads may call get() concurrently. Construction and destruction are
/// not concurrent with use (ordinary object lifetime rules).
class PlanService {
 public:
  explicit PlanService(PlanServiceConfig config = {});
  ~PlanService();

  PlanService(const PlanService&) = delete;
  PlanService& operator=(const PlanService&) = delete;

  /// Serves a plan for the batch. Always returns a plan that passed
  /// validate_plan against `dims`, or throws: CheckError on degenerate
  /// input (empty batch, invalid dims — caller errors, as in PlanCache),
  /// PlanServiceError when both the full planner and the fallback failed.
  ServedPlan get(std::span<const GemmDims> dims);

  /// Like get(dims) but every served plan — hit, fresh, degraded, or
  /// upgraded — carries the per-GEMM fused-epilogue specs (parallel to
  /// `dims`; empty or all-zero means none and serves identically to the
  /// plain form). Epilogues are part of the signature, so the same shapes
  /// with different chains are distinct cache entries, and a degraded
  /// fallback plan carries the chain too: fused execution never silently
  /// drops an epilogue on the degraded path.
  ServedPlan get(std::span<const GemmDims> dims,
                 std::span<const int> epilogues);

  /// Blocks until every queued background planning job has completed.
  void drain();

  /// Drops all entries, metadata, and filter bits. In-flight background
  /// jobs from before the clear complete but no longer write to the cache.
  void clear();

  /// Total cached entries across shards (degraded entries included).
  std::size_t size() const;

  ServiceStats stats() const;

  /// Whether the batch's signature — shapes plus epilogue stream, hashed
  /// exactly as get() hashes them — is quarantined.
  bool is_quarantined(std::span<const GemmDims> dims,
                      std::span<const int> epilogues = {}) const;

  /// Lifts quarantine everywhere (operator action after a planner fix):
  /// quarantined signatures keep their fallback entries but become eligible
  /// for upgrade again. Returns how many signatures were released.
  std::size_t release_quarantined();

  std::int64_t deadline_us() const { return deadline_us_; }
  int shard_count() const { return static_cast<int>(shards_.size()); }

 private:
  /// Completion state shared between a queued job and the requesters
  /// waiting on it (concurrent misses on one signature join one job).
  struct JobState {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool ok = false;
    std::string error;
    std::shared_ptr<const PlanSummary> result;
  };

  /// Per-signature serving metadata, colocated with the shard's cache.
  struct Meta {
    bool degraded = false;
    bool quarantined = false;
    int failures = 0;  ///< consecutive failed full-planning episodes
    std::shared_ptr<JobState> inflight;
  };

  struct Shard {
    mutable std::mutex mu;
    PlanCache cache;
    std::unordered_map<std::uint64_t, Meta> meta;
    explicit Shard(PlannerConfig config) : cache(std::move(config)) {}
  };

  struct Job {
    std::uint64_t sig = 0;
    std::vector<GemmDims> dims;
    std::vector<int> epilogues;  ///< per-GEMM specs; empty = none
    std::int64_t deadline_point = -1;  ///< < 0: pure upgrade, no deadline
    std::uint64_t epoch = 0;
    std::uint64_t trace = 0;  ///< requesting trace; worker adopts it
    std::shared_ptr<JobState> state;
  };

  Shard& shard_for(std::uint64_t sig) const {
    return *shards_[sig % shards_.size()];
  }

  std::int64_t clock_now() const;
  void backoff(std::int64_t us);

  bool filter_may_contain(std::uint64_t sig) const;
  void filter_insert(std::uint64_t sig);
  void filter_reset();

  // Every serving step carries the batch's epilogue stream alongside its
  // dims (empty span = none) so degraded and upgraded plans both keep it.
  ServedPlan serve(std::uint64_t sig, std::span<const GemmDims> dims,
                   std::span<const int> epilogues);
  ServedPlan admit_cold(std::uint64_t sig, std::span<const GemmDims> dims,
                        std::span<const int> epilogues, Shard& sh);
  ServedPlan degrade_cold(std::uint64_t sig, std::span<const GemmDims> dims,
                          std::span<const int> epilogues, Shard& sh,
                          const std::string& planner_error);
  ServedPlan upgrade_inline(std::uint64_t sig, std::span<const GemmDims> dims,
                            std::span<const int> epilogues, Shard& sh,
                            std::shared_ptr<const PlanSummary> fallback);

  PlanSummary plan_full(std::span<const GemmDims> dims,
                        std::span<const int> epilogues);
  PlanSummary plan_full_with_retries(std::span<const GemmDims> dims,
                                     std::span<const int> epilogues);
  std::shared_ptr<const PlanSummary> make_fallback(
      std::span<const GemmDims> dims, std::span<const int> epilogues);

  void record_failure(std::uint64_t sig, Shard& sh);
  void note_upgrade();

  std::shared_ptr<JobState> enqueue_job(std::uint64_t sig,
                                        std::span<const GemmDims> dims,
                                        std::span<const int> epilogues,
                                        Shard& sh,
                                        std::int64_t deadline_point);
  void wait_for_job(JobState& job, std::int64_t deadline_point);
  void start_worker();
  void worker_loop();
  void process_job(Job& job);

  PlanServiceConfig config_;
  std::int64_t deadline_us_ = 0;
  BatchedGemmPlanner full_planner_;
  BatchedGemmPlanner fallback_planner_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::atomic<std::uint64_t>> filter_;
  std::atomic<std::uint64_t> epoch_{0};

  // Background upgrade worker (started lazily; only when deadline_us_ > 0).
  std::mutex jobs_mu_;
  std::condition_variable jobs_cv_;
  std::condition_variable drain_cv_;
  std::deque<Job> jobs_;
  int active_jobs_ = 0;
  bool stop_ = false;
  bool worker_started_ = false;
  std::thread worker_;

  struct AtomicStats {
    std::atomic<std::int64_t> admitted{0};
    std::atomic<std::int64_t> hits{0};
    std::atomic<std::int64_t> misses{0};
    std::atomic<std::int64_t> filter_rejects{0};
    std::atomic<std::int64_t> degraded{0};
    std::atomic<std::int64_t> upgraded{0};
    std::atomic<std::int64_t> retried{0};
    std::atomic<std::int64_t> quarantined{0};
    std::atomic<std::int64_t> deadline_misses{0};
  };
  mutable AtomicStats stats_;
};

}  // namespace ctb::service
