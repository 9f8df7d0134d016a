#include "service/plan_service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <new>
#include <string>
#include <utility>

#include "service/failpoint.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace ctb::service {

namespace {

std::int64_t env_int64(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0' || parsed < 0) return fallback;
  return parsed;
}

std::int64_t steady_now_us() {
  using namespace std::chrono;
  return duration_cast<microseconds>(
             steady_clock::now().time_since_epoch())
      .count();
}

// Second, independent hash of the signature for the filter's double probe
// (splitmix64 finalizer — a single FNV output would make the two probes
// perfectly correlated).
std::uint64_t remix(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

// Real-clock backoff/delay sleeps are capped so a misconfigured spec or
// failpoint cannot stall serving for more than a beat per attempt.
constexpr std::int64_t kMaxRealSleepUs = 50'000;

}  // namespace

const char* to_string(ServeState state) {
  switch (state) {
    case ServeState::kHit:
      return "hit";
    case ServeState::kPlanned:
      return "planned";
    case ServeState::kDegraded:
      return "degraded";
    case ServeState::kUpgraded:
      return "upgraded";
    case ServeState::kQuarantined:
      return "quarantined";
  }
  return "?";
}

PlanService::PlanService(PlanServiceConfig config)
    : config_(std::move(config)),
      full_planner_(config_.planner),
      fallback_planner_(degraded_fallback_config(config_.planner)) {
  long long shards = config_.shards;
  if (shards <= 0) shards = env_int64("CTB_PLAN_SHARDS", 8);
  shards = std::clamp<long long>(shards, 1, 256);
  deadline_us_ = config_.deadline_us;
  if (deadline_us_ < 0) deadline_us_ = env_int64("CTB_PLAN_DEADLINE_US", 0);
  shards_.reserve(static_cast<std::size_t>(shards));
  for (long long i = 0; i < shards; ++i)
    shards_.push_back(std::make_unique<Shard>(config_.planner));
  const std::size_t bits = std::max<std::size_t>(config_.filter_bits, 64);
  filter_ = std::vector<std::atomic<std::uint64_t>>((bits + 63) / 64);
}

PlanService::~PlanService() {
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    stop_ = true;
  }
  jobs_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

std::int64_t PlanService::clock_now() const {
  return config_.clock != nullptr ? config_.clock->now_us() : steady_now_us();
}

void PlanService::backoff(std::int64_t us) {
  if (config_.clock != nullptr) {
    config_.clock->advance(us);
    return;
  }
  std::this_thread::sleep_for(
      std::chrono::microseconds(std::min(us, kMaxRealSleepUs)));
}

// ---------------------------------------------------------------------------
// Membership filter
// ---------------------------------------------------------------------------
//
// A fixed-size double-probe Bloom filter over batch signatures. Inserts
// happen whenever an entry (full or degraded) is cached; bits are only reset
// wholesale by clear(). No false negatives, so a "no" answer skips the shard
// lock entirely — the common case for cold traffic — while a false positive
// merely costs the ordinary locked lookup.

bool PlanService::filter_may_contain(std::uint64_t sig) const {
  const std::size_t nbits = filter_.size() * 64;
  const auto probe = [&](std::uint64_t h) {
    const std::size_t b = static_cast<std::size_t>(h % nbits);
    return (filter_[b / 64].load(std::memory_order_acquire) >> (b % 64)) & 1u;
  };
  return probe(sig) != 0 && probe(remix(sig)) != 0;
}

void PlanService::filter_insert(std::uint64_t sig) {
  const std::size_t nbits = filter_.size() * 64;
  const auto set = [&](std::uint64_t h) {
    const std::size_t b = static_cast<std::size_t>(h % nbits);
    filter_[b / 64].fetch_or(std::uint64_t{1} << (b % 64),
                             std::memory_order_acq_rel);
  };
  set(sig);
  set(remix(sig));
}

void PlanService::filter_reset() {
  for (auto& word : filter_) word.store(0, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Planning primitives
// ---------------------------------------------------------------------------

PlanSummary PlanService::plan_full(std::span<const GemmDims> dims,
                                   std::span<const int> epilogues) {
  FailpointSpec fp = consume_failpoint("service.planner.slow");
  if (fp.action == FailAction::kDelay) backoff(fp.arg);
  fp = consume_failpoint("service.planner.throw");
  if (fp.action == FailAction::kThrow)
    throw CheckError("injected failpoint: service.planner.throw");
  if (fp.action == FailAction::kBadAlloc) throw std::bad_alloc();
  PlanSummary summary =
      config_.planner_fn ? config_.planner_fn(dims) : full_planner_.plan(dims);
  // Epilogues ride along as a per-GEMM aux array regardless of which planner
  // produced the plan (the injected test planner included).
  if (!epilogues.empty())
    summary.plan.epilogue_of_gemm.assign(epilogues.begin(), epilogues.end());
  fp = consume_failpoint("service.planner.corrupt");
  if (fp.action == FailAction::kCorrupt &&
      !summary.plan.gemm_of_tile.empty()) {
    // Truncate one aux array: validate_plan cannot miss the length mismatch,
    // so this models a planner emitting a structurally broken plan.
    summary.plan.gemm_of_tile.pop_back();
  }
  return summary;
}

PlanSummary PlanService::plan_full_with_retries(
    std::span<const GemmDims> dims, std::span<const int> epilogues) {
  std::string last_error;
  const int attempts = std::max(config_.max_retries, 0) + 1;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      stats_.retried.fetch_add(1, std::memory_order_relaxed);
      CTB_TEL_COUNT("service.retried", 1);
      backoff(config_.backoff_base_us << (attempt - 1));
    }
    try {
      PlanSummary summary = plan_full(dims, epilogues);
      validate_plan(summary.plan, dims);
      return summary;
    } catch (const std::exception& e) {
      last_error = e.what();
    }
  }
  throw PlanServiceError(
      PlanServiceError::Kind::kPlannerFailed,
      "plan service: full planner failed after " + std::to_string(attempts) +
          " attempts: " + last_error);
}

std::shared_ptr<const PlanSummary> PlanService::make_fallback(
    std::span<const GemmDims> dims, std::span<const int> epilogues) {
  const FailpointSpec fp = consume_failpoint("service.fallback.alloc");
  if (fp.action == FailAction::kBadAlloc) throw std::bad_alloc();
  if (fp.action == FailAction::kThrow)
    throw CheckError("injected failpoint: service.fallback.alloc");
  PlanSummary summary = fallback_planner_.plan(dims, epilogues);
  validate_plan(summary.plan, dims);
  return std::make_shared<const PlanSummary>(std::move(summary));
}

void PlanService::record_failure(std::uint64_t sig, Shard& sh) {
  bool newly_quarantined = false;
  int failures = 0;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    Meta& meta = sh.meta[sig];
    ++meta.failures;
    failures = meta.failures;
    if (!meta.quarantined && meta.failures >= config_.quarantine_threshold) {
      meta.quarantined = true;
      newly_quarantined = true;
    }
  }
  if (newly_quarantined) {
    stats_.quarantined.fetch_add(1, std::memory_order_relaxed);
    CTB_TEL_COUNT("service.quarantined", 1);
    CTB_TEL_FLIGHT(kQuarantine, "consecutive planner failures", failures,
                   static_cast<std::int64_t>(sig));
    // The quarantine transition is exactly the moment a postmortem wants
    // the recent decision trail for; persist it while it is still hot.
    telemetry::flight_autodump("quarantine");
  }
}

void PlanService::note_upgrade() {
  stats_.upgraded.fetch_add(1, std::memory_order_relaxed);
  CTB_TEL_COUNT("service.upgraded", 1);
  CTB_TEL_FLIGHT(kUpgrade, "degraded entry replaced", 0, 0);
}

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

ServedPlan PlanService::get(std::span<const GemmDims> dims) {
  return get(dims, {});
}

ServedPlan PlanService::get(std::span<const GemmDims> dims,
                            std::span<const int> epilogues) {
  CTB_CHECK_MSG(!dims.empty(), "cannot serve an empty batch");
  for (std::size_t i = 0; i < dims.size(); ++i)
    CTB_CHECK_MSG(dims[i].valid(), "GEMM " << i << " has degenerate dims "
                                           << dims[i].m << 'x' << dims[i].n
                                           << 'x' << dims[i].k);
  epilogues = normalize_epilogues(epilogues, dims.size());
  // Request-scoped trace: adopt the caller's context when one is active
  // (explicit propagation), otherwise mint a fresh id for this lookup.
  // Everything downstream — planner spans, cache flight events, the
  // lookup-latency exemplar below — is stamped with it.
  const telemetry::ScopedTraceContext trace_scope(
      "service", static_cast<std::int32_t>(dims.size()));
  const std::int64_t t0 = steady_now_us();
  const std::uint64_t sig =
      batch_signature(dims, config_.planner, epilogues);
  ServedPlan served = serve(sig, dims, epilogues);
  served.trace_id = telemetry::current_trace().id;
  stats_.admitted.fetch_add(1, std::memory_order_relaxed);
  CTB_TEL_COUNT("service.admitted", 1);
  const std::int64_t lookup_us = steady_now_us() - t0;
  CTB_TEL_HIST("service.lookup_us", lookup_us);
  CTB_TEL_FLIGHT(kServe, to_string(served.state),
                 static_cast<std::int64_t>(dims.size()), lookup_us);
  return served;
}

ServedPlan PlanService::serve(std::uint64_t sig,
                              std::span<const GemmDims> dims,
                              std::span<const int> epilogues) {
  Shard& sh = shard_for(sig);
  if (!filter_may_contain(sig)) {
    stats_.filter_rejects.fetch_add(1, std::memory_order_relaxed);
    CTB_TEL_COUNT("service.filter.reject", 1);
    stats_.misses.fetch_add(1, std::memory_order_relaxed);
    CTB_TEL_COUNT("service.miss", 1);
    return admit_cold(sig, dims, epilogues, sh);
  }
  std::shared_ptr<const PlanSummary> cached;
  Meta meta_copy;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    cached = sh.cache.lookup(sig);
    if (cached) {
      auto it = sh.meta.find(sig);
      if (it != sh.meta.end()) meta_copy = it->second;
    }
  }
  if (!cached) {
    stats_.misses.fetch_add(1, std::memory_order_relaxed);
    CTB_TEL_COUNT("service.miss", 1);
    return admit_cold(sig, dims, epilogues, sh);
  }
  stats_.hits.fetch_add(1, std::memory_order_relaxed);
  CTB_TEL_COUNT("service.hit", 1);
  if (meta_copy.quarantined) {
    stats_.degraded.fetch_add(1, std::memory_order_relaxed);
    CTB_TEL_COUNT("service.degraded", 1);
    return {std::move(cached), ServeState::kQuarantined};
  }
  if (!meta_copy.degraded) return {std::move(cached), ServeState::kHit};
  // Degraded entry: keep serving the fallback while the upgrade runs in the
  // background (async mode), or upgrade right here (inline mode).
  if (deadline_us_ > 0) {
    if (!meta_copy.inflight)
      enqueue_job(sig, dims, epilogues, sh, /*deadline_point=*/-1);
    stats_.degraded.fetch_add(1, std::memory_order_relaxed);
    CTB_TEL_COUNT("service.degraded", 1);
    return {std::move(cached), ServeState::kDegraded};
  }
  return upgrade_inline(sig, dims, epilogues, sh, std::move(cached));
}

ServedPlan PlanService::upgrade_inline(
    std::uint64_t sig, std::span<const GemmDims> dims,
    std::span<const int> epilogues, Shard& sh,
    std::shared_ptr<const PlanSummary> fallback) {
  try {
    PlanSummary summary = plan_full_with_retries(dims, epilogues);
    std::shared_ptr<const PlanSummary> upgraded;
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      upgraded = sh.cache.upsert(sig, std::move(summary));
      Meta& meta = sh.meta[sig];
      meta.degraded = false;
      meta.failures = 0;
      filter_insert(sig);
    }
    note_upgrade();
    return {std::move(upgraded), ServeState::kUpgraded};
  } catch (const std::exception&) {
    record_failure(sig, sh);
    stats_.degraded.fetch_add(1, std::memory_order_relaxed);
    CTB_TEL_COUNT("service.degraded", 1);
    return {std::move(fallback), ServeState::kDegraded};
  }
}

ServedPlan PlanService::admit_cold(std::uint64_t sig,
                                   std::span<const GemmDims> dims,
                                   std::span<const int> epilogues,
                                   Shard& sh) {
  if (deadline_us_ <= 0) {
    // Inline mode: plan fully right now; degrade only when the planner is
    // persistently down.
    try {
      PlanSummary summary = plan_full_with_retries(dims, epilogues);
      std::shared_ptr<const PlanSummary> planned;
      {
        std::lock_guard<std::mutex> lock(sh.mu);
        planned = sh.cache.upsert(sig, std::move(summary));
        (void)sh.meta[sig];  // materialize healthy metadata with the entry
        filter_insert(sig);
      }
      return {std::move(planned), ServeState::kPlanned};
    } catch (const std::exception& e) {
      record_failure(sig, sh);
      return degrade_cold(sig, dims, epilogues, sh, e.what());
    }
  }
  // Deadline-bounded: hand full planning to the worker, compute the instant
  // fallback meanwhile, then serve whichever is ready when the deadline
  // arrives. The deadline point is fixed before any planning work starts.
  const std::int64_t deadline_point = clock_now() + deadline_us_;
  std::shared_ptr<JobState> job =
      enqueue_job(sig, dims, epilogues, sh, deadline_point);
  if (!job) {
    // Quarantined signature whose entry never materialized (every fallback
    // attempt so far failed too): serve the fallback without touching the
    // full planner, exactly like a quarantined hit.
    std::shared_ptr<const PlanSummary> fallback;
    try {
      fallback = make_fallback(dims, epilogues);
    } catch (const std::exception& e) {
      throw PlanServiceError(
          PlanServiceError::Kind::kFallbackFailed,
          "plan service: signature quarantined and fallback planning "
          "failed (" +
              std::string(e.what()) + ")");
    }
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      if (!sh.cache.peek(sig)) {
        fallback = sh.cache.upsert(sig, PlanSummary(*fallback));
        filter_insert(sig);
      }
    }
    stats_.degraded.fetch_add(1, std::memory_order_relaxed);
    CTB_TEL_COUNT("service.degraded", 1);
    return {std::move(fallback), ServeState::kQuarantined};
  }
  std::shared_ptr<const PlanSummary> fallback;
  std::string fallback_error;
  try {
    fallback = make_fallback(dims, epilogues);
  } catch (const std::exception& e) {
    fallback_error = e.what();
  }
  wait_for_job(*job, deadline_point);
  // Expiry has priority over completion: when the (virtual) clock is past
  // the deadline the response is the fallback even if the full plan raced
  // in — that makes outcomes deterministic under the test clock, where only
  // injected delays move time.
  const bool expired = clock_now() > deadline_point;
  if (!expired) {
    std::lock_guard<std::mutex> lock(job->mu);
    if (job->done && job->ok) return {job->result, ServeState::kPlanned};
  }
  std::string planner_error;
  {
    std::lock_guard<std::mutex> lock(job->mu);
    if (job->done && !job->ok) planner_error = job->error;
  }
  if (expired) {
    stats_.deadline_misses.fetch_add(1, std::memory_order_relaxed);
    CTB_TEL_COUNT("service.deadline_miss", 1);
    CTB_TEL_FLIGHT(kDeadlineMiss, "deadline expired", deadline_us_,
                   clock_now() - deadline_point);
  }
  if (!fallback) {
    throw PlanServiceError(
        PlanServiceError::Kind::kFallbackFailed,
        "plan service: fallback planning failed (" + fallback_error + ")" +
            (planner_error.empty() ? ""
                                   : "; full planner: " + planner_error));
  }
  // Cache the fallback as a degraded entry unless the worker (or another
  // requester) already installed something.
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    if (!sh.cache.peek(sig)) {
      fallback = sh.cache.upsert(sig, PlanSummary(*fallback));
      sh.meta[sig].degraded = true;
      filter_insert(sig);
    }
  }
  stats_.degraded.fetch_add(1, std::memory_order_relaxed);
  CTB_TEL_COUNT("service.degraded", 1);
  return {std::move(fallback), ServeState::kDegraded};
}

ServedPlan PlanService::degrade_cold(std::uint64_t sig,
                                     std::span<const GemmDims> dims,
                                     std::span<const int> epilogues,
                                     Shard& sh,
                                     const std::string& planner_error) {
  std::shared_ptr<const PlanSummary> fallback;
  try {
    fallback = make_fallback(dims, epilogues);
  } catch (const std::exception& e) {
    throw PlanServiceError(
        PlanServiceError::Kind::kFallbackFailed,
        "plan service: full planner failed (" + planner_error +
            ") and fallback planning failed (" + e.what() + ")");
  }
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    if (!sh.cache.peek(sig)) {
      fallback = sh.cache.upsert(sig, PlanSummary(*fallback));
      sh.meta[sig].degraded = true;
      filter_insert(sig);
    }
  }
  stats_.degraded.fetch_add(1, std::memory_order_relaxed);
  CTB_TEL_COUNT("service.degraded", 1);
  return {std::move(fallback), ServeState::kDegraded};
}

// ---------------------------------------------------------------------------
// Background worker
// ---------------------------------------------------------------------------

std::shared_ptr<PlanService::JobState> PlanService::enqueue_job(
    std::uint64_t sig, std::span<const GemmDims> dims,
    std::span<const int> epilogues, Shard& sh, std::int64_t deadline_point) {
  auto state = std::make_shared<JobState>();
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    Meta& meta = sh.meta[sig];
    if (meta.inflight) return meta.inflight;
    if (meta.quarantined) return nullptr;  // quarantine blocks re-planning
    meta.inflight = state;
  }
  start_worker();
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    jobs_.push_back(Job{sig,
                        std::vector<GemmDims>(dims.begin(), dims.end()),
                        std::vector<int>(epilogues.begin(), epilogues.end()),
                        deadline_point,
                        epoch_.load(std::memory_order_acquire),
                        telemetry::current_trace().id, state});
  }
  jobs_cv_.notify_one();
  return state;
}

void PlanService::wait_for_job(JobState& job, std::int64_t deadline_point) {
  if (config_.clock != nullptr) {
    // Virtual time: poll for completion or clock expiry. Progress is
    // guaranteed — the worker always drains its queue, and every injected
    // delay advances the clock.
    std::unique_lock<std::mutex> lock(job.mu);
    while (!job.done && clock_now() <= deadline_point)
      job.cv.wait_for(lock, std::chrono::microseconds(200));
    return;
  }
  const std::int64_t remaining = deadline_point - clock_now();
  std::unique_lock<std::mutex> lock(job.mu);
  if (remaining > 0)
    job.cv.wait_for(lock, std::chrono::microseconds(remaining),
                    [&] { return job.done; });
}

void PlanService::start_worker() {
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    if (worker_started_) return;
    worker_started_ = true;
  }
  worker_ = std::thread(&PlanService::worker_loop, this);
}

void PlanService::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(jobs_mu_);
      jobs_cv_.wait(lock, [&] { return stop_ || !jobs_.empty(); });
      // Drain the backlog even on shutdown so accepted upgrades complete.
      if (jobs_.empty()) return;
      job = std::move(jobs_.front());
      jobs_.pop_front();
      ++active_jobs_;
    }
    process_job(job);
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      --active_jobs_;
    }
    drain_cv_.notify_all();
  }
}

void PlanService::process_job(Job& job) {
  // The worker adopts the requesting trace so background planning spans and
  // quarantine/upgrade flight events land in the requester's trail.
  const telemetry::ScopedTraceContext trace_scope(telemetry::TraceContext{
      job.trace, static_cast<std::int32_t>(job.dims.size()),
      "service.worker"});
  Shard& sh = shard_for(job.sig);
  std::shared_ptr<const PlanSummary> result;
  bool ok = false;
  std::string error;
  try {
    PlanSummary summary = plan_full_with_retries(job.dims, job.epilogues);
    ok = true;
    const bool late =
        job.deadline_point >= 0 && clock_now() > job.deadline_point;
    bool upgraded = false;
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      if (job.epoch == epoch_.load(std::memory_order_acquire)) {
        Meta& meta = sh.meta[job.sig];
        // An upgrade event is any full plan that replaces (or arrives after)
        // a degraded serve: either the entry is already marked degraded, or
        // this job finished past its own deadline (the requester is serving
        // the fallback right now).
        upgraded = meta.degraded || late;
        result = sh.cache.upsert(job.sig, std::move(summary));
        meta.degraded = false;
        meta.failures = 0;
        meta.inflight.reset();
        filter_insert(job.sig);
      } else {
        // clear() happened after this job was queued: serve the result to
        // waiters but leave the fresh cache untouched.
        result = std::make_shared<const PlanSummary>(std::move(summary));
      }
    }
    if (upgraded) note_upgrade();
  } catch (const std::exception& e) {
    error = e.what();
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      if (job.epoch == epoch_.load(std::memory_order_acquire)) {
        auto it = sh.meta.find(job.sig);
        if (it != sh.meta.end()) it->second.inflight.reset();
      }
    }
    if (job.epoch == epoch_.load(std::memory_order_acquire))
      record_failure(job.sig, sh);
  }
  {
    std::lock_guard<std::mutex> lock(job.state->mu);
    job.state->done = true;
    job.state->ok = ok;
    job.state->error = std::move(error);
    job.state->result = std::move(result);
  }
  job.state->cv.notify_all();
}

// ---------------------------------------------------------------------------
// Maintenance & introspection
// ---------------------------------------------------------------------------

void PlanService::drain() {
  std::unique_lock<std::mutex> lock(jobs_mu_);
  drain_cv_.wait(lock, [&] { return jobs_.empty() && active_jobs_ == 0; });
}

void PlanService::clear() {
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  for (auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    sh->cache.clear();
    sh->meta.clear();
  }
  filter_reset();
}

std::size_t PlanService::size() const {
  std::size_t total = 0;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    total += sh->cache.size();
  }
  return total;
}

ServiceStats PlanService::stats() const {
  ServiceStats s;
  s.admitted = stats_.admitted.load(std::memory_order_relaxed);
  s.hits = stats_.hits.load(std::memory_order_relaxed);
  s.misses = stats_.misses.load(std::memory_order_relaxed);
  s.filter_rejects = stats_.filter_rejects.load(std::memory_order_relaxed);
  s.degraded = stats_.degraded.load(std::memory_order_relaxed);
  s.upgraded = stats_.upgraded.load(std::memory_order_relaxed);
  s.retried = stats_.retried.load(std::memory_order_relaxed);
  s.quarantined = stats_.quarantined.load(std::memory_order_relaxed);
  s.deadline_misses =
      stats_.deadline_misses.load(std::memory_order_relaxed);
  return s;
}

bool PlanService::is_quarantined(std::span<const GemmDims> dims,
                                 std::span<const int> epilogues) const {
  const std::uint64_t sig = batch_signature(
      dims, config_.planner, normalize_epilogues(epilogues, dims.size()));
  Shard& sh = shard_for(sig);
  std::lock_guard<std::mutex> lock(sh.mu);
  auto it = sh.meta.find(sig);
  return it != sh.meta.end() && it->second.quarantined;
}

std::size_t PlanService::release_quarantined() {
  std::size_t released = 0;
  for (auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    for (auto& [sig, meta] : sh->meta) {
      if (meta.quarantined) {
        meta.quarantined = false;
        meta.failures = 0;
        ++released;
      }
    }
  }
  if (released > 0)
    CTB_TEL_FLIGHT(kQuarantineRelease, "operator release",
                   static_cast<std::int64_t>(released), 0);
  return released;
}

}  // namespace ctb::service
