#include "service/plan_service.hpp"

#include <chrono>
#include <exception>
#include <new>
#include <string>
#include <thread>
#include <utility>

#include "service/failpoint.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace ctb::service {

namespace {

std::int64_t steady_now_us() {
  using namespace std::chrono;
  return duration_cast<microseconds>(
             steady_clock::now().time_since_epoch())
      .count();
}

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
  CTB_CHECK_MSG(config_.deadline_us == 0,
                "PlanServiceConfig::deadline_us must be 0 (the service plans "
                "inline), got "
                    << config_.deadline_us);
  shards_.reserve(kShards);
  for (int i = 0; i < kShards; ++i)
    shards_.push_back(std::make_unique<Shard>(config_.planner));
}

void PlanService::backoff(std::int64_t us) {
  if (config_.clock != nullptr) {
    config_.clock->advance(us);
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

// ---------------------------------------------------------------------------
// Planning primitives
// ---------------------------------------------------------------------------

PlanSummary PlanService::plan_full(std::span<const GemmDims> dims) {
  FailAction fp = consume_failpoint("service.planner.throw");
  if (fp == FailAction::kThrow)
    throw CheckError("injected failpoint: service.planner.throw");
  if (fp == FailAction::kBadAlloc) throw std::bad_alloc();
  PlanSummary summary =
      config_.planner_fn ? config_.planner_fn(dims) : full_planner_.plan(dims);
  fp = consume_failpoint("service.planner.corrupt");
  if (fp == FailAction::kCorrupt && !summary.plan.gemm_of_tile.empty()) {
    // Truncate one aux array: validate_plan cannot miss the length mismatch,
    // so this models a planner emitting a structurally broken plan.
    summary.plan.gemm_of_tile.pop_back();
  }
  return summary;
}

PlanSummary PlanService::plan_full_with_retries(
    std::span<const GemmDims> dims) {
  std::string last_error;
  constexpr int kAttempts = kMaxRetries + 1;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    if (attempt > 0) {
      stats_.retried.fetch_add(1, std::memory_order_relaxed);
      CTB_TEL_COUNT("service.retried", 1);
      backoff(kBackoffBaseUs << (attempt - 1));
    }
    try {
      PlanSummary summary = plan_full(dims);
      validate_plan(summary.plan, dims);
      return summary;
    } catch (const std::exception& e) {
      last_error = e.what();
    }
  }
  throw CheckError("plan service: full planner failed after " +
                   std::to_string(kAttempts) + " attempts: " + last_error);
}

std::shared_ptr<const PlanSummary> PlanService::make_fallback(
    std::span<const GemmDims> dims) {
  const FailAction fp = consume_failpoint("service.fallback.alloc");
  if (fp == FailAction::kBadAlloc) throw std::bad_alloc();
  if (fp == FailAction::kThrow)
    throw CheckError("injected failpoint: service.fallback.alloc");
  PlanSummary summary = fallback_planner_.plan(dims);
  validate_plan(summary.plan, dims);
  return std::make_shared<const PlanSummary>(std::move(summary));
}

std::shared_ptr<const PlanSummary> PlanService::install_full(
    std::uint64_t sig, Shard& sh, PlanSummary summary) {
  std::lock_guard<std::mutex> lock(sh.mu);
  Meta& meta = sh.meta[sig];
  meta.degraded = false;
  meta.failures = 0;
  return sh.cache.upsert(sig, std::move(summary));
}

void PlanService::record_failure(std::uint64_t sig, Shard& sh) {
  bool newly_quarantined = false;
  int failures = 0;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    Meta& meta = sh.meta[sig];
    ++meta.failures;
    failures = meta.failures;
    if (!meta.quarantined && meta.failures >= kQuarantineThreshold) {
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

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

ServedPlan PlanService::get(std::span<const GemmDims> dims,
                            std::span<const int> /*epilogues*/) {
  return get(dims);
}

ServedPlan PlanService::get(std::span<const GemmDims> dims) {
  CTB_CHECK_MSG(!dims.empty(), "cannot serve an empty batch");
  for (std::size_t i = 0; i < dims.size(); ++i)
    CTB_CHECK_MSG(dims[i].valid(), "GEMM " << i << " has degenerate dims "
                                           << dims[i].m << 'x' << dims[i].n
                                           << 'x' << dims[i].k);
  // Request-scoped trace: adopt the caller's context when one is active
  // (explicit propagation), otherwise mint a fresh id for this lookup.
  // Everything downstream — planner spans, cache flight events, the
  // lookup-latency exemplar below — is stamped with it.
  const telemetry::ScopedTraceContext trace_scope(
      "service", static_cast<std::int32_t>(dims.size()));
  const std::int64_t t0 = steady_now_us();
  const std::uint64_t sig = batch_signature(dims, config_.planner);
  ServedPlan served = serve(sig, dims);
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
                              std::span<const GemmDims> dims) {
  Shard& sh = shard_for(sig);
  std::shared_ptr<const PlanSummary> cached;
  Meta meta;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    cached = sh.cache.lookup(sig);
    auto it = sh.meta.find(sig);
    if (it != sh.meta.end()) meta = it->second;
  }
  if (!cached) {
    stats_.misses.fetch_add(1, std::memory_order_relaxed);
    CTB_TEL_COUNT("service.miss", 1);
    return admit_cold(sig, dims, sh, meta.quarantined);
  }
  stats_.hits.fetch_add(1, std::memory_order_relaxed);
  CTB_TEL_COUNT("service.hit", 1);
  if (meta.quarantined)
    return count_degraded(std::move(cached), ServeState::kQuarantined);
  if (!meta.degraded) return {std::move(cached), ServeState::kHit};
  return upgrade_inline(sig, dims, sh, std::move(cached));
}

ServedPlan PlanService::admit_cold(std::uint64_t sig,
                                   std::span<const GemmDims> dims, Shard& sh,
                                   bool quarantined) {
  // A quarantined signature without an entry (every fallback attempt so far
  // failed too) is served the fallback without touching the full planner,
  // exactly like a quarantined hit.
  if (quarantined)
    return serve_fallback(sig, dims, sh, ServeState::kQuarantined,
                          "signature quarantined");
  try {
    return {install_full(sig, sh, plan_full_with_retries(dims)),
            ServeState::kPlanned};
  } catch (const std::exception& e) {
    record_failure(sig, sh);
    return serve_fallback(sig, dims, sh, ServeState::kDegraded,
                          "full planner failed (" + std::string(e.what()) +
                              ")");
  }
}

ServedPlan PlanService::serve_fallback(std::uint64_t sig,
                                       std::span<const GemmDims> dims,
                                       Shard& sh, ServeState state,
                                       const std::string& why) {
  std::shared_ptr<const PlanSummary> fallback;
  try {
    fallback = make_fallback(dims);
  } catch (const std::exception& e) {
    throw PlanServiceError("plan service: " + why +
                           " and fallback planning failed (" + e.what() +
                           ")");
  }
  // Cache the fallback as a degraded entry, so a later hit upgrades it,
  // unless another requester installed something meanwhile.
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    if (!sh.cache.peek(sig)) {
      fallback = sh.cache.upsert(sig, PlanSummary(*fallback));
      sh.meta[sig].degraded = true;
    }
  }
  return count_degraded(std::move(fallback), state);
}

ServedPlan PlanService::upgrade_inline(
    std::uint64_t sig, std::span<const GemmDims> dims, Shard& sh,
    std::shared_ptr<const PlanSummary> fallback) {
  try {
    std::shared_ptr<const PlanSummary> upgraded =
        install_full(sig, sh, plan_full_with_retries(dims));
    stats_.upgraded.fetch_add(1, std::memory_order_relaxed);
    CTB_TEL_COUNT("service.upgraded", 1);
    CTB_TEL_FLIGHT(kUpgrade, "degraded entry replaced", 0, 0);
    return {std::move(upgraded), ServeState::kUpgraded};
  } catch (const std::exception&) {
    record_failure(sig, sh);
    return count_degraded(std::move(fallback), ServeState::kDegraded);
  }
}

ServedPlan PlanService::count_degraded(
    std::shared_ptr<const PlanSummary> plan, ServeState state) {
  stats_.degraded.fetch_add(1, std::memory_order_relaxed);
  CTB_TEL_COUNT("service.degraded", 1);
  return {std::move(plan), state};
}

// ---------------------------------------------------------------------------
// Maintenance & introspection
// ---------------------------------------------------------------------------

void PlanService::clear() {
  for (auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    sh->cache.clear();
    sh->meta.clear();
  }
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
  s.degraded = stats_.degraded.load(std::memory_order_relaxed);
  s.upgraded = stats_.upgraded.load(std::memory_order_relaxed);
  s.retried = stats_.retried.load(std::memory_order_relaxed);
  s.quarantined = stats_.quarantined.load(std::memory_order_relaxed);
  return s;
}

bool PlanService::is_quarantined(std::span<const GemmDims> dims) const {
  const std::uint64_t sig = batch_signature(dims, config_.planner);
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
