// Plan persistence and reuse.
//
// The paper motivates the framework with workloads whose batch shapes are
// fixed across iterations (DNN training steps, repeated inference): planning
// once and reusing the plan removes the planner from the hot path entirely.
// This module provides (a) a portable text serialization of BatchPlan —
// the five aux arrays are plain data — and (b) an in-memory PlanCache keyed
// by the batch signature.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <unordered_map>

#include "core/api.hpp"
#include "util/assert.hpp"

namespace ctb {

/// Error thrown by load_plan on malformed or adversarial input. Extends
/// CheckError with a `where()` locator (header field, array name, element
/// index) so callers can report exactly which part of the stream is bad.
class PlanIoError : public CheckError {
 public:
  PlanIoError(const std::string& what, const std::string& where)
      : CheckError("plan load failed at " + where + ": " + what),
        where_(where) {}

  const std::string& where() const { return where_; }

 private:
  std::string where_;
};

/// Writes a plan as line-oriented text (versioned header + the aux arrays).
void save_plan(std::ostream& os, const BatchPlan& plan);

/// Reads a plan written by save_plan. Hardened against adversarial input:
/// enforces the versioned header (unknown versions are rejected, not
/// guessed at), caps declared element counts before allocating, rejects
/// integers that overflow or fall outside each field's legal range, rejects
/// trailing garbage after the last array, and finishes with
/// validate_plan_structure. Throws PlanIoError (a CheckError) carrying
/// what/where context. The caller should still validate_plan() against its
/// batch before executing — dims-dependent checks need the dims.
BatchPlan load_plan(std::istream& is);

/// Stable 64-bit signature of a batch + planning configuration; plans are
/// reusable exactly when the signature matches. Fused-epilogue chains are
/// not part of it: they travel with the operands, and plain and fused
/// batches of the same shapes run the same plan.
std::uint64_t batch_signature(std::span<const GemmDims> dims,
                              const PlannerConfig& config);

/// Memoizes planner decisions for repeated batch shapes. Not thread-safe;
/// use one cache per planning thread (ctb::service::PlanService wraps one
/// cache per shard behind a mutex for concurrent serving). Entries are held
/// through shared_ptr so a plan handed out stays alive even after upsert()
/// replaces or clear() drops its cache slot.
class PlanCache {
 public:
  explicit PlanCache(PlannerConfig config = {});

  /// Tests inject a planner to exercise failure paths (e.g. a planner that
  /// throws once, or returns a corrupt plan) without a real planning bug.
  using PlannerFn = std::function<PlanSummary(std::span<const GemmDims>)>;
  PlanCache(PlannerConfig config, PlannerFn planner_fn);

  /// Returns the cached plan for this batch or plans and caches it. Strong
  /// exception guarantee: if planning throws (or produces a plan that fails
  /// validation) nothing is cached and no statistics change, so retrying the
  /// same batch after a transient failure behaves as a fresh miss.
  const PlanSummary& plan(std::span<const GemmDims> dims);

  /// Lookup by precomputed signature, counting a hit or a miss (stats and
  /// cache.hit/cache.miss telemetry); nullptr on miss. The service layer
  /// uses this to probe without planning.
  std::shared_ptr<const PlanSummary> lookup(std::uint64_t signature);

  /// Like lookup but free of side effects — no statistics, no telemetry.
  /// For internal presence checks that must not distort serving metrics.
  std::shared_ptr<const PlanSummary> peek(std::uint64_t signature) const;

  /// Inserts or replaces the entry for `signature` and returns the stored
  /// pointer. Does NOT validate (callers hold already-validated summaries)
  /// and counts neither hits nor misses; a replaced entry stays alive for
  /// anyone still executing it. This is the service's upgrade primitive.
  std::shared_ptr<const PlanSummary> upsert(std::uint64_t signature,
                                            PlanSummary summary);

  /// Cache statistics.
  std::size_t size() const { return cache_.size(); }
  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }

  /// Drops every cached plan (counted as evictions in telemetry).
  void clear();

 private:
  BatchedGemmPlanner planner_;
  PlannerFn planner_fn_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const PlanSummary>>
      cache_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace ctb
