// Test helper shared by the plan-service chaos tests. PlanServiceConfig's
// planner_fn and fallback_fn are the service's one fault-injection seam:
// failing_planner builds either from a real planner and a fire budget that
// the test shares with it.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <utility>

#include "core/api.hpp"
#include "core/plan_io.hpp"

namespace ctb {

/// Fires left to a failing_planner; the test stores 0 to lift the fault.
using FaultBudget = std::shared_ptr<std::atomic<int>>;

/// A budget no test exhausts: the fault fires until the test lifts it.
inline constexpr int kUntilLifted = 1 << 30;

inline FaultBudget fault_budget(int fires) {
  return std::make_shared<std::atomic<int>>(fires);
}

/// A PlannerFn that throws `fault` while `budget` holds fires, consuming
/// one per call (concurrent calls consume distinct fires), and plans under
/// `config` once the budget is spent or lifted.
template <typename Fault>
PlanCache::PlannerFn failing_planner(PlannerConfig config, FaultBudget budget,
                                     Fault fault) {
  return [planner = BatchedGemmPlanner(std::move(config)),
          budget = std::move(budget),
          fault](std::span<const GemmDims> dims) {
    if (budget->fetch_sub(1) > 0) throw fault;
    return planner.plan(dims);
  };
}

}  // namespace ctb
