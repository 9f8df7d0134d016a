// Cross-call packed-panel cache: repeated executions of one plan over the
// same operands (a training loop re-running run_batched_plan every step)
// amortize panel packing to zero after the first iteration.
//
// Keying mirrors PlanCache (core/plan_io.hpp): an entry is identified by the
// pack's full identity — operand pointers, dims, transpose ops, precision,
// and tile geometry — plus the cache generation current when it was
// inserted. Anything that changes the packed bytes changes the key, with
// one deliberate exception: the cache cannot see *value* mutation behind
// the pointers.
//
// Invalidation contract: callers that mutate A or B between executor calls
// must call invalidate_pack_cache() (bumps the generation, dropping every
// entry at once). As a safety net each hit runs a deterministic staleness
// probe — a handful of corner/interior panel samples recomputed through
// staged_a_value / staged_b_value and compared bitwise — which demotes a
// detectably stale entry to a miss (counted as exec.pack.cache.stale) and
// repacks. The probe is best-effort, not exhaustive: a mutation that leaves
// every probed sample bit-identical goes undetected, which is why the cache
// defaults to OFF and the explicit-invalidate contract is the guarantee.
// Gather GEMMs (b_gather) are never cached: the callable's identity is
// unobservable.
//
// Budget: resident bytes are charged against the same pack arena the
// per-call packing pass uses (pack_arena_budget), each entry at its GEMM's
// full footprint even when it shares a panel set with another entry;
// inserting past the budget evicts oldest-first (deterministic FIFO,
// counted as exec.pack.cache.evict). Entries hold their panel sets as
// shared_ptr (SharedPack), so an executor mid-call keeps its panels alive
// even if they are evicted or invalidated concurrently.
//
// Enable with CTB_PACK_CACHE=1 in the environment, set_pack_cache_enabled(),
// or ScopedPackCache (tests/benchmarks).
#pragma once

#include <cstdint>
#include <cstddef>
#include <optional>

#include "core/tiling_strategy.hpp"
#include "kernels/functional.hpp"
#include "kernels/packing.hpp"

namespace ctb {

/// Runtime master switch; default OFF unless CTB_PACK_CACHE=1 at startup.
bool pack_cache_enabled();
void set_pack_cache_enabled(bool on);

/// Drops every entry and bumps the generation; the one call sites must make
/// after mutating operand values in place. Counts exec.pack.cache.invalidate.
void invalidate_pack_cache();

/// Introspection (tests, telemetry dumps).
std::size_t pack_cache_entries();
std::size_t pack_cache_bytes();
std::uint64_t pack_cache_generation();

/// Cached panels for (s, g), or nullopt on miss. A hit revalidates via the
/// staleness probe; counts exec.pack.cache.{hit,miss,stale}. Returns nullopt
/// without counting anything when the cache is disabled or `g` is uncacheable
/// (b_gather).
std::optional<SharedPack> pack_cache_lookup(const TilingStrategy& s,
                                            const GemmOperands& g);

/// Inserts freshly packed panels, evicting oldest-first to keep resident
/// bytes within pack_arena_budget(). No-op when the cache is disabled, `g`
/// is uncacheable, or the entry alone exceeds the budget.
void pack_cache_insert(const TilingStrategy& s, const GemmOperands& g,
                       SharedPack pk);

/// RAII enable (or disable) for tests and benchmarks. Enabling starts from
/// an invalidated cache and invalidates again on exit, so scopes are
/// deterministic and never leak entries into later code.
class ScopedPackCache {
 public:
  explicit ScopedPackCache(bool on = true) : saved_(pack_cache_enabled()) {
    invalidate_pack_cache();
    set_pack_cache_enabled(on);
  }
  ~ScopedPackCache() {
    invalidate_pack_cache();
    set_pack_cache_enabled(saved_);
  }
  ScopedPackCache(const ScopedPackCache&) = delete;
  ScopedPackCache& operator=(const ScopedPackCache&) = delete;

 private:
  bool saved_;
};

}  // namespace ctb
