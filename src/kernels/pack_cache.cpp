#include "kernels/pack_cache.hpp"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <list>
#include <mutex>
#include <utility>

#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace ctb {

namespace {

/// Full pack identity minus the operand *values* (see header). Two GEMMs
/// agreeing on every field produce byte-identical panels for the same
/// underlying data.
struct CacheKey {
  const float* a = nullptr;
  const float* b = nullptr;
  int m = 0, n = 0, k = 0;
  int by = 0, bx = 0, bk = 0;
  Op op_a = Op::kN;
  Op op_b = Op::kN;
  Precision precision = Precision::kFp32;

  bool operator==(const CacheKey&) const = default;
};

struct CacheEntry {
  CacheKey key;
  SharedPack pack;
};

struct CacheState {
  std::mutex mu;
  std::list<CacheEntry> entries;  // FIFO: front is oldest
  std::size_t resident_bytes = 0;
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> generation{0};
};

CacheState& state() {
  static CacheState* s = [] {
    auto* st = new CacheState;
    const char* env = std::getenv("CTB_PACK_CACHE");
    if (env != nullptr && env[0] == '1' && env[1] == '\0')
      st->enabled.store(true, std::memory_order_relaxed);
    return st;
  }();
  return *s;
}

bool cacheable(const GemmOperands& g) { return !g.b_gather; }

CacheKey key_of(const TilingStrategy& s, const GemmOperands& g) {
  CacheKey k;
  k.a = g.a;
  k.b = g.b;
  k.m = g.dims.m;
  k.n = g.dims.n;
  k.k = g.dims.k;
  k.by = s.by;
  k.bx = s.bx;
  k.bk = s.bk;
  k.op_a = g.op_a;
  k.op_b = g.op_b;
  k.precision = g.precision;
  return k;
}

bool bits_equal(float x, float y) {
  return std::bit_cast<std::uint32_t>(x) == std::bit_cast<std::uint32_t>(y);
}

/// Reads staged A(gi, gk) back out of the packed panel layout.
float panel_a_at(const PackedGemm& pk, int gi, int gk) {
  const int step = gk / pk.bk;
  const int p = gk % pk.bk;
  const int i = gi % pk.by;
  return pk.a_panel(gi / pk.by)[static_cast<std::size_t>(step) *
                                    (pk.by * pk.bk) +
                                i * pk.bk + p];
}

/// Reads staged B(gk, gj) back out of the packed panel layout.
float panel_b_at(const PackedGemm& pk, int gk, int gj) {
  const int step = gk / pk.bk;
  const int p = gk % pk.bk;
  const int j = gj % pk.bx;
  return pk.b_panel(gj / pk.bx)[static_cast<std::size_t>(step) *
                                    (pk.bk * pk.bx) +
                                p * pk.bx + j];
}

/// Best-effort staleness probe: recompute a deterministic handful of staged
/// values (the four corners and the center of each operand) and compare
/// bitwise against the cached panels. Cheap relative to a repack, catches
/// the common whole-operand update; NOT a guarantee (header documents the
/// explicit-invalidate contract).
bool probe_fresh(const GemmOperands& g, const PackedGemm& pk) {
  const auto& d = g.dims;
  const int is[3] = {0, d.m / 2, d.m - 1};
  const int ks[3] = {0, d.k / 2, d.k - 1};
  const int js[3] = {0, d.n / 2, d.n - 1};
  for (int gi : is)
    for (int gk : ks)
      if (!bits_equal(staged_a_value(g, gi, gk), panel_a_at(pk, gi, gk)))
        return false;
  for (int gk : ks)
    for (int gj : js)
      if (!bits_equal(staged_b_value(g, gk, gj), panel_b_at(pk, gk, gj)))
        return false;
  return true;
}

}  // namespace

bool pack_cache_enabled() {
  return state().enabled.load(std::memory_order_relaxed);
}

void set_pack_cache_enabled(bool on) {
  state().enabled.store(on, std::memory_order_relaxed);
}

void invalidate_pack_cache() {
  CacheState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  st.entries.clear();
  st.resident_bytes = 0;
  st.generation.fetch_add(1, std::memory_order_relaxed);
  CTB_TEL_COUNT("exec.pack.cache.invalidate", 1);
}

std::size_t pack_cache_entries() {
  CacheState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  return st.entries.size();
}

std::size_t pack_cache_bytes() {
  CacheState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  return st.resident_bytes;
}

std::uint64_t pack_cache_generation() {
  return state().generation.load(std::memory_order_relaxed);
}

std::optional<SharedPack> pack_cache_lookup(const TilingStrategy& s,
                                            const GemmOperands& g) {
  CacheState& st = state();
  if (!st.enabled.load(std::memory_order_relaxed) || !cacheable(g))
    return std::nullopt;
  const CacheKey key = key_of(s, g);
  std::lock_guard<std::mutex> lock(st.mu);
  for (auto it = st.entries.begin(); it != st.entries.end(); ++it) {
    if (!(it->key == key)) continue;
    if (!probe_fresh(g, it->pack.view)) {
      CTB_TEL_COUNT("exec.pack.cache.stale", 1);
      CTB_TEL_COUNT("exec.pack.cache.miss", 1);
      CTB_TEL_FLIGHT(kPackStale, "operand mutated since pack",
                     static_cast<std::int64_t>(it->pack.view.bytes()), 0);
      st.resident_bytes -= it->pack.view.bytes();
      st.entries.erase(it);
      return std::nullopt;
    }
    CTB_TEL_COUNT("exec.pack.cache.hit", 1);
    return it->pack;
  }
  CTB_TEL_COUNT("exec.pack.cache.miss", 1);
  return std::nullopt;
}

void pack_cache_insert(const TilingStrategy& s, const GemmOperands& g,
                       SharedPack pk) {
  CacheState& st = state();
  if (!st.enabled.load(std::memory_order_relaxed) || !cacheable(g)) return;
  // Only heap-owned sets may outlive the call: a view into an executor
  // arena is never admitted.
  if (!pk.view.valid() || pk.view.a != pk.a.get() || pk.view.b != pk.b.get())
    return;
  const std::size_t bytes = pk.view.bytes();
  const std::size_t budget = pack_arena_budget();
  if (bytes > budget) return;  // would evict everything and still not fit
  const CacheKey key = key_of(s, g);
  std::lock_guard<std::mutex> lock(st.mu);
  for (auto it = st.entries.begin(); it != st.entries.end(); ++it) {
    if (it->key == key) {  // replace (e.g. repack after explicit mutation)
      st.resident_bytes -= it->pack.view.bytes();
      st.entries.erase(it);
      break;
    }
  }
  while (!st.entries.empty() && st.resident_bytes + bytes > budget) {
    st.resident_bytes -= st.entries.front().pack.view.bytes();
    st.entries.pop_front();
    CTB_TEL_COUNT("exec.pack.cache.evict", 1);
  }
  st.resident_bytes += bytes;
  st.entries.push_back({key, std::move(pk)});
}

}  // namespace ctb
