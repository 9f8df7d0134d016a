#include "telemetry/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>

#include "telemetry/telemetry.hpp"

namespace ctb::telemetry {

const char* to_string(FlightKind kind) {
  switch (kind) {
    case FlightKind::kServe:
      return "serve";
    case FlightKind::kPlanDecision:
      return "plan.decision";
    case FlightKind::kCacheHit:
      return "cache.hit";
    case FlightKind::kCacheMiss:
      return "cache.miss";
    case FlightKind::kSplitK:
      return "splitk";
    case FlightKind::kQuarantine:
      return "quarantine";
    case FlightKind::kQuarantineRelease:
      return "quarantine.release";
    case FlightKind::kGuardReject:
      return "guard.reject";
    case FlightKind::kFallback:
      return "fallback";
    case FlightKind::kExec:
      return "exec";
    case FlightKind::kUpgrade:
      return "upgrade";
    case FlightKind::kSpan:
      return "span";
  }
  return "?";
}

std::string trace_id_hex(std::uint64_t id) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[id & 0xf];
    id >>= 4;
  }
  return out;
}

std::uint64_t parse_trace_id(const std::string& hex) {
  if (hex.empty() || hex.size() > 16) return 0;
  std::uint64_t id = 0;
  for (char c : hex) {
    id <<= 4;
    if (c >= '0' && c <= '9')
      id |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      id |= static_cast<std::uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F')
      id |= static_cast<std::uint64_t>(c - 'A' + 10);
    else
      return 0;
  }
  return id;
}

void write_flight_json(std::ostream& os,
                       const std::vector<FlightEventView>& events) {
  os << "{\n\"version\":1,\n\"events\":[";
  bool first = true;
  for (const FlightEventView& e : events) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"t_us\":" << e.t_us << ",\"trace\":\"" << trace_id_hex(e.trace)
       << "\",\"kind\":\"" << to_string(e.kind) << "\",\"detail\":\""
       << (e.detail != nullptr ? e.detail : "") << "\",\"tid\":" << e.tid
       << ",\"a0\":" << e.a0 << ",\"a1\":" << e.a1 << "}";
  }
  os << "\n]\n}\n";
}

void append_chrome_trace_events(std::ostream& os,
                                const std::vector<FlightEventView>& events,
                                int pid) {
  os << ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
     << ",\"args\":{\"name\":\"ctb host\"}}";
  for (const FlightEventView& e : events) {
    if (e.kind != FlightKind::kSpan) continue;
    const double dur_us = static_cast<double>(e.a0) / 1000.0;
    os << ",\n{\"name\":\"" << e.detail
       << "\",\"ph\":\"X\",\"cat\":\"ctb\",\"pid\":" << pid
       << ",\"tid\":" << e.tid << ",\"ts\":" << e.t_us - dur_us
       << ",\"dur\":" << dur_us;
    if (e.trace != 0)
      os << ",\"args\":{\"trace\":\"" << trace_id_hex(e.trace) << "\"}";
    os << "}";
  }
}

void write_chrome_trace(std::ostream& os,
                        const std::vector<FlightEventView>& events) {
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
     << "{\"name\":\"clock_sync\",\"ph\":\"M\",\"pid\":0,"
        "\"args\":{\"source\":\"ctb.telemetry\"}}";
  append_chrome_trace_events(os, events, 0);
  os << "\n]}\n";
}

namespace {

// splitmix64 finalizer: turns the sequential mint counter into ids that are
// well-distributed across the 64-bit space while staying deterministic
// given request order.
std::uint64_t mix(std::uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

thread_local TraceContext t_current;

// ---------------------------------------------------------------------------
// Flight rings
// ---------------------------------------------------------------------------
//
// One fixed ring per thread. The owner thread is the only writer; readers
// (flight_events, from any thread) scan every slot and use the per-slot
// sequence word as a seqlock: a slot is published by writing seq = 2g+1
// (unstable), the fields, then seq = 2g+2 (stable, generation g). A reader
// that sees an odd sequence, or a sequence that changed while it copied the
// fields, skips the slot. Every field is a relaxed atomic, so concurrent
// dump-while-record is race-free by construction (TSan-clean) and the
// writer's cost stays a handful of uncontended stores.

struct FlightSlot {
  std::atomic<std::uint64_t> seq{0};  // 0 = never written / cleared
  std::atomic<std::uint64_t> trace{0};
  std::atomic<std::int64_t> a0{0};
  std::atomic<std::int64_t> a1{0};
  std::atomic<double> t_us{0.0};
  std::atomic<std::int32_t> kind{0};
  std::atomic<const char*> detail{nullptr};
};

constexpr std::size_t kFlightSlots = 256;  // per thread; ~14 KiB

struct FlightRing {
  std::uint64_t head = 0;  // owner-thread only
  FlightSlot slots[kFlightSlots];
};

struct FlightRegistry {
  std::atomic<std::uint64_t> next_trace{0};
  std::atomic<int> dump_budget{32};
  std::atomic<int> dump_seq{0};

  std::mutex mu;  // guards the ring lists, never the slots themselves
  std::vector<std::shared_ptr<FlightRing>> rings;
  std::vector<std::shared_ptr<FlightRing>> free_rings;
};

// Leaked intentionally, like the telemetry registry: worker threads may
// record events during static destruction.
FlightRegistry& flight_registry() {
  static FlightRegistry* r = new FlightRegistry;
  return *r;
}

// Thread-local ring handle: rings are owned by the registry and only
// borrowed by threads, so snapshots after a worker exits (common with the
// std::thread parallel_for backend under TSan) still see its events, and a
// ring freed by a dying thread is adopted by the next new thread.
struct RingHandle {
  std::shared_ptr<FlightRing> ring;

  RingHandle() {
    FlightRegistry& r = flight_registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    if (!r.free_rings.empty()) {
      ring = std::move(r.free_rings.back());
      r.free_rings.pop_back();
    } else {
      ring = std::make_shared<FlightRing>();
      r.rings.push_back(ring);
    }
  }
  ~RingHandle() {
    FlightRegistry& r = flight_registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    r.free_rings.push_back(std::move(ring));
  }
};

void record_at(FlightKind kind, const char* detail_literal, std::int64_t a0,
               std::int64_t a1, double t_us) {
  thread_local RingHandle handle;
  FlightRing& ring = *handle.ring;
  const std::uint64_t g = ring.head++;
  FlightSlot& slot = ring.slots[g % kFlightSlots];
  slot.seq.store(2 * g + 1, std::memory_order_release);
  slot.trace.store(t_current.id, std::memory_order_relaxed);
  slot.a0.store(a0, std::memory_order_relaxed);
  slot.a1.store(a1, std::memory_order_relaxed);
  slot.t_us.store(t_us, std::memory_order_relaxed);
  slot.kind.store(static_cast<std::int32_t>(kind),
                  std::memory_order_relaxed);
  slot.detail.store(detail_literal, std::memory_order_relaxed);
  slot.seq.store(2 * g + 2, std::memory_order_release);
}

}  // namespace

std::uint64_t make_trace_id() {
  const std::uint64_t n =
      flight_registry().next_trace.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t id = mix(n + 0x9e3779b97f4a7c15ULL);
  return id != 0 ? id : 1;
}

TraceContext current_trace() { return t_current; }

ScopedTraceContext::ScopedTraceContext(TraceContext ctx)
    : prev_(t_current), installed_(true) {
  t_current = ctx;
}

ScopedTraceContext::ScopedTraceContext(const char* origin_literal,
                                       std::int32_t gemms) {
  if (t_current.active()) return;  // adopt the caller's trace
  prev_ = t_current;
  installed_ = true;
  t_current = TraceContext{make_trace_id(), gemms, origin_literal};
}

ScopedTraceContext::~ScopedTraceContext() {
  if (installed_) t_current = prev_;
}

void flight_record(FlightKind kind, const char* detail_literal,
                   std::int64_t a0, std::int64_t a1) {
  record_at(kind, detail_literal, a0, a1, now_us());
}

// The event is stamped with the very clock read that ends the span, so a
// reader recovers the span as [t_us - a0/1000, t_us] and nested spans nest.
void ScopedSpan::close() {
  const double end_us = now_us();
  const auto ns = static_cast<std::int64_t>((end_us - start_us_) * 1e3);
  hist_->record(ns);
  record_at(FlightKind::kSpan, name_, ns, 0, end_us);
}

std::vector<FlightEventView> flight_events() {
  FlightRegistry& r = flight_registry();
  std::vector<std::shared_ptr<FlightRing>> rings;
  {
    const std::lock_guard<std::mutex> lock(r.mu);
    rings = r.rings;
  }
  std::vector<FlightEventView> out;
  int tid = 0;
  for (const auto& ring : rings) {
    for (const FlightSlot& slot : ring->slots) {
      const std::uint64_t seq1 = slot.seq.load(std::memory_order_acquire);
      if (seq1 == 0 || (seq1 & 1) != 0) continue;  // empty or mid-write
      FlightEventView e;
      e.trace = slot.trace.load(std::memory_order_relaxed);
      e.a0 = slot.a0.load(std::memory_order_relaxed);
      e.a1 = slot.a1.load(std::memory_order_relaxed);
      e.t_us = slot.t_us.load(std::memory_order_relaxed);
      e.kind = static_cast<FlightKind>(
          slot.kind.load(std::memory_order_relaxed));
      e.detail = slot.detail.load(std::memory_order_relaxed);
      e.tid = tid;
      if (slot.seq.load(std::memory_order_acquire) != seq1)
        continue;  // overwritten while copying
      if (e.detail == nullptr) e.detail = "";
      out.push_back(e);
    }
    ++tid;
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const FlightEventView& a, const FlightEventView& b) {
                     return a.t_us < b.t_us;
                   });
  return out;
}

void flight_clear() {
  FlightRegistry& r = flight_registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& ring : r.rings)
    for (FlightSlot& slot : ring->slots)
      slot.seq.store(0, std::memory_order_release);
}

std::string flight_autodump(const char* reason_literal) {
  const char* dir = std::getenv("CTB_FLIGHT_DUMP_DIR");
  if (dir == nullptr || *dir == '\0') return {};
  FlightRegistry& r = flight_registry();
  if (r.dump_budget.fetch_sub(1, std::memory_order_relaxed) <= 0) return {};
  const int n = r.dump_seq.fetch_add(1, std::memory_order_relaxed);
  std::string path = std::string(dir) + "/ctb_flight_" + std::to_string(n) +
                     "_" + reason_literal + ".json";
  std::ofstream os(path);
  if (!os) return {};
  write_flight_json(os, flight_events());
  return path;
}

}  // namespace ctb::telemetry
