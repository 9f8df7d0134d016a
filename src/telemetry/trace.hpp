// ctb::telemetry — request-scoped trace contexts and the always-on flight
// recorder (DESIGN.md §13).
//
// A TraceContext is a 64-bit trace id plus a few request attributes. It is
// explicitly propagated: PlanService::get installs one for the duration of a
// lookup (adopting the caller's context when one is already active), the
// bench runners install one per request, and everything downstream —
// planner, PlanCache, split-K sweep, executors — reads the thread-current
// context when it records histogram exemplars or flight events.
// Propagation costs one thread-local read; there is no global lookup.
//
// The flight recorder is the one per-thread event stream: a fixed-size,
// lock-free ring of recent structured events (plan decisions, degraded
// serves, quarantine transitions, validate/audit rejections, fallback
// activations, executor runs, and the stage spans of telemetry.hpp). Its
// decision events are *always on* — they do not consult set_enabled(),
// because their whole purpose is to still hold the last moments when
// something fails unexpectedly; spans share the ring only while telemetry
// is enabled. Each record is a handful of relaxed atomic stores (O(ns));
// readers never block writers. Dumps happen on demand
// (flight_events / write_flight_json / write_chrome_trace) and
// automatically on guard rejections and service quarantines when
// CTB_FLIGHT_DUMP_DIR names a directory.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ctb::telemetry {

/// Request-scoped correlation context. id == 0 means "no trace"; every
/// other value was minted by make_trace_id() and is unique in-process.
struct TraceContext {
  std::uint64_t id = 0;
  std::int32_t gemms = 0;     ///< request attribute: batch size
  const char* origin = "";    ///< string literal: "service", "bench", ...
  bool active() const { return id != 0; }
};

/// The structured event kinds the flight recorder understands (DESIGN.md
/// §13 documents each kind's detail/a0/a1). Dumps and ctb_trace name a kind
/// by its to_string name, never by its number.
enum class FlightKind : std::int32_t {
  kServe = 0,           ///< service response; detail = serve state
  kPlanDecision,        ///< planner kept a plan; a0=blocks a1=tiles
  kCacheHit,            ///< plan-cache hit
  kCacheMiss,           ///< plan-cache miss
  kSplitK,              ///< split-K sweep ran; detail = chosen|rejected
  kQuarantine,          ///< signature quarantined; a0 = failure count
  kQuarantineRelease,   ///< quarantine lifted
  kGuardReject,         ///< validate/audit rejected a plan; detail = which
  kFallback,            ///< reference-GEMM fallback activated
  kExec,                ///< executor ran a plan; a0=blocks a1=tiles
  kUpgrade,             ///< degraded entry replaced by a full plan
  kSpan,                ///< a stage closed; detail = name, a0 = ns, t_us = end
};

const char* to_string(FlightKind kind);

/// One decoded flight-recorder event (a stable copy; `detail` points at the
/// instrumentation site's string literal).
struct FlightEventView {
  std::uint64_t trace = 0;
  FlightKind kind = FlightKind::kServe;
  int tid = 0;  ///< index of the recording thread's ring
  double t_us = 0;  ///< now_us() at record time (telemetry epoch)
  std::int64_t a0 = 0;
  std::int64_t a1 = 0;
  const char* detail = "";
};

/// 16-digit lowercase hex rendering of a trace id (the wire format used by
/// every exporter) and its inverse. parse_trace_id returns 0 on malformed
/// input.
std::string trace_id_hex(std::uint64_t id);
std::uint64_t parse_trace_id(const std::string& hex);

/// JSON flight dump: {"version":1,"events":[...]} with one event per line,
/// ordered by t_us (an empty list is an empty document).
void write_flight_json(std::ostream& os,
                       const std::vector<FlightEventView>& events);

/// Appends one chrome-trace "X" event per `span` event (plus a process_name
/// metadata record) under the given pid, each prefixed with ",\n" — for
/// embedding in an already-open "traceEvents" array alongside the
/// simulator's schedule. ts = t_us - a0/1000, dur = a0/1000, tid = the
/// ring's index, and the trace id rides in args.
void append_chrome_trace_events(std::ostream& os,
                                const std::vector<FlightEventView>& events,
                                int pid);

/// Standalone chrome://tracing file of the events' spans.
void write_chrome_trace(std::ostream& os,
                        const std::vector<FlightEventView>& events);

/// Mints a fresh nonzero trace id: a splitmix64-mixed process-wide sequence
/// number, so ids are unique, well-distributed, and deterministic given
/// request order.
std::uint64_t make_trace_id();

/// The calling thread's current context ({} when none is installed).
TraceContext current_trace();

/// RAII installation of a TraceContext on the calling thread. The previous
/// context is restored on destruction, so service code can nest under a
/// caller's explicitly-propagated trace.
class ScopedTraceContext {
 public:
  /// Installs `ctx` unconditionally (callers re-entering a known trace —
  /// e.g. executing a served plan under the ServedPlan's trace id).
  explicit ScopedTraceContext(TraceContext ctx);

  /// Adopt-or-create: when a context is already active it is kept (the
  /// request is part of the caller's trace); otherwise a fresh id is minted
  /// with the given attributes. This is the form request entry points use.
  ScopedTraceContext(const char* origin_literal, std::int32_t gemms);

  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext prev_;
  bool installed_ = false;
};

/// Records one event into the calling thread's ring, stamped with the
/// current trace (id 0 when none). `detail` must be a string literal.
/// Always on; a handful of relaxed atomic stores.
void flight_record(FlightKind kind, const char* detail_literal,
                   std::int64_t a0 = 0, std::int64_t a1 = 0);

/// Snapshot of every thread's ring, ordered by t_us. Readers never block
/// writers: a slot being overwritten mid-read is detected via its sequence
/// word and skipped.
std::vector<FlightEventView> flight_events();

/// Invalidates all recorded events (tests isolate themselves with this).
void flight_clear();

/// Automatic postmortem dump: when CTB_FLIGHT_DUMP_DIR names a directory,
/// writes ctb_flight_<n>_<reason>.json there (at most 32 per process, so a
/// rejection storm cannot fill a disk) and returns the path; otherwise
/// returns "". Called on guard rejections and service quarantines.
std::string flight_autodump(const char* reason_literal);

}  // namespace ctb::telemetry

/// Statement macro for flight events.
#define CTB_TEL_FLIGHT(kind, detail, a0, a1)                          \
  ::ctb::telemetry::flight_record(::ctb::telemetry::FlightKind::kind, \
                                  detail, a0, a1)
