// ctb::service failpoints — programmatic fault injection at service
// boundaries (DESIGN.md §10).
//
// A failpoint is a named site in the plan service ("service.planner.throw",
// "service.planner.corrupt", "service.fallback.alloc") that consults a
// process-wide registry every time it is reached. Tests and chaos drills arm
// a site with an action (throw, bad_alloc, corrupt) and an optional
// remaining-fires budget; the site then injects that fault as if the
// underlying component had failed. Sites sit only on the planning path,
// never on a cache hit.
//
// Armed either programmatically (set_failpoint / ScopedFailpoint) or through
// the CTB_FAILPOINTS environment variable, parsed once at first use:
//
//   CTB_FAILPOINTS="service.planner.throw=throw:2,service.fallback.alloc=badalloc"
//
// spec grammar per entry: name=action[:count] with action one of
// off|throw|badalloc|corrupt and count the number of fires (-1 / absent =
// unlimited). Entries are separated by ',' or ';'.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

namespace ctb::service {

/// What an armed failpoint injects when its site is reached.
enum class FailAction {
  kOff,       ///< disarmed: the site behaves normally
  kThrow,     ///< throw CheckError from the site
  kBadAlloc,  ///< throw std::bad_alloc from the site
  kCorrupt,   ///< corrupt the site's product (e.g. truncate an aux array)
};

const char* to_string(FailAction action);

struct FailpointSpec {
  FailAction action = FailAction::kOff;
  int remaining = -1;  ///< fires left before auto-disarm; -1 = unlimited
};

/// Arms (or, with FailAction::kOff, disarms) the named site. Thread-safe.
void set_failpoint(const std::string& name, FailpointSpec spec);

/// Disarms one site / every site. Hit counts survive clear_failpoint but
/// reset with clear_failpoints.
void clear_failpoint(const std::string& name);
void clear_failpoints();

/// Called by the instrumented site: returns the armed action (consuming one
/// fire from a finite budget) or kOff when the site is disarmed or
/// exhausted. Thread-safe; the first call parses CTB_FAILPOINTS.
FailAction consume_failpoint(const char* name);

/// Times the named site fired an armed action (diagnostics for chaos tests).
std::int64_t failpoint_hits(const std::string& name);

/// Parses a CTB_FAILPOINTS-grammar spec string and arms every entry it
/// names. Returns the number of entries armed; malformed entries are
/// skipped, never fatal (a typo in an env var must not take the service
/// down). Exposed for tests; the env var goes through this exact path.
int load_failpoints_from_string(const std::string& spec);

/// RAII arming for tests: arms `name` on construction, disarms on scope
/// exit.
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string name, FailpointSpec spec)
      : name_(std::move(name)) {
    set_failpoint(name_, spec);
  }
  ~ScopedFailpoint() { clear_failpoint(name_); }
  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

 private:
  std::string name_;
};

}  // namespace ctb::service
