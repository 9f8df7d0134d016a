// Shared pieces of the end-to-end benchmark program: the benchmark's own
// input generator, its span recorder, the workload interface, and the
// calibration loop that measures the host's mul+add peak.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Input generator owned by the benchmark (splitmix64), so the inputs a seed
/// produces never change when the library's own RNG does.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  float uniform_float(float lo, float hi) {
    return lo + static_cast<float>(uniform()) * (hi - lo);
  }
  /// Integer in [lo, hi], uniform over magnitudes.
  int log_uniform(int lo, int hi) {
    const double v =
        std::exp(std::log(lo) + uniform() * (std::log(hi + 1.0) - std::log(lo)));
    const int i = static_cast<int>(v);
    return i < lo ? lo : (i > hi ? hi : i);
  }
  int below(int n) { return static_cast<int>(uniform() * n); }

 private:
  std::uint64_t state_;
};

inline double now_us() {
  using namespace std::chrono;
  return duration<double, std::micro>(
             steady_clock::now().time_since_epoch())
      .count();
}

/// One span recorded by the benchmark around a call into a library layer.
struct Span {
  const char* name = nullptr;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;            ///< index into the span list, -1 for a root
  std::int64_t request = -1;  ///< request id shared by a request's spans
  const char* detail = "";    ///< e.g. "hit" / "planned" for service.get
};

/// In-memory span recorder for the traced run. Disabled, a scope costs one
/// branch; the spans are written out when the benchmark ends. Counts made
/// at the same boundaries accumulate beside the spans.
class Tracer {
 public:
  bool enabled = false;
  std::vector<Span> spans;
  /// A, B and C (and bias) footprints of every GEMM executed while enabled,
  /// computed from the dims (not measured traffic).
  double bytes_computed = 0;

  int open(const char* name, std::int64_t request) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request;
    s.start_us = now_us();
    spans.push_back(s);
    stack_.push_back(static_cast<int>(spans.size()) - 1);
    return stack_.back();
  }
  void close(int index) {
    spans[index].end_us = now_us();
    stack_.pop_back();
  }

 private:
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::int64_t request)
      : tracer_(tracer),
        index_(tracer.enabled ? tracer.open(name, request) : -1) {}
  ~Scope() {
    if (index_ >= 0) tracer_.close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void set_detail(const char* detail) {
    if (index_ >= 0) tracer_.spans[index_].detail = detail;
  }

 private:
  Tracer& tracer_;
  int index_;
};

/// Outcome of checking captured outputs against reference_gemm.
struct CheckResult {
  std::int64_t requests_checked = 0;
  std::int64_t requests_failed = 0;  ///< at least one bit differed
  std::int64_t values_compared = 0;
};

/// Simulated V100 time of the served plans and of MAGMA vbatch on the same
/// batches, over a sample of requests fixed by the seed.
struct SimTotals {
  std::int64_t requests = 0;
  double plan_us = 0;
  double vbatch_us = 0;
  double busy_weighted = 0;      ///< sum of sm_busy_fraction * makespan
  double resident_weighted = 0;  ///< sum of avg_resident_blocks * makespan
  double makespan_us = 0;
  std::int64_t vbatch_bubble_blocks = 0;
};

/// A closed-loop workload with one client. setup() is what set-up time
/// measures: a fresh PlanService, every batch known up front planned, one
/// untimed warm-up pass. It may run between requests and leaves the same
/// state each time. Inputs are generated by the constructor, outside set-up
/// time. Set-up spans carry request id -1.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(Tracer& tracer) = 0;
  /// Runs request `id` (ids are consecutive from 0) and returns its useful
  /// GEMM FLOPs (batch_flops); throws on failure.
  virtual double request(std::int64_t id, Tracer& tracer) = 0;
  /// Compares the captured outputs with reference_gemm, bit for bit. With
  /// `flip_bit` one captured output bit is flipped first (the self-test of
  /// the check).
  virtual CheckResult check(bool flip_bit) = 0;
  /// Simulated times over the workload's sim sample, fixed by the seed.
  virtual SimTotals simulate() = 0;
  /// Requests per second of the reference host, used only to size the
  /// fixed-count chunks of the traced run.
  virtual double nominal_rate() const = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

/// Runs the benchmark-owned unfused mul+add loop at the vector width of
/// the library's active SIMD ISA for about `target_us` and returns the
/// measured GFLOP/s.
double calib_gflops(double target_us);

/// Vector width in floats the calibration loop uses.
int calib_lanes();

}  // namespace perfbench
