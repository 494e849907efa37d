#pragma once
// The measuring harness shared by every workload: options, the result a
// run prints, sample statistics, peak memory, and the benchmark's own span
// log. The harness drives a Workload through set-up, a timed phase of whole
// rounds, and (in a traced run) an untraced and a traced phase, then prints
// one JSON result line.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  // required: BENCHMARK.json's run_seconds
  bool trace = false;
};

/// One reported figure. `samples` is how many values it summarizes.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

/// Accumulates a run's metrics, correctness verdict and operation counts.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1) {
    metrics_[name] = Metric{value, unit, samples};
  }
  /// Record a failed output check; the run then prints correct=false.
  void fail_check(const std::string& what);
  [[nodiscard]] bool correct() const { return check_failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& check_failures() const {
    return check_failures_;
  }
  [[nodiscard]] const std::map<std::string, Metric>& metrics() const {
    return metrics_;
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> check_failures_;
};

/// Quantile of `values` (linear interpolation between closest ranks, as
/// numpy's default); 0 for an empty set.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Peak resident set size of this process so far, MiB.
[[nodiscard]] double peak_rss_mb();

/// Spans the benchmark records around its own calls into the program, in
/// the program tracer's clock domain and lanes so the two sets nest.
struct BenchSpan {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  std::uint32_t lane = 0;
};

/// Per span name: call count, total time and self time (span time minus
/// the part of it covered by direct child spans on the same lane).
struct LayerTime {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class SpanLog {
 public:
  /// Off until enabled: an untraced run records nothing.
  void enable(bool on) { on_ = on; }

  /// RAII span around one call into the program.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    BenchSpan span_;
  };

  /// Fold the spans recorded since the last harvest, together with the
  /// program tracer's events, into the per-name table; then clear both
  /// (keeps memory bounded over a long traced phase).
  void harvest();
  [[nodiscard]] const std::map<std::string, LayerTime>& table() const {
    return table_;
  }
  void reset_table() { table_.clear(); }

 private:
  bool on_ = false;
  std::vector<BenchSpan> pending_;
  std::map<std::string, LayerTime> table_;
};

/// Self-time accounting over one batch of spans (exposed for the tests).
void accumulate_layer_times(const std::vector<BenchSpan>& spans,
                            std::map<std::string, LayerTime>* table);

/// One workload: set-up, rounds of timed operations with untimed output
/// checks, and the metrics it adds on top of the harness's common ones.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Inputs, training and servers: everything before the harness's
  /// untimed warm-up round.
  virtual void setup() = 0;
  /// Operations in one round; a run always attempts whole rounds.
  [[nodiscard]] virtual std::size_t round_size() const = 0;
  /// The timed operation `index` of a round. Returns false if it failed.
  virtual bool run_op(std::size_t index) = 0;
  /// Untimed check of the output run_op(index) just produced in `op_ms`.
  virtual void check_op(std::size_t index, double op_ms, Report& report) = 0;
  /// Untimed checks after the timed phase (whole-run properties).
  virtual void finish(Report& report) = 0;
  /// Start of a phase: forget per-phase accumulators.
  virtual void begin_phase(bool traced) = 0;
  /// Per-layer metrics of the traced phase (every name in
  /// layer_metric_names(); zero where this workload leaves a layer idle).
  virtual void per_layer(const std::map<std::string, LayerTime>& spans,
                         Report& report) = 0;
  SpanLog spans;
};

std::unique_ptr<Workload> make_flow_workload(const Options& options);
std::unique_ptr<Workload> make_tune_workload(const Options& options);
std::unique_ptr<Workload> make_fleet_workload(const Options& options);
std::unique_ptr<Workload> make_serve_workload(const Options& options);

/// Every per-layer metric name with its unit, in print order.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
layer_metric_names();

}  // namespace perfbench
