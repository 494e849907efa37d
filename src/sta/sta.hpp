#pragma once
// Static timing analysis — the fourth characterized application. Performs
// a levelized forward arrival-time sweep and backward required-time sweep
// over the gate-level netlist, with NLDM-style cell delays (intrinsic +
// drive resistance x load) and Elmore-lite wire delays derived from placed
// positions. The per-pin delay arithmetic walks floating-point data out of
// the technology library — the FP/AVX signature the paper attributes to
// STA — while parallelism is bounded by the level structure (Fig. 2d).
//
// With StaOptions::threads > 1 both sweeps actually run in parallel on the
// shared util::ThreadPool, one level fanned out at a time: the forward
// sweep writes only arrival/slew/worst-parent of the level's own nodes, and
// the backward sweep is phrased as a gather (required[u] = min over fanouts,
// all of strictly higher level) so no two nodes race. Per-chunk
// perf::EventLog spans (of per-worker-slot arenas) replayed in chunk order
// keep instrumentation totals — and all timing numbers — bit-identical at
// any thread count.

#include <cstdint>
#include <vector>

#include "nl/netlist.hpp"
#include "perf/runtime_model.hpp"
#include "place/placer.hpp"

namespace edacloud::sta {

struct StaOptions {
  /// Clock period; <= 0 derives period = slack_margin x critical path.
  double clock_period_ps = 0.0;
  double slack_margin = 1.05;
  /// Wirelength model when no placement is supplied (fanout-based).
  double default_wire_um_per_fanout = 8.0;
  /// Slew model: output slew = slew_gain x drive_res x load; the input
  /// slew degrades delay by slew_delay_factor x slew.
  double slew_gain = 2.0;
  double slew_delay_factor = 0.08;
  /// Toggle probability per node per cycle, for the dynamic-power report.
  double activity_factor = 0.1;
  double supply_voltage = 0.8;  // volts
  /// Worker threads for the levelized sweeps (0 = the global default from
  /// util::global_thread_count(); 1 = serial). Bit-identical at any value.
  int threads = 0;
};

struct TimingReport {
  double critical_path_ps = 0.0;
  double clock_period_ps = 0.0;
  double worst_slack_ps = 0.0;
  std::size_t endpoint_count = 0;
  std::size_t violating_endpoints = 0;
  std::vector<double> arrival_ps;   // per netlist node
  std::vector<double> slack_ps;     // per netlist node
  std::vector<double> slew_ps;      // output transition per node
  std::vector<nl::NodeId> critical_path;  // PI -> PO chain
  std::vector<nl::NodeId> worst_parent;    // per node: worst-arrival fanin
  // Power report (see StaOptions::activity_factor).
  double leakage_power_nw = 0.0;
  double dynamic_power_uw = 0.0;
  perf::JobProfile profile;
};

/// One ranked timing path (endpoint backwards to a primary input).
struct TimingPath {
  double arrival_ps = 0.0;
  double slack_ps = 0.0;
  std::vector<nl::NodeId> nodes;  // PI ... PO
};

/// The k worst endpoint paths (one path per endpoint, ranked by arrival).
std::vector<TimingPath> worst_paths(const TimingReport& report,
                                    const nl::Netlist& netlist, int k);

class StaEngine {
 public:
  explicit StaEngine(StaOptions options = {}) : options_(options) {}

  /// Timing with placement-derived wire delays (placement may be null).
  [[nodiscard]] TimingReport run(
      const nl::Netlist& netlist, const place::Placement* placement,
      const std::vector<perf::VmConfig>& configs) const;

  [[nodiscard]] const StaOptions& options() const { return options_; }

 private:
  StaOptions options_;
};

}  // namespace edacloud::sta
