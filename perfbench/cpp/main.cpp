// perfbench — one benchmark binary for the four EDA-cloud workloads.
//
//   perfbench --workload <flow_characterize|tune_recipes|fleet_storm|
//                         serve_mixed>
//             --seed N --seconds S --trace 0|1
//
// An untraced run (--trace 0) sets the workload up several times (inputs,
// training, server start and one untimed warm-up round; setup_s is the
// median), then times whole rounds of operations for at least S
// seconds with the program's tracer off, checking every output outside the
// timed region. A traced run (--trace 1) sets up once, times S/2 seconds
// untraced and S/2 seconds with obs::Tracer on in wall-clock mode, and
// reports the per-layer metrics of the traced half plus the tracing
// overhead. The last line of stdout is the JSON result.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>

#include "harness.hpp"
#include "util/log.hpp"

using namespace perfbench;

namespace {

// Captured during static initialization, before main: the closest this
// process gets to its own start time without reading /proc.
const Clock::time_point g_process_start = Clock::now();

// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;

struct PhaseResult {
  std::vector<double> op_ms;
  double busy_ms = 0.0;
  std::size_t rounds = 0;
};

/// Whole rounds until `seconds` of operation time have been measured.
PhaseResult run_phase(Workload& workload, double seconds, bool traced,
                      Report& report) {
  workload.begin_phase(traced);
  workload.spans.reset_table();
  PhaseResult phase;
  do {
    for (std::size_t i = 0; i < workload.round_size(); ++i) {
      const Clock::time_point start = Clock::now();
      const bool ok = workload.run_op(i);
      const double ms = ms_between(start, Clock::now());
      ++report.attempted;
      if (!ok) ++report.failed;
      phase.op_ms.push_back(ms);
      phase.busy_ms += ms;
      workload.spans.harvest();
      if (ok) workload.check_op(i, ms, report);
    }
    ++phase.rounds;
  } while (phase.busy_ms < seconds * 1000.0);
  return phase;
}

void print_line(const std::string& name, const Metric& metric) {
  std::printf("  %-34s %16.6g %-12s n=%zu\n", name.c_str(), metric.value,
              metric.unit.c_str(), metric.samples);
}

std::string json_result(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "flow_characterize|tune_recipes|fleet_storm|serve_mixed "
               "--seed N --seconds S --trace 0|1\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return usage("bad --seed");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0 && options.seconds <= 3600))
        return usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      options.trace = value == "1";
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }

  std::function<std::unique_ptr<Workload>(const Options&)> factory;
  if (options.workload == "flow_characterize") factory = make_flow_workload;
  else if (options.workload == "tune_recipes") factory = make_tune_workload;
  else if (options.workload == "fleet_storm") factory = make_fleet_workload;
  else if (options.workload == "serve_mixed") factory = make_serve_workload;
  else return usage("unknown --workload");
  if (options.seconds <= 0.0) return usage("--seconds is required");

  edacloud::util::set_log_level(edacloud::util::LogLevel::kWarn);
  Report report;
  try {
    // Set-up, several times: each builds the workload from nothing, and
    // the first one is timed from the process start.
    std::vector<double> setup_s;
    std::unique_ptr<Workload> workload;
    const int setups = options.trace ? 1 : kSetups;
    for (int k = 0; k < setups; ++k) {
      workload.reset();
      const Clock::time_point start = k == 0 ? g_process_start : Clock::now();
      workload = factory(options);
      workload->setup();
      // One untimed round: the allocator, the caches and every lazily
      // built structure reach their steady state before timing starts.
      for (std::size_t i = 0; i < workload->round_size(); ++i) {
        if (!workload->run_op(i)) throw std::runtime_error("warm-up failed");
      }
      setup_s.push_back(ms_between(start, Clock::now()) / 1000.0);
    }

    std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0);
    if (!options.trace) {
      const PhaseResult phase =
          run_phase(*workload, options.seconds, /*traced=*/false, report);
      const std::size_t n = phase.op_ms.size();
      report.set("setup_s", quantile(setup_s, 0.5), "s", setup_s.size());
      report.set("ops_per_s", 1000.0 * static_cast<double>(n) / phase.busy_ms,
                 "1/s", n);
      report.set("op_p50_ms", quantile(phase.op_ms, 0.5), "ms", n);
      // Before finish(): its untimed checks build objects of their own,
      // which must not set the workload's peak.
      report.set("peak_rss_mb", peak_rss_mb(), "MiB");
      workload->finish(report);
      std::printf("end-to-end (%zu rounds, %zu ops):\n", phase.rounds, n);
    } else {
      const PhaseResult untraced = run_phase(
          *workload, options.seconds / 2.0, /*traced=*/false, report);
      edacloud::obs::Tracer::global().clear();
      edacloud::obs::Tracer::global().enable(edacloud::obs::ClockMode::kWall);
      workload->spans.enable(true);
      const PhaseResult traced = run_phase(*workload, options.seconds / 2.0,
                                           /*traced=*/true, report);
      workload->spans.enable(false);
      edacloud::obs::Tracer::global().disable();
      edacloud::obs::Tracer::global().clear();

      for (const auto& [name, unit] : layer_metric_names()) {
        report.set(name, 0.0, unit, 0);
      }
      report.set("trace.untraced_ops_per_s",
                 1000.0 * static_cast<double>(untraced.op_ms.size()) /
                     untraced.busy_ms,
                 "1/s", untraced.op_ms.size());
      report.set("trace.traced_ops_per_s",
                 1000.0 * static_cast<double>(traced.op_ms.size()) /
                     traced.busy_ms,
                 "1/s", traced.op_ms.size());
      workload->per_layer(workload->spans.table(), report);
      workload->finish(report);

      std::printf("span table (traced phase, %zu ops): name count total_ms "
                  "self_ms\n",
                  traced.op_ms.size());
      for (const auto& [name, row] : workload->spans.table()) {
        std::printf("  %-34s %8llu %12.3f %12.3f\n", name.c_str(),
                    static_cast<unsigned long long>(row.count), row.total_ms,
                    row.self_ms);
      }
      std::printf("per-layer:\n");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }

  for (const auto& [name, metric] : report.metrics()) print_line(name, metric);
  std::printf("  attempted=%llu failed=%llu correct=%s\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.correct() ? "true" : "false");
  for (const std::string& failure : report.check_failures()) {
    std::printf("  CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("%s\n", json_result(report).c_str());
  std::fflush(stdout);
  return 0;
}
