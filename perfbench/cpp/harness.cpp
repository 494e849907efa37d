#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

void Report::fail_check(const std::string& what) {
  // Keep the first few messages; one bad output tends to repeat per round.
  if (check_failures_.size() < 32) check_failures_.push_back(what);
  else if (check_failures_.size() == 32) check_failures_.push_back("...");
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

SpanLog::Scope::Scope(SpanLog& log, std::string name) : log_(&log) {
  if (!log_->on_) return;
  edacloud::obs::Tracer& tracer = edacloud::obs::Tracer::global();
  span_.name = std::move(name);
  span_.lane = tracer.thread_lane();
  span_.start_us = tracer.now_us();
}

SpanLog::Scope::~Scope() {
  if (!log_->on_) return;
  span_.end_us = edacloud::obs::Tracer::global().now_us();
  log_->pending_.push_back(std::move(span_));
}

void SpanLog::harvest() {
  if (!on_) return;
  edacloud::obs::Tracer& tracer = edacloud::obs::Tracer::global();
  std::vector<BenchSpan> spans = std::move(pending_);
  pending_.clear();
  for (const edacloud::obs::TraceEvent& event : tracer.snapshot()) {
    // Fleet engines stamp their spans with simulated time; only host
    // wall-clock spans describe where this process spent its time.
    if (event.phase != 'X' || event.category == "fleet") continue;
    spans.push_back({event.name, event.ts_us, event.ts_us + event.dur_us,
                     event.tid});
  }
  tracer.clear();
  accumulate_layer_times(spans, &table_);
}

void accumulate_layer_times(const std::vector<BenchSpan>& input,
                            std::map<std::string, LayerTime>* table) {
  std::vector<BenchSpan> spans = input;
  std::sort(spans.begin(), spans.end(),
            [](const BenchSpan& a, const BenchSpan& b) {
              if (a.lane != b.lane) return a.lane < b.lane;
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.end_us > b.end_us;  // parents before their children
            });
  struct Open {
    const BenchSpan* span;
    double child_us;
  };
  std::vector<Open> stack;
  const auto close = [&](const Open& open) {
    LayerTime& row = (*table)[open.span->name];
    const double dur = open.span->end_us - open.span->start_us;
    row.count += 1;
    row.total_ms += dur / 1000.0;
    row.self_ms += std::max(0.0, dur - open.child_us) / 1000.0;
  };
  std::uint32_t lane = 0;
  for (const BenchSpan& span : spans) {
    if (!stack.empty() && span.lane != lane) {
      while (!stack.empty()) {
        close(stack.back());
        stack.pop_back();
      }
    }
    lane = span.lane;
    while (!stack.empty() && stack.back().span->end_us <= span.start_us) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) {
      // Clip to the parent: a child never covers more than its parent.
      const double end = std::min(span.end_us, stack.back().span->end_us);
      stack.back().child_us += std::max(0.0, end - span.start_us);
    }
    stack.push_back({&span, 0.0});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_names() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      // Workload outputs that exist on one workload only.
      {"wirelength_gedges", "gcell_edges"},
      {"plan_usd", "USD"},
      {"usd_per_job", "USD"},
      {"sim_events_per_s", "1/s"},
      {"op_p99_ms", "ms"},
      // route
      {"route.wall_ms", "ms"},
      {"route.expansions", "count"},
      {"route.rrr_iterations", "count"},
      {"route.overflow_edges", "count"},
      // perf
      {"perf.instrument_ms", "ms"},
      {"perf.model_ms", "ms"},
      // place
      {"place.wall_ms", "ms"},
      {"place.solver_iterations", "count"},
      // synth
      {"synth.wall_ms", "ms"},
      {"tune.synthesize_ms", "ms"},
      // sta
      {"sta.wall_ms", "ms"},
      // ml
      {"tune.predict_ms", "ms"},
      {"ml.forward_predictions", "count"},
      {"ml.predictions_per_s", "1/s"},
      // cloud
      {"tune.optimize_ms", "ms"},
      // sched
      {"sched.serial.wall_ms", "ms"},
      {"sched.serial.events_per_s", "1/s"},
      {"sched.sharded.wall_ms", "ms"},
      {"sched.sharded.events_per_s", "1/s"},
      {"sched.sharded.windows", "count"},
      {"sched.sharded.events_per_window", "count"},
      {"sched.sharded.shard_imbalance", "ratio"},
      // market
      {"market.rebids", "count"},
      {"market.migrations", "count"},
      {"market.fallbacks", "count"},
      {"fleet.retries", "count"},
      // svc (client round trip, then in-process handle_payload)
      {"svc.predict.p50_ms", "ms"},
      {"svc.optimize.p50_ms", "ms"},
      {"svc.run-stage.p50_ms", "ms"},
      {"svc.characterize.p50_ms", "ms"},
      {"svc.inproc.predict.p50_ms", "ms"},
      {"svc.inproc.optimize.p50_ms", "ms"},
      {"svc.inproc.run-stage.p50_ms", "ms"},
      {"svc.inproc.characterize.p50_ms", "ms"},
      {"svc.batches", "count"},
      {"svc.batched_requests", "count"},
      {"svc.cache_hits", "count"},
      {"svc.cache_misses", "count"},
      // tracing overhead: the same workload untraced, then traced
      {"trace.untraced_ops_per_s", "1/s"},
      {"trace.traced_ops_per_s", "1/s"},
  };
  return kNames;
}

}  // namespace perfbench
