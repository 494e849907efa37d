// flow_characterize: one operation is one instrumented EdaFlow::run against
// both 4-rung VM ladders (the way DatasetBuilder and Characterizer run
// them) on one netlist of the round. The round is stratified: a fixed list
// of (family, corpus size, recipe) netlists, with the structure of the
// randomized families drawn from the seed, so every seed asks for about
// the same amount of work.

#include <algorithm>

#include "checks.hpp"
#include "core/flow.hpp"
#include "harness.hpp"
#include "nl/cell_library.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"

namespace perfbench {

namespace {

using namespace edacloud;

struct Stratum {
  const char* family;
  int size;
};

// Corpus designs whose instrumented flows take alike times (about 120 to
// 300 ms here), so no one design sets the round's cost and the median
// operation sits in a dense cluster. Each gets the standard recipe of its
// index; the seed draws the structure of the randomized families
// (cavlc, mem_ctrl, dynamic_node, sparc_core, sbox).
constexpr Stratum kStrata[] = {
    {"adder", 128},  {"voter", 41},      {"arbiter", 128},
    {"crossbar", 8}, {"multiplier", 12}, {"cavlc", 28},
    {"mem_ctrl", 6}, {"dynamic_node", 5}, {"sparc_core", 8},
    {"cavlc", 40},   {"shifter", 6},     {"sbox", 4},
};

std::vector<perf::VmConfig> both_family_ladder() {
  std::vector<perf::VmConfig> configs;
  for (const auto family : {perf::InstanceFamily::kGeneralPurpose,
                            perf::InstanceFamily::kMemoryOptimized}) {
    for (const auto& vm : perf::vm_ladder(family)) configs.push_back(vm);
  }
  return configs;
}

struct Design {
  nl::Aig aig;
  synth::SynthRecipe recipe;
};

class FlowWorkload final : public Workload {
 public:
  explicit FlowWorkload(const Options& options) : options_(options) {}

  void setup() override {
    library_ = std::make_unique<nl::CellLibrary>(
        nl::make_generic_14nm_library());
    configs_ = both_family_ladder();
    const auto recipes = synth::standard_recipes();
    util::Rng rng(options_.seed ^ 0xF10Full);
    for (std::size_t i = 0; i < std::size(kStrata); ++i) {
      workloads::BenchmarkSpec spec;
      spec.family = kStrata[i].family;
      spec.size = kStrata[i].size;
      spec.seed = rng() % 100000 + 1;
      designs_.push_back(
          {workloads::generate(spec), recipes[i % recipes.size()]});
    }
  }

  [[nodiscard]] std::size_t round_size() const override {
    return designs_.size();
  }

  bool run_op(std::size_t index) override {
    try {
      SpanLog::Scope span(spans, "bench/flow.run");
      last_ = run_flow(index, configs_);
      return true;
    } catch (const std::exception&) {
      return false;
    }
  }

  void check_op(std::size_t index, double, Report& report) override {
    const Design& design = designs_[index];
    const core::FlowResult& flow = last_;
    const nl::Netlist& netlist = flow.synthesis.mapped.netlist;
    for (const std::string& error :
         {check_logic_equivalent(design.aig, netlist, options_.seed + index),
          check_cells_in_die(netlist, flow.placement.placement),
          check_routes(netlist, flow.placement.placement, flow.routing)}) {
      if (!error.empty()) {
        report.fail_check("flow " + design.aig.name() + ": " + error);
      }
    }
    if (!traced_) return;
    // Traced phase: per-layer figures, plus the same design products-only
    // so the instrumentation's share of each stage shows.
    const double total_ms = last_op_ms_;
    double stages_ms = 0.0;
    for (double s : flow.stage_wall_seconds) stages_ms += 1000.0 * s;
    const core::FlowResult plain = run_flow(index, {});
    obs::Tracer::global().clear();  // not part of the traced operation
    double plain_ms = 0.0;
    for (double s : plain.stage_wall_seconds) plain_ms += 1000.0 * s;
    ++ops_;
    route_ms_ += 1000.0 * flow.stage_wall_seconds[2];
    place_ms_ += 1000.0 * flow.stage_wall_seconds[1];
    synth_ms_ += 1000.0 * flow.stage_wall_seconds[0];
    sta_ms_ += 1000.0 * flow.stage_wall_seconds[3];
    instrument_ms_ += stages_ms - plain_ms;
    model_ms_ += total_ms - stages_ms;
    expansions_ += static_cast<double>(flow.routing.total_expansions);
    rrr_ += flow.routing.rrr_iterations;
    overflow_ += static_cast<double>(flow.routing.overflowed_edges);
    solver_iterations_ += flow.placement.solver_iterations;
    wirelength_ += static_cast<double>(flow.routing.wirelength_gedges);
  }

  void finish(Report&) override {}

  void begin_phase(bool traced) override {
    traced_ = traced;
    ops_ = 0;
    route_ms_ = place_ms_ = synth_ms_ = sta_ms_ = 0.0;
    instrument_ms_ = model_ms_ = expansions_ = rrr_ = overflow_ = 0.0;
    solver_iterations_ = wirelength_ = 0.0;
    last_op_ms_ = 0.0;
  }

  void per_layer(const std::map<std::string, LayerTime>&,
                 Report& report) override {
    const double n = std::max<double>(1, ops_);
    const auto ops = static_cast<std::size_t>(ops_);
    report.set("route.wall_ms", route_ms_ / n, "ms", ops);
    report.set("route.expansions", expansions_ / n, "count", ops);
    report.set("route.rrr_iterations", rrr_ / n, "count", ops);
    report.set("route.overflow_edges", overflow_ / n, "count", ops);
    report.set("perf.instrument_ms", instrument_ms_ / n, "ms", ops);
    report.set("perf.model_ms", model_ms_ / n, "ms", ops);
    report.set("place.wall_ms", place_ms_ / n, "ms", ops);
    report.set("place.solver_iterations", solver_iterations_ / n, "count",
               ops);
    report.set("synth.wall_ms", synth_ms_ / n, "ms", ops);
    report.set("sta.wall_ms", sta_ms_ / n, "ms", ops);
    report.set("wirelength_gedges", wirelength_ / n, "gcell_edges", ops);
  }

 private:
  core::FlowResult run_flow(std::size_t index,
                            const std::vector<perf::VmConfig>& configs) {
    core::FlowOptions flow_options;
    flow_options.recipe = designs_[index].recipe;
    const core::EdaFlow flow(*library_, flow_options);
    const Clock::time_point start = Clock::now();
    core::FlowResult result = flow.run(designs_[index].aig, configs);
    last_op_ms_ = ms_between(start, Clock::now());
    return result;
  }

  Options options_;
  std::unique_ptr<nl::CellLibrary> library_;
  std::vector<perf::VmConfig> configs_;
  std::vector<Design> designs_;
  core::FlowResult last_;
  bool traced_ = false;
  double last_op_ms_ = 0.0;
  double ops_ = 0, route_ms_ = 0, place_ms_ = 0, synth_ms_ = 0, sta_ms_ = 0;
  double instrument_ms_ = 0, model_ms_ = 0, expansions_ = 0, rrr_ = 0;
  double overflow_ = 0, solver_iterations_ = 0, wirelength_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_flow_workload(const Options& options) {
  return std::make_unique<FlowWorkload>(options);
}

}  // namespace perfbench
