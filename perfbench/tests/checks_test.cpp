// Every output check accepts a correct output and rejects the same output
// after a deliberate corruption, so a program fault that produces the
// corrupted form cannot pass the benchmark.

#include <gtest/gtest.h>

#include "checks.hpp"
#include "core/flow.hpp"
#include "harness.hpp"
#include "nl/cell_library.hpp"
#include "sched/simulator.hpp"
#include "synth/engine.hpp"
#include "workloads/generators.hpp"

namespace perfbench {
namespace {

using namespace edacloud;

class FlowChecks : public ::testing::Test {
 protected:
  void SetUp() override {
    design_ = workloads::generate({"cavlc", 8, 3});
    flow_ = core::EdaFlow(library_).run(design_, {});
  }
  const nl::Netlist& netlist() const { return flow_.synthesis.mapped.netlist; }

  nl::CellLibrary library_ = nl::make_generic_14nm_library();
  nl::Aig design_;
  core::FlowResult flow_;
};

TEST_F(FlowChecks, CorrectFlowPasses) {
  EXPECT_EQ(check_logic_equivalent(design_, netlist(), 1), "");
  EXPECT_EQ(check_cells_in_die(netlist(), flow_.placement.placement), "");
  EXPECT_EQ(check_routes(netlist(), flow_.placement.placement, flow_.routing),
            "");
  EXPECT_GT(flow_.routing.wirelength_gedges, 0u);
}

TEST_F(FlowChecks, RejectsNetlistOfAnotherFunction) {
  // Same ports, one output inverted.
  nl::Aig other(design_.name());
  std::vector<nl::Literal> inputs;
  for (std::size_t i = 0; i < design_.input_count(); ++i) {
    inputs.push_back(other.add_input());
  }
  for (std::size_t o = 0; o < design_.output_count(); ++o) {
    other.add_output(o == 0 ? other.and_of(inputs[0], inputs[1])
                            : other.or_of(inputs[0], inputs[1]));
  }
  const synth::MapResult mapped = synth::SynthesisEngine(library_).synthesize(
      other, synth::default_recipe());
  EXPECT_NE(check_logic_equivalent(design_, mapped.netlist, 1), "");
}

TEST_F(FlowChecks, RejectsCellOutsideTheDie) {
  place::Placement placement = flow_.placement.placement;
  for (nl::NodeId id = 0; id < netlist().node_count(); ++id) {
    if (netlist().is_cell(id)) {
      placement.x[id] = placement.die_width_um * 1.5;
      break;
    }
  }
  EXPECT_NE(check_cells_in_die(netlist(), placement), "");
}

TEST_F(FlowChecks, RejectsBrokenPath) {
  route::RoutingResult routing = flow_.routing;
  for (auto& path : routing.connection_edges) {
    if (path.size() >= 2) {
      path.erase(path.begin());  // the walk no longer starts at a pin
      break;
    }
  }
  --routing.wirelength_gedges;  // keep the sum consistent
  EXPECT_NE(check_routes(netlist(), flow_.placement.placement, routing), "");
}

TEST_F(FlowChecks, RejectsPathThatJumps) {
  route::RoutingResult routing = flow_.routing;
  for (auto& path : routing.connection_edges) {
    if (path.size() >= 3) {
      std::swap(path.front(), path.back());  // same edges, disconnected walk
      break;
    }
  }
  EXPECT_NE(check_routes(netlist(), flow_.placement.placement, routing), "");
}

TEST_F(FlowChecks, RejectsUnroutedConnection) {
  route::RoutingResult routing = flow_.routing;
  routing.wirelength_gedges -= routing.connection_edges.front().size();
  routing.connection_edges.front().clear();
  EXPECT_NE(check_routes(netlist(), flow_.placement.placement, routing), "");
}

TEST_F(FlowChecks, RejectsMisreportedWirelength) {
  route::RoutingResult routing = flow_.routing;
  ++routing.wirelength_gedges;
  EXPECT_NE(check_routes(netlist(), flow_.placement.placement, routing), "");
}

/// A tune result built from two recipes' ladders with the program's own
/// optimizer, the way RecipeTuner assembles one.
tune::TuneResult small_tune_result() {
  tune::TuneResult result;
  result.design_name = "t";
  result.deadline_seconds = 60.0;
  const core::RuntimeLadders slow = {{{20, 11, 6, 4},
                                      {30, 16, 9, 6},
                                      {40, 21, 12, 8},
                                      {10, 6, 4, 3}}};
  const core::RuntimeLadders fast = {{{20, 11, 6, 4},
                                      {24, 13, 7, 5},
                                      {30, 16, 9, 6},
                                      {10, 6, 4, 3}}};
  tune::RecipeEvaluation fixed;
  fixed.recipe = synth::default_recipe();
  fixed.key = tune::recipe_key(fixed.recipe);
  fixed.area_um2 = 10.0;
  fixed.ladders = slow;
  tune::RecipeEvaluation other;
  other.key = "other";
  other.area_um2 = 9.0;
  other.ladders = fast;
  result.evaluations = {fixed, other};
  const core::DeploymentOptimizer optimizer;
  result.fixed = {fixed.key, 10.0, optimizer.optimize(slow, 60.0)};
  result.joint = {other.key, 9.0, optimizer.optimize(fast, 60.0)};
  result.joint_at_qor = result.joint;
  result.frontier = {{30.0, 2.0, 9.0, "other"}, {40.0, 1.0, 10.0, "fixed"}};
  return result;
}

TEST(TuneChecks, CorrectResultPasses) {
  const tune::TuneResult result = small_tune_result();
  ASSERT_TRUE(result.fixed.plan.feasible);
  EXPECT_EQ(check_tune(result), "");
}

TEST(TuneChecks, RejectsCostAboveBruteForce) {
  tune::TuneResult result = small_tune_result();
  result.joint.plan.total_cost_usd *= 1.01;
  result.joint.plan.entries[0].cost_usd +=
      result.joint.plan.total_cost_usd / 1.01 * 0.01;
  EXPECT_NE(check_tune(result), "");
}

TEST(TuneChecks, RejectsMissedDeadline) {
  tune::TuneResult result = small_tune_result();
  result.fixed.plan.entries[0].runtime_seconds += 100.0;
  EXPECT_NE(check_tune(result), "");
}

TEST(TuneChecks, RejectsWorseQorThanFixed) {
  tune::TuneResult result = small_tune_result();
  result.joint_at_qor.area_um2 = 11.0;
  EXPECT_NE(check_tune(result), "");
}

TEST(TuneChecks, RejectsDominatedFrontierPoint) {
  tune::TuneResult result = small_tune_result();
  result.frontier.push_back({50.0, 3.0, 12.0, "worse"});
  EXPECT_NE(check_tune(result), "");
}

TEST(FleetChecks, RealRunPasses) {
  sched::SimConfig config;
  config.duration_seconds = 3600.0;
  config.load.arrival_rate_per_hour = 30.0;
  sched::FleetSimulator sim(config, sched::builtin_templates(),
                            sched::make_policy("cost"));
  const sched::FleetMetrics metrics = sim.run();
  EXPECT_EQ(check_fleet(metrics), "");
  EXPECT_EQ(check_identical(metrics, metrics), "");
}

TEST(FleetChecks, RejectsLostJob) {
  sched::FleetMetrics m;
  m.jobs_submitted = 11;
  m.jobs_completed = 9;
  m.jobs_failed = 1;
  m.total_cost_usd = 9.0;
  m.cost_per_job_usd = 1.0;
  EXPECT_NE(check_fleet(m), "");
  m.jobs_submitted = 10;
  EXPECT_EQ(check_fleet(m), "");
  m.cost_per_job_usd = 1.1;
  EXPECT_NE(check_fleet(m), "");
}

TEST(FleetChecks, RejectsShardCountDependentMetrics) {
  sched::FleetMetrics a;
  a.jobs_completed = 5;
  sched::FleetMetrics b = a;
  b.latency_p99 = 1e-9;
  EXPECT_NE(check_identical(a, b), "");
}

TEST(ServeChecks, ReplyMustBeOkWithItsIdAndType) {
  const std::string good =
      R"({"id":7,"ok":true,"type":"predict","payload":{"x":1}})";
  svc::JsonValue payload;
  EXPECT_EQ(check_reply(good, 7, "predict", &payload), "");
  EXPECT_EQ(payload.number_or("x", 0), 1);
  EXPECT_NE(check_reply(good, 8, "predict", nullptr), "");
  EXPECT_NE(check_reply(good, 7, "optimize", nullptr), "");
  EXPECT_NE(check_reply(R"({"id":7,"ok":false,"error":"internal"})", 7,
                        "predict", nullptr),
            "");
  EXPECT_NE(check_reply("{\"id\":7", 7, "predict", nullptr), "");
}

TEST(ServeChecks, PredictPayloadMustMatchInProcessPrediction) {
  const std::array<double, 4> expected = {4.0, 2.5, 1.5, 1.0};
  const auto parse = [](const char* text) {
    return svc::parse_json(text).value;
  };
  EXPECT_EQ(check_predict_payload(
                parse(R"({"runtime_seconds":[4,2.5,1.5,1]})"), expected),
            "");
  EXPECT_NE(check_predict_payload(
                parse(R"({"runtime_seconds":[4,2.5,1.5,1.0000001]})"),
                expected),
            "");
  EXPECT_NE(check_predict_payload(parse(R"({"runtime_seconds":[4]})"),
                                  expected),
            "");
}

TEST(ServeChecks, OptimizeCostMustEqualBruteForce) {
  const core::RuntimeLadders ladders = {{{20, 11, 6, 4},
                                         {30, 16, 9, 6},
                                         {40, 21, 12, 8},
                                         {10, 6, 4, 3}}};
  for (const bool spot : {false, true}) {
    core::DeploymentOptimizer optimizer;
    if (spot) optimizer.enable_spot(cloud::SpotModel{});
    const core::DeploymentPlan plan = optimizer.optimize(ladders, 60.0);
    ASSERT_TRUE(plan.feasible);
    svc::JsonValue payload = svc::JsonValue::object();
    payload.set("feasible", svc::JsonValue::of(true));
    payload.set("total_cost_usd", svc::JsonValue::of(plan.total_cost_usd));
    EXPECT_EQ(check_optimize_payload(payload, ladders, 60.0, spot), "");
    payload.set("total_cost_usd",
                svc::JsonValue::of(plan.total_cost_usd * 1.001));
    EXPECT_NE(check_optimize_payload(payload, ladders, 60.0, spot), "");
    payload.set("feasible", svc::JsonValue::of(false));
    EXPECT_NE(check_optimize_payload(payload, ladders, 60.0, spot), "");
  }
}

TEST(LayerTimes, SelfTimeSubtractsDirectChildren) {
  std::map<std::string, LayerTime> table;
  accumulate_layer_times({{"parent", 0, 10000, 0},
                          {"child", 1000, 4000, 0},
                          {"grandchild", 2000, 3000, 0},
                          {"child", 5000, 6000, 0},
                          {"other-lane", 0, 10000, 1}},
                         &table);
  EXPECT_DOUBLE_EQ(table["parent"].total_ms, 10.0);
  EXPECT_DOUBLE_EQ(table["parent"].self_ms, 6.0);
  EXPECT_EQ(table["child"].count, 2u);
  EXPECT_DOUBLE_EQ(table["child"].self_ms, 3.0);
  EXPECT_DOUBLE_EQ(table["grandchild"].self_ms, 1.0);
  EXPECT_DOUBLE_EQ(table["other-lane"].self_ms, 10.0);
}

}  // namespace
}  // namespace perfbench
