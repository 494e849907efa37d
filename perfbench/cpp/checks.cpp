#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "nl/netlist_sim.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace edacloud;

bool nearly_equal(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max({1.0, std::fabs(a), std::fabs(b)});
}

std::string check_logic_equivalent(const nl::Aig& design,
                                   const nl::Netlist& netlist,
                                   std::uint64_t seed, int words) {
  if (netlist.inputs().size() != design.input_count() ||
      netlist.outputs().size() != design.output_count()) {
    return "netlist ports differ from the design's";
  }
  util::Rng rng(seed);
  for (int w = 0; w < words; ++w) {
    std::vector<std::uint64_t> vectors(design.input_count());
    for (std::uint64_t& word : vectors) word = rng();
    if (design.simulate(vectors) != nl::simulate(netlist, vectors)) {
      return "netlist function differs from the design's";
    }
  }
  return "";
}

std::string check_cells_in_die(const nl::Netlist& netlist,
                               const place::Placement& placement) {
  if (!placement.valid_for(netlist)) return "placement size mismatch";
  for (nl::NodeId id = 0; id < netlist.node_count(); ++id) {
    if (!netlist.is_cell(id)) continue;
    const double x = placement.x[id];
    const double y = placement.y[id];
    if (!(x >= 0.0 && x <= placement.die_width_um && y >= 0.0 &&
          y <= placement.die_height_um)) {
      return "cell " + std::to_string(id) + " placed outside the die";
    }
  }
  return "";
}

namespace {

struct Cell {
  int x;
  int y;
  bool operator==(const Cell&) const = default;
};

/// The two gcells a grid edge joins: horizontal edges first (row-major,
/// G-1 per row), then vertical edges (column-major, G-1 per column).
bool edge_ends(std::uint32_t edge, int grid, Cell* a, Cell* b) {
  const std::uint64_t h_edges =
      static_cast<std::uint64_t>(grid) * static_cast<std::uint64_t>(grid - 1);
  if (edge < h_edges) {
    const int y = static_cast<int>(edge / (grid - 1));
    const int x = static_cast<int>(edge % (grid - 1));
    *a = {x, y};
    *b = {x + 1, y};
    return true;
  }
  const std::uint64_t v = edge - h_edges;
  if (v >= h_edges) return false;
  const int x = static_cast<int>(v / (grid - 1));
  const int y = static_cast<int>(v % (grid - 1));
  *a = {x, y};
  *b = {x, y + 1};
  return true;
}

/// Walk `edges` from `from`; true if each edge continues the walk and it
/// ends at `to`.
bool walks(const std::vector<std::uint32_t>& edges, int grid, Cell from,
           Cell to) {
  Cell at = from;
  for (const std::uint32_t edge : edges) {
    Cell a{}, b{};
    if (!edge_ends(edge, grid, &a, &b)) return false;
    if (at == a) at = b;
    else if (at == b) at = a;
    else return false;
  }
  return at == to;
}

}  // namespace

std::string check_routes(const nl::Netlist& netlist,
                         const place::Placement& placement,
                         const route::RoutingResult& routing) {
  const int grid = routing.grid_size;
  if (grid < 2) return "routing grid smaller than 2x2";
  if (!placement.valid_for(netlist)) return "placement size mismatch";
  const auto gcell = [&](nl::NodeId node) {
    const double fx =
        placement.x[node] / std::max(1e-9, placement.die_width_um);
    const double fy =
        placement.y[node] / std::max(1e-9, placement.die_height_um);
    return Cell{std::clamp(static_cast<int>(fx * grid), 0, grid - 1),
                std::clamp(static_cast<int>(fy * grid), 0, grid - 1)};
  };
  // Star model: one two-pin connection per (driver, sink) pair whose pins
  // lie in different gcells, in driver order then fanin-reference order.
  std::vector<std::vector<nl::NodeId>> sinks(netlist.node_count());
  for (nl::NodeId node = 0; node < netlist.node_count(); ++node) {
    for (const nl::NodeId driver : netlist.node(node).fanins) {
      sinks[driver].push_back(node);
    }
  }
  const auto fanout = netlist.build_fanout_csr();
  std::size_t index = 0;
  std::uint64_t length = 0;
  for (nl::NodeId driver = 0; driver < netlist.node_count(); ++driver) {
    const auto [begin, end] = fanout.range(driver);
    if (end - begin != sinks[driver].size()) {
      return "fanout of node " + std::to_string(driver) + " miscounted";
    }
    const Cell source = gcell(driver);
    for (auto e = begin; e < end; ++e) {
      const Cell target = gcell(fanout.targets[e]);
      if (source == target) continue;
      if (index >= routing.connection_edges.size()) {
        return "fewer routed paths than connections";
      }
      const auto& path = routing.connection_edges[index];
      if (path.empty()) {
        return "connection " + std::to_string(index) + " left unrouted";
      }
      if (!walks(path, grid, target, source) &&
          !walks(path, grid, source, target)) {
        return "connection " + std::to_string(index) +
               " is not a grid path between its pins";
      }
      length += path.size();
      ++index;
    }
  }
  if (index != routing.connection_edges.size()) {
    return "more routed paths than connections";
  }
  if (length != routing.wirelength_gedges) {
    return "path lengths sum to " + std::to_string(length) +
           ", reported wirelength " +
           std::to_string(routing.wirelength_gedges);
  }
  return "";
}

BruteForcePlan brute_force_plan(const core::RuntimeLadders& ladders,
                                double deadline_seconds,
                                const cloud::SpotModel* spot) {
  const cloud::PricingCatalog catalog = cloud::PricingCatalog::aws_like();
  struct Item {
    long long seconds;
    double cost;
  };
  std::array<std::vector<Item>, core::kJobCount> stages;
  for (int j = 0; j < core::kJobCount; ++j) {
    const perf::InstanceFamily family =
        core::recommended_family(static_cast<core::JobKind>(j));
    for (int i = 0; i < 4; ++i) {
      const int vcpus = perf::kVcpuOptions[static_cast<std::size_t>(i)];
      const double hourly = catalog.hourly_usd(family, vcpus);
      const double runtime = ladders[j][i];
      stages[j].push_back({std::max(0LL, std::llround(runtime)),
                           hourly * std::ceil(runtime) / 3600.0});
      if (spot != nullptr) {
        const double expected = spot->expected_runtime_seconds(runtime);
        stages[j].push_back(
            {std::max(0LL, std::llround(expected)),
             hourly * std::ceil(expected) / 3600.0 * spot->price_multiplier});
      }
    }
  }
  const long long budget = static_cast<long long>(std::floor(deadline_seconds));
  BruteForcePlan best;
  best.cost_usd = std::numeric_limits<double>::infinity();
  for (const Item& a : stages[0]) {
    for (const Item& b : stages[1]) {
      for (const Item& c : stages[2]) {
        for (const Item& d : stages[3]) {
          if (a.seconds + b.seconds + c.seconds + d.seconds > budget) continue;
          const double cost = a.cost + b.cost + c.cost + d.cost;
          if (cost < best.cost_usd) {
            best.feasible = true;
            best.cost_usd = cost;
          }
        }
      }
    }
  }
  if (!best.feasible) best.cost_usd = 0.0;
  return best;
}

namespace {

std::string check_plan(const char* what, const tune::JointPlan& joint,
                       double deadline_seconds) {
  const core::DeploymentPlan& plan = joint.plan;
  if (!plan.feasible) return "";
  long long seconds = 0;
  double cost = 0.0;
  for (const core::DeploymentPlanEntry& entry : plan.entries) {
    seconds += std::llround(entry.runtime_seconds);
    cost += entry.cost_usd;
  }
  if (plan.entries.size() != core::kJobCount) {
    return std::string(what) + " plan does not cover the four jobs";
  }
  if (seconds > static_cast<long long>(std::floor(deadline_seconds))) {
    return std::string(what) + " plan misses its deadline";
  }
  if (!nearly_equal(cost, plan.total_cost_usd)) {
    return std::string(what) + " plan entries do not sum to its cost";
  }
  return "";
}

std::string compare(const char* what, const tune::JointPlan& joint,
                    const BruteForcePlan& brute) {
  if (joint.plan.feasible != brute.feasible) {
    return std::string(what) + " feasibility differs from brute force";
  }
  if (brute.feasible && !nearly_equal(joint.plan.total_cost_usd, brute.cost_usd)) {
    return std::string(what) + " cost differs from brute force";
  }
  return "";
}

}  // namespace

std::string check_tune(const tune::TuneResult& result) {
  const std::string fixed_key = tune::recipe_key(synth::default_recipe());
  const tune::RecipeEvaluation* fixed = nullptr;
  for (const auto& eval : result.evaluations) {
    if (eval.key == fixed_key) fixed = &eval;
  }
  if (fixed == nullptr) return "default recipe was not evaluated";

  BruteForcePlan joint, joint_at_qor;
  joint.cost_usd = joint_at_qor.cost_usd =
      std::numeric_limits<double>::infinity();
  for (const auto& eval : result.evaluations) {
    const BruteForcePlan plan =
        brute_force_plan(eval.ladders, result.deadline_seconds);
    if (!plan.feasible) continue;
    if (plan.cost_usd < joint.cost_usd) joint = plan;
    if (eval.area_um2 <= fixed->area_um2 &&
        plan.cost_usd < joint_at_qor.cost_usd) {
      joint_at_qor = plan;
    }
  }
  const BruteForcePlan fixed_plan =
      brute_force_plan(fixed->ladders, result.deadline_seconds);
  for (const std::string& error :
       {compare("fixed", result.fixed, fixed_plan),
        compare("joint", result.joint, joint),
        compare("joint-at-QoR", result.joint_at_qor, joint_at_qor),
        check_plan("fixed", result.fixed, result.deadline_seconds),
        check_plan("joint", result.joint, result.deadline_seconds),
        check_plan("joint-at-QoR", result.joint_at_qor,
                   result.deadline_seconds)}) {
    if (!error.empty()) return error;
  }
  if (result.fixed.plan.feasible) {
    const double j = result.joint.plan.total_cost_usd;
    const double q = result.joint_at_qor.plan.total_cost_usd;
    const double f = result.fixed.plan.total_cost_usd;
    if (!(j <= q * (1 + 1e-12) && q <= f * (1 + 1e-12))) {
      return "joint <= joint-at-QoR <= fixed cost order broken";
    }
    if (result.joint_at_qor.area_um2 > result.fixed.area_um2) {
      return "joint-at-QoR area exceeds the fixed recipe's";
    }
  }
  for (const tune::ParetoEntry& a : result.frontier) {
    for (const tune::ParetoEntry& b : result.frontier) {
      if (b.deadline_seconds <= a.deadline_seconds &&
          b.cost_usd <= a.cost_usd && b.area_um2 <= a.area_um2 &&
          (b.deadline_seconds < a.deadline_seconds ||
           b.cost_usd < a.cost_usd || b.area_um2 < a.area_um2)) {
        return "frontier point dominated by another";
      }
    }
  }
  return "";
}

std::string check_fleet(const sched::FleetMetrics& metrics) {
  if (metrics.jobs_submitted !=
      metrics.jobs_completed + metrics.jobs_failed) {
    return "submitted " + std::to_string(metrics.jobs_submitted) +
           " != completed " + std::to_string(metrics.jobs_completed) +
           " + failed " + std::to_string(metrics.jobs_failed);
  }
  if (metrics.jobs_completed == 0) return "no job completed";
  if (!nearly_equal(metrics.cost_per_job_usd *
                 static_cast<double>(metrics.jobs_completed),
             metrics.total_cost_usd)) {
    return "$/job x completed jobs != total cost";
  }
  return "";
}

std::string check_identical(const sched::FleetMetrics& a,
                            const sched::FleetMetrics& b) {
  obs::Registry ra, rb;
  a.export_to(ra);
  b.export_to(rb);
  return ra.to_json() == rb.to_json() ? "" : "fleet metrics differ";
}

std::string check_reply(const std::string& reply, std::uint64_t id,
                        const std::string& type, svc::JsonValue* payload) {
  const svc::JsonParseResult parsed = svc::parse_json(reply);
  if (!parsed.ok) return "reply is not JSON";
  const svc::JsonValue& value = parsed.value;
  if (!value.bool_or("ok", false)) return "reply is not ok";
  const svc::JsonValue* got_id = value.find("id");
  if (got_id == nullptr || !got_id->is_number() ||
      got_id->as_number() != static_cast<double>(id)) {
    return "reply carries another id";
  }
  if (value.string_or("type", "") != type) return "reply of another type";
  const svc::JsonValue* body = value.find("payload");
  if (body == nullptr || !body->is_object()) return "reply without payload";
  if (payload != nullptr) *payload = *body;
  return "";
}

std::string check_predict_payload(const svc::JsonValue& payload,
                                  const std::array<double, 4>& expected) {
  const svc::JsonValue* got = payload.find("runtime_seconds");
  if (got == nullptr || !got->is_array() || got->size() != expected.size()) {
    return "predict reply without four runtimes";
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (got->at(i).as_number() != expected[i]) {
      return "predict reply differs from the in-process prediction";
    }
  }
  return "";
}

std::string check_optimize_payload(const svc::JsonValue& payload,
                                   const core::RuntimeLadders& ladders,
                                   double deadline_seconds, bool spot) {
  const cloud::SpotModel model;
  const BruteForcePlan brute =
      brute_force_plan(ladders, deadline_seconds, spot ? &model : nullptr);
  const bool feasible = payload.bool_or("feasible", false);
  if (feasible != brute.feasible) {
    return "optimize feasibility differs from brute force";
  }
  if (feasible &&
      !nearly_equal(payload.number_or("total_cost_usd", -1.0), brute.cost_usd)) {
    return "optimize cost differs from brute force";
  }
  return "";
}

}  // namespace perfbench
