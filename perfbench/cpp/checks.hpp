#pragma once
// Output checks. Each one recomputes what it checks apart from the code
// under test (a logic simulation of the input design, a walk over the
// routing grid, an exhaustive search over every per-stage VM choice) or
// tests a property the method must have. None compares against a saved
// copy of earlier output. Every check returns an empty string when the
// output passes and a one-line reason when it does not.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cloud/pricing.hpp"
#include "core/optimizer.hpp"
#include "nl/aig.hpp"
#include "nl/netlist.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"
#include "sched/metrics.hpp"
#include "svc/json.hpp"
#include "tune/tuner.hpp"

namespace perfbench {

/// The mapped netlist computes the input AIG's function: both are
/// simulated on `words` x 64 seeded random input vectors.
std::string check_logic_equivalent(const edacloud::nl::Aig& design,
                                   const edacloud::nl::Netlist& netlist,
                                   std::uint64_t seed, int words = 4);

/// Every cell's placed position lies inside the die.
std::string check_cells_in_die(const edacloud::nl::Netlist& netlist,
                               const edacloud::place::Placement& placement);

/// Every driver->sink connection whose pins fall in different gcells is a
/// connected path of grid edges between the two pins' gcells, and the
/// path lengths sum to the reported wirelength.
std::string check_routes(const edacloud::nl::Netlist& netlist,
                         const edacloud::place::Placement& placement,
                         const edacloud::route::RoutingResult& routing);

/// Cheapest deployment by exhaustive search: one item per flow stage,
/// total whole-second runtime within the whole-second deadline (the
/// billing and deadline granularity of the deployment model). Items are
/// the on-demand ladder on each job's recommended family, plus spot items
/// priced by `spot` when it is non-null.
struct BruteForcePlan {
  bool feasible = false;
  double cost_usd = 0.0;
};
BruteForcePlan brute_force_plan(const edacloud::core::RuntimeLadders& ladders,
                                double deadline_seconds,
                                const edacloud::cloud::SpotModel* spot =
                                    nullptr);

/// A tune result against brute force and the properties the joint search
/// must have: the fixed, joint and joint-at-QoR costs equal the exhaustive
/// optimum over their recipe sets; joint <= joint-at-QoR <= fixed in cost;
/// joint-at-QoR area <= fixed area; every plan meets the deadline; no
/// frontier point is dominated by another.
std::string check_tune(const edacloud::tune::TuneResult& result);

/// Fleet conservation: after a full drain every submitted job completed or
/// failed, and $/job times completed jobs is the total cost.
std::string check_fleet(const edacloud::sched::FleetMetrics& metrics);

/// The sharded engine's determinism contract: two runs of one scenario
/// (at different shard counts) export byte-identical metrics.
std::string check_identical(const edacloud::sched::FleetMetrics& a,
                            const edacloud::sched::FleetMetrics& b);

/// A server reply: valid JSON, ok, carrying the request's id and type.
/// On success *payload receives the reply's payload.
std::string check_reply(const std::string& reply, std::uint64_t id,
                        const std::string& type,
                        edacloud::svc::JsonValue* payload);

/// A predict payload carries exactly the runtimes the reference predictor
/// computed in-process.
std::string check_predict_payload(const edacloud::svc::JsonValue& payload,
                                  const std::array<double, 4>& expected);

/// An optimize payload's feasibility and total cost equal brute force over
/// the reference ladders (spot tiers priced by the default SpotModel when
/// the request asked for spot).
std::string check_optimize_payload(
    const edacloud::svc::JsonValue& payload,
    const edacloud::core::RuntimeLadders& ladders, double deadline_seconds,
    bool spot);

/// Relative closeness for sums whose association order may differ.
[[nodiscard]] bool nearly_equal(double a, double b, double rel = 1e-9);

}  // namespace perfbench
