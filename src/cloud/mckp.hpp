#pragma once
// Multi-choice knapsack deployment optimization (§III-C). Each flow stage
// offers one item per candidate VM configuration (runtime, cost); exactly
// one item per stage must be picked, total runtime must respect the
// deadline, and the objective is optimized over the remaining freedom.
//
// Two objectives are provided (see DESIGN.md "Objective-function note"):
//  - kMinTotalCost    : minimize Σ cost — the prose semantics the paper's
//                       results (Table I, Fig. 6) describe.
//  - kMaxInverseCost  : maximize Σ 1/cost — the literal Eq. (2) objective.
//
// Both are solved exactly by a breakpoint dynamic program. Runtimes are
// rounded to whole seconds; for a prefix of stages, the best value within a
// budget of c seconds is a non-decreasing step function of c, so each
// stage keeps only its breakpoints (c, value), sorted by c with strictly
// rising values. The next stage's breakpoints can only lie at a breakpoint
// plus an item's rounded time; each such budget is evaluated as
// prev + item value in item order, keeping the first strictly best item,
// and kept only where the value strictly rises. Reconstruction starts from
// the first budget with the best value and re-derives each stage's item the
// same way. Choices, totals and tie-breaks therefore equal those of the
// Dudzinski–Walukiewicz table over every whole second up to the deadline,
// but the work is O(Σ_l B_l · J_l² · log B_l) for B_l breakpoints and J_l
// items per stage. B_l is at most the number of distinct rounded time sums
// of the first l stages, so the work does not grow with the deadline.
// A brute-force reference solver backs the tests.

#include <cstdint>
#include <string>
#include <vector>

namespace edacloud::cloud {

struct MckpItem {
  double time_seconds = 0.0;
  double cost_usd = 0.0;
  std::string label;  // e.g. "general-purpose-4vcpu"
};

struct MckpStage {
  std::string name;  // "synthesis", "placement", ...
  std::vector<MckpItem> items;
};

enum class Objective : std::uint8_t {
  kMinTotalCost,
  kMaxInverseCost,
};

struct MckpSelection {
  bool feasible = false;
  std::vector<int> choice;  // item index per stage (empty if infeasible)
  double total_time_seconds = 0.0;
  double total_cost_usd = 0.0;
  double objective_value = 0.0;
};

/// Exact DP. Runtimes are rounded to whole seconds (per-second billing);
/// deadline_seconds is truncated to an integer budget, clamped to the sum of
/// each stage's slowest rounded time (every plan fits there, so +inf or any
/// huge deadline behaves like that sum). A negative or NaN deadline is
/// infeasible.
MckpSelection solve_mckp_dp(const std::vector<MckpStage>& stages,
                            double deadline_seconds,
                            Objective objective = Objective::kMinTotalCost);

/// Exhaustive reference (exponential; tests and small instances only).
MckpSelection solve_mckp_brute_force(
    const std::vector<MckpStage>& stages, double deadline_seconds,
    Objective objective = Objective::kMinTotalCost);

/// Fixed-choice baselines: pick items[index] in every stage (clamped to the
/// stage's item count). index 0 = under-provisioning (1 vCPU everywhere);
/// last = over-provisioning (8 vCPUs everywhere).
MckpSelection fixed_choice(const std::vector<MckpStage>& stages, int index);

/// The fastest possible completion time (every stage at its quickest item);
/// deadlines below this are infeasible ("NA" in Table I).
double fastest_completion_seconds(const std::vector<MckpStage>& stages);

/// One point of the cost-vs-deadline trade-off curve.
struct ParetoPoint {
  double deadline_seconds = 0.0;  // smallest budget achieving this cost
  double cost_usd = 0.0;          // minimum cost within that budget
};

/// The full non-dominated (deadline, min-cost) frontier, from the fastest
/// feasible completion to the budget where the global cost minimum is
/// reached: the last stage's breakpoints of the same DP (min-cost
/// objective), kept where the cost falls by more than 1e-12.
std::vector<ParetoPoint> cost_deadline_frontier(
    const std::vector<MckpStage>& stages);

/// The dual planning problem: the fastest completion achievable WITHIN a
/// cost budget (teams often have a budget rather than a deadline).
/// Implemented as a scan of the exact cost-deadline frontier. Returns an
/// infeasible selection if even the globally cheapest plan exceeds the
/// budget.
MckpSelection fastest_within_budget(const std::vector<MckpStage>& stages,
                                    double budget_usd);

}  // namespace edacloud::cloud
