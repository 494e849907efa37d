#include "cloud/mckp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace edacloud::cloud {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

long long rounded_seconds(double seconds) {
  return std::max<long long>(0, std::llround(seconds));
}

/// Stage item value under the chosen objective (DP maximizes value with
/// min-cost mapped to maximizing -cost).
double item_value(const MckpItem& item, Objective objective) {
  switch (objective) {
    case Objective::kMinTotalCost:
      return -item.cost_usd;
    case Objective::kMaxInverseCost:
      // Zero-cost items would be infinitely attractive; clamp to a large
      // finite value so sums stay well-defined.
      return item.cost_usd > 0.0 ? 1.0 / item.cost_usd : 1e18;
  }
  return 0.0;
}

MckpSelection finalize(const std::vector<MckpStage>& stages,
                       std::vector<int> choice, Objective objective) {
  MckpSelection selection;
  selection.feasible = true;
  selection.choice = std::move(choice);
  for (std::size_t l = 0; l < stages.size(); ++l) {
    const MckpItem& item =
        stages[l].items[static_cast<std::size_t>(selection.choice[l])];
    selection.total_time_seconds += item.time_seconds;
    selection.total_cost_usd += item.cost_usd;
    selection.objective_value += item_value(item, objective);
  }
  return selection;
}

void require_items(const std::vector<MckpStage>& stages) {
  for (const MckpStage& stage : stages) {
    if (stage.items.empty()) {
      throw std::invalid_argument("stage without items: " + stage.name);
    }
  }
}

/// floor(deadline), clamped to the slowest plan's total time (where every
/// plan fits); -1 (nothing fits) for a negative or NaN deadline.
long long budget_seconds(const std::vector<MckpStage>& stages,
                         double deadline_seconds) {
  if (!(deadline_seconds >= 0.0)) return -1;
  long long slowest = 0;
  for (const MckpStage& stage : stages) {
    long long stage_max = 0;
    for (const MckpItem& item : stage.items)
      stage_max = std::max(stage_max, rounded_seconds(item.time_seconds));
    slowest += stage_max;
  }
  if (deadline_seconds >= static_cast<double>(slowest)) return slowest;
  return static_cast<long long>(std::floor(deadline_seconds));
}

/// The best value over a prefix of stages is a non-decreasing step function
/// of the budget c: breakpoints sorted by c, values strictly rising.
struct Breakpoint { long long c; double value; };
using StepFunction = std::vector<Breakpoint>;

/// The per-second table's cell at budget c: the first item with the
/// strictly largest `prev + item_value`, prev being the stages below within
/// c minus the item's time; {-1, -inf} if no item fits.
std::pair<int, double> best_item(const MckpStage& stage,
                                 const StepFunction& below, long long c,
                                 Objective objective) {
  std::pair<int, double> best{-1, -kInfinity};
  for (std::size_t j = 0; j < stage.items.size(); ++j) {
    const long long rest = c - rounded_seconds(stage.items[j].time_seconds);
    const auto it = std::upper_bound(below.begin(), below.end(), rest,
        [](long long budget, const Breakpoint& b) { return budget < b.c; });
    if (it == below.begin()) continue;  // the stages below do not fit
    const double candidate =
        std::prev(it)->value + item_value(stage.items[j], objective);
    if (candidate > best.second) best = {static_cast<int>(j), candidate};
  }
  return best;
}

/// levels[l] = the step function over stages [0, l) up to `budget`. A level
/// steps only where a breakpoint below plus an item's rounded time lands.
std::vector<StepFunction> breakpoint_levels(
    const std::vector<MckpStage>& stages, long long budget,
    Objective objective) {
  std::vector<StepFunction> levels{{{0, 0.0}}};  // zero stages: 0 for all c
  for (const MckpStage& stage : stages) {
    std::vector<long long> candidates;
    for (const Breakpoint& point : levels.back()) {
      for (const MckpItem& item : stage.items) {
        const long long c = point.c + rounded_seconds(item.time_seconds);
        if (c <= budget) candidates.push_back(c);
      }
    }
    std::ranges::sort(candidates);
    candidates.erase(std::ranges::unique(candidates).begin(), candidates.end());
    StepFunction level;
    for (long long c : candidates) {
      const double value = best_item(stage, levels.back(), c, objective).second;
      if (value > (level.empty() ? -kInfinity : level.back().value))
        level.push_back({c, value});
    }
    levels.push_back(std::move(level));
  }
  return levels;
}

}  // namespace

MckpSelection solve_mckp_dp(const std::vector<MckpStage>& stages,
                            double deadline_seconds, Objective objective) {
  if (stages.empty()) return finalize(stages, {}, objective);
  require_items(stages);
  const auto levels = breakpoint_levels(
      stages, budget_seconds(stages, deadline_seconds), objective);
  // The first budget with the largest value is the last breakpoint.
  if (levels.back().empty()) return {};
  long long c = levels.back().back().c;
  // Reconstruct choices backwards, re-deriving each stage's cell.
  std::vector<int> choice(stages.size(), -1);
  for (std::size_t l = stages.size(); l-- > 0;) {
    choice[l] = best_item(stages[l], levels[l], c, objective).first;
    c -= rounded_seconds(stages[l].items[choice[l]].time_seconds);
  }
  return finalize(stages, std::move(choice), objective);
}

MckpSelection solve_mckp_brute_force(const std::vector<MckpStage>& stages,
                                     double deadline_seconds,
                                     Objective objective) {
  if (stages.empty()) return finalize(stages, {}, objective);
  MckpSelection best;
  std::vector<int> choice(stages.size(), 0);
  double best_value = -kInfinity;
  const long long budget = budget_seconds(stages, deadline_seconds);

  auto recurse = [&](auto&& self, std::size_t l, long long used,
                     double value) -> void {
    if (l == stages.size()) {
      if (value > best_value) {
        best_value = value;
        best = finalize(stages, choice, objective);
      }
      return;
    }
    for (std::size_t j = 0; j < stages[l].items.size(); ++j) {
      const MckpItem& item = stages[l].items[j];
      const long long t = used + rounded_seconds(item.time_seconds);
      if (t > budget) continue;
      choice[l] = static_cast<int>(j);
      self(self, l + 1, t, value + item_value(item, objective));
    }
  };
  recurse(recurse, 0, 0, 0.0);
  return best;
}

MckpSelection fixed_choice(const std::vector<MckpStage>& stages, int index) {
  MckpSelection selection;
  selection.feasible = true;
  for (const MckpStage& stage : stages) {
    const int j = std::clamp<int>(
        index, 0, static_cast<int>(stage.items.size()) - 1);
    selection.choice.push_back(j);
    const MckpItem& item = stage.items[static_cast<std::size_t>(j)];
    selection.total_time_seconds += item.time_seconds;
    selection.total_cost_usd += item.cost_usd;
  }
  return selection;
}

double fastest_completion_seconds(const std::vector<MckpStage>& stages) {
  double total = 0.0;
  for (const MckpStage& stage : stages) {
    double fastest = kInfinity;
    for (const MckpItem& item : stage.items) {
      fastest = std::min(fastest, item.time_seconds);
    }
    if (fastest == kInfinity) fastest = 0.0;
    total += fastest;
  }
  return total;
}

std::vector<ParetoPoint> cost_deadline_frontier(
    const std::vector<MckpStage>& stages) {
  std::vector<ParetoPoint> frontier;
  if (stages.empty()) return frontier;
  require_items(stages);
  // Budget range: fastest completion .. total time of the globally
  // cheapest per-stage items (beyond that the cost cannot improve).
  long long budget_hi = 0;
  for (const MckpStage& stage : stages) {
    const MckpItem* cheapest = &stage.items.front();
    for (const MckpItem& item : stage.items) {
      if (item.cost_usd < cheapest->cost_usd - 1e-15 ||
          (std::abs(item.cost_usd - cheapest->cost_usd) <= 1e-15 &&
           item.time_seconds < cheapest->time_seconds)) {
        cheapest = &item;
      }
    }
    budget_hi += rounded_seconds(cheapest->time_seconds);
  }

  // Max of (-cost) per budget; only its breakpoints can pass the filter.
  const auto levels =
      breakpoint_levels(stages, budget_hi, Objective::kMinTotalCost);
  double best = -kInfinity;
  for (const Breakpoint& point : levels.back()) {
    if (point.value > best + 1e-12) {
      best = point.value;
      frontier.push_back({static_cast<double>(point.c), -best});
    }
  }
  return frontier;
}

MckpSelection fastest_within_budget(const std::vector<MckpStage>& stages,
                                    double budget_usd) {
  const auto frontier = cost_deadline_frontier(stages);
  for (const ParetoPoint& point : frontier) {
    if (point.cost_usd <= budget_usd + 1e-12) {
      // The earliest frontier point within budget; rebuild the selection.
      return solve_mckp_dp(stages, point.deadline_seconds);
    }
  }
  return MckpSelection{};  // infeasible: cheapest plan exceeds the budget
}

}  // namespace edacloud::cloud
