#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "cloud/mckp.hpp"
#include "cloud/savings.hpp"
#include "util/rng.hpp"

namespace edacloud::cloud {
namespace {

std::vector<MckpStage> simple_instance() {
  // Two stages, two options each:
  //   stage A: slow-cheap (100 s, $1) / fast-pricey (40 s, $3)
  //   stage B: slow-cheap (200 s, $2) / fast-pricey (80 s, $5)
  std::vector<MckpStage> stages(2);
  stages[0].name = "A";
  stages[0].items = {{100, 1.0, "a1"}, {40, 3.0, "a2"}};
  stages[1].name = "B";
  stages[1].items = {{200, 2.0, "b1"}, {80, 5.0, "b2"}};
  return stages;
}

TEST(MckpTest, RelaxedDeadlinePicksCheapest) {
  const auto selection = solve_mckp_dp(simple_instance(), 1000.0);
  ASSERT_TRUE(selection.feasible);
  EXPECT_EQ(selection.choice, (std::vector<int>{0, 0}));
  EXPECT_DOUBLE_EQ(selection.total_cost_usd, 3.0);
}

TEST(MckpTest, TightDeadlineForcesUpgrade) {
  // 240 allows (40, 200) or (100, 80) but not (100, 200).
  const auto selection = solve_mckp_dp(simple_instance(), 240.0);
  ASSERT_TRUE(selection.feasible);
  EXPECT_DOUBLE_EQ(selection.total_cost_usd, 5.0);  // (40,$3)+(200,$2)
  EXPECT_EQ(selection.choice, (std::vector<int>{1, 0}));
}

TEST(MckpTest, InfeasibleDeadlineReturnsNa) {
  const auto selection = solve_mckp_dp(simple_instance(), 100.0);
  EXPECT_FALSE(selection.feasible);
  EXPECT_TRUE(selection.choice.empty());
}

TEST(MckpTest, ExactlyFeasibleBoundary) {
  // Fastest total = 120 s.
  const auto selection = solve_mckp_dp(simple_instance(), 120.0);
  ASSERT_TRUE(selection.feasible);
  EXPECT_DOUBLE_EQ(selection.total_time_seconds, 120.0);
}

TEST(MckpTest, EmptyStagesAreFeasible) {
  const auto selection = solve_mckp_dp({}, 10.0);
  EXPECT_TRUE(selection.feasible);
  EXPECT_DOUBLE_EQ(selection.total_cost_usd, 0.0);
}

TEST(MckpTest, StageWithoutItemsThrows) {
  std::vector<MckpStage> stages(1);
  EXPECT_THROW(solve_mckp_dp(stages, 10.0), std::invalid_argument);
}

TEST(MckpTest, NegativeDeadlineInfeasible) {
  EXPECT_FALSE(solve_mckp_dp(simple_instance(), -5.0).feasible);
}

TEST(MckpTest, MaxInverseCostObjectivePrefersCheapItems) {
  const auto selection = solve_mckp_dp(simple_instance(), 1000.0,
                                       Objective::kMaxInverseCost);
  ASSERT_TRUE(selection.feasible);
  // 1/1 + 1/2 beats any combination with pricier machines.
  EXPECT_EQ(selection.choice, (std::vector<int>{0, 0}));
}

TEST(MckpTest, FixedChoiceBaselines) {
  const auto stages = simple_instance();
  const auto under = fixed_choice(stages, 0);
  EXPECT_DOUBLE_EQ(under.total_time_seconds, 300.0);
  EXPECT_DOUBLE_EQ(under.total_cost_usd, 3.0);
  const auto over = fixed_choice(stages, 1);
  EXPECT_DOUBLE_EQ(over.total_time_seconds, 120.0);
  EXPECT_DOUBLE_EQ(over.total_cost_usd, 8.0);
}

TEST(MckpTest, FastestCompletion) {
  EXPECT_DOUBLE_EQ(fastest_completion_seconds(simple_instance()), 120.0);
}

TEST(MckpTest, CostMonotoneInDeadline) {
  const auto stages = simple_instance();
  double previous = 0.0;
  for (double deadline : {1000.0, 400.0, 280.0, 240.0, 180.0, 120.0}) {
    const auto selection = solve_mckp_dp(stages, deadline);
    ASSERT_TRUE(selection.feasible) << deadline;
    EXPECT_GE(selection.total_cost_usd, previous);
    previous = selection.total_cost_usd;
  }
}

// Property sweep: DP equals brute force on random instances for both
// objectives, across deadline regimes.
class MckpRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(MckpRandomTest, DpMatchesBruteForce) {
  util::Rng rng(GetParam());
  std::vector<MckpStage> stages(3 + rng.next_below(2));
  for (auto& stage : stages) {
    const int items = 2 + static_cast<int>(rng.next_below(3));
    for (int j = 0; j < items; ++j) {
      MckpItem item;
      item.time_seconds = rng.next_double(10.0, 500.0);
      item.cost_usd = rng.next_double(0.01, 2.0);
      stage.items.push_back(item);
    }
  }
  const double fastest = fastest_completion_seconds(stages);
  const double slowest = fixed_choice(stages, 0).total_time_seconds +
                         fixed_choice(stages, 100).total_time_seconds;
  for (double factor : {0.8, 1.0, 1.3, 2.0}) {
    const double deadline = fastest * factor + 2.0;
    (void)slowest;
    for (auto objective :
         {Objective::kMinTotalCost, Objective::kMaxInverseCost}) {
      const auto dp = solve_mckp_dp(stages, deadline, objective);
      const auto bf = solve_mckp_brute_force(stages, deadline, objective);
      ASSERT_EQ(dp.feasible, bf.feasible)
          << "deadline " << deadline;
      if (dp.feasible) {
        EXPECT_NEAR(dp.objective_value, bf.objective_value, 1e-9);
        if (objective == Objective::kMinTotalCost) {
          EXPECT_NEAR(dp.total_cost_usd, bf.total_cost_usd, 1e-9);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MckpRandomTest,
                         ::testing::Range(100, 120));

TEST(MckpTest, NanDeadlineInfeasible) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(solve_mckp_dp(simple_instance(), nan).feasible);
  EXPECT_FALSE(solve_mckp_dp(simple_instance(), nan,
                             Objective::kMaxInverseCost).feasible);
  EXPECT_FALSE(solve_mckp_brute_force(simple_instance(), nan).feasible);
}

// --- Differential test against the per-second table ------------------------
//
// The dense Dudzinski–Walukiewicz DP below (one column per whole second up to
// the deadline) is the solver's former implementation, kept here as a
// test-only oracle: the breakpoint DP must reproduce its choices, tie-breaks
// and floating-point totals exactly.

long long oracle_rounded_seconds(double seconds) {
  return std::max<long long>(0, std::llround(seconds));
}

double oracle_item_value(const MckpItem& item, Objective objective) {
  if (objective == Objective::kMinTotalCost) return -item.cost_usd;
  return item.cost_usd > 0.0 ? 1.0 / item.cost_usd : 1e18;
}

MckpSelection dense_oracle(const std::vector<MckpStage>& stages,
                           double deadline_seconds, Objective objective) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  MckpSelection infeasible;
  const long long budget =
      static_cast<long long>(std::floor(deadline_seconds));
  if (budget < 0) return infeasible;
  const std::size_t columns = static_cast<std::size_t>(budget) + 1;
  std::vector<double> dp(columns, 0.0);
  std::vector<std::vector<int>> choice_table(
      stages.size(), std::vector<int>(columns, -1));
  std::vector<double> next(columns);
  for (std::size_t l = 0; l < stages.size(); ++l) {
    std::fill(next.begin(), next.end(), -kInf);
    for (std::size_t c = 0; c < columns; ++c) {
      for (std::size_t j = 0; j < stages[l].items.size(); ++j) {
        const MckpItem& item = stages[l].items[j];
        const long long t = oracle_rounded_seconds(item.time_seconds);
        if (static_cast<long long>(c) < t) continue;
        const double prev = dp[c - static_cast<std::size_t>(t)];
        if (prev == -kInf) continue;
        const double candidate = prev + oracle_item_value(item, objective);
        if (candidate > next[c]) {
          next[c] = candidate;
          choice_table[l][c] = static_cast<int>(j);
        }
      }
    }
    dp = next;
  }
  std::size_t best_c = 0;
  double best_value = -kInf;
  for (std::size_t c = 0; c < columns; ++c) {
    if (dp[c] > best_value) {
      best_value = dp[c];
      best_c = c;
    }
  }
  if (best_value == -kInf) return infeasible;
  MckpSelection selection;
  selection.feasible = true;
  selection.choice.assign(stages.size(), -1);
  std::size_t c = best_c;
  for (std::size_t l = stages.size(); l-- > 0;) {
    const int j = choice_table[l][c];
    if (j < 0) return infeasible;
    selection.choice[l] = j;
    c -= static_cast<std::size_t>(oracle_rounded_seconds(
        stages[l].items[static_cast<std::size_t>(j)].time_seconds));
  }
  for (std::size_t l = 0; l < stages.size(); ++l) {
    const MckpItem& item =
        stages[l].items[static_cast<std::size_t>(selection.choice[l])];
    selection.total_time_seconds += item.time_seconds;
    selection.total_cost_usd += item.cost_usd;
    selection.objective_value += oracle_item_value(item, objective);
  }
  return selection;
}

std::vector<ParetoPoint> dense_frontier_oracle(
    const std::vector<MckpStage>& stages) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<ParetoPoint> frontier;
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
    budget_hi += oracle_rounded_seconds(cheapest->time_seconds);
  }
  const std::size_t columns = static_cast<std::size_t>(budget_hi) + 1;
  std::vector<double> dp(columns, 0.0);
  std::vector<double> next(columns);
  for (const MckpStage& stage : stages) {
    std::fill(next.begin(), next.end(), -kInf);
    for (std::size_t c = 0; c < columns; ++c) {
      for (const MckpItem& item : stage.items) {
        const long long t = oracle_rounded_seconds(item.time_seconds);
        if (static_cast<long long>(c) < t) continue;
        const double prev = dp[c - static_cast<std::size_t>(t)];
        if (prev == -kInf) continue;
        next[c] = std::max(next[c], prev - item.cost_usd);
      }
    }
    dp = next;
  }
  double best = -kInf;
  for (std::size_t c = 0; c < columns; ++c) {
    if (dp[c] > best + 1e-12) {
      best = dp[c];
      frontier.push_back({static_cast<double>(c), -best});
    }
  }
  return frontier;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_identical(const MckpSelection& got, const MckpSelection& want) {
  ASSERT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(got.choice, want.choice);
  EXPECT_EQ(bits(got.total_time_seconds), bits(want.total_time_seconds));
  EXPECT_EQ(bits(got.total_cost_usd), bits(want.total_cost_usd));
  EXPECT_EQ(bits(got.objective_value), bits(want.objective_value));
}

/// 1–5 stages of `items` items each. Tie-heavy instances draw whole-second
/// times from a few values and quarter-dollar costs, so many plans share a
/// budget or a value; the others draw real-valued times and costs.
std::vector<MckpStage> random_instance(util::Rng& rng, bool tie_heavy,
                                       int items) {
  std::vector<MckpStage> stages(1 + rng.next_below(5));
  for (auto& stage : stages) {
    for (int j = 0; j < items; ++j) {
      MckpItem item;
      if (tie_heavy) {
        item.time_seconds = static_cast<double>(rng.next_int(0, 12) * 100);
        item.cost_usd = 0.25 * static_cast<double>(rng.next_int(0, 8));
      } else {
        item.time_seconds = rng.next_double(0.5, 2400.0);
        item.cost_usd = rng.next_double(0.01, 3.0);
      }
      stage.items.push_back(item);
    }
  }
  return stages;
}

long long slowest_rounded_total(const std::vector<MckpStage>& stages) {
  long long total = 0;
  for (const MckpStage& stage : stages) {
    long long stage_max = 0;
    for (const MckpItem& item : stage.items) {
      stage_max = std::max(stage_max, oracle_rounded_seconds(item.time_seconds));
    }
    total += stage_max;
  }
  return total;
}

class MckpDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(MckpDifferentialTest, BreakpointDpMatchesDenseTable) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (bool tie_heavy : {true, false}) {
    for (int items : {4, 8}) {  // on-demand only, and with spot items
      for (int instance = 0; instance < 12; ++instance) {
        const auto stages = random_instance(rng, tie_heavy, items);
        const double slowest =
            static_cast<double>(slowest_rounded_total(stages));
        const double fastest = fastest_completion_seconds(stages);
        for (double deadline :
             {rng.next_double(-10.0, slowest + 50.0),
              std::floor(rng.next_double(fastest, slowest + 1.0)), fastest,
              slowest}) {
          for (auto objective :
               {Objective::kMinTotalCost, Objective::kMaxInverseCost}) {
            SCOPED_TRACE(::testing::Message()
                         << "tie_heavy " << tie_heavy << " items " << items
                         << " instance " << instance << " deadline "
                         << deadline << " objective "
                         << static_cast<int>(objective));
            expect_identical(solve_mckp_dp(stages, deadline, objective),
                             dense_oracle(stages, deadline, objective));
          }
        }
        const auto got = cost_deadline_frontier(stages);
        const auto want = dense_frontier_oracle(stages);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(bits(got[i].deadline_seconds),
                    bits(want[i].deadline_seconds));
          EXPECT_EQ(bits(got[i].cost_usd), bits(want[i].cost_usd));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MckpDifferentialTest, ::testing::Range(0, 8));

TEST(MckpTest, HugeDeadlinesClampToSlowestPlan) {
  util::Rng rng(7);
  for (const auto& stages :
       {simple_instance(), random_instance(rng, false, 8),
        random_instance(rng, true, 4)}) {
    const double slowest = static_cast<double>(slowest_rounded_total(stages));
    for (auto objective :
         {Objective::kMinTotalCost, Objective::kMaxInverseCost}) {
      const auto at_sum = solve_mckp_dp(stages, slowest, objective);
      ASSERT_TRUE(at_sum.feasible);
      expect_identical(at_sum, dense_oracle(stages, slowest, objective));
      for (double deadline :
           {1e12, 1e300, std::numeric_limits<double>::infinity()}) {
        SCOPED_TRACE(deadline);
        expect_identical(solve_mckp_dp(stages, deadline, objective), at_sum);
      }
    }
  }
}

TEST(SavingsTest, OptimizerNeverWorseThanBaselines) {
  const auto stages = simple_instance();
  for (double deadline : {120.0, 240.0, 300.0, 1000.0}) {
    const SavingsReport report = analyze_savings(stages, deadline);
    ASSERT_TRUE(report.feasible);
    EXPECT_LE(report.optimized_cost_usd,
              report.over_provision_cost_usd + 1e-9);
    EXPECT_LE(report.optimized_time_seconds, deadline + 1.0);
    if (report.under_provision_time_seconds <= deadline) {
      EXPECT_LE(report.optimized_cost_usd,
                report.under_provision_cost_usd + 1e-9);
    }
  }
}

TEST(SavingsTest, InfeasibleReportNotFeasible) {
  const SavingsReport report = analyze_savings(simple_instance(), 50.0);
  EXPECT_FALSE(report.feasible);
}

TEST(SavingsTest, SavingFractionsComputed) {
  const SavingsReport report = analyze_savings(simple_instance(), 1000.0);
  ASSERT_TRUE(report.feasible);
  EXPECT_NEAR(report.saving_vs_over, 1.0 - 3.0 / 8.0, 1e-9);
  EXPECT_NEAR(report.saving_vs_under, 0.0, 1e-9);
}

}  // namespace
}  // namespace edacloud::cloud
