#pragma once
// Gshare branch predictor simulator — produces the branch-misses counter
// of Fig. 2a. Engines report each conditional branch with its (site, taken)
// pair; prediction quality then reflects how data-dependent the branch
// outcomes of each EDA algorithm really are.

#include <cstdint>
#include <vector>

namespace edacloud::perf {

struct BranchStats {
  std::uint64_t branches = 0;
  std::uint64_t mispredicts = 0;
  [[nodiscard]] double miss_rate() const {
    return branches == 0 ? 0.0
                         : static_cast<double>(mispredicts) /
                               static_cast<double>(branches);
  }
};

class BranchPredictor {
 public:
  /// table_bits: log2 of the pattern-history-table size.
  explicit BranchPredictor(std::uint32_t table_bits = 12);

  /// Predict, compare to the actual outcome, update; returns true if the
  /// prediction was correct.
  bool observe(std::uint64_t site, bool taken);

  [[nodiscard]] const BranchStats& stats() const { return stats_; }
  void reset_stats() { stats_ = BranchStats{}; }

 private:
  std::uint32_t mask_;
  std::uint64_t history_ = 0;
  std::vector<std::uint8_t> table_;  // 2-bit saturating counters
  BranchStats stats_;
};

inline bool BranchPredictor::observe(std::uint64_t site, bool taken) {
  ++stats_.branches;
  const std::uint32_t index =
      static_cast<std::uint32_t>(site ^ history_) & mask_;
  std::uint8_t& counter = table_[index];
  const bool correct = (counter >= 2) == taken;
  stats_.mispredicts += correct ? 0 : 1;
  // Saturating 2-bit update, written branch-free: the outcomes are the
  // data-dependent part of the simulated stream.
  const std::uint8_t up = taken && counter < 3 ? 1 : 0;
  const std::uint8_t down = !taken && counter > 0 ? 1 : 0;
  counter = static_cast<std::uint8_t>(counter + up - down);
  history_ = ((history_ << 1) | static_cast<std::uint64_t>(taken)) & mask_;
  return correct;
}

}  // namespace edacloud::perf
