#pragma once
// Set-associative LRU cache simulator. Stands in for the hardware
// performance counters the paper read with `perf` (cache-references /
// cache-misses); perf::Instrument chains one L1 per L1 geometry into one
// LLC per VM configuration.

#include <cstdint>
#include <vector>

namespace edacloud::perf {

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  [[nodiscard]] double miss_rate() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(misses) /
                               static_cast<double>(accesses);
  }
};

/// Set-associative cache with true-LRU replacement. Address space is a
/// flat 64-bit byte space; tags are derived from line addresses.
class CacheSim {
 public:
  /// size/line must be powers of two; ways >= 1. size >= line * ways.
  CacheSim(std::uint64_t size_bytes, std::uint32_t line_bytes,
           std::uint32_t ways);

  /// Simulate one access; returns true on hit. Fills on miss.
  bool access(std::uint64_t address) { return access_impl(address, true); }

  /// State-only access (no stats) — used for phantom co-runner traffic that
  /// occupies capacity but is not part of the measured stream.
  void touch(std::uint64_t address) { access_impl(address, false); }

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t size_bytes() const { return size_bytes_; }
  [[nodiscard]] std::uint32_t line_bytes() const { return line_bytes_; }
  void reset_stats() { stats_ = CacheStats{}; }

 private:
  bool access_impl(std::uint64_t address, bool count_stats);

  std::uint64_t size_bytes_;
  std::uint32_t line_bytes_;
  std::uint32_t ways_;
  std::uint32_t set_count_;
  std::uint32_t line_shift_;
  std::uint32_t set_shift_;  // log2(set_count_): tag = line >> set_shift_
  // Set-major, ways_ entries per set. Tags and LRU stamps live apart so the
  // hit scan reads tags only; stamps (higher = more recently used) are read
  // on a miss, to pick the victim.
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint32_t> stamps_;
  std::uint32_t lru_clock_ = 0;
  CacheStats stats_;
};

inline bool CacheSim::access_impl(std::uint64_t address, bool count_stats) {
  if (count_stats) ++stats_.accesses;
  const std::uint64_t line = address >> line_shift_;
  const std::uint32_t set = static_cast<std::uint32_t>(line) & (set_count_ - 1);
  const std::uint64_t tag = line >> set_shift_;
  const std::size_t base = static_cast<std::size_t>(set) * ways_;
  const std::uint64_t* tags = &tags_[base];
  std::uint32_t* stamps = &stamps_[base];
  ++lru_clock_;
  // A line sits in at most one way, so the last match is the match; the
  // scan runs branch-free over every way.
  std::uint32_t hit = ways_;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    hit = tags[w] == tag ? w : hit;
  }
  if (hit != ways_) {
    stamps[hit] = lru_clock_;
    return true;
  }
  // Victim: the first way with the strictly smallest stamp (true LRU;
  // never-filled ways carry stamp 0, so they fill in way order).
  std::uint32_t victim = 0;
  std::uint32_t oldest = stamps[0];
  for (std::uint32_t w = 1; w < ways_; ++w) {
    const bool older = stamps[w] < oldest;
    oldest = older ? stamps[w] : oldest;
    victim = older ? w : victim;
  }
  if (count_stats) ++stats_.misses;
  tags_[base + victim] = tag;
  stamps[victim] = lru_clock_;
  return false;
}

}  // namespace edacloud::perf
