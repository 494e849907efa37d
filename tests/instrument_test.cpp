#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <memory>
#include <string>

#include "perf/instrument.hpp"
#include "util/rng.hpp"

namespace edacloud::perf {
namespace {

// ---- oracle: the per-configuration-hierarchy Instrument --------------------
// The Instrument as it was before configurations shared their L1: every
// configuration owns an L1 + LLC hierarchy, each cache scans one array of
// {tag, stamp} ways, and every event is fed to every hierarchy. Kept
// verbatim as the reference the shared-L1, tag-first simulator must match
// counter for counter.

class OracleCache {
 public:
  OracleCache(std::uint64_t size_bytes, std::uint32_t line_bytes,
              std::uint32_t ways)
      : ways_(ways) {
    std::uint64_t sets = size_bytes / line_bytes / ways_;
    if (sets == 0) sets = 1;
    sets = std::uint64_t{1} << (63 - std::countl_zero(sets));
    set_count_ = static_cast<std::uint32_t>(sets);
    line_shift_ = static_cast<std::uint32_t>(
        std::countr_zero(static_cast<std::uint64_t>(line_bytes)));
    sets_.assign(static_cast<std::size_t>(set_count_) * ways_, Way{});
  }
  bool access(std::uint64_t address) { return access_impl(address, true); }
  void touch(std::uint64_t address) { access_impl(address, false); }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }

 private:
  bool access_impl(std::uint64_t address, bool count_stats) {
    if (count_stats) ++stats_.accesses;
    const std::uint64_t line = address >> line_shift_;
    const std::uint32_t set =
        static_cast<std::uint32_t>(line) & (set_count_ - 1);
    const std::uint64_t tag = line / set_count_;
    Way* base = &sets_[static_cast<std::size_t>(set) * ways_];
    ++lru_clock_;
    std::uint32_t victim = 0;
    std::uint32_t victim_lru = ~0U;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (base[w].tag == tag) {
        base[w].lru = lru_clock_;
        return true;
      }
      if (base[w].lru < victim_lru) {
        victim_lru = base[w].lru;
        victim = w;
      }
    }
    if (count_stats) ++stats_.misses;
    base[victim].tag = tag;
    base[victim].lru = lru_clock_;
    return false;
  }

  struct Way {
    std::uint64_t tag = ~0ULL;
    std::uint32_t lru = 0;
  };
  std::uint32_t ways_;
  std::uint32_t set_count_;
  std::uint32_t line_shift_;
  std::vector<Way> sets_;
  std::uint32_t lru_clock_ = 0;
  CacheStats stats_;
};

class OracleHierarchy {
 public:
  OracleHierarchy(std::uint64_t l1_bytes, std::uint64_t llc_bytes)
      : l1_(l1_bytes, 64, 8), llc_(llc_bytes, 64, 16) {}
  void access(std::uint64_t address) {
    if (!l1_.access(address)) llc_.access(address);
  }
  void access_private(std::uint64_t l1_address, std::uint64_t llc_address) {
    if (!l1_.access(l1_address)) llc_.access(llc_address);
  }
  void interfere(std::uint64_t address) { llc_.touch(address); }
  [[nodiscard]] const CacheStats& l1() const { return l1_.stats(); }
  [[nodiscard]] const CacheStats& llc() const { return llc_.stats(); }

 private:
  OracleCache l1_;
  OracleCache llc_;
};

class OracleInstrument {
 public:
  OracleInstrument(std::vector<VmConfig> configs,
                   std::uint32_t mem_sample_period)
      : configs_(std::move(configs)), sample_period_(mem_sample_period) {
    for (const VmConfig& config : configs_) {
      hierarchies_.push_back(std::make_unique<OracleHierarchy>(
          config.l1_bytes, config.llc_bytes));
    }
    ring_.assign(kRingSize, 0);
    interference_credit_.assign(configs_.size(), 0);
  }

  void load(std::uint64_t address) {
    ++loads_;
    on_memory(address);
  }
  void store(std::uint64_t address) {
    ++stores_;
    on_memory(address);
  }
  void load_private(std::uint64_t address, std::uint32_t stream) {
    ++loads_;
    on_memory_private(address, stream);
  }
  void int_ops(std::uint64_t n) { int_ops_ += n; }
  void fp_ops(std::uint64_t n) { fp_ops_ += n; }
  void avx_ops(std::uint64_t n) { avx_ops_ += n; }
  void branch(std::uint64_t site, bool taken) {
    predictor_.observe(site, taken);
  }

  [[nodiscard]] OpCounts counts(std::size_t index) const {
    OpCounts out;
    out.int_ops = int_ops_;
    out.fp_ops = fp_ops_;
    out.avx_ops = avx_ops_;
    out.loads = loads_;
    out.stores = stores_;
    out.branches = predictor_.stats().branches;
    out.branch_misses = predictor_.stats().mispredicts;
    const OracleHierarchy& hierarchy = *hierarchies_[index];
    out.l1_accesses = hierarchy.l1().accesses * sample_period_;
    out.l1_misses = hierarchy.l1().misses * sample_period_;
    out.llc_accesses = hierarchy.llc().accesses * sample_period_;
    out.llc_misses = hierarchy.llc().misses * sample_period_;
    return out;
  }

 private:
  void on_memory(std::uint64_t address) {
    if (event_counter_++ % sample_period_ != 0) return;
    ring_[ring_head_] = address;
    ring_head_ = (ring_head_ + 1) % kRingSize;
    for (std::size_t c = 0; c < configs_.size(); ++c) {
      OracleHierarchy& hierarchy = *hierarchies_[c];
      hierarchy.access(address);
      const int extra_threads = configs_[c].vcpus - 1;
      if (extra_threads > 0) {
        interference_credit_[c] += extra_threads;
        if (interference_credit_[c] >= kInterferenceInterval) {
          interference_credit_[c] -= kInterferenceInterval;
          const std::uint64_t thread_base =
              (1ULL + (event_counter_ % extra_threads)) << 26;
          const std::uint64_t lagged =
              ring_[(ring_head_ + kRingSize - 31) % kRingSize];
          hierarchy.interfere(lagged + thread_base);
        }
      }
    }
  }
  void on_memory_private(std::uint64_t address, std::uint32_t stream) {
    if (event_counter_++ % sample_period_ != 0) return;
    ring_[ring_head_] = address;
    ring_head_ = (ring_head_ + 1) % kRingSize;
    for (std::size_t c = 0; c < configs_.size(); ++c) {
      const std::uint32_t worker =
          stream % static_cast<std::uint32_t>(configs_[c].vcpus);
      hierarchies_[c]->access_private(
          address, address + (static_cast<std::uint64_t>(worker) << 27));
    }
  }

  static constexpr std::size_t kRingSize = 1024;
  static constexpr std::uint64_t kInterferenceInterval = 36;
  std::vector<VmConfig> configs_;
  std::uint32_t sample_period_;
  std::uint64_t event_counter_ = 0;
  std::uint64_t int_ops_ = 0;
  std::uint64_t fp_ops_ = 0;
  std::uint64_t avx_ops_ = 0;
  std::uint64_t loads_ = 0;
  std::uint64_t stores_ = 0;
  BranchPredictor predictor_;
  std::vector<std::unique_ptr<OracleHierarchy>> hierarchies_;
  std::vector<std::uint64_t> ring_;
  std::size_t ring_head_ = 0;
  std::vector<std::uint64_t> interference_credit_;
};

std::vector<VmConfig> gp_ladder() {
  const auto ladder = vm_ladder(InstanceFamily::kGeneralPurpose);
  return {ladder.begin(), ladder.end()};
}

TEST(InstrumentTest, DisabledInstrumentCountsNothing) {
  Instrument instrument;
  EXPECT_FALSE(instrument.enabled());
  instrument.load(0);
  instrument.int_ops(100);
  instrument.branch(1, true);
  // No configs: counts() has nothing to index; enabled() is the contract.
}

TEST(InstrumentTest, EmptyConfigListThrows) {
  EXPECT_THROW(Instrument(std::vector<VmConfig>{}), std::invalid_argument);
}

TEST(InstrumentTest, OpCountsAccumulate) {
  Instrument instrument(gp_ladder(), 1);
  instrument.int_ops(10);
  instrument.fp_ops(5);
  instrument.avx_ops(3);
  instrument.load(0);
  instrument.store(64);
  const OpCounts counts = instrument.counts(0);
  EXPECT_EQ(counts.int_ops, 10u);
  EXPECT_EQ(counts.fp_ops, 5u);
  EXPECT_EQ(counts.avx_ops, 3u);
  EXPECT_EQ(counts.loads, 1u);
  EXPECT_EQ(counts.stores, 1u);
}

TEST(InstrumentTest, BranchStatsSharedAcrossConfigs) {
  Instrument instrument(gp_ladder(), 1);
  for (int i = 0; i < 100; ++i) instrument.branch(7, true);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(instrument.counts(c).branches, 100u);
  }
}

TEST(InstrumentTest, SamplingScalesReportedAccesses) {
  Instrument instrument(gp_ladder(), 4);
  for (int i = 0; i < 400; ++i) {
    instrument.load(static_cast<std::uint64_t>(i) * 64);
  }
  const OpCounts counts = instrument.counts(0);
  // 100 sampled accesses scaled back by 4.
  EXPECT_EQ(counts.l1_accesses, 400u);
  EXPECT_EQ(counts.loads, 400u);
}

TEST(InstrumentTest, LargerLlcSliceMissesLess) {
  // Stream a working set that exceeds the 1-vCPU LLC slice but fits the
  // 8-vCPU slice: the big slice must see a lower (or equal) miss rate.
  Instrument instrument(gp_ladder(), 1);
  const auto& small = instrument.configs().front();
  const std::uint64_t working_set = small.llc_bytes * 3;
  for (int pass = 0; pass < 4; ++pass) {
    for (std::uint64_t addr = 0; addr < working_set; addr += 64) {
      instrument.load(addr);
    }
  }
  const double small_rate = instrument.counts(0).llc_miss_rate();
  const double big_rate = instrument.counts(3).llc_miss_rate();
  EXPECT_GT(small_rate, big_rate);
}

TEST(InstrumentTest, PrivateAccessesGrowFootprintWithVcpus) {
  // Thread-private arrays: repeated sweeps of a small private region by
  // many streams. On 1 vCPU all streams share one array (hits); on 8
  // vCPUs eight copies compete, raising misses.
  Instrument instrument(gp_ladder(), 1);
  for (int rep = 0; rep < 40; ++rep) {
    for (std::uint32_t stream = 0; stream < 16; ++stream) {
      for (std::uint64_t addr = 0; addr < 16 * 1024; addr += 64) {
        instrument.load_private(addr, stream);
      }
    }
  }
  const auto c0 = instrument.counts(0);
  const auto c3 = instrument.counts(3);
  // Private L1s keep L1 behaviour identical; the shared LLC sees k times
  // the footprint, so the per-byte relief of the bigger slice shrinks.
  EXPECT_EQ(c3.l1_misses, c0.l1_misses);
  EXPECT_GT(c3.llc_misses + c0.llc_misses, 0u);
}

TEST(InstrumentTest, CountsIndexOutOfRangeThrows) {
  Instrument instrument(gp_ladder(), 1);
  EXPECT_THROW((void)instrument.counts(4), std::out_of_range);
}

TEST(InstrumentTest, AvxFractionComputation) {
  Instrument instrument(gp_ladder(), 1);
  instrument.int_ops(50);
  instrument.avx_ops(50);
  EXPECT_DOUBLE_EQ(instrument.counts(0).avx_fraction(), 0.5);
}

// ---- differential: shared-L1 Instrument vs the per-config oracle -----------

// A seeded stream mixing hot (L1-resident), warm (LLC-sized) and cold
// addresses, private per-worker scratch, data-dependent branches and op
// counts — the event vocabulary the engines report.
template <typename Sink>
void feed_random_stream(std::uint64_t seed, std::size_t events, Sink& sink) {
  util::Rng rng(seed);
  std::uint64_t sequential = 0;
  for (std::size_t i = 0; i < events; ++i) {
    const std::uint64_t pick = rng.next_below(100);
    std::uint64_t address = 0;
    switch (rng.next_below(4)) {
      case 0:
        address = rng.next_below(4 * 1024);  // hot
        break;
      case 1:
        address = 0x100000 + rng.next_below(512 * 1024);  // warm
        break;
      case 2:
        address = rng.next_below(std::uint64_t{1} << 30);  // cold
        break;
      default:
        sequential += 8;
        address = 0x4000000 + sequential;  // streaming
        break;
    }
    if (pick < 35) {
      sink.load(address);
    } else if (pick < 50) {
      sink.store(address);
    } else if (pick < 65) {
      sink.load_private(0x200000 + rng.next_below(16 * 1024),
                        static_cast<std::uint32_t>(rng.next_below(16)));
    } else if (pick < 85) {
      sink.branch(rng.next_below(12), rng.next_below(3) != 0);
    } else if (pick < 92) {
      sink.int_ops(rng.next_below(20));
    } else if (pick < 97) {
      sink.fp_ops(rng.next_below(6));
    } else {
      sink.avx_ops(rng.next_below(8));
    }
  }
}

void expect_counts_equal(const OpCounts& got, const OpCounts& want,
                         const std::string& where) {
  EXPECT_EQ(got.int_ops, want.int_ops) << where;
  EXPECT_EQ(got.fp_ops, want.fp_ops) << where;
  EXPECT_EQ(got.avx_ops, want.avx_ops) << where;
  EXPECT_EQ(got.loads, want.loads) << where;
  EXPECT_EQ(got.stores, want.stores) << where;
  EXPECT_EQ(got.branches, want.branches) << where;
  EXPECT_EQ(got.branch_misses, want.branch_misses) << where;
  EXPECT_EQ(got.l1_accesses, want.l1_accesses) << where;
  EXPECT_EQ(got.l1_misses, want.l1_misses) << where;
  EXPECT_EQ(got.llc_accesses, want.llc_accesses) << where;
  EXPECT_EQ(got.llc_misses, want.llc_misses) << where;
}

std::vector<VmConfig> ladder(InstanceFamily family) {
  const auto rungs = vm_ladder(family);
  return {rungs.begin(), rungs.end()};
}

// Both ladders with two L1 sizes interleaved, so configurations share an
// L1 group with non-neighbours and one group spans both families.
std::vector<VmConfig> mixed_l1_configs() {
  std::vector<VmConfig> configs = ladder(InstanceFamily::kGeneralPurpose);
  for (const VmConfig& vm : ladder(InstanceFamily::kMemoryOptimized)) {
    configs.push_back(vm);
  }
  for (std::size_t c = 0; c < configs.size(); c += 3) {
    configs[c].l1_bytes = 16 * 1024;
  }
  return configs;
}

struct DiffCase {
  const char* name;
  std::vector<VmConfig> configs;
};

std::vector<DiffCase> diff_cases() {
  return {
      {"general-purpose", ladder(InstanceFamily::kGeneralPurpose)},
      {"memory-optimized", ladder(InstanceFamily::kMemoryOptimized)},
      {"compute-optimized", ladder(InstanceFamily::kComputeOptimized)},
      {"mixed-l1", mixed_l1_configs()},
  };
}

TEST(InstrumentDifferentialTest, MatchesPerConfigOracle) {
  for (const DiffCase& diff : diff_cases()) {
    for (const std::uint32_t period : {1U, 4U}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        OracleInstrument oracle(diff.configs, period);
        Instrument instrument(diff.configs, period);
        feed_random_stream(seed, 60000, oracle);
        feed_random_stream(seed, 60000, instrument);
        for (std::size_t c = 0; c < diff.configs.size(); ++c) {
          expect_counts_equal(
              instrument.counts(c), oracle.counts(c),
              std::string(diff.name) + " period=" + std::to_string(period) +
                  " seed=" + std::to_string(seed) + " config=" +
                  std::to_string(c));
        }
      }
    }
  }
}

TEST(InstrumentDifferentialTest, MixedL1SizesKeepTheirOwnL1Stats) {
  const std::vector<VmConfig> configs = mixed_l1_configs();
  Instrument instrument(configs, 1);
  feed_random_stream(7, 40000, instrument);
  // Same L1 size, same L1 counters; the 16 KiB L1 misses less.
  EXPECT_EQ(instrument.counts(0).l1_misses, instrument.counts(3).l1_misses);
  EXPECT_EQ(instrument.counts(1).l1_misses, instrument.counts(2).l1_misses);
  EXPECT_LT(instrument.counts(0).l1_misses, instrument.counts(1).l1_misses);
}

// Records a stream into EventLog spans, cutting a new span every few
// events and alternating between two arenas the way two worker slots
// would; the spans are replayed afterwards in recording order.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::uint64_t seed) : rng_(seed) { open(); }

  void load(std::uint64_t a) { step().load(a); }
  void store(std::uint64_t a) { step().store(a); }
  void load_private(std::uint64_t a, std::uint32_t s) {
    step().load_private(a, s);
  }
  void branch(std::uint64_t site, bool taken) { step().branch(site, taken); }
  void int_ops(std::uint64_t n) { step().int_ops(n); }
  void fp_ops(std::uint64_t n) { step().fp_ops(n); }
  void avx_ops(std::uint64_t n) { step().avx_ops(n); }

  void replay_into(Instrument& instrument) const {
    for (const EventLog& log : logs_) instrument.replay(log);
  }
  [[nodiscard]] std::size_t span_count() const { return logs_.size(); }

 private:
  EventLog& step() {
    if (rng_.next_below(64) == 0) open();
    return logs_.back();
  }
  void open() {
    // An arena must not be appended to by two open spans: a new span goes
    // to the arena the previous one did not use.
    logs_.emplace_back(arenas_[logs_.size() % 2]);
  }

  util::Rng rng_;
  std::array<EventArena, 2> arenas_;
  std::vector<EventLog> logs_;
};

TEST(InstrumentDifferentialTest, SpanReplayEqualsDirectReporting) {
  for (const std::uint32_t period : {1U, 4U}) {
    const std::vector<VmConfig> configs = mixed_l1_configs();
    Instrument direct(configs, period);
    Instrument replayed(configs, period);
    // 30000 events overflow several 4096-event arena blocks.
    feed_random_stream(11, 30000, direct);
    SpanRecorder recorder(11);
    feed_random_stream(11, 30000, recorder);
    ASSERT_GT(recorder.span_count(), 100u);
    recorder.replay_into(replayed);
    for (std::size_t c = 0; c < configs.size(); ++c) {
      expect_counts_equal(replayed.counts(c), direct.counts(c),
                          "period=" + std::to_string(period) +
                              " config=" + std::to_string(c));
    }
  }
}

TEST(EventArenaTest, SpansCrossBlocksAndClearReusesStorage) {
  EventArena arena;
  EventLog first(arena);
  for (std::uint64_t i = 0; i < EventArena::kBlockEvents + 10; ++i) {
    first.load(i);
  }
  EventLog second(arena);
  second.store(99);
  second.int_ops(5);
  EXPECT_EQ(first.size(), EventArena::kBlockEvents + 10);
  EXPECT_EQ(second.size(), 1u);
  EXPECT_EQ(second.int_op_count(), 5u);
  EXPECT_EQ(arena.size(), EventArena::kBlockEvents + 11);

  std::uint64_t expect = 0;
  bool in_order = true;
  first.for_each([&](const PerfEvent& event) {
    in_order = in_order && event.kind == PerfEvent::Kind::kLoad &&
               event.a == expect++;
  });
  EXPECT_TRUE(in_order);
  EXPECT_EQ(expect, EventArena::kBlockEvents + 10);

  arena.clear();
  EXPECT_EQ(arena.size(), 0u);
  EventLog again(arena);
  again.branch(3, true);
  std::size_t seen = 0;
  again.for_each([&](const PerfEvent& event) {
    EXPECT_EQ(event.kind, PerfEvent::Kind::kBranch);
    EXPECT_EQ(event.b, 1u);
    ++seen;
  });
  EXPECT_EQ(seen, 1u);
}

TEST(EventArenaTest, DefaultLogReplaysNothing) {
  Instrument instrument(gp_ladder(), 1);
  instrument.replay(EventLog{});
  EXPECT_EQ(instrument.counts(0).loads, 0u);
  EXPECT_EQ(instrument.counts(0).int_ops, 0u);
}

}  // namespace
}  // namespace edacloud::perf
