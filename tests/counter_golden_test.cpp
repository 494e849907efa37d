// Golden perf-counter digests: every OpCounts field of every stage, against
// both 4-rung VM ladders, folded into one FNV-1a digest per design. The
// expected values were recorded from the per-configuration-hierarchy
// Instrument (one private L1 per configuration, per-connection event
// vectors); a faster simulator or capture path must reproduce them bit for
// bit. The arena-replay determinism test runs the same flows at 1, 4 and 8
// threads, so the per-slot span arenas are exercised under contention (it
// is part of the TSan leg of scripts/check.sh).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "core/flow.hpp"
#include "util/thread_pool.hpp"
#include "workloads/registry.hpp"

namespace edacloud::core {
namespace {

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xFF;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

std::uint64_t counter_digest(const FlowResult& flow) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const perf::JobProfile* profile :
       {&flow.synthesis.profile, &flow.placement.profile,
        &flow.routing.profile, &flow.timing.profile}) {
    for (const perf::OpCounts& c : profile->counts) {
      for (std::uint64_t field :
           {c.int_ops, c.fp_ops, c.avx_ops, c.loads, c.stores, c.branches,
            c.branch_misses, c.l1_accesses, c.l1_misses, c.llc_accesses,
            c.llc_misses}) {
        hash = fnv1a(hash, field);
      }
    }
  }
  return hash;
}

std::vector<perf::VmConfig> both_ladders() {
  std::vector<perf::VmConfig> configs;
  for (const auto family : {perf::InstanceFamily::kGeneralPurpose,
                            perf::InstanceFamily::kMemoryOptimized}) {
    for (const auto& vm : perf::vm_ladder(family)) configs.push_back(vm);
  }
  return configs;
}

struct Golden {
  std::size_t design;  // index into workloads::characterization_designs()
  std::uint64_t digest;
};

// dynamic_node 4, alu 32 and mem_ctrl 8 (corpus seeds 21, 24 and 25),
// default recipe, threads = 1.
constexpr std::array<Golden, 3> kGolden = {{
    {0, 0xB26609C0E265242CULL},
    {3, 0xCA60393DDB53BE71ULL},
    {4, 0xF13025BE4117C3BDULL},
}};

FlowResult run_design(std::size_t index, int threads) {
  static const nl::CellLibrary library = nl::make_generic_14nm_library();
  const workloads::NamedDesign named =
      workloads::characterization_designs().at(index);
  FlowOptions options;
  options.threads = threads;
  return EdaFlow(library, options)
      .run(workloads::generate(named.spec), both_ladders());
}

TEST(CounterGoldenTest, DigestsMatchRecordedValues) {
  for (const Golden& golden : kGolden) {
    const FlowResult flow = run_design(golden.design, 1);
    EXPECT_EQ(flow.synthesis.profile.counts.size(), 8u);
    EXPECT_EQ(counter_digest(flow), golden.digest)
        << flow.design_name << " digest 0x" << std::hex
        << counter_digest(flow);
  }
}

TEST(ArenaReplayTest, CountersBitIdenticalAtOneFourAndEightThreads) {
  const Golden& golden = kGolden[0];
  for (const int threads : {1, 4, 8}) {
    const FlowResult flow = run_design(golden.design, threads);
    EXPECT_EQ(counter_digest(flow), golden.digest) << "threads=" << threads;
  }
  util::set_global_thread_count(1);
}

}  // namespace
}  // namespace edacloud::core
