// Micro-benchmarks (google-benchmark) for the library's hot kernels:
// AIG construction + rewriting, cut enumeration + mapping, CG placement
// solve, A* maze routing, STA sweeps, cache/branch simulators, instrument
// event replay, MCKP DP and GCN forward pass. These quantify the substrate
// itself rather than a paper figure.

#include <benchmark/benchmark.h>

#include "cloud/mckp.hpp"
#include "ml/gcn.hpp"
#include "nl/star_graph.hpp"
#include "perf/branch_sim.hpp"
#include "perf/cache_sim.hpp"
#include "perf/event_log.hpp"
#include "perf/instrument.hpp"
#include "perf/task_graph.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"
#include "sta/sta.hpp"
#include "synth/engine.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"

using namespace edacloud;

namespace {

const nl::CellLibrary& library() {
  static const nl::CellLibrary lib = nl::make_generic_14nm_library();
  return lib;
}

nl::Aig make_design(int scale) {
  return workloads::gen_sparc_core(scale, 26);
}

void BM_AigGenerate(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto aig = make_design(scale);
    benchmark::DoNotOptimize(aig.node_count());
  }
}
BENCHMARK(BM_AigGenerate)->Arg(8)->Arg(16)->Arg(32);

void BM_AigRewrite(benchmark::State& state) {
  const auto aig = make_design(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto rewritten = synth::rewrite(aig);
    benchmark::DoNotOptimize(rewritten.and_count());
  }
}
BENCHMARK(BM_AigRewrite)->Arg(8)->Arg(16);

void BM_TechMap(benchmark::State& state) {
  const auto aig = make_design(static_cast<int>(state.range(0)));
  const synth::TechMapper mapper(library());
  for (auto _ : state) {
    auto mapped = mapper.map(aig, synth::MapMode::kArea);
    benchmark::DoNotOptimize(mapped.cell_count);
  }
}
BENCHMARK(BM_TechMap)->Arg(8)->Arg(16);

void BM_PlaceCg(benchmark::State& state) {
  const auto aig = make_design(static_cast<int>(state.range(0)));
  synth::SynthesisEngine engine(library());
  const auto mapped = engine.synthesize(aig, synth::default_recipe());
  place::QuadraticPlacer placer;
  for (auto _ : state) {
    auto result = placer.place(mapped.netlist);
    benchmark::DoNotOptimize(result.x.size());
  }
}
BENCHMARK(BM_PlaceCg)->Arg(8)->Arg(16);

void BM_RouteMaze(benchmark::State& state) {
  const auto aig = make_design(static_cast<int>(state.range(0)));
  synth::SynthesisEngine engine(library());
  const auto mapped = engine.synthesize(aig, synth::default_recipe());
  place::QuadraticPlacer placer;
  const auto placement = placer.place(mapped.netlist);
  route::GridRouter router;
  for (auto _ : state) {
    auto result = router.run(mapped.netlist, placement, {});
    benchmark::DoNotOptimize(result.wirelength_gedges);
  }
}
BENCHMARK(BM_RouteMaze)->Arg(8)->Arg(16);

void BM_StaSweep(benchmark::State& state) {
  const auto aig = make_design(static_cast<int>(state.range(0)));
  synth::SynthesisEngine engine(library());
  const auto mapped = engine.synthesize(aig, synth::default_recipe());
  place::QuadraticPlacer placer;
  const auto placement = placer.place(mapped.netlist);
  sta::StaEngine sta_engine;
  for (auto _ : state) {
    auto report = sta_engine.run(mapped.netlist, &placement, {});
    benchmark::DoNotOptimize(report.critical_path_ps);
  }
}
BENCHMARK(BM_StaSweep)->Arg(8)->Arg(16);

void BM_CacheSim(benchmark::State& state) {
  perf::CacheSim cache(96 * 1024, 64, 16);
  util::Rng rng(1);
  std::vector<std::uint64_t> addresses(4096);
  for (auto& a : addresses) a = rng.next_below(1 << 22);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(addresses[i++ & 4095]));
  }
}
BENCHMARK(BM_CacheSim);

void BM_BranchSim(benchmark::State& state) {
  perf::BranchPredictor predictor;
  util::Rng rng(2);
  std::uint64_t site = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        predictor.observe(site++ & 63, rng.next_bool(0.7)));
  }
}
BENCHMARK(BM_BranchSim);

/// One routing-like attempt, the shape GridRouter records per connection:
/// A* expansions, each a private heap probe, four data-dependent branches
/// and four neighbour probes (grid-edge load, private cost load, branch,
/// int/fp ops) around a random window of a 128x128 grid.
void record_routing_like_attempt(perf::EventLog& log, util::Rng& rng,
                                 std::uint32_t stream) {
  constexpr std::uint64_t kGridBase = 0x40ULL << 23;
  constexpr std::uint64_t kHeapBase = 0x41ULL << 23;
  constexpr std::uint64_t kCostBase = 0x42ULL << 23;
  constexpr std::uint64_t kCells = 128 * 128;
  const std::uint64_t center = rng.next_below(kCells);
  const std::uint64_t expansions = 50 + rng.next_below(400);
  for (std::uint64_t e = 1; e <= expansions; ++e) {
    log.load_private(kHeapBase + (e % 1024) * 16, stream);
    log.int_ops(14);
    log.branch(kHeapBase ^ 0x6, rng.next_bool(0.5));
    log.branch(kHeapBase ^ 0x7, rng.next_bool(0.5));
    log.branch(kGridBase ^ 0x1, false);
    log.branch(kGridBase ^ 0x2, rng.next_bool(0.2));
    const std::uint64_t cell = (center + rng.next_below(1024)) % kCells;
    for (std::uint64_t dir = 0; dir < 4; ++dir) {
      const std::uint64_t neighbor = (cell + dir * 127 + 1) % kCells;
      log.load(kGridBase + (2 * cell + dir) * 48);
      log.load_private(kCostBase + neighbor * 16, stream);
      log.branch(kGridBase ^ 0x3, rng.next_bool(0.4));
      log.int_ops(8);
      log.fp_ops(3);
    }
  }
}

/// Replays 64 recorded routing-like attempts (~0.35M events) into one
/// Instrument over both 4-rung ladders, as an instrumented routing stage
/// does at commit time. Counters: events replayed per second.
void BM_InstrumentReplay(benchmark::State& state) {
  std::vector<perf::VmConfig> configs;
  for (const auto family : {perf::InstanceFamily::kGeneralPurpose,
                            perf::InstanceFamily::kMemoryOptimized}) {
    for (const auto& vm : perf::vm_ladder(family)) configs.push_back(vm);
  }
  util::Rng rng(5);
  perf::EventArena arena;
  std::vector<perf::EventLog> logs;
  std::size_t events = 0;
  for (std::uint32_t attempt = 0; attempt < 64; ++attempt) {
    logs.emplace_back(arena);
    record_routing_like_attempt(logs.back(), rng, attempt);
    events += logs.back().size();
  }
  for (auto _ : state) {
    perf::Instrument instrument(configs);
    for (const perf::EventLog& log : logs) instrument.replay(log);
    benchmark::DoNotOptimize(instrument.counts(configs.size() - 1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_InstrumentReplay)->Unit(benchmark::kMillisecond);

void BM_ListScheduler(benchmark::State& state) {
  perf::TaskGraph graph;
  util::Rng rng(3);
  std::vector<perf::TaskId> previous;
  for (int wave = 0; wave < 64; ++wave) {
    std::vector<perf::TaskId> current;
    for (int t = 0; t < 32; ++t) {
      std::vector<perf::TaskId> deps;
      if (!previous.empty()) deps.push_back(previous[rng.next_below(previous.size())]);
      current.push_back(graph.add_task(rng.next_double(1.0, 10.0), deps));
    }
    previous = current;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.makespan(8));
  }
}
BENCHMARK(BM_ListScheduler);

/// Four flow stages with four on-demand shapes each; `spot` appends four
/// spot items per stage (10% slower in expectation, 70% cheaper), as the
/// deployment optimizer does when a spot market is enabled.
std::vector<cloud::MckpStage> mckp_stages(bool spot) {
  util::Rng rng(4);
  std::vector<cloud::MckpStage> stages;
  for (int l = 0; l < 4; ++l) {
    cloud::MckpStage stage;
    double time = rng.next_double(500.0, 8000.0);
    double cost = rng.next_double(0.05, 0.5);
    for (int j = 0; j < 4; ++j) {
      stage.items.push_back({time, cost, ""});
      time *= 0.6;
      cost *= 1.3;
    }
    if (spot) {
      for (std::size_t j = 0; j < 4; ++j) {
        cloud::MckpItem item = stage.items[j];
        item.time_seconds *= 1.1;
        item.cost_usd *= 0.3;
        stage.items.push_back(item);
      }
    }
    stages.push_back(stage);
  }
  return stages;
}

void run_mckp_dp(benchmark::State& state, bool spot) {
  const auto stages = mckp_stages(spot);
  const double deadline = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cloud::solve_mckp_dp(stages, deadline).total_cost_usd);
  }
}

void BM_MckpDp(benchmark::State& state) { run_mckp_dp(state, false); }
void BM_MckpDpSpot(benchmark::State& state) { run_mckp_dp(state, true); }
BENCHMARK(BM_MckpDp)->Arg(100)->Arg(5000)->Arg(100000);
BENCHMARK(BM_MckpDpSpot)->Arg(100)->Arg(5000)->Arg(100000);

void BM_GcnForward(benchmark::State& state) {
  const auto aig = make_design(static_cast<int>(state.range(0)));
  const auto graph = nl::graph_from_aig(aig);
  ml::GraphSample sample;
  sample.in_neighbors = nl::transpose(graph.forward);
  sample.features = ml::Matrix(graph.node_count(), nl::kNodeFeatureDim);
  std::copy(graph.features.begin(), graph.features.end(),
            sample.features.data().begin());
  ml::GcnModel model(ml::GcnConfig::fast());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(sample));
  }
}
BENCHMARK(BM_GcnForward)->Arg(8)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
