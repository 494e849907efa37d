#include "sta/sta.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/trace.hpp"
#include "perf/event_log.hpp"
#include "perf/instrument.hpp"
#include "util/thread_pool.hpp"

namespace edacloud::sta {

using nl::Netlist;
using nl::NodeId;
using perf::Instrument;
using perf::TaskGraph;
using perf::TaskId;

namespace {

constexpr std::uint64_t kArrivalBase = 0x60ULL << 23;
constexpr std::uint64_t kLibraryBase = 0x61ULL << 23;
constexpr std::uint64_t kTopoBase = 0x62ULL << 23;

double manhattan(const place::Placement& placement, NodeId a, NodeId b) {
  return std::abs(placement.x[a] - placement.x[b]) +
         std::abs(placement.y[a] - placement.y[b]);
}

}  // namespace

TimingReport StaEngine::run(const Netlist& netlist,
                            const place::Placement* placement,
                            const std::vector<perf::VmConfig>& configs) const {
  Instrument instrument_storage;
  Instrument* ins = nullptr;
  if (!configs.empty()) {
    instrument_storage = Instrument(configs);
    ins = &instrument_storage;
  }

  TRACE_SPAN_VAR(run_span, "sta/run", "sta");
  const auto& library = netlist.library();
  const std::size_t n = netlist.node_count();
  run_span.counter("nodes", static_cast<double>(n));
  const auto fanout = netlist.build_fanout_csr();

  // Levelization drives both the parallel sweeps and the task graph: all of
  // a node's fanins sit on strictly lower levels (and all fanouts strictly
  // higher), so one level is a safe parallel front.
  const auto levels = netlist.levels();
  std::uint32_t depth = 0;
  for (std::uint32_t level : levels) depth = std::max(depth, level);
  std::vector<std::vector<NodeId>> level_nodes(depth + 1);
  for (NodeId id = 0; id < n; ++id) level_nodes[levels[id]].push_back(id);

  const int threads =
      options_.threads > 0 ? options_.threads : util::global_thread_count();
  run_span.counter("threads", static_cast<double>(threads));
  // Fixed grain: chunk boundaries (and so event replay order) must be a
  // function of the level population only, never the thread count.
  constexpr std::size_t kLevelGrain = 64;
  // Chunk events are recorded as spans of per-worker-slot arenas; a sweep
  // replays its spans in chunk order before the arenas are rewound.
  std::vector<perf::EventArena> arenas(
      ins != nullptr ? util::parallel_slot_count(threads) : 0);
  auto open_log = [&](std::vector<perf::EventLog>& logs, std::size_t chunk,
                      unsigned slot) -> perf::EventLog* {
    if (ins == nullptr) return nullptr;
    logs[chunk] = perf::EventLog(arenas[slot]);
    return &logs[chunk];
  };
  auto replay_and_rewind = [&](const std::vector<perf::EventLog>& logs) {
    if (ins == nullptr) return;
    for (const perf::EventLog& log : logs) ins->replay(log);
    for (perf::EventArena& arena : arenas) arena.clear();
  };

  TimingReport report;
  report.arrival_ps.assign(n, 0.0);
  report.slack_ps.assign(n, 0.0);
  report.slew_ps.assign(n, 0.0);

  // Wire length estimate driver->sink.
  auto wire_um = [&](NodeId driver, NodeId sink) {
    if (placement != nullptr && placement->valid_for(netlist)) {
      return manhattan(*placement, driver, sink);
    }
    return options_.default_wire_um_per_fanout *
           static_cast<double>(fanout.degree(driver));
  };

  // Output load of a driver: sink pin caps + wire capacitance.
  auto load_ff = [&](NodeId driver, perf::EventLog* log) {
    double load = 0.0;
    const auto [begin, end] = fanout.range(driver);
    for (std::uint32_t e = begin; e < end; ++e) {
      const NodeId sink = fanout.targets[e];
      const auto& node = netlist.node(sink);
      if (node.kind == nl::NodeKind::kCell) {
        load += library.cell(node.cell).input_cap_ff;
      }
      load += wire_um(driver, sink) * library.wire_cap_per_um();
      if (log != nullptr) {
        log->load(kArrivalBase + static_cast<std::uint64_t>(sink) * 8);
        log->fp_ops(3);
      }
    }
    return load;
  };

  // Elmore-lite wire delay along one driver->sink connection.
  auto wire_delay_ps = [&](NodeId driver, NodeId sink, perf::EventLog* log) {
    const double length = wire_um(driver, sink);
    const double r = library.wire_res_per_um() * length;
    const double c = library.wire_cap_per_um() * length;
    double sink_cap = 0.0;
    const auto& node = netlist.node(sink);
    if (node.kind == nl::NodeKind::kCell) {
      sink_cap = library.cell(node.cell).input_cap_ff;
    }
    if (log != nullptr) log->avx_ops(4);
    return r * (c * 0.5 + sink_cap);
  };

  // ---- forward sweep: arrival times -----------------------------------------
  // Levels ascend; within a level every node writes only its own arrival /
  // slew / worst-parent / gate-delay entries and reads only lower levels,
  // so the level fans out across the pool race-free. Chunk event logs are
  // replayed in chunk order after each level.
  report.worst_parent.assign(n, nl::kInvalidNode);
  std::vector<nl::NodeId>& critical_parent = report.worst_parent;
  std::vector<double> gate_delay(n, 0.0);
  {
  TRACE_SPAN("sta/arrival", "sta");
  for (const auto& bucket : level_nodes) {
    if (bucket.empty()) continue;
    std::vector<perf::EventLog> logs(
        ins != nullptr
            ? util::ThreadPool::chunk_count(0, bucket.size(), kLevelGrain)
            : 0);
    util::parallel_for(
        threads, 0, bucket.size(), kLevelGrain,
        [&](std::size_t chunk_begin, std::size_t chunk_end, std::size_t chunk,
            unsigned slot) {
          perf::EventLog* log = open_log(logs, chunk, slot);
          for (std::size_t i = chunk_begin; i < chunk_end; ++i) {
            const NodeId id = bucket[i];
            const auto& node = netlist.node(id);
            if (log != nullptr) {
              log->load(kTopoBase + static_cast<std::uint64_t>(id) * 4);
            }
            if (node.kind == nl::NodeKind::kPrimaryInput) continue;
            double worst_input = 0.0;
            for (NodeId fanin : node.fanins) {
              const double at =
                  report.arrival_ps[fanin] + wire_delay_ps(fanin, id, log);
              const bool is_worst = at > worst_input;
              if (log != nullptr) {
                // Fanin arrivals were produced a few levels earlier:
                // mostly hot.
                const std::uint64_t addr =
                    ((id ^ fanin) & 7) != 0
                        ? kArrivalBase + (fanin % 2048) * 8ULL
                        : kArrivalBase + static_cast<std::uint64_t>(fanin) * 8;
                log->load(addr);
                // The max() compare compiles branchless (maxsd); only the
                // fanin loop contributes (well-predicted) control flow.
                log->branch(kArrivalBase ^ 0x1, true);
                log->fp_ops(2);
              }
              if (is_worst) {
                worst_input = at;
                critical_parent[id] = fanin;
              }
            }
            double own_delay = 0.0;
            if (node.kind == nl::NodeKind::kCell) {
              const auto& cell = library.cell(node.cell);
              const double load = load_ff(id, log);
              // Two-parameter NLDM-lite: base delay degraded by the worst
              // input transition, output slew proportional to drive
              // strength x load.
              double worst_slew = 0.0;
              for (nl::NodeId fanin : node.fanins) {
                worst_slew = std::max(worst_slew, report.slew_ps[fanin]);
              }
              own_delay =
                  cell.delay_ps(load) + options_.slew_delay_factor * worst_slew;
              report.slew_ps[id] =
                  options_.slew_gain * cell.drive_res_kohm * load + 2.0;
              if (log != nullptr) {
                // Library row fetch + interpolation (vectorized table math).
                log->load(kLibraryBase +
                          static_cast<std::uint64_t>(node.cell) * 64);
                log->avx_ops(6);
                log->fp_ops(2);
              }
            } else if (node.kind == nl::NodeKind::kPrimaryOutput) {
              report.slew_ps[id] = report.slew_ps[node.fanins[0]];
            }
            gate_delay[id] = own_delay;
            report.arrival_ps[id] = worst_input + own_delay;
            if (log != nullptr) {
              log->store(kArrivalBase + static_cast<std::uint64_t>(id) * 8);
            }
          }
        });
    replay_and_rewind(logs);
  }
  }  // sta/arrival

  // Critical path + clock period.
  for (NodeId id : netlist.outputs()) {
    report.critical_path_ps =
        std::max(report.critical_path_ps, report.arrival_ps[id]);
  }
  report.clock_period_ps =
      options_.clock_period_ps > 0.0
          ? options_.clock_period_ps
          : report.critical_path_ps * options_.slack_margin;

  // ---- backward sweep: required times / slacks --------------------------------
  // Phrased as a gather so it parallelizes: every fanout of `id` sits on a
  // strictly higher level, finalized by an earlier (descending) pass, so
  // required[id] = min over fanouts is exact and order-independent — the
  // parallel sweep matches the classic reverse-topological scatter.
  std::vector<double> required(n, std::numeric_limits<double>::infinity());
  {
  TRACE_SPAN("sta/required", "sta");
  for (NodeId id : netlist.outputs()) required[id] = report.clock_period_ps;
  for (std::size_t l = level_nodes.size(); l-- > 0;) {
    const auto& bucket = level_nodes[l];
    if (bucket.empty()) continue;
    std::vector<perf::EventLog> logs(
        ins != nullptr
            ? util::ThreadPool::chunk_count(0, bucket.size(), kLevelGrain)
            : 0);
    util::parallel_for(
        threads, 0, bucket.size(), kLevelGrain,
        [&](std::size_t chunk_begin, std::size_t chunk_end, std::size_t chunk,
            unsigned slot) {
          perf::EventLog* log = open_log(logs, chunk, slot);
          for (std::size_t i = chunk_begin; i < chunk_end; ++i) {
            const NodeId id = bucket[i];
            const auto [fo_begin, fo_end] = fanout.range(id);
            double req = required[id];  // clock at POs, +inf elsewhere
            for (std::uint32_t e = fo_begin; e < fo_end; ++e) {
              const NodeId consumer = fanout.targets[e];
              // Propagate the consumer's required time back through its
              // gate delay and the connecting wire.
              const double candidate = required[consumer] -
                                       gate_delay[consumer] -
                                       wire_delay_ps(id, consumer, log);
              if (log != nullptr) {
                const std::uint64_t addr =
                    ((consumer ^ id) & 7) != 0
                        ? kArrivalBase + (id % 2048) * 8ULL
                        : kArrivalBase + static_cast<std::uint64_t>(id) * 8;
                log->load(addr);
                log->branch(kArrivalBase ^ 0x2,
                            true);  // loop control (min is cmov)
                log->avx_ops(3);
              }
              req = std::min(req, candidate);
            }
            required[id] = req;
          }
        });
    replay_and_rewind(logs);
  }
  for (NodeId id = 0; id < n; ++id) {
    report.slack_ps[id] =
        std::isinf(required[id]) ? report.clock_period_ps
                                 : required[id] - report.arrival_ps[id];
  }
  }  // sta/required

  // ---- power report ------------------------------------------------------
  // Leakage: straight library sum. Dynamic: alpha * C * V^2 * f with the
  // clock derived above (fF * V^2 * GHz = uW).
  {
  TRACE_SPAN("sta/power", "sta");
  const double frequency_ghz =
      report.clock_period_ps > 0.0 ? 1000.0 / report.clock_period_ps : 0.0;
  // Chunk partials folded in chunk order: the power sums are bit-identical
  // at any thread count (for the fixed grain).
  constexpr std::size_t kPowerGrain = 256;
  const std::size_t power_chunks =
      util::ThreadPool::chunk_count(0, n, kPowerGrain);
  std::vector<perf::EventLog> logs(ins != nullptr ? power_chunks : 0);
  std::vector<double> leakage_partial(power_chunks, 0.0);
  std::vector<double> dynamic_partial(power_chunks, 0.0);
  util::parallel_for(
      threads, 0, n, kPowerGrain,
      [&](std::size_t chunk_begin, std::size_t chunk_end, std::size_t chunk,
          unsigned slot) {
        perf::EventLog* log = open_log(logs, chunk, slot);
        double leakage = 0.0;
        double dynamic = 0.0;
        for (std::size_t i = chunk_begin; i < chunk_end; ++i) {
          const NodeId id = static_cast<NodeId>(i);
          const auto& node = netlist.node(id);
          if (node.kind != nl::NodeKind::kCell) continue;
          leakage += library.cell(node.cell).leakage_nw;
          dynamic += options_.activity_factor * load_ff(id, log) *
                     options_.supply_voltage * options_.supply_voltage *
                     frequency_ghz * 1e-3;
        }
        leakage_partial[chunk] = leakage;
        dynamic_partial[chunk] = dynamic;
      });
  replay_and_rewind(logs);
  for (std::size_t c = 0; c < power_chunks; ++c) {
    report.leakage_power_nw += leakage_partial[c];
    report.dynamic_power_uw += dynamic_partial[c];
  }
  }  // sta/power

  report.endpoint_count = netlist.outputs().size();
  report.worst_slack_ps = std::numeric_limits<double>::infinity();
  for (NodeId id : netlist.outputs()) {
    report.worst_slack_ps = std::min(report.worst_slack_ps, report.slack_ps[id]);
    if (report.slack_ps[id] < 0.0) ++report.violating_endpoints;
  }
  if (netlist.outputs().empty()) report.worst_slack_ps = 0.0;

  // Trace the critical path from the worst endpoint back to a PI.
  NodeId worst_endpoint = nl::kInvalidNode;
  double worst_at = -1.0;
  for (NodeId id : netlist.outputs()) {
    if (report.arrival_ps[id] > worst_at) {
      worst_at = report.arrival_ps[id];
      worst_endpoint = id;
    }
  }
  for (NodeId cursor = worst_endpoint; cursor != nl::kInvalidNode;
       cursor = critical_parent[cursor]) {
    report.critical_path.push_back(cursor);
    if (netlist.node(cursor).kind == nl::NodeKind::kPrimaryInput) break;
    if (critical_parent[cursor] == nl::kInvalidNode &&
        !netlist.node(cursor).fanins.empty()) {
      report.critical_path.push_back(netlist.node(cursor).fanins[0]);
      break;
    }
  }
  std::reverse(report.critical_path.begin(), report.critical_path.end());

  // ---- task graph: two levelized sweeps ---------------------------------------
  std::vector<double> histogram(depth + 1, 0.0);
  for (std::size_t l = 0; l < level_nodes.size(); ++l) {
    histogram[l] = static_cast<double>(level_nodes[l].size());
  }

  TaskGraph tasks;
  bool has_prev = false;
  TaskId prev = 0;
  constexpr double kChunk = 32.0;
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (std::size_t l = 0; l < histogram.size(); ++l) {
      const double count =
          sweep == 0 ? histogram[l] : histogram[histogram.size() - 1 - l];
      if (count <= 0.0) continue;
      const int chunks =
          std::max(1, static_cast<int>(std::ceil(count / kChunk)));
      std::vector<TaskId> chunk_ids;
      for (int c = 0; c < chunks; ++c) {
        std::vector<TaskId> deps;
        if (has_prev) deps.push_back(prev);
        chunk_ids.push_back(tasks.add_task(count / chunks, deps));
      }
      prev = tasks.add_task(0.0, chunk_ids);
      has_prev = true;
    }
  }

  report.profile.job = "sta";
  report.profile.configs = configs;
  if (ins != nullptr) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      report.profile.counts.push_back(ins->counts(i));
    }
  }
  report.profile.tasks = std::move(tasks);
  return report;
}

std::vector<TimingPath> worst_paths(const TimingReport& report,
                                    const nl::Netlist& netlist, int k) {
  // Rank endpoints by arrival, trace each back through worst_parent.
  std::vector<nl::NodeId> endpoints = netlist.outputs();
  std::sort(endpoints.begin(), endpoints.end(),
            [&report](nl::NodeId a, nl::NodeId b) {
              return report.arrival_ps[a] > report.arrival_ps[b];
            });
  if (k >= 0 && endpoints.size() > static_cast<std::size_t>(k)) {
    endpoints.resize(static_cast<std::size_t>(k));
  }
  std::vector<TimingPath> paths;
  for (nl::NodeId endpoint : endpoints) {
    TimingPath path;
    path.arrival_ps = report.arrival_ps[endpoint];
    path.slack_ps = report.slack_ps[endpoint];
    nl::NodeId cursor = endpoint;
    while (cursor != nl::kInvalidNode) {
      path.nodes.push_back(cursor);
      const auto& node = netlist.node(cursor);
      if (node.kind == nl::NodeKind::kPrimaryInput) break;
      nl::NodeId next = report.worst_parent[cursor];
      if (next == nl::kInvalidNode && !node.fanins.empty()) {
        next = node.fanins[0];
      }
      if (next == cursor) break;  // defensive
      cursor = next;
    }
    std::reverse(path.nodes.begin(), path.nodes.end());
    paths.push_back(std::move(path));
  }
  return paths;
}

}  // namespace edacloud::sta
