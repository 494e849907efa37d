// edacloud — unified command-line front end over the library.
//
//   edacloud_cli gen   <family> <size> [--aag out.aag] [--dot out.dot]
//   edacloud_cli synth <in.aag> [--recipe NAME] [--verilog out.v]
//   edacloud_cli flow  <family> <size> [--trace F] [--metrics F]
//   edacloud_cli plan  <family> <size> <deadline> [--spot]
//   edacloud_cli lib   [--out lib.lib]            # dump the built-in library
//   edacloud_cli fleet-sim [--arrival-rate R] [--policy P] [--seed N]
//                          [--duration S] [--mix M] [--spot F]
//                          [--interruption-rate R] [--crash-rate R]
//                          [--boot-fail P] [--restart MODEL]
//                          [--checkpoint-interval S] [--checkpoint-overhead S]
//                          [--max-attempts N] [--threads N]
//                          [--shards N] [--handoff-latency S]
//                          [--lookahead S] [--shard-stats]
//                          [--trace F] [--metrics F]
//   edacloud_cli predict <family> <size> [--job NAME] [--batch N]
//                        [--cache N] [--threads N] [--repeat N]
//                        [--train-designs N] [--train-epochs N] [--verify]
//   edacloud_cli tune    [<family> <size>] [--designs fam:size[,...]]
//                        [--deadline S] [--budget USD] [--samples N]
//                        [--seed N] [--threads N] [--batch N] [--cache N]
//                        [--train-designs N] [--train-epochs N] [--spot]
//                        [--export F] [--trace F] [--metrics F]
//   edacloud_cli serve   [--port N] [--threads N] [--seed N] [--max-conns N]
//                        [--max-queue N] [--deadline-ms MS]
//                        [--train-designs N] [--train-epochs N]
//                        [--batch-max N] [--batch-linger-ms MS]
//                        [--predict-cache N] [--trace F] [--metrics F]
//   edacloud_cli loadgen --port N [--host H] [--mode closed|open] [--qps R]
//                        [--conns N] [--requests N] [--duration S]
//                        [--warmup S] [--seed N]
//                        [--mix predict|predict-heavy|echo|mixed]
//                        [--deadline-ms MS] [--export F]
//
// --trace writes a Chrome trace_event JSON file (open in Perfetto or
// chrome://tracing); --metrics writes the unified metrics registry as JSON
// (or CSV when the filename ends in .csv). See docs/OBSERVABILITY.md.
//
// Every subcommand works on files in the formats the library speaks
// (ASCII AIGER in, structural Verilog / Liberty / DOT out), so the tool
// interoperates with standard logic-synthesis tooling.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "edacloud.hpp"
#include "nl/aiger.hpp"
#include "nl/dot.hpp"
#include "nl/liberty.hpp"
#include "nl/verilog.hpp"
#include "sta/sta.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace edacloud;

namespace {

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage:\n"
               "  edacloud_cli gen   <family> <size> [--aag F] [--dot F]\n"
               "  edacloud_cli synth <in.aag> [--recipe NAME] [--verilog F]\n"
               "  edacloud_cli flow  <family> <size> [--trace F] "
               "[--metrics F]\n"
               "                     [--threads N]\n"
               "  edacloud_cli plan  <family> <size> <deadline_s> [--spot]\n"
               "  edacloud_cli lib   [--out F]\n"
               "  edacloud_cli fleet-sim [--arrival-rate JOBS_PER_HOUR]\n"
               "                         [--policy fifo|cost|edf] [--seed N]\n"
               "                         [--duration SECONDS]\n"
               "                         [--mix uniform|skewed|bursty|\n"
               "                                diurnal|flash]\n"
               "                         [--spot FRACTION]\n"
               "                         [--market static|drift|storm]\n"
               "                         [--market-trace F] [--bid FRACTION]\n"
               "                         [--market-interval S] [--rebid]\n"
               "                         [--interruption-rate PER_HOUR]\n"
               "                         [--crash-rate PER_HOUR]\n"
               "                         [--boot-fail PROBABILITY]\n"
               "                         [--restart credit|zero|checkpoint]\n"
               "                         [--checkpoint-interval SECONDS]\n"
               "                         [--checkpoint-overhead SECONDS]\n"
               "                         [--max-attempts N] [--threads N]\n"
               "                         [--shards N] [--handoff-latency S]\n"
               "                         [--lookahead S] [--shard-stats]\n"
               "                         [--trace F] [--metrics F]\n"
               "  edacloud_cli predict <family> <size> [--job NAME]\n"
               "                       [--batch N] [--cache N] [--threads N]\n"
               "                       [--repeat N] [--train-designs N]\n"
               "                       [--train-epochs N] [--verify]\n"
               "  edacloud_cli tune    [<family> <size>]\n"
               "                       [--designs fam:size[,fam:size...]]\n"
               "                       [--deadline S] [--budget USD]\n"
               "                       [--samples N] [--seed N]\n"
               "                       [--threads N] [--batch N] [--cache N]\n"
               "                       [--train-designs N] [--train-epochs N]\n"
               "                       [--spot] [--export F] [--trace F]\n"
               "                       [--metrics F]\n"
               "  edacloud_cli serve   [--port N] [--threads N] [--seed N]\n"
               "                       [--max-conns N] [--max-queue N]\n"
               "                       [--deadline-ms MS] [--train-designs N]\n"
               "                       [--train-epochs N] [--batch-max N]\n"
               "                       [--batch-linger-ms MS]\n"
               "                       [--predict-cache N] [--trace F]\n"
               "                       [--metrics F]\n"
               "  edacloud_cli loadgen --port N [--host H]\n"
               "                       [--mode closed|open] [--qps R]\n"
               "                       [--conns N] [--requests N]\n"
               "                       [--duration S] [--warmup S] [--seed N]\n"
               "                       [--mix predict|predict-heavy|echo|"
               "mixed]\n"
               "                       [--deadline-ms MS] [--export F]\n"
               "Every subcommand accepts --help.\n"
               "families:");
  for (const auto& info : workloads::families()) {
    std::fprintf(out, " %s", info.name.c_str());
  }
  std::fprintf(out, "\n");
}

int usage() {
  print_usage(stderr);
  return 2;
}

/// The flags a subcommand understands. Value flags consume the next
/// argument; switch flags stand alone.
struct FlagSpec {
  std::vector<std::string> value_flags;
  std::vector<std::string> switch_flags;
};

bool spec_has(const std::vector<std::string>& flags, const std::string& arg) {
  for (const auto& flag : flags) {
    if (flag == arg) return true;
  }
  return false;
}

/// Reject anything that looks like a flag but isn't in the subcommand's
/// spec, and value flags missing their argument. Returns 0 when the
/// argument list is well-formed, 2 (after printing the problem + usage)
/// otherwise.
int check_flags(const std::string& command,
                const std::vector<std::string>& args, const FlagSpec& spec) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) continue;  // positional
    if (spec_has(spec.value_flags, arg)) {
      if (i + 1 >= args.size() || args[i + 1].rfind("--", 0) == 0) {
        std::fprintf(stderr, "error: %s %s wants a value\n", command.c_str(),
                     arg.c_str());
        return usage();
      }
      ++i;  // skip the value
      continue;
    }
    if (spec_has(spec.switch_flags, arg)) continue;
    std::fprintf(stderr, "error: unknown flag '%s' for '%s'\n", arg.c_str(),
                 command.c_str());
    return usage();
  }
  return 0;
}

std::string flag_value(const std::vector<std::string>& args,
                       const std::string& flag) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == flag) return args[i + 1];
  }
  return "";
}

bool has_flag(const std::vector<std::string>& args, const std::string& flag) {
  for (const auto& arg : args) {
    if (arg == flag) return true;
  }
  return false;
}

/// A finite number: the whole string must parse (atof would let "nan",
/// "inf" and trailing junk through).
bool parse_finite(const std::string& text, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

/// A finite number > 0 (a deadline, a duration, a dollar amount).
bool parse_positive(const std::string& text, double* out) {
  double value = 0.0;
  if (!parse_finite(text, &value) || value <= 0.0) return false;
  *out = value;
  return true;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream file(path);
  file << content;
  if (!file) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

nl::Aig generate_or_die(const std::string& family, int size) {
  workloads::BenchmarkSpec spec;
  spec.family = family;
  spec.size = size;
  spec.seed = 7;
  return workloads::generate(spec);
}

int cmd_gen(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  const nl::Aig aig = generate_or_die(args[0], std::atoi(args[1].c_str()));
  std::printf("%s: %zu inputs, %zu outputs, %zu AND nodes, depth %u\n",
              aig.name().c_str(), aig.input_count(), aig.output_count(),
              aig.and_count(), aig.depth());
  const std::string aag = flag_value(args, "--aag");
  if (!aag.empty() && !write_file(aag, nl::write_aiger(aig))) return 1;
  const std::string dot = flag_value(args, "--dot");
  if (!dot.empty() && !write_file(dot, nl::write_dot(aig))) return 1;
  return 0;
}

int cmd_synth(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  std::ifstream in(args[0]);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", args[0].c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto parsed = nl::parse_aiger(buffer.str());
  if (!parsed.ok) {
    std::fprintf(stderr, "error: %s\n", parsed.error.c_str());
    return 1;
  }

  synth::SynthRecipe recipe = synth::default_recipe();
  const std::string recipe_name = flag_value(args, "--recipe");
  if (!recipe_name.empty()) {
    bool found = false;
    for (const auto& candidate : synth::standard_recipes()) {
      if (candidate.name == recipe_name) {
        recipe = candidate;
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr, "error: unknown recipe '%s'\n",
                   recipe_name.c_str());
      return 1;
    }
  }

  const nl::CellLibrary library = nl::make_generic_14nm_library();
  synth::SynthesisEngine engine(library);
  const auto mapped = engine.synthesize(parsed.aig, recipe);
  const auto stats = mapped.netlist.stats();
  std::printf("recipe %s: %zu cells, %.1f um2, depth %u\n",
              recipe.name.c_str(), stats.instance_count,
              stats.total_area_um2, stats.logic_depth);

  const std::string verilog = flag_value(args, "--verilog");
  if (!verilog.empty() &&
      !write_file(verilog, nl::write_verilog(mapped.netlist))) {
    return 1;
  }
  return 0;
}

int cmd_flow(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  const std::string trace_path = flag_value(args, "--trace");
  const std::string metrics_path = flag_value(args, "--metrics");
  if (!trace_path.empty()) {
    obs::Tracer::global().enable(obs::ClockMode::kWall);
  }
  // With --metrics the flow runs instrumented against both VM ladders so
  // the registry carries per-stage runtime/counter measurements, not just
  // the QoR table below.
  std::vector<perf::VmConfig> configs;
  if (!metrics_path.empty()) {
    for (const auto family : {perf::InstanceFamily::kGeneralPurpose,
                              perf::InstanceFamily::kMemoryOptimized}) {
      for (const auto& vm : perf::vm_ladder(family)) configs.push_back(vm);
    }
  }

  const nl::Aig aig = generate_or_die(args[0], std::atoi(args[1].c_str()));
  const nl::CellLibrary library = nl::make_generic_14nm_library();
  core::FlowOptions flow_options;
  const std::string threads = flag_value(args, "--threads");
  if (!threads.empty()) {
    // Results are bit-identical at any thread count; this only changes how
    // fast the parallel stages (routing, STA) run on this host.
    const int n = std::atoi(threads.c_str());
    if (n < 1) {
      std::fprintf(stderr, "error: --threads wants a positive integer\n");
      return 2;
    }
    util::set_global_thread_count(n);
    flow_options.threads = n;
  }
  core::EdaFlow flow(library, flow_options);
  const auto result = flow.run(aig, configs);
  const auto stats = result.synthesis.mapped.netlist.stats();

  util::Table table({"Metric", "Value"});
  table.add_row({"instances", util::format_count(static_cast<long long>(
                                  stats.instance_count))});
  table.add_row({"area (um2)", util::format_fixed(stats.total_area_um2, 1)});
  table.add_row({"logic depth", std::to_string(stats.logic_depth)});
  table.add_row(
      {"HPWL (um)", util::format_fixed(result.placement.hpwl_um, 0)});
  table.add_row({"routed wirelength (gcell edges)",
                 util::format_count(static_cast<long long>(
                     result.routing.wirelength_gedges))});
  table.add_row({"routing overflow edges",
                 std::to_string(result.routing.overflowed_edges)});
  table.add_row({"critical path (ps)",
                 util::format_fixed(result.timing.critical_path_ps, 0)});
  table.add_row({"worst slack (ps)",
                 util::format_fixed(result.timing.worst_slack_ps, 1)});
  table.add_row({"leakage (uW)",
                 util::format_fixed(result.timing.leakage_power_nw / 1e3, 2)});
  table.add_row({"dynamic power (uW)",
                 util::format_fixed(result.timing.dynamic_power_uw, 2)});
  std::printf("%s", table.render().c_str());

  if (!trace_path.empty()) {
    obs::Tracer::global().disable();
    if (!obs::Tracer::global().write_json(trace_path)) return 1;
    std::printf("wrote %s (%zu events)\n", trace_path.c_str(),
                obs::Tracer::global().event_count());
  }
  if (!metrics_path.empty()) {
    if (!obs::Registry::global().write(metrics_path)) return 1;
    std::printf("wrote %s (%zu metrics)\n", metrics_path.c_str(),
                obs::Registry::global().size());
  }
  return 0;
}

int cmd_plan(const std::vector<std::string>& args) {
  if (args.size() < 3) return usage();
  double deadline = 0.0;
  if (!parse_positive(args[2], &deadline)) {
    std::fprintf(stderr, "error: <deadline_s> wants a finite number of "
                 "seconds > 0\n");
    return 2;
  }
  const nl::Aig aig = generate_or_die(args[0], std::atoi(args[1].c_str()));

  const nl::CellLibrary library = nl::make_generic_14nm_library();
  core::Characterizer characterizer(library);
  const auto report = characterizer.characterize(aig);
  core::RuntimeLadders ladders{};
  for (core::JobKind job : core::kAllJobs) {
    const auto* row = report.find(job, core::recommended_family(job));
    if (row != nullptr) ladders[static_cast<int>(job)] = row->runtime_seconds;
  }
  core::DeploymentOptimizer optimizer;
  if (has_flag(args, "--spot")) optimizer.enable_spot(cloud::SpotModel{});
  const auto plan = optimizer.optimize(ladders, deadline);
  if (!plan.feasible) {
    const auto stages = optimizer.build_stages(ladders);
    std::printf("NA — fastest possible is %.0f s\n",
                cloud::fastest_completion_seconds(stages));
    return 1;
  }
  util::Table table({"Stage", "Instance", "vCPUs", "Tier", "Runtime (s)",
                     "Cost ($)"});
  for (const auto& entry : plan.entries) {
    table.add_row({core::job_name(entry.job),
                   std::string(perf::to_string(entry.family)),
                   std::to_string(entry.vcpus),
                   entry.spot ? "spot" : "on-demand",
                   util::format_fixed(entry.runtime_seconds, 0),
                   util::format_fixed(entry.cost_usd, 4)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("total %.0f s, $%.4f\n", plan.total_runtime_seconds,
              plan.total_cost_usd);
  return 0;
}

int cmd_fleet_sim(const std::vector<std::string>& args) {
  sched::SimConfig config;
  config.seed = 1;
  config.duration_seconds = 4.0 * 3600.0;
  config.load.arrival_rate_per_hour = 60.0;
  config.load.mix = sched::uniform_mix();
  config.fleet.boot_seconds = 45.0;
  config.warm_pools = {
      {{perf::InstanceFamily::kGeneralPurpose, 8}, 2},
      {{perf::InstanceFamily::kGeneralPurpose, 1}, 2},
      {{perf::InstanceFamily::kMemoryOptimized, 1}, 2},
  };

  std::string policy_name = "cost";
  const std::string rate = flag_value(args, "--arrival-rate");
  if (!rate.empty() &&
      !parse_positive(rate, &config.load.arrival_rate_per_hour)) {
    std::fprintf(stderr, "error: --arrival-rate wants a finite number of "
                 "jobs per hour > 0\n");
    return 2;
  }
  const std::string policy = flag_value(args, "--policy");
  if (!policy.empty()) policy_name = policy;
  const std::string seed = flag_value(args, "--seed");
  if (!seed.empty()) config.seed = std::strtoull(seed.c_str(), nullptr, 10);
  const std::string duration = flag_value(args, "--duration");
  if (!duration.empty() &&
      !parse_positive(duration, &config.duration_seconds)) {
    std::fprintf(stderr, "error: --duration wants a finite number of "
                 "seconds > 0\n");
    return 2;
  }
  const std::string mix = flag_value(args, "--mix");
  if (!mix.empty()) {
    try {
      config.load.mix = sched::mix_by_name(mix);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }
  const std::string spot = flag_value(args, "--spot");
  if (!spot.empty() &&
      (!parse_finite(spot, &config.fleet.spot_fraction) ||
       config.fleet.spot_fraction < 0.0 || config.fleet.spot_fraction > 1.0)) {
    std::fprintf(stderr, "error: --spot wants a fraction in [0, 1]\n");
    return 2;
  }

  // Spot-market selection (DESIGN.md §15, docs/MARKETS.md). "static" is
  // the classic flat model; presets generate seeded price weather;
  // --market-trace replays a canonical trace file exactly.
  std::shared_ptr<market::TraceMarket> trace_market;
  const std::string market_name = flag_value(args, "--market");
  const std::string market_trace = flag_value(args, "--market-trace");
  if (!market_name.empty() && !market_trace.empty()) {
    std::fprintf(stderr,
                 "error: --market and --market-trace are mutually "
                 "exclusive\n");
    return 2;
  }
  const std::string bid = flag_value(args, "--bid");
  if (!bid.empty()) {
    config.fleet.spot_bid_fraction = std::atof(bid.c_str());
    if (config.fleet.spot_bid_fraction <= 0.0) {
      std::fprintf(stderr,
                   "error: --bid wants a positive fraction of on-demand\n");
      return 2;
    }
  }
  const std::string market_interval = flag_value(args, "--market-interval");
  if (!market_interval.empty()) {
    config.market.interval_seconds = std::atof(market_interval.c_str());
    if (config.market.interval_seconds <= 0.0) {
      std::fprintf(stderr, "error: --market-interval wants seconds > 0\n");
      return 2;
    }
  }
  config.market.enabled = has_flag(args, "--rebid");
  if (!market_name.empty() && market_name != "static") {
    try {
      trace_market = market::make_preset_market(market_name, config.seed,
                                                config.duration_seconds);
    } catch (const std::invalid_argument&) {
      std::string known = "static";
      for (const std::string& preset : market::preset_market_names()) {
        known += " | " + preset;
      }
      std::fprintf(stderr, "error: --market wants %s\n", known.c_str());
      return 2;
    }
  } else if (!market_trace.empty()) {
    try {
      trace_market = std::make_shared<market::TraceMarket>(
          market::load_price_traces(market_trace), config.fleet.spot);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: --market-trace %s\n", e.what());
      return 2;
    }
  }
  if (trace_market != nullptr) {
    trace_market->set_planning_bid(config.fleet.spot_bid_fraction);
    config.fleet.market = trace_market;
  }

  // Fault-injection knobs (see DESIGN.md §10). The event loop stays fully
  // deterministic with any of these enabled.
  const std::string interruption = flag_value(args, "--interruption-rate");
  if (!interruption.empty()) {
    config.fleet.spot.interruptions_per_hour = std::atof(interruption.c_str());
  }
  const std::string crash = flag_value(args, "--crash-rate");
  if (!crash.empty()) {
    config.fault.crash_rate_per_hour = std::atof(crash.c_str());
  }
  const std::string boot_fail = flag_value(args, "--boot-fail");
  if (!boot_fail.empty()) {
    config.fault.boot_failure_probability = std::atof(boot_fail.c_str());
  }
  const std::string ckpt_interval = flag_value(args, "--checkpoint-interval");
  if (!ckpt_interval.empty()) {
    config.fault.checkpoint_interval_seconds = std::atof(ckpt_interval.c_str());
  }
  const std::string ckpt_overhead = flag_value(args, "--checkpoint-overhead");
  if (!ckpt_overhead.empty()) {
    config.fault.checkpoint_overhead_seconds = std::atof(ckpt_overhead.c_str());
  }
  const std::string attempts = flag_value(args, "--max-attempts");
  if (!attempts.empty()) {
    config.fault.max_attempts_per_stage = std::atoi(attempts.c_str());
    if (config.fault.max_attempts_per_stage < 1) {
      std::fprintf(stderr, "error: --max-attempts wants a positive integer\n");
      return 2;
    }
  }
  const std::string restart = flag_value(args, "--restart");
  if (restart == "credit") {
    config.fault.restart = sched::RestartModel::kFractionCredit;
  } else if (restart == "zero") {
    config.fault.restart = sched::RestartModel::kFromZero;
  } else if (restart == "checkpoint") {
    config.fault.restart = sched::RestartModel::kCheckpoint;
  } else if (!restart.empty()) {
    std::fprintf(stderr,
                 "error: --restart wants credit, zero or checkpoint\n");
    return 2;
  } else if (!ckpt_interval.empty()) {
    // A checkpoint interval without an explicit model means checkpointing.
    config.fault.restart = sched::RestartModel::kCheckpoint;
  }
  const std::string threads = flag_value(args, "--threads");
  if (!threads.empty()) {
    const int n = std::atoi(threads.c_str());
    if (n < 1) {
      std::fprintf(stderr, "error: --threads wants a positive integer\n");
      return 2;
    }
    // The event loop is sequential and seeded; the worker-pool width must
    // not change any simulated result (scripts/check.sh asserts this).
    util::set_global_thread_count(n);
  }

  // Sharded engine knobs (DESIGN.md §13, docs/SIMULATION.md). Passing any
  // of them selects the sharded simulator; without them the classic
  // sequential engine runs, byte-for-byte as before.
  sched::ShardedSimConfig sharded;
  bool use_sharded = false;
  const std::string shards_flag = flag_value(args, "--shards");
  if (!shards_flag.empty()) {
    sharded.shards = std::atoi(shards_flag.c_str());
    if (sharded.shards < 1 ||
        sharded.shards > sched::ShardTopology::kPoolCount) {
      std::fprintf(stderr, "error: --shards wants 1..%d\n",
                   sched::ShardTopology::kPoolCount);
      return 2;
    }
    use_sharded = true;
  }
  const std::string handoff_flag = flag_value(args, "--handoff-latency");
  if (!handoff_flag.empty()) {
    sharded.handoff_latency_seconds = std::atof(handoff_flag.c_str());
    if (sharded.handoff_latency_seconds <= 0.0) {
      std::fprintf(stderr, "error: --handoff-latency wants seconds > 0\n");
      return 2;
    }
    use_sharded = true;
  }
  const std::string lookahead_flag = flag_value(args, "--lookahead");
  if (!lookahead_flag.empty()) {
    sharded.lookahead_seconds = std::atof(lookahead_flag.c_str());
    if (sharded.lookahead_seconds <= 0.0) {
      std::fprintf(stderr, "error: --lookahead wants seconds > 0\n");
      return 2;
    }
    use_sharded = true;
  }
  const bool shard_stats = has_flag(args, "--shard-stats");
  if (shard_stats) use_sharded = true;

  const std::string trace_path = flag_value(args, "--trace");
  const std::string metrics_path = flag_value(args, "--metrics");
  if (!trace_path.empty()) {
    // Virtual clock: span timestamps are simulated seconds, so same-seed
    // runs serialize to byte-identical trace files.
    obs::Tracer::global().enable(obs::ClockMode::kVirtual);
  }

  std::printf(
      "fleet-sim: mix=%s policy=%s rate=%.0f/h duration=%.0fs seed=%llu "
      "spot=%.0f%% market=%s%s\n",
      config.load.mix.name.c_str(), policy_name.c_str(),
      config.load.arrival_rate_per_hour, config.duration_seconds,
      static_cast<unsigned long long>(config.seed),
      config.fleet.spot_fraction * 100.0,
      trace_market != nullptr ? trace_market->name().c_str() : "static",
      config.market.enabled ? " rebid=on" : "");
  if (trace_market != nullptr) {
    std::printf("fleet-sim: %s, bid %.2fx\n",
                trace_market->describe().c_str(),
                config.fleet.spot_bid_fraction);
  }
  sched::FleetMetrics metrics;
  if (use_sharded) {
    sharded.base = config;
    sharded.threads = util::global_thread_count();
    std::printf("fleet-sim: sharded engine, %d shard(s), handoff %.3gs, "
                "lookahead %.3gs\n",
                sharded.shards, sharded.handoff_latency_seconds,
                sharded.lookahead_seconds > 0.0
                    ? sharded.lookahead_seconds
                    : sharded.handoff_latency_seconds);
    sched::ShardedFleetSimulator sim(sharded, sched::builtin_templates(),
                                     policy_name);
    metrics = sim.run();
    if (shard_stats) {
      sim.export_shard_stats(obs::Registry::global(),
                             {{"policy", policy_name}});
      for (std::size_t s = 0; s < sim.shard_stats().size(); ++s) {
        const sched::ShardStats& stats = sim.shard_stats()[s];
        std::printf("shard %zu: %d pool(s), %llu events, %llu handoffs out, "
                    "%llu in\n",
                    s, stats.pools_owned,
                    static_cast<unsigned long long>(stats.events_processed),
                    static_cast<unsigned long long>(stats.handoffs_out),
                    static_cast<unsigned long long>(stats.handoffs_in));
      }
      std::printf("windows: %llu, events total: %llu\n",
                  static_cast<unsigned long long>(sim.windows()),
                  static_cast<unsigned long long>(sim.total_events()));
    }
  } else {
    sched::FleetSimulator sim(config, sched::builtin_templates(),
                              sched::make_policy(policy_name));
    metrics = sim.run();
  }
  std::printf("%s", metrics.render().c_str());

  if (!trace_path.empty()) {
    obs::Tracer::global().disable();
    if (!obs::Tracer::global().write_json(trace_path)) return 1;
    std::printf("wrote %s (%zu events)\n", trace_path.c_str(),
                obs::Tracer::global().event_count());
  }
  if (!metrics_path.empty()) {
    metrics.export_to(obs::Registry::global(),
                      {{"policy", policy_name},
                       {"mix", config.load.mix.name}});
    if (trace_market != nullptr) {
      market::export_market_gauges(*trace_market, obs::Registry::global(),
                                   {{"market", trace_market->name()}});
    }
    if (!obs::Registry::global().write(metrics_path)) return 1;
    std::printf("wrote %s (%zu metrics)\n", metrics_path.c_str(),
                obs::Registry::global().size());
  }
  return 0;
}

// Local timing helper for cmd_predict — milliseconds across a callable.
template <typename Fn>
double time_ms(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

// predict: train a small GCN predictor, then answer a batch of runtime
// queries over design variants two ways — the serial per-sample path and
// the merged-batch path (ml::BatchedGcn behind
// core::RuntimePredictor::predict_batch), optionally fronted by a
// content-addressed ml::PredictionCache — and report both timings.
// --verify asserts the two paths produce bit-identical runtimes (exit 1
// otherwise); scripts/check.sh runs exactly that as its batched-inference
// smoke leg.
int cmd_predict(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  const std::string family = args[0];
  const int base_size = std::atoi(args[1].c_str());
  if (base_size < 1) {
    std::fprintf(stderr, "error: predict wants a positive <size>\n");
    return 2;
  }

  core::JobKind job = core::JobKind::kSynthesis;
  const std::string job_flag = flag_value(args, "--job");
  if (!job_flag.empty()) {
    bool found = false;
    for (const core::JobKind candidate : core::kAllJobs) {
      if (core::job_name(candidate) == job_flag) {
        job = candidate;
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr,
                   "error: --job wants synthesis, placement, routing or sta\n");
      return 2;
    }
  }

  int batch = 8;
  const std::string batch_flag = flag_value(args, "--batch");
  if (!batch_flag.empty()) {
    batch = std::atoi(batch_flag.c_str());
    if (batch < 1) {
      std::fprintf(stderr, "error: --batch wants a positive integer\n");
      return 2;
    }
  }
  long long cache_capacity = 256;
  const std::string cache_flag = flag_value(args, "--cache");
  if (!cache_flag.empty()) {
    cache_capacity = std::atoll(cache_flag.c_str());
    if (cache_capacity < 0) {
      std::fprintf(stderr, "error: --cache wants a non-negative capacity\n");
      return 2;
    }
  }
  int repeat = 1;
  const std::string repeat_flag = flag_value(args, "--repeat");
  if (!repeat_flag.empty()) {
    repeat = std::atoi(repeat_flag.c_str());
    if (repeat < 1) {
      std::fprintf(stderr, "error: --repeat wants a positive integer\n");
      return 2;
    }
  }
  const std::string threads = flag_value(args, "--threads");
  if (!threads.empty()) {
    const int n = std::atoi(threads.c_str());
    if (n < 1) {
      std::fprintf(stderr, "error: --threads wants a positive integer\n");
      return 2;
    }
    // Results are bit-identical at any width (the PR 3 kernel contract,
    // which --verify cross-checks against the serial path).
    util::set_global_thread_count(n);
  }
  std::size_t train_designs = 4;
  const std::string train_designs_flag = flag_value(args, "--train-designs");
  if (!train_designs_flag.empty()) {
    const long long n = std::atoll(train_designs_flag.c_str());
    if (n < 1) {
      std::fprintf(stderr,
                   "error: --train-designs wants a positive integer\n");
      return 2;
    }
    train_designs = static_cast<std::size_t>(n);
  }
  int train_epochs = 6;
  const std::string train_epochs_flag = flag_value(args, "--train-epochs");
  if (!train_epochs_flag.empty()) {
    train_epochs = std::atoi(train_epochs_flag.c_str());
    if (train_epochs < 1) {
      std::fprintf(stderr, "error: --train-epochs wants a positive integer\n");
      return 2;
    }
  }
  const bool verify = has_flag(args, "--verify");

  // Train the same way svc::Service::initialize does: first N families at
  // their smallest corpus size, fast GCN config.
  const nl::CellLibrary library = nl::make_generic_14nm_library();
  std::vector<workloads::BenchmarkSpec> specs;
  for (const auto& info : workloads::families()) {
    if (specs.size() >= train_designs) break;
    workloads::BenchmarkSpec spec;
    spec.family = info.name;
    spec.size = info.corpus_sizes.empty() ? 32 : info.corpus_sizes.front();
    spec.seed = 7;
    specs.push_back(spec);
  }
  core::DatasetOptions dataset_options;
  dataset_options.max_recipes = 1;
  dataset_options.max_netlists = specs.size();
  const core::Dataset dataset =
      core::DatasetBuilder(library, dataset_options).build(specs);
  core::PredictorOptions predictor_options;
  predictor_options.gcn = ml::GcnConfig::fast();
  predictor_options.gcn.epochs = train_epochs;
  core::RuntimePredictor predictor(predictor_options);
  (void)predictor.train(dataset);
  if (!predictor.trained(job)) {
    std::fprintf(stderr, "error: no trained model for job '%s'\n",
                 core::job_name(job).c_str());
    return 1;
  }

  // Query pool: four design-size variants of the requested family; a
  // --batch larger than four repeats them, which is exactly the
  // repeated-design stream the batcher's content dedup collapses.
  constexpr int kVariants = 4;
  const int step = std::max(4, base_size / 8);
  std::vector<ml::GraphSample> pool;
  std::vector<int> pool_sizes;
  synth::SynthesisEngine engine(library);
  for (int k = 0; k < kVariants; ++k) {
    const int size = base_size + k * step;
    const nl::Aig aig = generate_or_die(family, size);
    const nl::DesignGraph graph =
        job == core::JobKind::kSynthesis
            ? nl::graph_from_aig(aig)
            : nl::graph_from_netlist(
                  engine.synthesize(aig, synth::default_recipe()).netlist);
    pool.push_back(ml::sample_from_graph(graph));
    pool_sizes.push_back(size);
  }
  std::vector<ml::ContentKey> pool_keys;
  for (const auto& sample : pool) {
    pool_keys.push_back(ml::content_key(sample).salted(
        static_cast<std::uint64_t>(job) + 1));
  }
  std::vector<const ml::GraphSample*> queries;
  std::vector<ml::ContentKey> keys;
  for (int q = 0; q < batch; ++q) {
    queries.push_back(&pool[q % kVariants]);
    keys.push_back(pool_keys[q % kVariants]);
  }

  // Serial baseline: one forward pass per query, every repeat.
  std::vector<std::array<double, 4>> serial(queries.size());
  const double serial_ms = time_ms([&] {
    for (int rep = 0; rep < repeat; ++rep) {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        serial[i] = predictor.predict(job, *queries[i]);
      }
    }
  });

  // Batched path: cache lookups first (when enabled), then ONE merged
  // forward pass over the misses — the svc::Service serving pipeline.
  ml::PredictionCache cache(static_cast<std::size_t>(cache_capacity));
  std::vector<std::array<double, 4>> batched(queries.size());
  const double batched_ms = time_ms([&] {
    for (int rep = 0; rep < repeat; ++rep) {
      std::vector<std::size_t> miss_index;
      std::vector<const ml::GraphSample*> miss_samples;
      std::vector<ml::ContentKey> miss_keys;
      for (std::size_t i = 0; i < queries.size(); ++i) {
        if (cache_capacity > 0) {
          if (const auto hit = cache.lookup(keys[i])) {
            batched[i] = *hit;
            continue;
          }
        }
        miss_index.push_back(i);
        miss_samples.push_back(queries[i]);
        miss_keys.push_back(keys[i]);
      }
      if (!miss_samples.empty()) {
        const auto results =
            predictor.predict_batch(job, miss_samples, &miss_keys);
        for (std::size_t m = 0; m < miss_index.size(); ++m) {
          batched[miss_index[m]] = results[m];
          if (cache_capacity > 0) cache.insert(miss_keys[m], results[m]);
        }
      }
    }
  });

  if (verify) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      for (int j = 0; j < 4; ++j) {
        if (serial[i][j] != batched[i][j]) {
          std::fprintf(stderr,
                       "verify: MISMATCH at query %zu vcpu-lane %d: "
                       "serial %.17g vs batched %.17g\n",
                       i, j, serial[i][j], batched[i][j]);
          return 1;
        }
      }
    }
    std::printf("verify: OK — batched == serial over %zu queries x %d "
                "repeats\n",
                queries.size(), repeat);
  }

  util::Table table({"Design", "Job", "1 vCPU (s)", "2 vCPUs (s)",
                     "4 vCPUs (s)", "8 vCPUs (s)"});
  for (int k = 0; k < kVariants && k < batch; ++k) {
    table.add_row({family + ":" + std::to_string(pool_sizes[k]),
                   core::job_name(job),
                   util::format_fixed(batched[static_cast<std::size_t>(k)][0], 1),
                   util::format_fixed(batched[static_cast<std::size_t>(k)][1], 1),
                   util::format_fixed(batched[static_cast<std::size_t>(k)][2], 1),
                   util::format_fixed(batched[static_cast<std::size_t>(k)][3], 1)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "%d queries x %d repeats: serial %.1f ms, batched %.1f ms "
      "(%.2fx)\n",
      batch, repeat, serial_ms, batched_ms,
      batched_ms > 0.0 ? serial_ms / batched_ms : 0.0);
  if (cache_capacity > 0) {
    const auto stats = cache.stats();
    std::printf("cache: %llu hits, %llu misses, %llu insertions, "
                "%llu evictions (capacity %lld)\n",
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                static_cast<unsigned long long>(stats.insertions),
                static_cast<unsigned long long>(stats.evictions),
                cache_capacity);
  }
  return 0;
}

// tune: joint flow + deployment optimization (tune::RecipeTuner). Trains a
// small predictor the same way cmd_predict does, evaluates the recipe
// space per design (real synthesis QoR, cache-fronted batched runtime
// prediction), and reports the joint (recipe x VM-config) optimum against
// the fixed-default-recipe baseline. --export writes the canonical
// TuneResult dump — byte-identical at any --threads / --batch value for a
// fixed seed, which the check.sh tune smoke leg diffs.
int cmd_tune(const std::vector<std::string>& args) {
  // Designs: positional <family> <size> and/or --designs fam:size[,...].
  std::vector<std::pair<std::string, int>> designs;
  if (!args.empty() && args[0].rfind("--", 0) != 0) {
    if (args.size() < 2 || args[1].rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: tune wants <family> <size>\n");
      return 2;
    }
    const int size = std::atoi(args[1].c_str());
    if (size < 1) {
      std::fprintf(stderr, "error: tune wants a positive <size>\n");
      return 2;
    }
    designs.emplace_back(args[0], size);
  }
  const std::string designs_flag = flag_value(args, "--designs");
  if (!designs_flag.empty()) {
    std::vector<std::string> items;
    std::string current;
    for (const char c : designs_flag) {
      if (c == ',') {
        items.push_back(current);
        current.clear();
      } else {
        current += c;
      }
    }
    items.push_back(current);
    for (const std::string& item : items) {
      const std::size_t colon = item.find(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 >= item.size()) {
        std::fprintf(stderr,
                     "error: --designs wants family:size[,family:size...], "
                     "got '%s'\n",
                     item.c_str());
        return 2;
      }
      const int size = std::atoi(item.substr(colon + 1).c_str());
      if (size < 1) {
        std::fprintf(stderr, "error: --designs size must be positive in "
                     "'%s'\n", item.c_str());
        return 2;
      }
      designs.emplace_back(item.substr(0, colon), size);
    }
  }
  if (designs.empty()) {
    std::fprintf(stderr,
                 "error: tune wants <family> <size> or --designs\n");
    return 2;
  }
  for (const auto& [family, size] : designs) {
    bool known = false;
    for (const auto& info : workloads::families()) {
      if (info.name == family) known = true;
    }
    if (!known) {
      std::fprintf(stderr, "error: unknown family '%s'\n", family.c_str());
      return 2;
    }
  }

  double deadline_s = 2000.0;
  const std::string deadline_flag = flag_value(args, "--deadline");
  if (!deadline_flag.empty()) {
    if (!parse_positive(deadline_flag, &deadline_s)) {
      std::fprintf(stderr, "error: --deadline wants a finite number of "
                   "seconds > 0\n");
      return 2;
    }
  }
  double budget_usd = 0.0;
  const std::string budget_flag = flag_value(args, "--budget");
  if (!budget_flag.empty() && !parse_positive(budget_flag, &budget_usd)) {
    std::fprintf(stderr, "error: --budget wants a finite, positive dollar "
                 "amount\n");
    return 2;
  }
  long long samples = 16;
  const std::string samples_flag = flag_value(args, "--samples");
  if (!samples_flag.empty()) {
    samples = std::atoll(samples_flag.c_str());
    if (samples < 0 || samples > 512) {
      std::fprintf(stderr, "error: --samples wants an integer in "
                   "[0, 512]\n");
      return 2;
    }
  }
  long long seed = 1;
  const std::string seed_flag = flag_value(args, "--seed");
  if (!seed_flag.empty()) {
    seed = std::atoll(seed_flag.c_str());
    if (seed < 0) {
      std::fprintf(stderr, "error: --seed wants a non-negative integer\n");
      return 2;
    }
  }
  long long batch = 64;
  const std::string batch_flag = flag_value(args, "--batch");
  if (!batch_flag.empty()) {
    batch = std::atoll(batch_flag.c_str());
    if (batch < 1 || batch > 4096) {
      std::fprintf(stderr, "error: --batch wants an integer in "
                   "[1, 4096]\n");
      return 2;
    }
  }
  long long cache_capacity = 4096;
  const std::string cache_flag = flag_value(args, "--cache");
  if (!cache_flag.empty()) {
    cache_capacity = std::atoll(cache_flag.c_str());
    if (cache_capacity < 0) {
      std::fprintf(stderr, "error: --cache wants a non-negative "
                   "capacity\n");
      return 2;
    }
  }
  const std::string threads_flag = flag_value(args, "--threads");
  if (!threads_flag.empty()) {
    const int n = std::atoi(threads_flag.c_str());
    if (n < 1) {
      std::fprintf(stderr, "error: --threads wants a positive integer\n");
      return 2;
    }
    // Byte-identical results at any width (the tuner's hard contract).
    util::set_global_thread_count(n);
  }
  std::size_t train_designs = 4;
  const std::string train_designs_flag = flag_value(args, "--train-designs");
  if (!train_designs_flag.empty()) {
    const long long n = std::atoll(train_designs_flag.c_str());
    if (n < 1) {
      std::fprintf(stderr,
                   "error: --train-designs wants a positive integer\n");
      return 2;
    }
    train_designs = static_cast<std::size_t>(n);
  }
  int train_epochs = 6;
  const std::string train_epochs_flag = flag_value(args, "--train-epochs");
  if (!train_epochs_flag.empty()) {
    train_epochs = std::atoi(train_epochs_flag.c_str());
    if (train_epochs < 1) {
      std::fprintf(stderr, "error: --train-epochs wants a positive "
                   "integer\n");
      return 2;
    }
  }
  const bool spot = has_flag(args, "--spot");
  const std::string export_path = flag_value(args, "--export");
  const std::string trace_path = flag_value(args, "--trace");
  const std::string metrics_path = flag_value(args, "--metrics");
  if (!trace_path.empty()) {
    obs::Tracer::global().enable(obs::ClockMode::kWall);
  }

  // Train exactly the way cmd_predict / svc::Service::initialize do.
  const nl::CellLibrary library = nl::make_generic_14nm_library();
  std::vector<workloads::BenchmarkSpec> specs;
  for (const auto& info : workloads::families()) {
    if (specs.size() >= train_designs) break;
    workloads::BenchmarkSpec spec;
    spec.family = info.name;
    spec.size = info.corpus_sizes.empty() ? 32 : info.corpus_sizes.front();
    spec.seed = 7;
    specs.push_back(spec);
  }
  core::DatasetOptions dataset_options;
  dataset_options.max_recipes = 1;
  dataset_options.max_netlists = specs.size();
  const core::Dataset dataset =
      core::DatasetBuilder(library, dataset_options).build(specs);
  core::PredictorOptions predictor_options;
  predictor_options.gcn = ml::GcnConfig::fast();
  predictor_options.gcn.epochs = train_epochs;
  core::RuntimePredictor predictor(predictor_options);
  (void)predictor.train(dataset);

  tune::TunerOptions tuner_options;
  tuner_options.space.random_samples = static_cast<std::size_t>(samples);
  tuner_options.space.seed = static_cast<std::uint64_t>(seed);
  tuner_options.batch_size = static_cast<std::size_t>(batch);
  tuner_options.cache_capacity = static_cast<std::size_t>(cache_capacity);
  tuner_options.spot = spot;
  tune::RecipeTuner tuner(library, predictor, tuner_options);

  std::string export_blob = "edacloud-tune-cli v1\n";
  export_blob += "designs " + std::to_string(designs.size()) + "\n";
  export_blob += "samples " + std::to_string(samples) + " seed " +
                 std::to_string(seed) + "\n";
  util::Table table({"Design", "Recipes", "Fixed $", "Joint $",
                     "Joint@QoR $", "Savings $", "Best recipe"});
  for (const auto& [family, size] : designs) {
    const nl::Aig aig = generate_or_die(family, size);
    const tune::TuneResult result = tuner.tune(aig, deadline_s, budget_usd);
    table.add_row(
        {family + ":" + std::to_string(size),
         std::to_string(result.evaluations.size()),
         result.fixed.plan.feasible
             ? util::format_fixed(result.fixed.plan.total_cost_usd, 4)
             : "NA",
         result.joint.plan.feasible
             ? util::format_fixed(result.joint.plan.total_cost_usd, 4)
             : "NA",
         result.joint_at_qor.plan.feasible
             ? util::format_fixed(result.joint_at_qor.plan.total_cost_usd, 4)
             : "NA",
         util::format_fixed(result.savings_vs_fixed_usd(), 4),
         result.joint_at_qor.recipe_key.empty()
             ? "-"
             : result.joint_at_qor.recipe_key});
    export_blob += result.export_text();
    if (budget_usd > 0.0) {
      std::printf("%s:%d budget $%.4f -> %s (%.1f s, recipe %s)\n",
                  family.c_str(), size, budget_usd,
                  result.budget_feasible ? "feasible" : "infeasible",
                  result.budget_fastest_seconds,
                  result.budget_recipe_key.empty()
                      ? "-"
                      : result.budget_recipe_key.c_str());
    }
  }
  std::printf("%s", table.render().c_str());
  if (tuner.cache() != nullptr) {
    const auto stats = tuner.cache()->stats();
    std::printf("cache: %llu hits, %llu misses, %llu insertions, "
                "%llu evictions (capacity %lld)\n",
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                static_cast<unsigned long long>(stats.insertions),
                static_cast<unsigned long long>(stats.evictions),
                cache_capacity);
  }
  if (!export_path.empty() && !write_file(export_path, export_blob)) {
    return 1;
  }
  if (!trace_path.empty()) {
    obs::Tracer::global().disable();
    if (obs::Tracer::global().write_json(trace_path)) {
      std::printf("wrote %s\n", trace_path.c_str());
    }
  }
  if (!metrics_path.empty() &&
      obs::Registry::global().write(metrics_path)) {
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  return 0;
}

// serve installs signal handlers so `kill -TERM` drains in-flight work and
// exits 0 (the contract scripts/check.sh asserts). request_stop() is
// async-signal-safe by design.
svc::JobServer* g_server = nullptr;

void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

int cmd_serve(const std::vector<std::string>& args) {
  svc::ServiceConfig service_config;
  svc::ServerConfig server_config;

  const std::string port = flag_value(args, "--port");
  if (!port.empty()) server_config.port = std::atoi(port.c_str());
  const std::string threads = flag_value(args, "--threads");
  if (!threads.empty()) {
    server_config.threads = std::atoi(threads.c_str());
    if (server_config.threads < 1) {
      std::fprintf(stderr, "error: --threads wants a positive integer\n");
      return 2;
    }
  }
  const std::string seed = flag_value(args, "--seed");
  if (!seed.empty()) {
    service_config.design_seed = std::strtoull(seed.c_str(), nullptr, 10);
  }
  const std::string max_conns = flag_value(args, "--max-conns");
  if (!max_conns.empty()) {
    server_config.max_connections = std::atoi(max_conns.c_str());
  }
  const std::string max_queue = flag_value(args, "--max-queue");
  if (!max_queue.empty()) {
    server_config.max_queue =
        static_cast<std::size_t>(std::atoll(max_queue.c_str()));
  }
  const std::string deadline = flag_value(args, "--deadline-ms");
  if (!deadline.empty()) {
    server_config.default_deadline_ms = std::atof(deadline.c_str());
  }
  const std::string train_designs = flag_value(args, "--train-designs");
  if (!train_designs.empty()) {
    service_config.train_designs =
        static_cast<std::size_t>(std::atoll(train_designs.c_str()));
  }
  const std::string train_epochs = flag_value(args, "--train-epochs");
  if (!train_epochs.empty()) {
    service_config.train_epochs = std::atoi(train_epochs.c_str());
  }
  const std::string batch_max = flag_value(args, "--batch-max");
  if (!batch_max.empty()) {
    server_config.batch_max = std::atoi(batch_max.c_str());
    if (server_config.batch_max < 1) {
      std::fprintf(stderr, "error: --batch-max wants a positive integer\n");
      return 2;
    }
  }
  const std::string linger = flag_value(args, "--batch-linger-ms");
  if (!linger.empty()) {
    server_config.batch_linger_ms = std::atof(linger.c_str());
    if (server_config.batch_linger_ms < 0.0) {
      std::fprintf(stderr,
                   "error: --batch-linger-ms wants a non-negative value\n");
      return 2;
    }
  }
  const std::string predict_cache = flag_value(args, "--predict-cache");
  if (!predict_cache.empty()) {
    const long long capacity = std::atoll(predict_cache.c_str());
    if (capacity < 0) {
      std::fprintf(stderr,
                   "error: --predict-cache wants a non-negative capacity\n");
      return 2;
    }
    service_config.predict_cache_capacity =
        static_cast<std::size_t>(capacity);
  }
  const std::string trace_path = flag_value(args, "--trace");
  const std::string metrics_path = flag_value(args, "--metrics");
  if (!trace_path.empty()) {
    obs::Tracer::global().enable(obs::ClockMode::kWall);
  }

  svc::Service service(service_config);
  svc::JobServer server(service, server_config);
  std::string error;
  if (!server.listen(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  // Port first (parsers need it before the slow predictor training), then
  // an explicit ready line once requests can actually be served.
  std::printf("listening on %s:%d (threads=%d)\n",
              server_config.host.c_str(), server.port(),
              server_config.threads);
  std::fflush(stdout);
  service.initialize();
  std::printf("ready\n");
  std::fflush(stdout);

  g_server = &server;
  struct sigaction action{};
  action.sa_handler = handle_stop_signal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);

  server.run();
  g_server = nullptr;

  service.export_metrics(obs::Registry::global());
  server.stats().export_to(obs::Registry::global());
  std::printf("drained: %llu requests (%llu dispatched), %llu errors\n",
              static_cast<unsigned long long>(service.stats().requests.load()),
              static_cast<unsigned long long>(
                  server.stats().requests_dispatched.load()),
              static_cast<unsigned long long>(service.stats().errors.load()));

  if (!trace_path.empty()) {
    obs::Tracer::global().disable();
    if (!obs::Tracer::global().write_json(trace_path)) return 1;
    std::printf("wrote %s (%zu events)\n", trace_path.c_str(),
                obs::Tracer::global().event_count());
  }
  if (!metrics_path.empty()) {
    if (!obs::Registry::global().write(metrics_path)) return 1;
    std::printf("wrote %s (%zu metrics)\n", metrics_path.c_str(),
                obs::Registry::global().size());
  }
  return 0;
}

int cmd_loadgen(const std::vector<std::string>& args) {
  svc::LoadgenConfig config;
  const std::string port = flag_value(args, "--port");
  config.port = std::atoi(port.c_str());
  if (config.port < 1 || config.port > 65535) {
    std::fprintf(stderr, "error: loadgen wants --port 1..65535\n");
    return 2;
  }
  const std::string host = flag_value(args, "--host");
  if (!host.empty()) config.host = host;
  const std::string mode = flag_value(args, "--mode");
  if (mode == "open") {
    config.mode = svc::LoadMode::kOpen;
  } else if (!mode.empty() && mode != "closed") {
    std::fprintf(stderr, "error: --mode wants closed or open\n");
    return 2;
  }
  const std::string qps = flag_value(args, "--qps");
  if (!qps.empty()) {
    config.qps = std::atof(qps.c_str());
    if (config.qps <= 0.0) {
      std::fprintf(stderr, "error: --qps wants a positive rate\n");
      return 2;
    }
  }
  const std::string conns = flag_value(args, "--conns");
  if (!conns.empty()) {
    config.connections = std::atoi(conns.c_str());
    if (config.connections < 1) {
      std::fprintf(stderr, "error: --conns wants a positive integer\n");
      return 2;
    }
  }
  const std::string requests = flag_value(args, "--requests");
  if (!requests.empty()) {
    config.requests = std::strtoull(requests.c_str(), nullptr, 10);
  }
  const std::string duration = flag_value(args, "--duration");
  if (!duration.empty()) config.duration_s = std::atof(duration.c_str());
  const std::string warmup = flag_value(args, "--warmup");
  if (!warmup.empty()) config.warmup_s = std::atof(warmup.c_str());
  const std::string seed = flag_value(args, "--seed");
  if (!seed.empty()) {
    config.seed = std::strtoull(seed.c_str(), nullptr, 10);
  }
  const std::string mix = flag_value(args, "--mix");
  if (!mix.empty()) {
    const std::vector<std::string>& known = svc::loadgen_mix_names();
    if (std::find(known.begin(), known.end(), mix) == known.end()) {
      std::string names;
      for (const std::string& name : known) {
        if (!names.empty()) names += " | ";
        names += name;
      }
      std::fprintf(stderr, "error: --mix wants %s\n", names.c_str());
      return 2;
    }
    config.mix = mix;
  }
  const std::string deadline = flag_value(args, "--deadline-ms");
  if (!deadline.empty()) config.deadline_ms = std::atof(deadline.c_str());

  const svc::LoadgenReport report = svc::run_loadgen(config);
  std::printf("%s", report.render().c_str());

  const std::string export_path = flag_value(args, "--export");
  if (!export_path.empty() &&
      !write_file(export_path, report.export_json() + "\n")) {
    return 1;
  }
  // Transport-level failures (lost connections, missing replies) mean the
  // measurement is unreliable; surface that in the exit code.
  return report.transport_errors == 0 ? 0 : 1;
}

int cmd_lib(const std::vector<std::string>& args) {
  const nl::CellLibrary library = nl::make_generic_14nm_library();
  const std::string text = nl::write_liberty(library);
  const std::string out = flag_value(args, "--out");
  if (!out.empty()) return write_file(out, text) ? 0 : 1;
  std::printf("%s", text.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "help" || command == "--help" || command == "-h") {
    print_usage(stdout);
    return 0;
  }

  struct Subcommand {
    const char* name;
    int (*run)(const std::vector<std::string>&);
    FlagSpec flags;
  };
  static const std::vector<Subcommand> kSubcommands = {
      {"gen", cmd_gen, {{"--aag", "--dot"}, {}}},
      {"synth", cmd_synth, {{"--recipe", "--verilog"}, {}}},
      {"flow", cmd_flow, {{"--trace", "--metrics", "--threads"}, {}}},
      {"plan", cmd_plan, {{}, {"--spot"}}},
      {"lib", cmd_lib, {{"--out"}, {}}},
      {"fleet-sim",
       cmd_fleet_sim,
       {{"--arrival-rate", "--policy", "--seed", "--duration", "--mix",
         "--spot", "--market", "--market-trace", "--bid", "--market-interval",
         "--interruption-rate", "--crash-rate", "--boot-fail",
         "--restart", "--checkpoint-interval", "--checkpoint-overhead",
         "--max-attempts", "--threads", "--shards", "--handoff-latency",
         "--lookahead", "--trace", "--metrics"},
        {"--shard-stats", "--rebid"}}},
      {"predict",
       cmd_predict,
       {{"--job", "--batch", "--cache", "--threads", "--repeat",
         "--train-designs", "--train-epochs"},
        {"--verify"}}},
      {"tune",
       cmd_tune,
       {{"--designs", "--deadline", "--budget", "--samples", "--seed",
         "--threads", "--batch", "--cache", "--train-designs",
         "--train-epochs", "--export", "--trace", "--metrics"},
        {"--spot"}}},
      {"serve",
       cmd_serve,
       {{"--port", "--threads", "--seed", "--max-conns", "--max-queue",
         "--deadline-ms", "--train-designs", "--train-epochs", "--batch-max",
         "--batch-linger-ms", "--predict-cache", "--trace", "--metrics"},
        {}}},
      {"loadgen",
       cmd_loadgen,
       {{"--host", "--port", "--mode", "--qps", "--conns", "--requests",
         "--duration", "--warmup", "--seed", "--mix", "--deadline-ms",
         "--export"},
        {}}},
  };

  for (const Subcommand& sub : kSubcommands) {
    if (command != sub.name) continue;
    if (spec_has(args, "--help") || spec_has(args, "-h")) {
      print_usage(stdout);
      return 0;
    }
    if (const int bad = check_flags(command, args, sub.flags); bad != 0) {
      return bad;
    }
    try {
      return sub.run(args);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  std::fprintf(stderr, "error: unknown command '%s'\n", command.c_str());
  return usage();
}
