// fleet_storm: one operation is one seeded fleet scenario under the "storm"
// spot-price market, with the re-bid/migrate policy, checkpoint restart and
// injected VM crashes, simulated first on the serial engine
// (FleetSimulator::run) at a load its fleet keeps up with, then on the
// sharded engine (ShardedFleetSimulator::run) at about 10^5 VMs. The round
// is a fixed number of scenarios whose seeds derive from the run's seed.

#include <algorithm>
#include <limits>

#include "checks.hpp"
#include "harness.hpp"
#include "market/market.hpp"
#include "sched/sharded_simulator.hpp"
#include "sched/simulator.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace edacloud;

// Serial engine: a fleet that keeps up with its load. Its dispatch() scans
// the whole queue for every idle VM, so an overloaded fleet would measure
// that scan instead of the event handlers.
constexpr double kSerialHours = 60.0;
constexpr double kSerialRatePerHour = 120.0;
// A drained serial run ends within about 1.3 simulated hours of its last
// arrival. The limit turns a run that never drains into a failed
// conservation check instead of a run that never ends.
constexpr double kSerialDrainLimitSeconds = 12.0 * 3600.0;
// Sharded engine: ~10^5 VMs spread evenly over the 12 canonical pools.
constexpr int kShardedVms = 100000;
constexpr double kShardedSeconds = 150.0;
constexpr int kShards = 8;
constexpr int kShardThreads = 2;
constexpr std::size_t kScenarios = 8;

void storm_faults(sched::SimConfig& config) {
  config.fleet.spot_fraction = 0.6;
  config.fleet.spot_bid_fraction = 0.5;
  config.fault.restart = sched::RestartModel::kCheckpoint;
  config.fault.checkpoint_interval_seconds = 150.0;
  config.fault.checkpoint_overhead_seconds = 15.0;
  config.fault.crash_rate_per_hour = 0.05;
  config.market.enabled = true;
}

struct Scenario {
  sched::SimConfig serial;
  sched::ShardedSimConfig sharded;
};

Scenario make_scenario(std::uint64_t seed) {
  Scenario s;
  sched::SimConfig& serial = s.serial;
  serial.seed = seed;
  serial.duration_seconds = kSerialHours * 3600.0;
  serial.load.arrival_rate_per_hour = kSerialRatePerHour;
  serial.load.mix = sched::diurnal_mix();
  serial.warm_pools = {
      {{perf::InstanceFamily::kGeneralPurpose, 8}, 2},
      {{perf::InstanceFamily::kGeneralPurpose, 1}, 2},
      {{perf::InstanceFamily::kMemoryOptimized, 1}, 2},
  };
  storm_faults(serial);
  // The serial engine strands a task for good once a fallback pins its
  // stage to on-demand capacity in a pool whose alive VMs are all spot: the
  // autoscaler counts those VMs as capacity and launches nothing, so the
  // drain never ends. 7 of 1000 scenarios hit it with the fallbacks on,
  // none of 1500 with them off. The serial runs therefore leave the
  // eviction and the market fallback out; the sharded engine's pools hold
  // thousands of on-demand VMs and keep both.
  serial.fault.spot_evictions_before_fallback = 0;
  serial.market.fallback_price_fraction =
      std::numeric_limits<double>::infinity();
  serial.drain_limit_seconds = kSerialDrainLimitSeconds;
  serial.fleet.market = market::make_preset_market(
      "storm", seed, serial.duration_seconds + 3600.0 * 12);

  sched::SimConfig& base = s.sharded.base;
  base.seed = seed ^ 0x5AA5ull;
  base.duration_seconds = kShardedSeconds;
  base.load.arrival_rate_per_hour = 2.0 * kShardedVms;
  base.load.mix = sched::uniform_mix();
  const int per_pool = std::max(1, kShardedVms / sched::ShardTopology::kPoolCount);
  for (int pool = 0; pool < sched::ShardTopology::kPoolCount; ++pool) {
    base.warm_pools.emplace_back(sched::ShardTopology::pool_at(pool), per_pool);
  }
  base.autoscaler.min_vms = per_pool;
  base.autoscaler.max_vms = 2 * per_pool;
  base.autoscaler.max_step_up = std::max(8, per_pool / 8);
  storm_faults(base);
  base.fleet.market = market::make_preset_market(
      "storm", base.seed, kShardedSeconds + 3600.0 * 12);
  s.sharded.shards = kShards;
  s.sharded.threads = kShardThreads;
  s.sharded.handoff_latency_seconds = 5.0;
  return s;
}

/// The serial engine keeps no event counter; this counts the events its
/// run must have processed, from its metrics: arrivals, boots, task ends
/// (completions and kills), retries, and the periodic autoscaler and
/// market ticks until the drain.
double serial_events(const sched::SimConfig& config,
                     const sched::FleetMetrics& m) {
  int warm = 0;
  for (const auto& [pool, count] : config.warm_pools) warm += count;
  const double ticks =
      m.drained_at_seconds / config.autoscaler.interval_seconds +
      m.drained_at_seconds / config.market.interval_seconds;
  return static_cast<double>(m.jobs_submitted + (m.vms_launched - warm) +
                             m.tasks_dispatched + m.retries) +
         ticks;
}

class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(const Options& options) : options_(options) {}

  void setup() override {
    util::Rng rng(options_.seed ^ 0xF1EEull);
    for (std::size_t i = 0; i < kScenarios; ++i) {
      scenarios_.push_back(make_scenario(rng() % 1000000 + 1));
    }
  }

  [[nodiscard]] std::size_t round_size() const override {
    return scenarios_.size();
  }

  bool run_op(std::size_t index) override {
    try {
      const Scenario& scenario = scenarios_[index];
      {
        SpanLog::Scope span(spans, "bench/fleet.serial");
        sched::FleetSimulator sim(scenario.serial, sched::builtin_templates(),
                                  sched::make_policy("cost"));
        const Clock::time_point start = Clock::now();
        serial_ = sim.run();
        serial_ms_ = ms_between(start, Clock::now());
      }
      {
        SpanLog::Scope span(spans, "bench/fleet.sharded");
        sched::ShardedFleetSimulator sim(scenario.sharded,
                                         sched::builtin_templates(), "cost");
        const Clock::time_point start = Clock::now();
        sharded_ = sim.run();
        sharded_ms_ = ms_between(start, Clock::now());
        sharded_events_ = static_cast<double>(sim.total_events());
        windows_ = static_cast<double>(sim.windows());
        double max_events = 0.0, sum_events = 0.0;
        for (const sched::ShardStats& stats : sim.shard_stats()) {
          max_events = std::max(
              max_events, static_cast<double>(stats.events_processed));
          sum_events += static_cast<double>(stats.events_processed);
        }
        const double shards = static_cast<double>(sim.shard_stats().size());
        imbalance_ = sum_events > 0.0 ? max_events * shards / sum_events : 0.0;
      }
      return true;
    } catch (const std::exception&) {
      return false;
    }
  }

  void check_op(std::size_t index, double, Report& report) override {
    for (const auto* m : {&serial_, &sharded_}) {
      const std::string error = check_fleet(*m);
      if (!error.empty()) {
        report.fail_check("fleet scenario " + std::to_string(index) +
                          (m == &serial_ ? " serial: " : " sharded: ") +
                          error);
      }
    }
    const double serial_events_count =
        serial_events(scenarios_[index].serial, serial_);
    ++ops_;
    serial_ms_sum_ += serial_ms_;
    sharded_ms_sum_ += sharded_ms_;
    serial_events_sum_ += serial_events_count;
    sharded_events_sum_ += sharded_events_;
    windows_sum_ += windows_;
    imbalance_sum_ += imbalance_;
    jobs_ += static_cast<double>(serial_.jobs_completed +
                                 sharded_.jobs_completed);
    cost_ += serial_.total_cost_usd + sharded_.total_cost_usd;
    rebids_ += static_cast<double>(serial_.market_rebids +
                                   sharded_.market_rebids);
    migrations_ += static_cast<double>(serial_.market_migrations +
                                       sharded_.market_migrations);
    fallbacks_ += static_cast<double>(
        serial_.market_fallbacks + serial_.spot_fallbacks +
        sharded_.market_fallbacks + sharded_.spot_fallbacks);
    retries_ += static_cast<double>(serial_.retries + sharded_.retries);
  }

  void finish(Report& report) override {
    // Determinism contract, on a scenario seed the timed rounds do not
    // use: the sharded metrics are byte-identical at 1 shard and at the
    // workload's shard count.
    const Scenario scenario = make_scenario(options_.seed + 0xDE7);
    sched::ShardedSimConfig one = scenario.sharded;
    one.shards = 1;
    one.threads = 1;
    sched::ShardedFleetSimulator single(one, sched::builtin_templates(),
                                        "cost");
    sched::ShardedFleetSimulator many(scenario.sharded,
                                      sched::builtin_templates(), "cost");
    const std::string error = check_identical(single.run(), many.run());
    if (!error.empty()) {
      report.fail_check(error + " between 1 and " + std::to_string(kShards) +
                        " shards");
    }
  }

  void begin_phase(bool) override {
    ops_ = serial_ms_sum_ = sharded_ms_sum_ = 0.0;
    serial_events_sum_ = sharded_events_sum_ = windows_sum_ = 0.0;
    imbalance_sum_ = jobs_ = cost_ = 0.0;
    rebids_ = migrations_ = fallbacks_ = retries_ = 0.0;
  }

  void per_layer(const std::map<std::string, LayerTime>&,
                 Report& report) override {
    const double n = std::max<double>(1, ops_);
    const auto ops = static_cast<std::size_t>(ops_);
    report.set("sched.serial.wall_ms", serial_ms_sum_ / n, "ms", ops);
    report.set("sched.serial.events_per_s",
               1000.0 * serial_events_sum_ / std::max(1e-9, serial_ms_sum_),
               "1/s", ops);
    report.set("sched.sharded.wall_ms", sharded_ms_sum_ / n, "ms", ops);
    report.set("sched.sharded.events_per_s",
               1000.0 * sharded_events_sum_ / std::max(1e-9, sharded_ms_sum_),
               "1/s", ops);
    report.set("sched.sharded.windows", windows_sum_ / n, "count", ops);
    report.set("sched.sharded.events_per_window",
               sharded_events_sum_ / std::max(1.0, windows_sum_), "count",
               ops);
    report.set("sched.sharded.shard_imbalance", imbalance_sum_ / n, "ratio",
               ops);
    report.set("sim_events_per_s",
               1000.0 * (serial_events_sum_ + sharded_events_sum_) /
                   std::max(1e-9, serial_ms_sum_ + sharded_ms_sum_),
               "1/s", ops);
    report.set("usd_per_job", cost_ / std::max(1.0, jobs_), "USD", ops);
    report.set("market.rebids", rebids_ / n, "count", ops);
    report.set("market.migrations", migrations_ / n, "count", ops);
    report.set("market.fallbacks", fallbacks_ / n, "count", ops);
    report.set("fleet.retries", retries_ / n, "count", ops);
  }

 private:
  Options options_;
  std::vector<Scenario> scenarios_;
  sched::FleetMetrics serial_, sharded_;
  double serial_ms_ = 0, sharded_ms_ = 0, sharded_events_ = 0;
  double windows_ = 0, imbalance_ = 0;
  double ops_ = 0, serial_ms_sum_ = 0, sharded_ms_sum_ = 0;
  double serial_events_sum_ = 0, sharded_events_sum_ = 0, windows_sum_ = 0;
  double imbalance_sum_ = 0, jobs_ = 0, cost_ = 0;
  double rebids_ = 0, migrations_ = 0, fallbacks_ = 0, retries_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_workload(const Options& options) {
  return std::make_unique<FleetWorkload>(options);
}

}  // namespace perfbench
