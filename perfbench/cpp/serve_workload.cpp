// serve_mixed: one operation is one request to an in-process JobServer on
// loopback, sent by a closed-loop client over one connection. Requests come
// from the program's deterministic "mixed" stream (70% predict, 15%
// optimize, 10% run-stage, 5% characterize) for the run's seed. The round
// takes stream requests in stream order until every (type, family) quota is
// met, with run-stage quotas also per stage depth and optimize quotas per
// spot flag, so every seed asks for the same mix of work; within a quota
// the stream's own choices (job, deadline) stand.
//
// Threads: the client (this thread), the server's I/O thread and one
// server worker, all on one CPU; one connection.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "checks.hpp"
#include "core/dataset.hpp"
#include "core/predictor.hpp"
#include "harness.hpp"
#include "ml/batch.hpp"
#include "nl/star_graph.hpp"
#include "svc/client.hpp"
#include "svc/json.hpp"
#include "svc/loadgen.hpp"
#include "svc/server.hpp"
#include "synth/engine.hpp"
#include "workloads/generators.hpp"
#include "workloads/registry.hpp"

namespace perfbench {

namespace {

using namespace edacloud;

/// Keep this thread, and the server threads it starts, on one CPU: each
/// request's hand-offs (client -> I/O thread -> worker -> I/O thread ->
/// client) then are local context switches. Across CPUs they are wake-ups
/// of idle virtual CPUs, whose latency moved the median round trip between
/// 0.04 and 0.15 ms from one run to the next on the reference host.
void pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  // The last allowed CPU: CPU 0 takes most of the host's housekeeping.
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &set)) {
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      (void)sched_setaffinity(0, sizeof(set), &set);
      return;
    }
  }
}

// Per family and round: predict, optimize, run-stage (one per stage
// depth), characterize — 70/15/10/5 percent of 40.
constexpr int kPredictQuota = 28;
constexpr int kOptimizeQuota = 6;
constexpr int kRunStagePerStage = 1;
constexpr int kCharacterizeQuota = 2;
constexpr int kStreamFamilies = 8;  // the mixed stream's design pool

struct Planned {
  std::string payload;  // the request frame, id included
  std::string type;
  std::string body;     // the request without its id (dedup key)
  svc::JsonValue json;
};

std::string without_id(const svc::JsonValue& request) {
  svc::JsonValue copy = svc::JsonValue::object();
  for (const auto& [key, value] : request.members()) {
    if (key != "id") copy.set(key, value);
  }
  return copy.dump();
}

class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(const Options& options) : options_(options) {}
  ~ServeWorkload() override {
    client_.close();
    if (server_) server_->stop_and_join();
  }

  void setup() override {
    pin_to_one_cpu();
    plan_round();
    service_ = std::make_unique<svc::Service>(service_config_);
    service_->initialize();
    svc::ServerConfig config;
    config.threads = 1;
    server_ = std::make_unique<svc::JobServer>(*service_, config);
    std::string error;
    if (!server_->listen(&error)) throw std::runtime_error(error);
    server_->start();
    if (!client_.connect("127.0.0.1", server_->port(), &error)) {
      throw std::runtime_error(error);
    }
  }

  [[nodiscard]] std::size_t round_size() const override {
    return round_.size();
  }

  bool run_op(std::size_t index) override {
    SpanLog::Scope span(spans, "bench/svc.roundtrip");
    return client_.roundtrip(round_[index].payload, &reply_);
  }

  void check_op(std::size_t index, double op_ms, Report& report) override {
    const Planned& p = round_[index];
    const auto id = static_cast<std::uint64_t>(p.json.number_or("id", 0.0));
    svc::JsonValue payload;
    const std::string error = check_reply(reply_, id, p.type, &payload);
    if (!error.empty()) {
      report.fail_check("serve request " + std::to_string(id) + ": " + error);
      return;
    }
    if (p.type == "predict" || p.type == "optimize") {
      replies_.emplace(p.body, std::move(payload));  // first reply kept
    }
    latency_[p.type].push_back(op_ms);
    if (!traced_) return;
    // In-process: the same request straight into the service, no socket
    // and no queue. The gap to the round trip is wire and queue time. The
    // replay is not the server's work: the program tracer is off during
    // it, so its svc/* spans stay out of the table, and its cache lookups
    // are taken off the phase's cache counts.
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.disable();
    const auto cache0 = service_->predict_cache()->stats();
    std::string direct;
    {
      SpanLog::Scope span(spans, "bench/svc.inproc");
      const Clock::time_point start = Clock::now();
      direct = service_->handle_payload(p.payload);
      inproc_[p.type].push_back(ms_between(start, Clock::now()));
    }
    const auto cache1 = service_->predict_cache()->stats();
    replay_hits_ += cache1.hits - cache0.hits;
    replay_misses_ += cache1.misses - cache0.misses;
    // Fold the replay's span in now: enable() restarts the tracer's clock.
    spans.harvest();
    tracer.enable(obs::ClockMode::kWall);
    // Same request, same bytes, with or without the server in between.
    if (direct != reply_) {
      report.fail_check("in-process reply differs for request " +
                        std::to_string(id));
    }
  }

  void finish(Report& report) override { check_against_reference(report); }

  void begin_phase(bool traced) override {
    traced_ = traced;
    latency_.clear();
    inproc_.clear();
    const svc::ServerStats& stats = server_->stats();
    batches0_ = stats.batches_executed.load();
    batched0_ = stats.batched_requests.load();
    const auto cache = service_->predict_cache()->stats();
    hits0_ = cache.hits;
    misses0_ = cache.misses;
    replay_hits_ = replay_misses_ = 0;
  }

  void per_layer(const std::map<std::string, LayerTime>&,
                 Report& report) override {
    std::vector<double> all;
    for (const auto& [type, samples] : latency_) {
      all.insert(all.end(), samples.begin(), samples.end());
      report.set("svc." + type + ".p50_ms", quantile(samples, 0.5), "ms",
                 samples.size());
    }
    for (const auto& [type, samples] : inproc_) {
      report.set("svc.inproc." + type + ".p50_ms", quantile(samples, 0.5),
                 "ms", samples.size());
    }
    // The p99 needs ten samples beyond it.
    if (all.size() >= 1000) {
      report.set("op_p99_ms", quantile(all, 0.99), "ms", all.size());
    }
    const svc::ServerStats& stats = server_->stats();
    report.set("svc.batches",
               static_cast<double>(stats.batches_executed.load() - batches0_),
               "count");
    report.set("svc.batched_requests",
               static_cast<double>(stats.batched_requests.load() - batched0_),
               "count");
    const auto cache = service_->predict_cache()->stats();
    report.set("svc.cache_hits",
               static_cast<double>(cache.hits - hits0_ - replay_hits_),
               "count");
    report.set("svc.cache_misses",
               static_cast<double>(cache.misses - misses0_ - replay_misses_),
               "count");
  }

 private:
  void plan_round() {
    svc::LoadgenConfig stream;
    stream.mix = "mixed";
    stream.seed = options_.seed;
    const auto& families = workloads::families();
    std::map<std::string, int> quota;
    for (int f = 0; f < kStreamFamilies; ++f) {
      const std::string family = families[static_cast<std::size_t>(f)].name;
      quota["predict/" + family] = kPredictQuota;
      // Spot doubles the items per MCKP stage, so it is stratified too.
      quota["optimize/" + family + "/spot"] = kOptimizeQuota / 2;
      quota["optimize/" + family + "/on-demand"] = kOptimizeQuota / 2;
      quota["characterize/" + family] = kCharacterizeQuota;
      for (const char* stage : {"synthesis", "placement", "routing", "sta"}) {
        quota["run-stage/" + family + "/" + stage] = kRunStagePerStage;
      }
    }
    int open = 0;
    for (const auto& [key, count] : quota) open += count;
    for (std::uint64_t id = 1; open > 0; ++id) {
      if (id > 10'000'000) throw std::runtime_error("mixed stream too thin");
      Planned p;
      p.payload = svc::make_request(stream, id);
      const svc::JsonParseResult parsed = svc::parse_json(p.payload);
      if (!parsed.ok) throw std::runtime_error("unparsable stream request");
      p.json = parsed.value;
      p.type = p.json.string_or("type", "");
      std::string key = p.type + "/" + p.json.string_or("family", "");
      if (p.type == "run-stage") key += "/" + p.json.string_or("stage", "");
      if (p.type == "optimize") {
        key += p.json.bool_or("spot", false) ? "/spot" : "/on-demand";
      }
      const auto it = quota.find(key);
      if (it == quota.end() || it->second == 0) continue;
      --it->second;
      --open;
      p.body = without_id(p.json);
      round_.push_back(std::move(p));
    }
  }

  /// Predict replies against RuntimePredictor::predict run in-process on a
  /// predictor trained the way the service trains its own; optimize costs
  /// against brute force over the same predicted ladders.
  void check_against_reference(Report& report) {
    std::vector<workloads::BenchmarkSpec> specs;
    for (const auto& info : workloads::families()) {
      if (specs.size() >= service_config_.train_designs) break;
      specs.push_back({info.name, info.corpus_sizes.front(),
                       service_config_.design_seed});
    }
    const nl::CellLibrary library = nl::make_generic_14nm_library();
    core::DatasetOptions dataset_options;
    dataset_options.max_recipes = service_config_.train_recipes;
    dataset_options.max_netlists = specs.size() * dataset_options.max_recipes;
    const core::Dataset dataset =
        core::DatasetBuilder(library, dataset_options).build(specs);
    core::PredictorOptions predictor_options;
    predictor_options.gcn = ml::GcnConfig::fast();
    predictor_options.gcn.epochs = service_config_.train_epochs;
    core::RuntimePredictor predictor(predictor_options);
    (void)predictor.train(dataset);

    std::map<std::string, ml::GraphSample> aig_samples, netlist_samples;
    const auto ladder = [&](const std::string& family, int size,
                            core::JobKind job) {
      const std::string key = family + "/" + std::to_string(size);
      const bool aig_side = job == core::JobKind::kSynthesis;
      auto& cache = aig_side ? aig_samples : netlist_samples;
      auto it = cache.find(key);
      if (it == cache.end()) {
        const nl::Aig design = workloads::generate(
            {family, size, service_config_.design_seed});
        ml::GraphSample sample =
            aig_side
                ? ml::sample_from_graph(nl::graph_from_aig(design))
                : ml::sample_from_graph(nl::graph_from_netlist(
                      synth::SynthesisEngine(library)
                          .synthesize(design, synth::default_recipe())
                          .netlist));
        it = cache.emplace(key, std::move(sample)).first;
      }
      return predictor.predict(job, it->second);
    };

    for (const auto& [body, payload] : replies_) {
      const svc::JsonValue request = svc::parse_json(body).value;
      const std::string family = request.string_or("family", "");
      const int size = static_cast<int>(request.number_or("size", 0));
      std::string error;
      if (request.string_or("type", "") == "predict") {
        core::JobKind job{};
        error = svc::job_from_name(request.string_or("job", ""), &job)
                    ? check_predict_payload(payload, ladder(family, size, job))
                    : "predict request without a job";
      } else {
        core::RuntimeLadders ladders{};
        for (const core::JobKind job : core::kAllJobs) {
          ladders[static_cast<int>(job)] = ladder(family, size, job);
        }
        error = check_optimize_payload(payload, ladders,
                                       request.number_or("deadline_s", 0.0),
                                       request.bool_or("spot", false));
      }
      if (!error.empty()) report.fail_check(error + ": " + body);
    }
  }

  Options options_;
  svc::ServiceConfig service_config_;
  std::vector<Planned> round_;
  std::unique_ptr<svc::Service> service_;
  std::unique_ptr<svc::JobServer> server_;
  svc::Client client_;
  std::string reply_;
  bool traced_ = false;
  std::map<std::string, svc::JsonValue> replies_;
  std::map<std::string, std::vector<double>> latency_, inproc_;
  std::uint64_t batches0_ = 0, batched0_ = 0, hits0_ = 0, misses0_ = 0;
  std::uint64_t replay_hits_ = 0, replay_misses_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_workload(const Options& options) {
  return std::make_unique<ServeWorkload>(options);
}

}  // namespace perfbench
