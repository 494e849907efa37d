// tune_recipes: one operation is one RecipeTuner::tune of an irregular-logic
// design over the standard recipe grid plus seeded random recipes, with a
// cold PredictionCache of its own, so every runtime prediction is a GCN
// forward pass and a cache insert. The round is a fixed list of designs;
// the seed draws each design's structure.

#include "checks.hpp"
#include "core/dataset.hpp"
#include "core/predictor.hpp"
#include "harness.hpp"
#include "nl/cell_library.hpp"
#include "tune/tuner.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"
#include "workloads/registry.hpp"

namespace perfbench {

namespace {

using namespace edacloud;

struct DesignSpec {
  const char* family;
  int size;
};

// Irregular logic, where recipes trade area against runtime, at sizes whose
// tunes take alike times (about 100 to 250 ms here): no one design sets the
// round's cost, and the median operation sits in a dense cluster.
constexpr DesignSpec kDesigns[] = {
    {"cavlc", 28},        {"cavlc", 40},        {"mem_ctrl", 6},
    {"mem_ctrl", 8},      {"crossbar", 8},      {"sbox", 4},
    {"dynamic_node", 4},  {"dynamic_node", 5},  {"sparc_core", 8},
    {"i2c", 40},
};
constexpr double kDeadlineSeconds = 45.0;
constexpr std::size_t kRandomRecipes = 8;

class TuneWorkload final : public Workload {
 public:
  explicit TuneWorkload(const Options& options) : options_(options) {}

  void setup() override {
    library_ = std::make_unique<nl::CellLibrary>(
        nl::make_generic_14nm_library());
    // The predictor is trained the way the serving layer trains it: the
    // first families at their smallest corpus size, one recipe each.
    std::vector<workloads::BenchmarkSpec> train;
    for (const auto& info : workloads::families()) {
      if (train.size() >= 6) break;
      train.push_back({info.name, info.corpus_sizes.front(), 7});
    }
    core::DatasetOptions dataset_options;
    dataset_options.max_recipes = 2;
    dataset_options.max_netlists = 2 * train.size();
    const core::Dataset dataset =
        core::DatasetBuilder(*library_, dataset_options).build(train);
    core::PredictorOptions predictor_options;
    predictor_options.gcn = ml::GcnConfig::fast();
    predictor_options.gcn.epochs = 12;
    predictor_ = std::make_unique<core::RuntimePredictor>(predictor_options);
    (void)predictor_->train(dataset);

    util::Rng rng(options_.seed ^ 0x7A5Eull);
    for (const DesignSpec& spec : kDesigns) {
      designs_.push_back(workloads::generate(
          {spec.family, spec.size, rng() % 100000 + 1}));
    }
    tuner_options_.space.random_samples = kRandomRecipes;
    tuner_options_.threads = 1;
  }

  [[nodiscard]] std::size_t round_size() const override {
    return designs_.size();
  }

  bool run_op(std::size_t index) override {
    try {
      SpanLog::Scope span(spans, "bench/tune.tune");
      last_ = tune(index);
      return true;
    } catch (const std::exception&) {
      return false;
    }
  }

  void check_op(std::size_t index, double, Report& report) override {
    const std::string error = check_tune(last_);
    if (!error.empty()) {
      report.fail_check("tune " + designs_[index].name() + ": " + error);
    }
    ++ops_;
    plan_usd_ += last_.joint_at_qor.plan.total_cost_usd;
    forward_ += static_cast<double>(last_.cache_misses);
  }

  void finish(Report&) override {}

  void begin_phase(bool) override { ops_ = plan_usd_ = forward_ = 0.0; }

  void per_layer(const std::map<std::string, LayerTime>& spans_table,
                 Report& report) override {
    const double n = std::max<double>(1, ops_);
    const auto ops = static_cast<std::size_t>(ops_);
    const auto total = [&](const char* name) {
      const auto it = spans_table.find(name);
      return it == spans_table.end() ? 0.0 : it->second.total_ms;
    };
    report.set("tune.synthesize_ms", total("tune/synthesize") / n, "ms", ops);
    report.set("tune.predict_ms", total("tune/predict") / n, "ms", ops);
    report.set("tune.optimize_ms", total("tune/optimize") / n, "ms", ops);
    // The tuner synthesizes through SynthesisEngine::synthesize, which
    // records no spans of its own: its synthesis time is tune/synthesize.
    report.set("synth.wall_ms", total("tune/synthesize") / n, "ms", ops);
    report.set("ml.forward_predictions", forward_ / n, "count", ops);
    const double predict_s = total("tune/predict") / 1000.0;
    report.set("ml.predictions_per_s",
               predict_s > 0.0 ? forward_ / predict_s : 0.0, "1/s", ops);
    report.set("plan_usd", plan_usd_ / n, "USD", ops);
  }

 private:
  tune::TuneResult tune(std::size_t index) {
    ml::PredictionCache cache(4096);  // cold per operation
    tune::TunerOptions options = tuner_options_;
    // Design i always draws the same random recipes: their rewrite-pass
    // counts set much of a tune's cost, so the seed varies structure only.
    options.space.seed = index + 1;
    tune::RecipeTuner tuner(*library_, *predictor_, options, &cache);
    return tuner.tune(designs_[index], kDeadlineSeconds);
  }

  Options options_;
  std::unique_ptr<nl::CellLibrary> library_;
  std::unique_ptr<core::RuntimePredictor> predictor_;
  tune::TunerOptions tuner_options_;
  std::vector<nl::Aig> designs_;
  tune::TuneResult last_;
  double ops_ = 0, plan_usd_ = 0, forward_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_tune_workload(const Options& options) {
  return std::make_unique<TuneWorkload>(options);
}

}  // namespace perfbench
