// Serial closed-loop workloads: paper_loop (lumped quad-core) and
// grid_thermal (the same loop on a 4x4-cell grid per core).
//
// Each item is one operation: a Linux-ondemand evaluation, or the proposed
// manager trained on a repeated copy of the scenario and then evaluated
// frozen (Table 2 class) or live (Fig. 3 class, where switch detection and
// the Q-table reset run).
#include <exception>
#include <iostream>

#include "core/baselines.hpp"
#include "harness.hpp"
#include "obs/session.hpp"
#include "workload/app_spec.hpp"

namespace perfbench {
namespace {

using namespace rltherm;

enum class Mode { Linux, Frozen, Live };

struct Item {
  std::string label;
  Mode mode = Mode::Linux;
  workload::Scenario eval;
  workload::Scenario train;
  core::RunnerConfig runner;
  core::ThermalManagerConfig manager;
};

struct LoopShape {
  std::size_t thermalCells = 1;
  std::vector<std::string> families;  ///< one Linux + one Frozen item each
  int trainRepeats = 2;
  std::vector<std::string> liveScenario;  ///< empty: no live item
  std::size_t probeTicks = 20000;
};

class SerialLoop final : public Workload {
 public:
  explicit SerialLoop(LoopShape shape) : shape_(std::move(shape)) {}

  void release() override { items_.clear(); }

  void setup(std::uint64_t repSeed) override {
    items_.clear();
    core::RunnerConfig base;
    base.maxSimTime = 20000.0;
    base.machine.thermalCellsPerCoreSide = shape_.thermalCells;

    const auto apps = [&](const std::vector<std::string>& families, std::uint64_t salt) {
      std::vector<workload::AppSpec> out;
      for (const std::string& family : families) {
        workload::AppSpec app = workload::makeApp(family, 1);
        app.seed = mixSeed(repSeed, salt);
        out.push_back(std::move(app));
      }
      return out;
    };
    const auto add = [&](std::string label, Mode mode, std::vector<workload::AppSpec> eval) {
      const std::uint64_t index = items_.size();
      Item item;
      item.label = std::move(label);
      item.mode = mode;
      item.eval = workload::Scenario::of(eval);
      if (mode != Mode::Linux) item.train = repeated(eval, shape_.trainRepeats);
      item.runner = base;
      item.runner.machine.sensorSeed = mixSeed(repSeed, 2 * index + 1);
      item.manager.seed = mixSeed(repSeed, 2 * index + 2);
      items_.push_back(std::move(item));
    };
    for (std::size_t f = 0; f < shape_.families.size(); ++f) {
      const std::string& family = shape_.families[f];
      add(family + "/linux", Mode::Linux, apps({family}, 100 + f));
      add(family + "/proposed-frozen", Mode::Frozen, apps({family}, 100 + f));
    }
    if (!shape_.liveScenario.empty()) {
      add("inter/proposed-live", Mode::Live, apps(shape_.liveScenario, 99));
    }
  }

  RepOutcome run(bool traced) override {
    RepOutcome out;
    obs::TraceCollector collector(0);
    obs::Session session;  // empty unless traced: the same as no session
    if (traced) session.trace = &collector;

    struct Finished {
      core::RunResult result;
      const Item* item;
    };
    std::vector<Finished> finished;
    double runBusyS = 0.0;
    std::size_t runCalls = 0;
    std::size_t sampleCalls = 0;
    std::uint64_t sampleNs = 0;
    std::vector<double> decideUs;
    Digest digest;

    const std::uint64_t start = nowNs();
    const obs::ScopedSession guard(session);
    for (const Item& item : items_) {
      ++out.attempted;
      try {
        const core::PolicyRunner runner(item.runner);
        bool ok = true;
        const auto execute = [&](const workload::Scenario& scenario, core::ThermalPolicy& policy,
                                 ObservedPolicy* observed) {
          const std::uint64_t due = nowNs();
          if (observed != nullptr) observed->arm(due);
          core::RunResult result = runner.run(scenario, policy);
          runBusyS += secondsSince(due);
          ++runCalls;
          if (observed != nullptr && observed->decided()) {
            out.firstDecisions.push_back(observed->firstDecision());
          }
          const std::size_t before = out.problems.size();
          checkRun(result, scenario.apps.size(), item.runner.machine, item.label, out.problems);
          ok = ok && out.problems.size() == before;
          out.simSeconds += result.duration;
          digest.add(result);
          if (traced) finished.push_back({std::move(result), &item});
        };
        if (item.mode == Mode::Linux) {
          core::StaticGovernorPolicy policy({platform::GovernorKind::Ondemand, 0.0});
          execute(item.eval, policy, nullptr);
        } else {
          ObservedPolicy policy(
              std::make_unique<core::ThermalManager>(
                  item.manager,
                  core::ActionSpace::standard(item.runner.machine.coreCount)),
              traced);
          execute(item.train, policy, &policy);
          if (item.mode == Mode::Frozen) policy.manager()->freeze();
          execute(item.eval, policy, &policy);
          sampleCalls += policy.sampleCalls;
          sampleNs += policy.sampleNs;
          decideUs.insert(decideUs.end(), policy.decideUs.begin(), policy.decideUs.end());
        }
        if (!ok) ++out.failed;
      } catch (const std::exception& error) {
        ++out.failed;
        std::cerr << item.label << ": " << error.what() << "\n";
      }
    }
    out.wallS = secondsSince(start);
    out.digest = digest.value();
    out.tenantsPerS = static_cast<double>(items_.size()) / out.wallS;
    if (!traced) return out;

    // Read the scopes before the probes below add their own.
    ScopeTotals scopes;
    for (const auto& [name, stats] : collector.sortedStats()) scopes[name] = stats;
    LayerValues& layers = out.layers;
    addScopeLayers(scopes, runBusyS, layers);
    double analyzeMs = 0.0;
    for (const Finished& run : finished) {
      analyzeMs += probeAnalyzeChip(run.result, run.item->runner, run.item->label, out.problems);
    }

    layers["core.run.calls"] = static_cast<double>(runCalls);
    layers["core.run.busy_s"] = runBusyS;
    const double attributedS = static_cast<double>(sampleNs) / 1e9 +
                               static_cast<double>(scopes["thermal.rc.step"].totalNs +
                                                   scopes["thermal.rc.prepare"].totalNs) / 1e9 +
                               analyzeMs / 1e3;
    layers["core.run.other_share"] = 1.0 - attributedS / runBusyS;
    layers["manager.sample.calls"] = static_cast<double>(sampleCalls);
    layers["manager.sample.busy_ms"] = static_cast<double>(sampleNs) / 1e6;
    layers["manager.decide.calls"] = static_cast<double>(decideUs.size());
    layers["manager.decide.p50_us"] = quantile(decideUs, 0.50);
    layers["manager.decide.p99_us"] = quantile(decideUs, 0.99);
    layers["manager.share"] = static_cast<double>(sampleNs) / 1e9 / runBusyS;
    layers["reliability.analyze_chip.mean_ms"] =
        finished.empty() ? 0.0 : analyzeMs / static_cast<double>(finished.size());
    const platform::MachineConfig& machine = items_.front().runner.machine;
    layers["platform.ticks"] = out.simSeconds / machine.tick;
    addReplayProbes(machine, items_.front().eval, shape_.probeTicks, layers);
    return out;
  }

 private:
  LoopShape shape_;
  std::vector<Item> items_;
};

}  // namespace

std::unique_ptr<Workload> makePaperLoop(const Options& options) {
  LoopShape shape;
  shape.families = {"tachyon", "mpeg_dec", "mpeg_enc", "face_rec", "sphinx"};
  shape.liveScenario = {"mpeg_dec", "tachyon"};
  if (options.small) {
    shape.families = {"face_rec"};
    shape.trainRepeats = 1;
    shape.liveScenario = {"face_rec", "tachyon"};
  }
  return std::make_unique<SerialLoop>(shape);
}

std::unique_ptr<Workload> makeGridThermal(const Options& options) {
  LoopShape shape;
  shape.thermalCells = 4;
  shape.families = {"tachyon"};
  shape.trainRepeats = 1;
  shape.probeTicks = 5000;
  if (options.small) shape.families = {"face_rec"};
  return std::make_unique<SerialLoop>(shape);
}

}  // namespace perfbench
