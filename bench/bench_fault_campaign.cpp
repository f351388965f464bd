// Fault-injection campaign: how much lifetime/thermal headroom does the
// safety supervisor buy back under sensor and actuation faults?
//
// For every in-tree fault scenario (scenarios/*.toml) plus a clean baseline,
// the Linux ondemand baseline and the trained-and-frozen proposed manager
// are each run raw and wrapped in the SafetySupervisor. The report pairs the
// lanes up and prints peak-temperature and cycling-MTTF deltas, plus the
// supervisor's quarantine/retry/emergency accounting.
//
// The grid runs through the sweep engine: `--jobs N` changes wall-clock
// only, never a number in the table (bit-identical, pinned by
// tests/fault/campaign_test.cpp). `--json [PATH]` writes the table with the
// standard wall_ms/jobs/speedup fields. `--scenarios DIR` names the
// directory holding the scenario *.toml files (default: the repo's
// scenarios/), as for rltherm_cli.
#include "fault_campaign_util.hpp"

int main(int argc, char** argv) {
  using namespace rltherm;
  using namespace rltherm::bench;

  FaultCampaignOptions options;
  options.scenarios = standardFaultScenarios(scenarioDir(argc, argv));
  options.apps = {workload::tachyon(1), workload::mpegDec(1)};
  options.runner = defaultRunnerConfig();

  const std::vector<exec::RunSpec> specs = faultCampaignSpecs(options);
  const exec::SweepResult sweep = exec::SweepRunner(sweepOptions(argc, argv)).run(specs);
  const TextTable table = faultCampaignTable(specs, sweep);

  printBanner(std::cout, "Fault-injection campaign (raw vs supervised)");
  table.print(std::cout);
  std::cout << "sweep: " << sweep.runs.size() << " runs in "
            << formatFixed(sweep.wallMs, 0) << " ms wall on " << sweep.jobs
            << " jobs (" << formatFixed(sweep.speedup(), 2)
            << "x vs back-to-back)\n";

  const std::string jsonPath = jsonOutputPath(argc, argv, "BENCH_fault_campaign.json");
  if (!jsonPath.empty()) {
    writeJsonReport(table, "fault_campaign", jsonPath, metaOf(sweep));
  }
  return 0;
}
