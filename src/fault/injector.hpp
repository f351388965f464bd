// FaultInjector: replays a FaultPlan against a live Machine.
//
// The injector is the thin shim between a validated FaultPlan and the three
// surfaces the plan can disturb:
//
//   sensors   sensor.* windows are translated into SensorBank::injectFault /
//             clearFault calls exactly when simulated time crosses the
//             window edges (the bank already models stuck/offset/dead/noisy
//             channels; the injector only schedules them),
//   samples   the control loop routes every sensor delivery through
//             filterSample(), which can drop a pass (sample.drop) or serve a
//             stale one from its history buffer (sample.late),
//   actuation machine-wide governor requests run through a
//             GovernorInterposer installed at attach() (dvfs.ignore/delay/
//             partial), and affinity migrations are gated by
//             affinityAllowed() via the GatedWorkloadControl wrapper.
//
// The injector itself holds NO randomness: every decision is a pure function
// of the plan and simulated time, so a (plan, machine seed) pair replays
// bit-identically — including across `--jobs` counts in the sweep engine.
// sensor.noise_burst is deterministic too: the extra noise is drawn from the
// SensorBank's own seeded RNG stream.
//
// Ordering contract with core::ControlLoop (src/core/control_loop.hpp), the
// one loop every run and fleet tenant executes, per tick:
//
//   driver.tick() → injector.advanceTo(machine.now()) → [readSensors() →
//   injector.filterSample(...) → policy.onSample(...)]
//
// so window edges take effect before the sample that lands on them, and any
// deferred DVFS transition due this tick is applied before the policy acts.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "fault/plan.hpp"
#include "platform/machine.hpp"
#include "workload/control.hpp"

namespace rltherm::fault {

/// Injection counters, reported by the campaign engine alongside the
/// reliability deltas so "nothing happened" and "the plan never fired" are
/// distinguishable.
struct FaultStats {
  std::uint64_t sensorFaultsApplied = 0;
  std::uint64_t sensorFaultsCleared = 0;
  std::uint64_t samplesDropped = 0;
  std::uint64_t samplesDelayed = 0;
  std::uint64_t dvfsIgnored = 0;
  std::uint64_t dvfsDeferred = 0;
  std::uint64_t dvfsPartial = 0;
  std::uint64_t affinityDropped = 0;
  std::uint64_t coresRetired = 0;    ///< permanent core.dead retirements
  std::uint64_t coreOfflines = 0;    ///< intermittent offline edges
  std::uint64_t coreOnlines = 0;     ///< intermittent recovery edges
};

class FaultInjector {
 public:
  /// The plan is validated (FaultPlan::validate) on construction.
  explicit FaultInjector(FaultPlan plan);
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Bind to the machine under test: checks every sensor event's channel
  /// against the real core count and installs the governor interposer. The
  /// machine must outlive the injector (ControlLoop declares the injector
  /// after the machine).
  void attach(platform::Machine& machine);

  /// Remove the governor interposer (idempotent; also done on destruction).
  void detach();

  /// Advance the schedule to simulated time `now`: apply/clear sensor
  /// faults whose window edge was crossed and complete any deferred DVFS
  /// transition that came due.
  void advanceTo(Seconds now);

  /// Route one sensor delivery through the plan. Returns the readings to
  /// deliver to the policy, or nullopt when the pass is dropped (sample.drop,
  /// or sample.late before any sufficiently old pass exists).
  [[nodiscard]] std::optional<std::vector<Celsius>> filterSample(
      Seconds now, std::vector<Celsius> readings);

  /// Whether an affinity migration issued now would reach the scheduler.
  /// NOTE: intentionally NOT const — a denied migration is an injection
  /// event (counted in stats, emitted to obs).
  [[nodiscard]] bool affinityAllowed();

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }
  [[nodiscard]] Seconds now() const noexcept { return now_; }

 private:
  [[nodiscard]] const FaultEvent* activeEvent(FaultKind kind) const;
  void applySensorEvent(const FaultEvent& event);
  void clearSensorEvent(const FaultEvent& event);

  FaultPlan plan_;
  platform::Machine* machine_ = nullptr;
  Seconds now_ = 0.0;
  FaultStats stats_;

  /// Per-event lifecycle for sensor windows (indices parallel plan_.events;
  /// unused for non-sensor kinds). Core events reuse the slot to track the
  /// applied offline state across intermittent on/off edges.
  struct WindowState {
    bool applied = false;
    bool cleared = false;
    bool coreIsOffline = false;
  };
  std::vector<WindowState> windows_;

  /// Deferred machine-wide governor transition (dvfs.delay). Depth one:
  /// a newer request overwrites an in-flight one, as a firmware mailbox
  /// would.
  struct PendingGovernor {
    platform::GovernorSetting setting;
    Seconds due = 0.0;
  };
  std::optional<PendingGovernor> pendingGovernor_;
  /// True while the injector itself re-applies a deferred setting, so the
  /// interposer lets it through without re-evaluating the plan.
  bool applying_ = false;

  /// (time, readings) history for sample.late. Bounded by the largest delay
  /// in the plan.
  struct Pass {
    Seconds time = 0.0;
    std::vector<Celsius> readings;
  };
  std::deque<Pass> history_;
  Seconds maxSampleDelay_ = 0.0;
};

/// WorkloadControl wrapper that drops affinity requests while an
/// affinity.fail window is active; everything else forwards to the inner
/// control. ControlLoop substitutes this into the PolicyContext when a plan
/// is present.
class GatedWorkloadControl final : public workload::WorkloadControl {
 public:
  GatedWorkloadControl(workload::WorkloadControl& inner, FaultInjector& injector)
      : inner_(inner), injector_(injector) {}

  [[nodiscard]] double performanceRatio() const override {
    return inner_.performanceRatio();
  }
  void applyAffinityPattern(std::span<const sched::AffinityMask> pattern) override {
    if (injector_.affinityAllowed()) inner_.applyAffinityPattern(pattern);
  }
  [[nodiscard]] bool appJustSwitched() const override {
    return inner_.appJustSwitched();
  }
  /// Replication re-placement is a migration-class actuation, so an
  /// affinity.fail window swallows it like any other affinity request.
  void applyReplication(const workload::ReplicationRequest& request) override {
    if (injector_.affinityAllowed()) inner_.applyReplication(request);
  }
  [[nodiscard]] double deliveredWorkRatio() const override {
    return inner_.deliveredWorkRatio();
  }

 private:
  workload::WorkloadControl& inner_;
  FaultInjector& injector_;
};

}  // namespace rltherm::fault
