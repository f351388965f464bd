#include "fault/injector.hpp"

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"

namespace rltherm::fault {

namespace {

thermal::SensorFault sensorFaultOf(FaultKind kind) {
  switch (kind) {
    case FaultKind::SensorStuck: return thermal::SensorFault::StuckAtLast;
    case FaultKind::SensorDead: return thermal::SensorFault::Dead;
    case FaultKind::SensorOffset: return thermal::SensorFault::ConstantOffset;
    case FaultKind::SensorNoiseBurst: return thermal::SensorFault::NoiseBurst;
    default: break;
  }
  throw PreconditionError("sensorFaultOf: not a sensor fault kind");
}

void emitFaultEvent(const char* name, Seconds now, const FaultEvent& event) {
  if (obs::events() == nullptr) return;
  obs::emit(obs::Event{
      .name = name,
      .simTime = now,
      .fields = {
          obs::field("kind", toString(event.kind)),
          obs::field("channel", static_cast<std::int64_t>(event.channel)),
          obs::field("until", event.until),
      }});
}

void emitCoreEvent(const char* name, Seconds now, const FaultEvent& event) {
  if (obs::events() == nullptr) return;
  obs::emit(obs::Event{
      .name = name,
      .simTime = now,
      .fields = {
          obs::field("kind", toString(event.kind)),
          obs::field("core", static_cast<std::int64_t>(event.core)),
          obs::field("until", event.until),
      }});
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  plan_.validate();
  windows_.assign(plan_.events.size(), WindowState{});
  for (const FaultEvent& event : plan_.events) {
    if (event.kind == FaultKind::SampleLate) {
      maxSampleDelay_ = std::max(maxSampleDelay_, event.delay);
    }
  }
}

FaultInjector::~FaultInjector() { detach(); }

void FaultInjector::attach(platform::Machine& machine) {
  std::size_t deadCores = 0;
  for (const FaultEvent& event : plan_.events) {
    if (isSensorFault(event.kind)) {
      expects(event.channel < machine.coreCount(),
              "FaultInjector: plan '" + plan_.name + "' targets sensor channel " +
                  std::to_string(event.channel) + " but the machine has " +
                  std::to_string(machine.coreCount()) + " cores");
    }
    if (isCoreFault(event.kind)) {
      expects(event.core < machine.coreCount(),
              "FaultInjector: plan '" + plan_.name + "' retires core " +
                  std::to_string(event.core) + " but the machine has " +
                  std::to_string(machine.coreCount()) + " cores");
      if (event.kind == FaultKind::CoreDead) ++deadCores;
    }
  }
  // plan validation already rejects two core.dead events on one core, so
  // deadCores counts distinct retired cores.
  expects(deadCores < machine.coreCount(),
          "FaultInjector: plan '" + plan_.name + "' permanently retires all " +
              std::to_string(machine.coreCount()) +
              " cores — at least one core must survive");
  machine_ = &machine;
  machine.setGovernorInterposer([this](const platform::GovernorSetting& setting) {
    if (applying_) return true;
    if (const FaultEvent* event = activeEvent(FaultKind::DvfsIgnore)) {
      ++stats_.dvfsIgnored;
      emitFaultEvent("fault.dvfs.ignore", now_, *event);
      obs::bumpCounter("fault.dvfs.ignore");
      return false;
    }
    if (const FaultEvent* event = activeEvent(FaultKind::DvfsDelay)) {
      pendingGovernor_ = PendingGovernor{setting, now_ + event->delay};
      ++stats_.dvfsDeferred;
      emitFaultEvent("fault.dvfs.defer", now_, *event);
      obs::bumpCounter("fault.dvfs.defer");
      return false;
    }
    if (const FaultEvent* event = activeEvent(FaultKind::DvfsPartial)) {
      // A partially completed transition: the request reaches only the
      // first half of the cores (per-core cpufreq writes succeeded there,
      // then the firmware mailbox wedged). The machine-wide setting stays
      // at its previous value.
      const std::size_t reached = machine_->coreCount() / 2;
      for (std::size_t c = 0; c < reached; ++c) {
        machine_->setCoreGovernor(c, setting);
      }
      ++stats_.dvfsPartial;
      emitFaultEvent("fault.dvfs.partial", now_, *event);
      obs::bumpCounter("fault.dvfs.partial");
      return false;
    }
    return true;
  });
}

void FaultInjector::detach() {
  if (machine_ != nullptr) {
    machine_->setGovernorInterposer(nullptr);
    machine_ = nullptr;
  }
}

const FaultEvent* FaultInjector::activeEvent(FaultKind kind) const {
  for (const FaultEvent& event : plan_.events) {
    if (event.kind == kind && event.active(now_)) return &event;
  }
  return nullptr;
}

void FaultInjector::applySensorEvent(const FaultEvent& event) {
  RLTHERM_EXPECT(machine_ != nullptr, "FaultInjector: advanceTo before attach");
  machine_->sensors().injectFault(event.channel, sensorFaultOf(event.kind),
                                  event.parameter);
  ++stats_.sensorFaultsApplied;
  emitFaultEvent("fault.sensor.inject", now_, event);
  obs::bumpCounter("fault.sensor.inject");
}

void FaultInjector::clearSensorEvent(const FaultEvent& event) {
  machine_->sensors().clearFault(event.channel);
  ++stats_.sensorFaultsCleared;
  emitFaultEvent("fault.sensor.clear", now_, event);
  obs::bumpCounter("fault.sensor.clear");
}

void FaultInjector::advanceTo(Seconds now) {
  RLTHERM_EXPECT(now + 1e-9 >= now_, "FaultInjector: time must not run backwards");
  now_ = now;

  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& event = plan_.events[i];
    WindowState& window = windows_[i];
    if (isCoreFault(event.kind)) {
      // Core retirement is a pure function of simulated time (see
      // FaultEvent::coreOffline), applied exactly when the desired state
      // flips — bit-identical replay at any `--jobs`.
      const bool wantOffline = event.coreOffline(now);
      if (wantOffline == window.coreIsOffline) continue;
      RLTHERM_EXPECT(machine_ != nullptr, "FaultInjector: advanceTo before attach");
      machine_->setCoreOnline(event.core, !wantOffline);
      window.coreIsOffline = wantOffline;
      if (event.kind == FaultKind::CoreDead) {
        ++stats_.coresRetired;
        emitCoreEvent("fault.core.dead", now, event);
        obs::bumpCounter("fault.core.dead");
      } else if (wantOffline) {
        ++stats_.coreOfflines;
        emitCoreEvent("fault.core.offline", now, event);
        obs::bumpCounter("fault.core.offline");
      } else {
        ++stats_.coreOnlines;
        emitCoreEvent("fault.core.online", now, event);
        obs::bumpCounter("fault.core.online");
      }
      continue;
    }
    if (!isSensorFault(event.kind)) continue;
    if (!window.applied && event.active(now)) {
      applySensorEvent(event);
      window.applied = true;
    } else if (window.applied && !window.cleared && now + 1e-9 >= event.until) {
      clearSensorEvent(event);
      window.cleared = true;
    }
  }

  if (pendingGovernor_.has_value() && now + 1e-9 >= pendingGovernor_->due) {
    const PendingGovernor pending = *pendingGovernor_;
    pendingGovernor_.reset();
    applying_ = true;
    machine_->setGovernor(pending.setting);
    applying_ = false;
    if (obs::events() != nullptr) {
      obs::emit(obs::Event{
          .name = "fault.dvfs.apply",
          .simTime = now,
          .fields = {
              obs::field("governor", pending.setting.toString()),
              obs::field("due", pending.due),
          }});
    }
    obs::bumpCounter("fault.dvfs.apply");
  }
}

std::optional<std::vector<Celsius>> FaultInjector::filterSample(
    Seconds now, std::vector<Celsius> readings) {
  // Record the pass first: a stale delivery later must be able to reach
  // back to passes taken while delivery was dropped or already late.
  if (maxSampleDelay_ > 0.0) {
    history_.push_back(Pass{now, readings});
    while (!history_.empty() &&
           history_.front().time < now - maxSampleDelay_ - 1.0) {
      history_.pop_front();
    }
  }

  if (const FaultEvent* event = activeEvent(FaultKind::SampleDrop)) {
    ++stats_.samplesDropped;
    emitFaultEvent("fault.sample.drop", now, *event);
    obs::bumpCounter("fault.sample.drop");
    return std::nullopt;
  }
  if (const FaultEvent* event = activeEvent(FaultKind::SampleLate)) {
    // Serve the newest pass at least `delay` old; none yet means the stale
    // pipeline has not filled and nothing is delivered.
    const Seconds cutoff = now - event->delay;
    const Pass* stale = nullptr;
    for (const Pass& pass : history_) {
      if (pass.time <= cutoff + 1e-9) stale = &pass;
      else break;
    }
    ++stats_.samplesDelayed;
    emitFaultEvent("fault.sample.late", now, *event);
    obs::bumpCounter("fault.sample.late");
    if (stale == nullptr) return std::nullopt;
    return stale->readings;
  }
  return readings;
}

bool FaultInjector::affinityAllowed() {
  if (const FaultEvent* event = activeEvent(FaultKind::AffinityFail)) {
    ++stats_.affinityDropped;
    emitFaultEvent("fault.affinity.drop", now_, *event);
    obs::bumpCounter("fault.affinity.drop");
    return false;
  }
  return true;
}

}  // namespace rltherm::fault
