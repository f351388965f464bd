#include "resil/replicated_driver.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"

namespace rltherm::resil {

namespace {

/// Replica thread ids: group g, replica r, thread t maps to
/// (g+1)*1000 + r*100 + t + 1. Groups run sequentially, degree <= 3 and
/// thread counts < 100, so the strides never collide and the replica index
/// is recoverable in O(1) from the id alone.
[[nodiscard]] ThreadId firstThreadIdOf(std::size_t group, int replica) {
  return static_cast<ThreadId>((group + 1) * 1000 + static_cast<std::size_t>(replica) * 100 + 1);
}

[[nodiscard]] std::size_t replicaOfThread(ThreadId id) noexcept {
  return (static_cast<std::size_t>(id - 1) % 1000) / 100;
}

void setGauge(const char* name, double value) {
  if (obs::MetricsRegistry* metrics = obs::metrics()) metrics->gauge(name).set(value);
}

}  // namespace

ReplicatedDriver::ReplicatedDriver(platform::Machine& machine,
                                   workload::Scenario scenario, ReplicationPlan plan)
    : machine_(machine), scenario_(std::move(scenario)), plan_(plan) {
  plan_.validate();
  expects(!scenario_.apps.empty(), "ReplicatedDriver requires a non-empty scenario");
  pendingDegree_ = plan_.initialDegree;
  coreWasOnline_.resize(machine_.coreCount());
  for (std::size_t c = 0; c < machine_.coreCount(); ++c) {
    coreWasOnline_[c] = machine_.coreOnline(c) ? 1 : 0;
  }
  startNextGroup();
  switchedFlag_ = false;  // the initial group start is not an inter-app switch
}

bool ReplicatedDriver::tick() {
  switchedFlag_ = false;
  // Core retirements happen in the injector, BETWEEN our ticks; taint the
  // replicas whose in-flight iteration touched a core that went away.
  detectCoreFailures();

  if (!groupLive_) {
    if (nextApp_ >= scenario_.apps.size()) {
      (void)machine_.tick([](ThreadId) { return 0.0; });
      return false;
    }
    startNextGroup();
    switchedFlag_ = true;
    if (obs::events() != nullptr) {
      obs::emit(obs::Event{.name = "workload.app.switch",
                           .simTime = machine_.now(),
                           .fields = {obs::field("to", scenario_.apps[nextApp_ - 1].name)}});
    }
  }

  for (Replica& replica : replicas_) {
    if (replica.app != nullptr) replica.app->onTick(machine_.now());
  }
  const platform::TickResult result = machine_.tick([this](ThreadId id) {
    const std::size_t r = replicaOfThread(id);
    if (r >= replicas_.size() || replicas_[r].app == nullptr) return 0.0;
    return replicas_[r].app->activity(id);
  });
  for (const platform::ThreadExecution& exec : result.executed) {
    const std::size_t r = replicaOfThread(exec.thread);
    if (r >= replicas_.size()) continue;
    Replica& replica = replicas_[r];
    if (replica.app == nullptr || replica.app->finished()) continue;
    replica.app->onProgress(exec.thread, exec.progress);
    if (exec.core != kInvalidCore) {
      replica.coresTouched |= std::uint64_t{1} << static_cast<std::size_t>(exec.core);
    }
  }

  int finishedCount = 0;
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    accountReplica(r);
    Replica& replica = replicas_[r];
    if (replica.app != nullptr && replica.app->finished()) {
      // The replica's result is in; free its cores for the survivors but
      // keep its credited count for the merge.
      replica.finished = true;
      replica.app->teardown();
      replica.app.reset();
    }
    if (replica.finished) ++finishedCount;
  }

  recordSamples();

  if (groupLive_ && finishedCount >= plan_.quorum(degree_)) finishGroup();
  return !done();
}

void ReplicatedDriver::startNextGroup() {
  ensures(nextApp_ < scenario_.apps.size(), "startNextGroup called with no apps left");
  const workload::AppSpec& spec = scenario_.apps[nextApp_];
  degree_ = pendingDegree_;
  replicas_.clear();
  replicas_.resize(static_cast<std::size_t>(degree_));
  for (int r = 0; r < degree_; ++r) {
    replicas_[static_cast<std::size_t>(r)].app = std::make_unique<workload::RunningApp>(
        spec, machine_.scheduler(), firstThreadIdOf(nextApp_, r));
  }
  groupLive_ = true;
  groupStart_ = machine_.now();
  throughputSamples_.clear();
  for (std::size_t r = 0; r < replicas_.size(); ++r) applyMasksToReplica(r);
  ++nextApp_;
  setGauge("resil.degree.current", static_cast<double>(degree_));
  if (obs::events() != nullptr) {
    obs::emit(obs::Event{.name = "resil.group.start",
                         .simTime = groupStart_,
                         .fields = {
                             obs::field("app", spec.name),
                             obs::field("degree", static_cast<std::int64_t>(degree_)),
                             obs::field("merge", toString(plan_.merge)),
                         }});
  }
}

void ReplicatedDriver::finishGroup() {
  // Merge rank: the quorum-th best credited count. With first-finisher this
  // is the best replica; with majority-vote at least ceil(d/2) replicas
  // independently delivered that much untainted work.
  std::vector<std::int64_t> credited;
  credited.reserve(replicas_.size());
  for (const Replica& replica : replicas_) credited.push_back(replica.credited);
  std::sort(credited.begin(), credited.end(), std::greater<>());
  const auto rank = static_cast<std::size_t>(plan_.quorum(degree_) - 1);
  const std::int64_t delivered = rank < credited.size() ? credited[rank] : 0;

  const std::string& name = scenario_.apps[nextApp_ - 1].name;
  completions_.push_back(workload::AppCompletion{
      .name = name,
      .startTime = groupStart_,
      .endTime = machine_.now(),
      .iterations = static_cast<int>(delivered),
  });
  deliveredCompleted_ += delivered;
  obs::bumpCounter("resil.iterations.deliver", static_cast<std::uint64_t>(delivered));
  if (obs::events() != nullptr) {
    obs::emit(obs::Event{.name = "resil.group.finish",
                         .simTime = machine_.now(),
                         .fields = {
                             obs::field("app", name),
                             obs::field("delivered", delivered),
                             obs::field("degree", static_cast<std::int64_t>(degree_)),
                             obs::field("exec_s", machine_.now() - groupStart_),
                         }});
  }
  for (Replica& replica : replicas_) {
    if (replica.app != nullptr) {
      replica.app->teardown();
      replica.app.reset();
    }
  }
  replicas_.clear();
  groupLive_ = false;
  throughputSamples_.clear();
}

void ReplicatedDriver::detectCoreFailures() {
  for (std::size_t c = 0; c < coreWasOnline_.size(); ++c) {
    const bool online = machine_.coreOnline(c);
    if (online == (coreWasOnline_[c] != 0)) continue;
    coreWasOnline_[c] = online ? 1 : 0;
    if (online) continue;  // recovery taints nothing
    const std::uint64_t bit = std::uint64_t{1} << c;
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
      Replica& replica = replicas_[r];
      if (replica.app == nullptr || (replica.coresTouched & bit) == 0) continue;
      if (!replica.taintPending) {
        replica.taintPending = true;
        if (obs::events() != nullptr) {
          obs::emit(obs::Event{.name = "resil.iteration.taint",
                               .simTime = machine_.now(),
                               .fields = {
                                   obs::field("core", static_cast<std::int64_t>(c)),
                                   obs::field("replica", static_cast<std::int64_t>(r)),
                               }});
        }
      }
    }
  }
}

void ReplicatedDriver::accountReplica(std::size_t index) {
  Replica& replica = replicas_[index];
  if (replica.app == nullptr) return;
  const int iterations = replica.app->iterationsCompleted();
  int completedNow = iterations - replica.lastIterations;
  if (completedNow <= 0) return;
  replica.lastIterations = iterations;
  replica.coresTouched = 0;  // the next iteration starts a fresh footprint
  if (replica.taintPending) {
    // The first iteration to complete after the failure carries the lost
    // work of the dead core; it is never credited.
    replica.taintPending = false;
    ++taintedTotal_;
    --completedNow;
    obs::bumpCounter("resil.iterations.taint");
  }
  if (completedNow > 0) {
    replica.credited += completedNow;
    creditedTotal_ += completedNow;
  }
}

void ReplicatedDriver::recordSamples() {
  const Seconds now = machine_.now();
  if (groupLive_) {
    throughputSamples_.emplace_back(now, mergedLive(/*useCredited=*/false));
    const Seconds cutoff = now - window_;
    while (throughputSamples_.size() > 2 && throughputSamples_.front().first < cutoff) {
      throughputSamples_.pop_front();
    }
  }
  deliverySamples_.emplace_back(now, creditedTotal_, taintedTotal_);
  const Seconds cutoff = now - window_;
  while (deliverySamples_.size() > 2 && std::get<0>(deliverySamples_.front()) < cutoff) {
    deliverySamples_.pop_front();
  }
}

std::int64_t ReplicatedDriver::mergedLive(bool useCredited) const {
  if (replicas_.empty()) return 0;
  std::vector<std::int64_t> progress;
  progress.reserve(replicas_.size());
  for (const Replica& replica : replicas_) {
    std::int64_t p = useCredited ? replica.credited
                                 : static_cast<std::int64_t>(replica.lastIterations);
    progress.push_back(p);
  }
  std::sort(progress.begin(), progress.end(), std::greater<>());
  const auto rank = static_cast<std::size_t>(plan_.quorum(degree_) - 1);
  return rank < progress.size() ? progress[rank] : 0;
}

double ReplicatedDriver::currentThroughput() const {
  if (throughputSamples_.size() < 2) return 0.0;
  const auto& [t0, n0] = throughputSamples_.front();
  const auto& [t1, n1] = throughputSamples_.back();
  if (t1 <= t0) return 0.0;
  return static_cast<double>(n1 - n0) / (t1 - t0);
}

double ReplicatedDriver::performanceConstraint() const {
  if (!groupLive_) return 0.0;
  return scenario_.apps[nextApp_ - 1].performanceConstraint;
}

double ReplicatedDriver::performanceRatio() const {
  const double constraint = performanceConstraint();
  if (constraint <= 0.0) return 1.0;
  const double throughput = currentThroughput();
  if (throughput <= 0.0) return 1.0;  // cold window is not a real shortfall
  return throughput / constraint;
}

double ReplicatedDriver::deliveredWorkRatio() const {
  if (deliverySamples_.size() < 2) return 1.0;
  const auto& [t0, c0, x0] = deliverySamples_.front();
  const auto& [t1, c1, x1] = deliverySamples_.back();
  (void)t0;
  (void)t1;
  const std::int64_t credited = c1 - c0;
  const std::int64_t tainted = x1 - x0;
  const std::int64_t attempted = credited + tainted;
  if (attempted <= 0) return 1.0;
  return static_cast<double>(credited) / static_cast<double>(attempted);
}

std::int64_t ReplicatedDriver::deliveredIterations() const {
  return deliveredCompleted_ + (groupLive_ ? mergedLive(/*useCredited=*/true) : 0);
}

sched::AffinityMask ReplicatedDriver::steerAway(const sched::AffinityMask& mask) const {
  if (avoid_.empty()) return mask;
  const auto keep = [this](const sched::AffinityMask& m) {
    std::vector<CoreId> cores;
    for (CoreId c : m.cores()) {
      if (!avoid_.allows(c)) cores.push_back(c);
    }
    return cores;
  };
  std::vector<CoreId> cores = keep(mask);
  if (cores.empty()) cores = keep(sched::AffinityMask::all(machine_.coreCount()));
  if (cores.empty()) return mask;  // everything is suspect: steering is moot
  return sched::AffinityMask::of(cores);
}

void ReplicatedDriver::applyMasksToReplica(std::size_t index) {
  const Replica& replica = replicas_[index];
  if (replica.app == nullptr) return;
  const std::vector<ThreadId> ids = replica.app->threadIds();
  const auto fullMask = sched::AffinityMask::all(machine_.coreCount());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    // Rotate the pattern by the replica number so redundant copies spread
    // across different cores — the point of replication is that one core
    // failure should not taint every copy.
    const sched::AffinityMask base =
        currentPattern_.empty()
            ? fullMask
            : currentPattern_[(i + index) % currentPattern_.size()];
    machine_.scheduler().setAffinity(ids[i], steerAway(base));
  }
}

void ReplicatedDriver::applyAffinityPattern(std::span<const sched::AffinityMask> pattern) {
  currentPattern_.assign(pattern.begin(), pattern.end());
  for (std::size_t r = 0; r < replicas_.size(); ++r) applyMasksToReplica(r);
}

void ReplicatedDriver::applyReplication(const workload::ReplicationRequest& request) {
  const int degree = std::clamp(request.degree, 1, plan_.maxDegree);
  avoid_ = request.avoid;
  if (degree != pendingDegree_) {
    pendingDegree_ = degree;
    obs::bumpCounter("resil.degree.change");
  }
  setGauge("resil.degree.pending", static_cast<double>(pendingDegree_));
  // Steering applies to the running replicas immediately — moving work off
  // a suspect core cannot wait for the next group boundary.
  for (std::size_t r = 0; r < replicas_.size(); ++r) applyMasksToReplica(r);
}

}  // namespace rltherm::resil
