#include "src/service/admission.h"

#include <stdexcept>

#include "src/common/annotations.h"

namespace gg::service {

namespace {

/// "a should run before / outlive b": higher priority first, then older.
bool outranks(const Request& a, const Request& b) {
  if (a.priority != b.priority) return a.priority > b.priority;
  return a.seq < b.seq;
}

}  // namespace

AdmissionController::AdmissionController(std::size_t capacity,
                                         double default_cost_estimate)
    : queue_(capacity), default_cost_(default_cost_estimate) {
  if (default_cost_estimate <= 0.0) {
    throw std::invalid_argument(
        "AdmissionController: default_cost_estimate must be > 0");
  }
}

AdmissionController::Decision AdmissionController::offer(
    const Request& r, Seconds inflight_cost, bool draining) const {
  Decision decision;
  if (draining) {
    decision.reason = "draining";
    return decision;
  }
  const auto& items = queue_.items();
  if (r.deadline.get() > 0.0) {
    // Everything that will run before this request, conservatively.
    double wait = inflight_cost.get();
    for (const Request& queued : items) {
      if (outranks(queued, r)) wait += estimate(queued.workload, queued.policy).get();
    }
    wait += estimate(r.workload, r.policy).get();
    if (wait > r.deadline.get()) {
      decision.reason = "deadline-unmeetable";
      return decision;
    }
  }
  if (queue_.full()) {
    // Displace the lowest-priority queued request only if the arrival
    // strictly outranks it; otherwise the arrival itself is shed.
    std::size_t worst = 0;
    for (std::size_t i = 1; i < items.size(); ++i) {
      if (outranks(items[worst], items[i])) worst = i;
    }
    if (!(r.priority > items[worst].priority)) {
      decision.reason = "queue-full";
      return decision;
    }
    decision.evicted = items[worst];
  }
  decision.admitted = true;
  return decision;
}

void AdmissionController::requeue(Request r) {
  // GG_BOUNDED(capacity enforced by BoundedQueue; offer() freed a slot)
  if (!queue_.try_push(std::move(r))) {
    throw std::logic_error(
        "AdmissionController: more pending requests than the queue capacity "
        "— journal and configuration disagree");
  }
}

const Request* AdmissionController::next() const {
  const auto& items = queue_.items();
  if (items.empty()) return nullptr;
  std::size_t best = 0;
  for (std::size_t i = 1; i < items.size(); ++i) {
    if (outranks(items[i], items[best])) best = i;
  }
  return &items[best];
}

std::optional<Request> AdmissionController::claim() {
  return queue_.pop_best(outranks);
}

std::optional<Request> AdmissionController::evict() {
  return queue_.evict_worst(outranks);
}

void AdmissionController::observe_cost(const std::string& workload,
                                       const std::string& policy,
                                       Seconds exec_time) {
  // GG_BOUNDED(one entry per (workload, policy) pair; both sets are finite)
  double& slot = observed_costs_[{workload, policy}];
  if (exec_time.get() > slot) slot = exec_time.get();
}

Seconds AdmissionController::estimate(const std::string& workload,
                                              const std::string& policy) const {
  const auto it = observed_costs_.find({workload, policy});
  if (it == observed_costs_.end()) return Seconds{default_cost_};
  return Seconds{it->second};
}

}  // namespace gg::service
