// Admission control: bounded queue, priority shedding, deadline budgeting.
//
// Every SUBMIT passes through here before it costs the executor anything.
// The controller enforces three things:
//
//   capacity   The queue is a common::BoundedQueue.  A submission that
//              finds it full either displaces the lowest-priority queued
//              request (when the arrival outranks it — the displaced
//              request is shed with reason "evicted") or is itself shed
//              with reason "queue-full".
//
//   deadlines  A request with a deadline is admitted only if its estimated
//              completion fits the budget: estimated wait = cost of the
//              in-flight request + costs of queued requests that will run
//              before it (priority >= its own) + its own cost.  Estimates
//              are the maximum observed simulated exec_time per
//              (workload, policy) — conservative, so an admitted
//              high-priority request does not miss its deadline because
//              admission was optimistic — with a configured default before
//              the first observation.
//
//   draining   After DRAIN no submission is admitted, full stop.
//
// offer() only decides; the queue changes through requeue(), claim() and
// evict(), which the service calls when it applies the journaled admit,
// start and evicted-shed records.  Decisions are pure functions of that
// journal-derived state, so live, resumed and replayed runs shed alike.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "src/common/bounded_queue.h"
#include "src/common/units.h"
#include "src/service/types.h"

namespace gg::service {

class AdmissionController {
 public:
  struct Decision {
    bool admitted{false};
    /// Shed reason when not admitted ("queue-full", "deadline-unmeetable",
    /// "draining"); empty on admission.
    std::string reason;
    /// Lower-priority request displaced to make room (shed as "evicted").
    std::optional<Request> evicted;
  };

  AdmissionController(std::size_t capacity, double default_cost_estimate);

  /// Decide on `r` without changing anything.  `inflight_cost` is the
  /// estimated remaining cost of the request currently executing (0 when
  /// idle); `draining` rejects everything.  An admission that needs room
  /// names the queued request to displace in `evicted`.
  [[nodiscard]] Decision offer(const Request& r, Seconds inflight_cost,
                               bool draining) const;

  /// Queue an admitted request — the only push (after evict() when offer()
  /// named a request to displace).  Throws std::logic_error if the queue
  /// cannot hold it — impossible for a journal this controller decided.
  void requeue(Request r);

  /// Highest-priority queued request, FIFO within a priority (nullptr when
  /// the queue is empty).
  [[nodiscard]] const Request* next() const;
  /// Remove and return next(): the executor's claim.
  [[nodiscard]] std::optional<Request> claim();
  /// Remove and return the lowest-ranked queued request: the one offer()
  /// names as `evicted`.
  [[nodiscard]] std::optional<Request> evict();

  /// Record an observed per-request cost; estimates are max-so-far.
  void observe_cost(const std::string& workload, const std::string& policy,
                    Seconds exec_time);
  [[nodiscard]] Seconds estimate(const std::string& workload,
                                         const std::string& policy) const;

  [[nodiscard]] std::size_t depth() const { return queue_.size(); }
  [[nodiscard]] std::size_t capacity() const { return queue_.capacity(); }

 private:
  common::BoundedQueue<Request> queue_;
  double default_cost_;
  /// Max observed simulated exec_time per (workload, policy).
  std::map<std::pair<std::string, std::string>, double> observed_costs_;
};

}  // namespace gg::service
