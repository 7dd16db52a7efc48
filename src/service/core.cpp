#include "src/service/core.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/killpoint.h"
#include "src/common/snapshot.h"
#include "src/greengpu/campaign.h"
#include "src/workloads/registry.h"

namespace gg::service {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string token;
  // GG_BOUNDED(one token per word of a single protocol line)
  while (in >> token) tokens.push_back(token);
  return tokens;
}

/// Parse "key=value" with a u64 value; throws invalid_argument on garbage.
std::uint64_t parse_u64(const std::string& token, const std::string& key) {
  std::size_t pos = 0;
  const std::string value = token.substr(key.size() + 1);
  const std::uint64_t parsed = std::stoull(value, &pos);
  if (pos != value.size()) throw std::invalid_argument("bad " + key);
  return parsed;
}

double parse_f64(const std::string& token, const std::string& key) {
  std::size_t pos = 0;
  const std::string value = token.substr(key.size() + 1);
  const double parsed = std::stod(value, &pos);
  if (pos != value.size() || !(parsed >= 0.0)) {
    throw std::invalid_argument("bad " + key);
  }
  return parsed;
}

bool has_key(const std::string& token, const std::string& key) {
  return token.size() > key.size() + 1 && token.compare(0, key.size(), key) == 0 &&
         token[key.size()] == '=';
}

}  // namespace

ServiceCore::ServiceCore(ServiceConfig config, std::string journal_path,
                         bool resume)
    : config_(std::move(config)),
      journal_(std::move(journal_path), config_.fingerprint(), /*fresh=*/!resume),
      admission_(config_.queue_capacity, config_.default_cost_estimate),
      breaker_(config_.devices, config_.breaker),
      feed_(config_),
      hub_(config_.telemetry) {
  config_.validate();
  if (resume) resume_from_journal();
}

void ServiceCore::publish_record(const ServiceRecord& record) {
  ++journal_records_;
  scratch_events_.clear();
  feed_.on_record(record, scratch_events_);
  for (const std::string& payload : scratch_events_) hub_.publish(payload);
}

void ServiceCore::resume_from_journal() {
  // Replaying the journal in order reconstructs every piece of state the
  // uninterrupted daemon would hold: the pending set (admits minus outcomes
  // minus evictions), virtual time, breaker state, the cost model and the
  // counters.  Requests re-enter the queue in seq order, which is exactly
  // the priority-then-FIFO order they would drain in anyway.
  const auto records = ServiceJournal::read(journal_.path(), config_.fingerprint());
  // The telemetry stream is a pure function of the journal, so replaying the
  // records through the (fresh) feed lands its replica breaker and the hub's
  // stream position exactly where the dying daemon left them — a WATCH FROM
  // issued after resume continues the old stream byte-identically.
  std::uint64_t seeded = 0;
  for (const auto& record : records) {
    scratch_events_.clear();
    feed_.on_record(record, scratch_events_);
    seeded += scratch_events_.size();
  }
  hub_.seed(seeded);
  journal_records_ = records.size();
  std::map<std::uint64_t, Request> pending;
  // The last start record without a matching outcome is the claim the dying
  // daemon never finished; it must run first, not re-enter the queue.
  StartRecord claimed;
  bool has_claim = false;
  for (const auto& record : records) {
    switch (record.kind) {
      case RecordKind::kStart:
        claimed = record.start;
        has_claim = true;
        break;
      case RecordKind::kAdmit: {
        const Request& r = record.admit;
        pending[r.seq] = r;
        states_[r.seq] = "queued";
        ++stats_.submitted;
        ++stats_.admitted;
        next_seq_ = std::max(next_seq_, r.seq + 1);
        break;
      }
      case RecordKind::kShed: {
        const ShedRecord& s = record.shed;
        if (s.reason == "evicted") {
          pending.erase(s.seq);
          ++stats_.evicted;
          states_[s.seq] = "evicted";
        } else {
          ++stats_.submitted;
          ++stats_.shed;
          states_[s.seq] = "shed:" + s.reason;
        }
        next_seq_ = std::max(next_seq_, s.seq + 1);
        break;
      }
      case RecordKind::kOutcome: {
        const OutcomeRecord& o = record.outcome;
        auto it = pending.find(o.seq);
        if (it != pending.end()) {
          if (o.status == OutcomeStatus::kOk) {
            admission_.observe_cost(it->second.workload, it->second.policy,
                                    Seconds{o.exec_time});
          }
          pending.erase(it);
        }
        if (has_claim && claimed.seq == o.seq) has_claim = false;
        vtime_ = Seconds{o.vtime_after};
        breaker_.on_result(o.device, o.status == OutcomeStatus::kOk);
        if (o.status == OutcomeStatus::kOk) {
          ++stats_.completed;
          states_[o.seq] = "ok";
        } else {
          ++stats_.failed;
          states_[o.seq] = "failed";
        }
        break;
      }
    }
  }
  if (has_claim) {
    const auto it = pending.find(claimed.seq);
    if (it != pending.end()) {
      // Re-issue the unfinished claim.  acquire() on the rebuilt breaker is
      // deterministic, so it reproduces both the device choice and its
      // side-effect (an open device turning half-open for its probe); the
      // journaled device cross-checks that the rebuild really converged.
      const std::size_t device = breaker_.acquire();
      if (device != static_cast<std::size_t>(claimed.device)) {
        throw common::SnapshotError(
            journal_.path() + ": resumed breaker picked device " +
            std::to_string(device) + " but the journaled claim of seq " +
            std::to_string(claimed.seq) + " ran on device " +
            std::to_string(claimed.device));
      }
      Job job;
      job.request = it->second;
      job.device = device;
      job.vtime_before = Seconds{claimed.vtime};
      states_[job.request.seq] = "running";
      inflight_ = job;
      pending.erase(it);
    }
  }
  for (auto& [seq, request] : pending) {
    (void)seq;
    admission_.requeue(std::move(request));
  }
}

std::string ServiceCore::handle_line(const std::string& line) {
  const auto tokens = tokenize(line);
  if (tokens.empty()) return "400 empty request";
  const std::string& verb = tokens[0];
  if (verb == "PING") return "200 pong";
  if (verb == "SUBMIT") return handle_submit(tokens);
  if (verb == "STATUS") {
    if (tokens.size() != 2) return "400 usage: STATUS <seq>";
    std::uint64_t seq = 0;
    try {
      seq = std::stoull(tokens[1]);
    } catch (const std::exception&) {
      return "400 bad seq";
    }
    const auto it = states_.find(seq);
    if (it == states_.end()) return "404 unknown-seq " + tokens[1];
    return "200 status seq=" + tokens[1] + " state=" + it->second;
  }
  if (verb == "STATS") {
    std::ostringstream out;
    out << "200 stats submitted=" << stats_.submitted
        << " admitted=" << stats_.admitted << " shed=" << stats_.shed
        << " evicted=" << stats_.evicted << " completed=" << stats_.completed
        << " failed=" << stats_.failed << " restarts=" << stats_.restarts
        << " queued=" << admission_.depth()
        << " inflight=" << (inflight_ ? 1 : 0) << " vtime=" << vtime_.get()
        << " paused=" << (paused_ ? 1 : 0)
        << " draining=" << (draining_ ? 1 : 0)
        << " journal_records=" << journal_records_
        << " telemetry_seq=" << hub_.published()
        << " subscribers=" << hub_.subscriber_count()
        << " telemetry_dropped=" << hub_.dropped_total()
        << " telemetry_evicted=" << hub_.evicted_total();
    return out.str();
  }
  if (verb == "HEALTH") {
    std::string out = "200 health";
    for (std::size_t d = 0; d < breaker_.device_count(); ++d) {
      out += " device" + std::to_string(d) + "=" +
             CircuitBreaker::to_string(breaker_.state(d));
    }
    // Progress sequence numbers: smoke tests poll these instead of sleeping.
    out += " journal_records=" + std::to_string(journal_records_) +
           " telemetry_seq=" + std::to_string(hub_.published());
    return out;
  }
  if (verb == "WATCH") {
    // WATCH only means something on a connection the transport can flip to
    // a one-way stream; the request/reply path cannot, so refuse here.
    return "400 watch requires a streaming connection";
  }
  if (verb == "PAUSE") {
    paused_ = true;
    return "200 paused";
  }
  if (verb == "RESUME") {
    paused_ = false;
    return "200 resumed";
  }
  if (verb == "DRAIN") {
    draining_ = true;
    return "200 draining";
  }
  return "400 unknown verb " + verb;
}

std::string ServiceCore::handle_submit(const std::vector<std::string>& tokens) {
  if (tokens.size() < 3) {
    return "400 usage: SUBMIT <workload> <policy> [priority=N] [deadline=S] [iters=N]";
  }
  Request request;
  request.workload = tokens[1];
  request.policy = tokens[2];
  try {
    // Reject unknown names before they cost a seq or a journal record.
    (void)workloads::workload_factory(request.workload);
    (void)greengpu::policy_by_name(request.policy, {.hardened = config_.hardened});
    for (std::size_t i = 3; i < tokens.size(); ++i) {
      const std::string& t = tokens[i];
      if (has_key(t, "priority")) {
        request.priority = parse_u64(t, "priority");
      } else if (has_key(t, "deadline")) {
        request.deadline = Seconds{parse_f64(t, "deadline")};
      } else if (has_key(t, "iters")) {
        request.iterations = parse_u64(t, "iters");
      } else {
        return "400 unknown option " + t;
      }
    }
  } catch (const std::exception& e) {
    return "400 " + std::string(e.what());
  }

  ++stats_.submitted;
  request.seq = next_seq_++;
  // Fork the fault stream by seq the same way campaigns fork per-cell seeds,
  // so re-executing this request (resume, replay) reproduces it exactly.
  request.seed = greengpu::campaign_cell_seed(config_.seed, request.seq);
  request.vtime_admit = vtime_;

  auto decision = admission_.offer(request, inflight_cost(), draining_);
  ServiceRecord rec;
  if (!decision.admitted) {
    ++stats_.shed;
    states_[request.seq] = "shed:" + decision.reason;
    rec.kind = RecordKind::kShed;
    rec.shed = {request.seq, request.workload, request.policy,
                request.priority, decision.reason};
    journal_.shed(rec.shed);
    publish_record(rec);
    return "503 shed seq=" + std::to_string(request.seq) +
           " reason=" + decision.reason;
  }
  if (decision.evicted) {
    ++stats_.evicted;
    states_[decision.evicted->seq] = "evicted";
    rec.kind = RecordKind::kShed;
    rec.shed = {decision.evicted->seq, decision.evicted->workload,
                decision.evicted->policy, decision.evicted->priority,
                "evicted"};
    journal_.shed(rec.shed);
    publish_record(rec);
  }
  ++stats_.admitted;
  states_[request.seq] = "queued";
  journal_.admit(request);
  rec.kind = RecordKind::kAdmit;
  rec.admit = request;
  publish_record(rec);
  // Admission is journaled but the client reply is not yet sent: a daemon
  // killed here still owns the request after --resume.
  common::killpoint(common::KillPoint::kServicePostAdmit);
  return "202 accepted seq=" + std::to_string(request.seq);
}

std::uint64_t ServiceCore::watch(const std::string& line, std::string& reply) {
  const auto tokens = tokenize(line);
  std::uint64_t from = hub_.published() + 1;  // live tail by default
  bool resume_cursor = false;
  if (tokens.size() == 3 && tokens[1] == "FROM") {
    try {
      from = std::stoull(tokens[2]);
    } catch (const std::exception&) {
      reply = "400 bad cursor " + tokens[2];
      return 0;
    }
    if (from == 0) {
      reply = "400 bad cursor 0 (event seqs start at 1)";
      return 0;
    }
    resume_cursor = true;
  } else if (tokens.size() != 1) {
    reply = "400 usage: WATCH [FROM <seq>]";
    return 0;
  }
  if (from > hub_.published() + 1) {
    reply = "400 cursor " + std::to_string(from) + " beyond stream (last=" +
            std::to_string(hub_.published()) + ")";
    return 0;
  }
  std::vector<std::string> backlog;
  if (resume_cursor && from <= hub_.published()) {
    // Regenerate [from, now] from the journal.  The caller holds the core
    // lock, so the journal cannot grow between this read and subscribe() —
    // the backlog and the live ring splice gaplessly.
    const auto records =
        ServiceJournal::read(journal_.path(), config_.fingerprint());
    std::vector<std::string> events = telemetry_events(config_, records);
    if (events.size() != hub_.published()) {
      reply = "500 telemetry desync journal=" + std::to_string(events.size()) +
              " live=" + std::to_string(hub_.published());
      return 0;
    }
    backlog.assign(std::make_move_iterator(events.begin() + (from - 1)),
                   std::make_move_iterator(events.end()));
  }
  const std::uint64_t id = hub_.subscribe(from, std::move(backlog));
  if (id == 0) {
    reply = "503 watchers-full max=" +
            std::to_string(config_.telemetry.max_subscribers);
    return 0;
  }
  reply = "200 watching from=" + std::to_string(from) +
          " last=" + std::to_string(hub_.published());
  return id;
}

Seconds ServiceCore::inflight_cost() const {
  if (!inflight_) return Seconds{0.0};
  return admission_.estimate(inflight_->request.workload,
                             inflight_->request.policy);
}

std::optional<ServiceCore::Job> ServiceCore::take_next() {
  // Claiming is idempotent: an already-claimed job is handed out again, not
  // skipped.  The executor retries it after a supervised crash, and a
  // resumed daemon re-runs the claim it rebuilt from the journal's start
  // record instead of letting the re-queued backlog reorder history.
  if (inflight_) return inflight_;
  if (paused_) return std::nullopt;
  auto request = admission_.next();
  if (!request) return std::nullopt;
  Job job;
  job.request = std::move(*request);
  job.device = breaker_.acquire();
  job.vtime_before = vtime_;
  states_[job.request.seq] = "running";
  inflight_ = job;
  ServiceRecord rec;
  rec.kind = RecordKind::kStart;
  rec.start = {job.request.seq, job.device, job.vtime_before.get()};
  journal_.start(rec.start);
  publish_record(rec);
  return job;
}

OutcomeRecord ServiceCore::run_job(const ServiceConfig& config,
                                   const Request& request, std::size_t device,
                                   Seconds vtime_before) {
  greengpu::RunOptions options;
  options.verify = true;
  options.record.mode = greengpu::RecordMode::kCounters;
  options.max_iterations = request.iterations != 0
                               ? static_cast<std::size_t>(request.iterations)
                               : static_cast<std::size_t>(config.max_iterations);
  // Faults exist on the faulty devices only; a clean device runs the exact
  // fault-free simulation.  The per-request seed makes the faulty stream a
  // pure function of (service seed, seq) — independent of scheduling.
  const bool faulty =
      std::find(config.faulty_devices.begin(), config.faulty_devices.end(),
                device) != config.faulty_devices.end();
  if (faulty) {
    options.faults = config.faults;
    options.faults.seed = request.seed;
  }
  const greengpu::Policy policy =
      greengpu::policy_by_name(request.policy, {.hardened = config.hardened});

  OutcomeRecord out;
  out.seq = request.seq;
  out.device = device;
  try {
    const greengpu::ExperimentResult result =
        greengpu::run_experiment(request.workload, policy, options);
    out.status = OutcomeStatus::kOk;
    out.exec_time = result.exec_time.get();
    out.gpu_energy = result.gpu_energy.get();
    out.cpu_energy = result.cpu_energy.get();
    out.verified = result.verified;
    out.fault_events = result.fault_event_count;
    out.watchdog_trips = result.watchdog_trips;
    out.scaler_decisions = result.scaler_decision_count;
    out.division_moves = result.division_moves;
    out.vtime_after = vtime_before.get() + out.exec_time;
  } catch (const greengpu::ExperimentAborted&) {
    // DNF: the platform killed the run (un-hardened policy under faults).
    // Failed work burns no virtual service time — the simulated cluster
    // discards it — but it does count against the device's breaker.
    out.status = OutcomeStatus::kFailed;
    out.vtime_after = vtime_before.get();
  }
  if (request.deadline.get() > 0.0) {
    const double spent = out.vtime_after - request.vtime_admit.get();
    out.deadline = (out.status == OutcomeStatus::kOk &&
                    spent <= request.deadline.get())
                       ? DeadlineVerdict::kMet
                       : DeadlineVerdict::kViolated;
  }
  return out;
}

void ServiceCore::complete(const Job& job, const OutcomeRecord& outcome) {
  // Executed but not yet journaled: a daemon killed here re-executes the
  // request after --resume and, the run being deterministic, journals the
  // identical outcome.
  common::killpoint(common::KillPoint::kServicePreResult);
  journal_.outcome(outcome);
  ServiceRecord rec;
  rec.kind = RecordKind::kOutcome;
  rec.outcome = outcome;
  publish_record(rec);
  vtime_ = Seconds{outcome.vtime_after};
  if (outcome.status == OutcomeStatus::kOk) {
    admission_.observe_cost(job.request.workload, job.request.policy,
                            Seconds{outcome.exec_time});
    ++stats_.completed;
    states_[outcome.seq] = "ok";
  } else {
    ++stats_.failed;
    states_[outcome.seq] = "failed";
  }
  breaker_.on_result(job.device, outcome.status == OutcomeStatus::kOk);
  inflight_.reset();
}

bool ServiceCore::step() {
  // A crash in run_job()/complete() unwinds with inflight_ still set, so the
  // next step() re-executes the same job — the in-process restart model the
  // kill-point tests drive.
  std::optional<Job> job = inflight_;
  if (!job) job = take_next();
  if (!job) return false;
  const OutcomeRecord outcome =
      run_job(config_, job->request, job->device, job->vtime_before);
  complete(*job, outcome);
  return true;
}

bool ServiceCore::drained() const {
  return draining_ && admission_.depth() == 0 && !inflight_;
}

void ServiceCore::write_report(const std::string& report_path) const {
  const auto records = ServiceJournal::read(journal_.path(), config_.fingerprint());
  // GG_LINT_ALLOW(checkpoint-write): the report is derived data, regenerated
  // from the journal on demand; losing a torn report costs nothing.
  std::ofstream out(report_path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write report: " + report_path);
  for (const auto& record : records) out << render(record) << '\n';
}

bool ServiceCore::replay_window(const ServiceConfig& config,
                                const std::string& journal_path, std::size_t lo,
                                std::size_t hi, std::string& out,
                                std::string& error) {
  out.clear();
  error.clear();
  std::vector<ServiceRecord> records;
  try {
    records = ServiceJournal::read(journal_path, config.fingerprint());
  } catch (const common::SnapshotError& e) {
    error = e.what();
    return false;
  }
  if (records.empty()) {
    error = "journal has no records";
    return false;
  }
  if (lo > hi || hi >= records.size()) {
    error = "window " + std::to_string(lo) + ":" + std::to_string(hi) +
            " out of range (journal has " + std::to_string(records.size()) +
            " records)";
    return false;
  }
  // Admits are indexed by seq so an outcome inside the window can recover
  // its request even when the admit precedes the window.
  std::map<std::uint64_t, Request> admits;
  for (const auto& record : records) {
    if (record.kind == RecordKind::kAdmit) admits[record.admit.seq] = record.admit;
  }
  for (std::size_t k = lo; k <= hi; ++k) {
    const ServiceRecord& record = records[k];
    if (record.kind == RecordKind::kOutcome) {
      const OutcomeRecord& journaled = record.outcome;
      const auto it = admits.find(journaled.seq);
      if (it == admits.end()) {
        error = "record " + std::to_string(k) + ": outcome seq=" +
                std::to_string(journaled.seq) + " has no admit record";
        return false;
      }
      // vtime_before is recoverable from the journaled outcome itself: an ok
      // outcome advanced vtime by exec_time, a failed one did not.
      const double vtime_before =
          journaled.status == OutcomeStatus::kOk
              ? journaled.vtime_after - journaled.exec_time
              : journaled.vtime_after;
      const OutcomeRecord replayed =
          run_job(config, it->second, journaled.device,
                  Seconds{vtime_before});
      const char* field = nullptr;
      if (replayed.status != journaled.status) field = "status";
      else if (replayed.exec_time != journaled.exec_time) field = "exec_time";
      else if (replayed.gpu_energy != journaled.gpu_energy) field = "gpu_energy";
      else if (replayed.cpu_energy != journaled.cpu_energy) field = "cpu_energy";
      else if (replayed.verified != journaled.verified) field = "verified";
      else if (replayed.fault_events != journaled.fault_events) field = "fault_events";
      else if (replayed.watchdog_trips != journaled.watchdog_trips) field = "watchdog_trips";
      else if (replayed.scaler_decisions != journaled.scaler_decisions) field = "scaler_decisions";
      else if (replayed.division_moves != journaled.division_moves) field = "division_moves";
      else if (replayed.deadline != journaled.deadline) field = "deadline";
      else if (replayed.vtime_after != journaled.vtime_after) field = "vtime_after";
      if (field != nullptr) {
        error = "record " + std::to_string(k) + ": replay diverged from the "
                "journal at field '" + std::string(field) + "' (seq=" +
                std::to_string(journaled.seq) + ")";
        return false;
      }
    }
    out += render(record);
    out += '\n';
  }
  return true;
}

bool ServiceCore::events_window(const ServiceConfig& config,
                                const std::string& journal_path,
                                std::uint64_t from_seq, std::string& out,
                                std::string& error) {
  out.clear();
  error.clear();
  std::vector<ServiceRecord> records;
  try {
    records = ServiceJournal::read(journal_path, config.fingerprint());
  } catch (const common::SnapshotError& e) {
    error = e.what();
    return false;
  }
  const std::vector<std::string> events = telemetry_events(config, records);
  if (from_seq == 0) from_seq = 1;
  if (from_seq > events.size() + 1) {
    error = "cursor " + std::to_string(from_seq) + " beyond stream (last=" +
            std::to_string(events.size()) + ")";
    return false;
  }
  for (std::uint64_t seq = from_seq; seq <= events.size(); ++seq) {
    out += "EVENT " + std::to_string(seq) + " " + events[seq - 1] + "\n";
  }
  return true;
}

}  // namespace gg::service
