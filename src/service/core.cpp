#include "src/service/core.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/killpoint.h"
#include "src/common/parse.h"
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

/// Parse "key=value" with a digits-only u64 value; throws invalid_argument
/// "bad <key>" on anything else.
std::uint64_t parse_u64(const std::string& token, const std::string& key) {
  const auto parsed = common::parse_u64(std::string_view(token).substr(key.size() + 1));
  if (!parsed) throw std::invalid_argument("bad " + key);
  return *parsed;
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

std::string breaker_event(std::size_t device, const char* transition,
                          CircuitBreaker::State state,
                          std::uint64_t completions) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "breaker device=%llu transition=%s state=%s completions=%llu",
                static_cast<unsigned long long>(device), transition,
                CircuitBreaker::to_string(state).c_str(),
                static_cast<unsigned long long>(completions));
  return std::string(buf);
}

const char* transition_word(CircuitBreaker::Event event) {
  switch (event) {
    case CircuitBreaker::Event::kOpened: return "opened";
    case CircuitBreaker::Event::kClosed: return "closed";
    case CircuitBreaker::Event::kReopened: return "reopened";
    case CircuitBreaker::Event::kNone: break;
  }
  return "none";
}

}  // namespace

ServiceCore::State::State(const ServiceConfig& config, std::string source)
    : source_(std::move(source)),
      admission_(config.queue_capacity, config.default_cost_estimate),
      breaker_(config.devices, config.breaker) {}

void ServiceCore::State::refuse(std::uint64_t seq, const std::string& why) const {
  throw common::SnapshotError(source_ + ": record " + std::to_string(records_ - 1) +
                              " (seq=" + std::to_string(seq) + ") " + why);
}

void ServiceCore::State::apply(const ServiceRecord& record,
                               std::vector<std::string>& events) {
  ++records_;
  // GG_BOUNDED(at most two payloads per record; callers drain events)
  events.push_back(render(record));
  switch (record.kind) {
    case RecordKind::kAdmit: {
      const Request& r = record.admit;
      ++stats_.submitted;
      ++stats_.admitted;
      next_seq_ = std::max(next_seq_, r.seq + 1);
      states_[r.seq] = "queued";
      admission_.requeue(r);
      break;
    }
    case RecordKind::kShed: {
      const ShedRecord& s = record.shed;
      if (s.reason == "evicted") {
        const auto evicted = admission_.evict();
        if (!evicted || evicted->seq != s.seq) {
          refuse(s.seq, "evicts a request that is not the lowest-ranked queued one");
        }
        ++stats_.evicted;
        states_[s.seq] = "evicted";
      } else {
        ++stats_.submitted;
        ++stats_.shed;
        next_seq_ = std::max(next_seq_, s.seq + 1);
        states_[s.seq] = "shed:" + s.reason;
      }
      break;
    }
    case RecordKind::kStart: {
      const StartRecord& s = record.start;
      // The live claim journals breaker_.choose(); any other device means the
      // journal and this rebuild disagree about the breaker.
      const std::size_t device = breaker_.choose();
      if (device != s.device) {
        refuse(s.seq, "ran on device " + std::to_string(s.device) +
                          " but the rebuilt breaker picks device " +
                          std::to_string(device));
      }
      auto request = admission_.claim();
      if (!request || request->seq != s.seq) {
        refuse(s.seq, "claims a request that is not next in the queue");
      }
      breaker_.claim(device);
      if (breaker_.state(device) == CircuitBreaker::State::kHalfOpen) {
        // GG_BOUNDED(at most two payloads per journal record)
        events.push_back(breaker_event(device, "probing",
                                       CircuitBreaker::State::kHalfOpen,
                                       breaker_.completions()));
      }
      states_[s.seq] = "running";
      inflight_ = Job{std::move(*request), device, Seconds{s.vtime}};
      break;
    }
    case RecordKind::kOutcome: {
      const OutcomeRecord& o = record.outcome;
      if (!inflight_ || inflight_->request.seq != o.seq ||
          inflight_->device != o.device) {
        refuse(o.seq, "lands an outcome for a request that is not in flight");
      }
      const bool ok = o.status == OutcomeStatus::kOk;
      vtime_ = Seconds{o.vtime_after};
      if (ok) {
        admission_.observe_cost(inflight_->request.workload,
                                inflight_->request.policy, Seconds{o.exec_time});
        ++stats_.completed;
      } else {
        ++stats_.failed;
      }
      states_[o.seq] = ok ? "ok" : "failed";
      const auto device = static_cast<std::size_t>(o.device);
      const CircuitBreaker::Event event = breaker_.on_result(device, ok);
      if (event != CircuitBreaker::Event::kNone) {
        // GG_BOUNDED(at most two payloads per journal record)
        events.push_back(breaker_event(device, transition_word(event),
                                       breaker_.state(device),
                                       breaker_.completions()));
      }
      inflight_.reset();
      break;
    }
  }
}

std::vector<std::string> ServiceCore::State::events(
    const ServiceConfig& config, const std::string& journal_path) {
  const auto records = ServiceJournal::read(journal_path, config.fingerprint());
  State state(config, journal_path);
  std::vector<std::string> out;
  // GG_BOUNDED(at most two payloads per record of one already-read journal)
  out.reserve(records.size());
  for (const auto& record : records) state.apply(record, out);
  return out;
}

ServiceCore::ServiceCore(ServiceConfig config, std::string journal_path,
                         bool resume)
    : config_(std::move(config)),
      journal_(std::move(journal_path), config_.fingerprint(), /*fresh=*/!resume),
      state_(config_, journal_.path()),
      hub_(config_.telemetry) {
  config_.validate();
  if (!resume) return;
  // Folding the journal lands every piece of state, and the stream position,
  // exactly where the dying daemon left them: a WATCH FROM issued after
  // resume continues the old stream byte-identically.
  std::uint64_t seeded = 0;
  for (const auto& record : ServiceJournal::read(journal_.path(), config_.fingerprint())) {
    scratch_events_.clear();
    state_.apply(record, scratch_events_);
    seeded += scratch_events_.size();
  }
  hub_.seed(seeded);
}

void ServiceCore::commit(const ServiceRecord& record) {
  scratch_events_.clear();
  state_.apply(record, scratch_events_);
  for (const std::string& payload : scratch_events_) hub_.publish(payload);
}

std::string ServiceCore::handle_line(const std::string& line) {
  const auto tokens = tokenize(line);
  if (tokens.empty()) return "400 empty request";
  const std::string& verb = tokens[0];
  if (verb == "PING") return "200 pong";
  if (verb == "SUBMIT") return handle_submit(tokens);
  if (verb == "STATUS") {
    if (tokens.size() != 2) return "400 usage: STATUS <seq>";
    const std::optional<std::uint64_t> seq = common::parse_u64(tokens[1]);
    if (!seq) return "400 bad seq";
    const auto it = state_.states().find(*seq);
    if (it == state_.states().end()) return "404 unknown-seq " + tokens[1];
    return "200 status seq=" + tokens[1] + " state=" + it->second;
  }
  if (verb == "STATS") {
    const ServiceStats& stats = state_.stats();
    std::ostringstream out;
    out << "200 stats submitted=" << stats.submitted
        << " admitted=" << stats.admitted << " shed=" << stats.shed
        << " evicted=" << stats.evicted << " completed=" << stats.completed
        << " failed=" << stats.failed
        << " queued=" << queue_depth()
        << " inflight=" << (state_.inflight() ? 1 : 0) << " vtime=" << vtime().get()
        << " paused=" << (paused_ ? 1 : 0)
        << " draining=" << (draining_ ? 1 : 0)
        << " journal_records=" << journal_records()
        << " telemetry_seq=" << hub_.published()
        << " subscribers=" << hub_.subscriber_count()
        << " telemetry_dropped=" << hub_.dropped_total()
        << " telemetry_evicted=" << hub_.evicted_total();
    return out.str();
  }
  if (verb == "HEALTH") {
    std::string out = "200 health";
    for (std::size_t d = 0; d < breaker().device_count(); ++d) {
      out += " device" + std::to_string(d) + "=" +
             CircuitBreaker::to_string(breaker().state(d));
    }
    // Progress sequence numbers: smoke tests poll these instead of sleeping.
    out += " journal_records=" + std::to_string(journal_records()) +
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

  request.seq = state_.next_seq();
  // Fork the fault stream by seq the same way campaigns fork per-cell seeds,
  // so re-executing this request (resume, replay) reproduces it exactly.
  request.seed = greengpu::campaign_cell_seed(config_.seed, request.seq);
  request.vtime_admit = vtime();

  const auto decision =
      state_.admission().offer(request, inflight_cost(), draining_);
  ServiceRecord rec;
  rec.kind = RecordKind::kShed;
  if (!decision.admitted) {
    rec.shed = {request.seq, request.workload, request.policy,
                request.priority, decision.reason};
    journal_.shed(rec.shed);
    commit(rec);
    return "503 shed seq=" + std::to_string(request.seq) +
           " reason=" + decision.reason;
  }
  if (decision.evicted) {
    const Request& evicted = *decision.evicted;
    rec.shed = {evicted.seq, evicted.workload, evicted.policy,
                evicted.priority, "evicted"};
    journal_.shed(rec.shed);
    commit(rec);
  }
  journal_.admit(request);
  rec.kind = RecordKind::kAdmit;
  rec.admit = std::move(request);
  commit(rec);
  // Admission is journaled but the client reply is not yet sent: a daemon
  // killed here still owns the request after --resume.
  common::killpoint(common::KillPoint::kServicePostAdmit);
  return "202 accepted seq=" + std::to_string(rec.admit.seq);
}

std::uint64_t ServiceCore::watch(const std::string& line, std::string& reply) {
  const auto tokens = tokenize(line);
  std::uint64_t from = hub_.published() + 1;  // live tail by default
  bool resume_cursor = false;
  if (tokens.size() == 3 && tokens[1] == "FROM") {
    const std::optional<std::uint64_t> cursor = common::parse_u64(tokens[2]);
    if (!cursor) {
      reply = "400 bad cursor " + tokens[2];
      return 0;
    }
    from = *cursor;
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
    std::vector<std::string> events = State::events(config_, journal_.path());
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
  const std::optional<Job>& job = state_.inflight();
  if (!job) return Seconds{0.0};
  return state_.admission().estimate(job->request.workload, job->request.policy);
}

std::optional<ServiceCore::Job> ServiceCore::take_next() {
  // Claiming is idempotent: an already-claimed job is handed out again, not
  // skipped.  A resumed daemon re-runs the claim it rebuilt from the
  // journal's start record instead of letting the re-queued backlog reorder
  // history.
  if (state_.inflight()) return state_.inflight();
  if (paused_) return std::nullopt;
  const Request* next = state_.admission().next();
  if (next == nullptr) return std::nullopt;
  ServiceRecord rec;
  rec.kind = RecordKind::kStart;
  rec.start = {next->seq, state_.breaker().choose(), vtime().get()};
  journal_.start(rec.start);
  commit(rec);
  return state_.inflight();
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

void ServiceCore::complete(const Job& /*job*/, const OutcomeRecord& outcome) {
  // Executed but not yet journaled: a daemon killed here re-executes the
  // request after --resume and, the run being deterministic, journals the
  // identical outcome.
  common::killpoint(common::KillPoint::kServicePreResult);
  journal_.outcome(outcome);
  ServiceRecord rec;
  rec.kind = RecordKind::kOutcome;
  rec.outcome = outcome;
  commit(rec);
}

bool ServiceCore::step() {
  // A crash in run_job()/complete() unwinds with the job still in flight;
  // take_next() hands the same job out again.
  const std::optional<Job> job = take_next();
  if (!job) return false;
  const OutcomeRecord outcome =
      run_job(config_, job->request, job->device, job->vtime_before);
  complete(*job, outcome);
  return true;
}

bool ServiceCore::drained() const {
  return draining_ && queue_depth() == 0 && !state_.inflight();
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
  std::vector<std::string> events;
  try {
    events = State::events(config, journal_path);
  } catch (const common::SnapshotError& e) {
    error = e.what();
    return false;
  }
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
