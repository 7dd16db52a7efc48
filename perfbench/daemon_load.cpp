// The service layer over its socket, measured in traced runs: a real
// greengpud on a Unix socket, driven by one load-generator process with
// three threads — the sender (the calling thread), a reply reader, and one
// WATCH subscriber.  Each phase runs in a session: a freshly started daemon
// with one request connection and one subscriber.
//   nominal   open loop at fixed rates: SUBMITs drawn from the workload
//             names x the four paper policies x priorities 0-3 (capped at
//             kItersCap iterations), with STATUS and STATS reads beside
//             them; an untimed warm-up round, then kNominalRounds timed
//             balanced rounds.  Every request is timed from its scheduled
//             send time.  The executor is paused, as in bench_service: with
//             it running, its per-job thread pools took the CPU from the
//             socket thread and the SUBMIT tail moved by a fifth between
//             runs.  The queued requests are executed (untimed) before the
//             session ends.
//   matrix    PAUSE, queue the paper's matrix (the workload names x the four
//             policies, uncapped) twice, RESUME and time the executor until
//             it has completed everything: the daemon's cell throughput.
//             Then SUBMIT-only steps at rising rates search for the highest
//             rate whose SUBMIT p99 stays under kLatencyLimitMs with no
//             growing queue.
// Every session drains, checks STATS (admitted == completed + failed +
// evicted) and the stream (delivered + DROPPED == published), stops its
// daemon with SIGTERM and reads the report it regenerates from its journal.
//
// This is not a workload of its own in BENCHMARK.json.  Every SUBMIT wakes
// an idle daemon to construct a workload for 0.1-4 ms, and on a shared
// host the middle half of ten runs of the same code spread by up to 36%
// (p50) and 52% (p95) of the median: past the largest bound a gate may use.
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "harness.h"
#include "trace.h"

extern char** environ;

namespace perfbench {
namespace {

// Nominal load.  The SUBMIT rate is 40% of the lowest steady capacity the
// search phase measured (service.submit_max_rps: 250-400/s on a 4-vCPU VM,
// bounded by the executor, not by admission): a rate the daemon sustains
// with its executor running, with room for a host 2.5x slower.  The read
// mix — one STATUS per five SUBMITs, one STATS per twenty — is a choice,
// not a measurement: there is no trace of client traffic to take it from.
constexpr double kMeasuredMaxSubmitRate = 250.0;
constexpr double kSubmitRate = 0.4 * kMeasuredMaxSubmitRate;  // 100 SUBMIT/s
constexpr double kStatusRate = kSubmitRate / 5.0;
constexpr double kStatsRate = kSubmitRate / 20.0;
constexpr int kItersCap = 2;  // iters= on every capped SUBMIT
constexpr double kLatencyLimitMs = 20.0;
constexpr int kQueueCap = 4096;
constexpr int kSaturateRounds = 2;
// The nominal session, in balanced rounds of every (name, policy) pair:
// at least 216 timed SUBMITs, ten beyond the p95.
constexpr int kWarmupRounds = 1;
constexpr int kNominalRounds = 6;
// Op phases.
constexpr int kNominalPhase = 1;
constexpr int kSaturatePhase = 2;
constexpr int kWarmupPhase = 3;
constexpr int kFirstSearchPhase = 100;
const char* const kPolicies[] = {"best-performance", "frequency-scaling", "division",
                                 "greengpu"};

double ms_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) / 1e6;
}

/// Value of `key=` in a protocol line, or "" when absent.
std::string field(const std::string& line, const std::string& key) {
  const std::string pat = " " + key + "=";
  const std::size_t at = line.find(pat);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + pat.size();
  return line.substr(begin, line.find(' ', begin) - begin);
}

std::uint64_t field_u64(const std::string& line, const std::string& key) {
  const std::string v = field(line, key);
  return v.empty() ? 0 : std::stoull(v);
}

// -- Process and socket plumbing ---------------------------------------------

pid_t spawn(const std::vector<std::string>& argv) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  // The harness's stdout carries its result; the daemon's goes to stderr.
  posix_spawn_file_actions_adddup2(&actions, 2, 1);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) throw std::runtime_error("cannot start " + argv[0] + ": " + std::strerror(rc));
  return pid;
}

/// SIGTERM `pid` and reap it.
void terminate_and_reap(pid_t pid) {
  ::kill(pid, SIGTERM);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void write_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("socket write failed");
    off += static_cast<std::size_t>(n);
  }
}

/// Newline-framed reader; next() returns nullopt on EOF, or on timeout.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}
  std::optional<std::string> next(int timeout_ms = -1) {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      pollfd p{fd_, POLLIN, 0};
      const int ready = ::poll(&p, 1, timeout_ms);
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) return std::nullopt;
      char chunk[65536];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return std::nullopt;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

/// A started greengpud; stopped and reaped at the latest when this goes
/// out of scope, so no exit path leaves a daemon running.
class DaemonProcess {
 public:
  explicit DaemonProcess(pid_t pid) : pid_(pid) {}
  ~DaemonProcess() {
    if (pid_ > 0) stop();
  }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;
  void stop() {
    terminate_and_reap(pid_);
    pid_ = 0;
  }

 private:
  pid_t pid_;
};

/// Start the daemon and wait for its first answered PING.
void start_and_ping(const DaemonPlan& plan, const std::string& tag,
                      std::unique_ptr<DaemonProcess>& daemon, std::string& socket_path) {
  socket_path = plan.work_dir + "/" + tag + ".sock";
  const std::string journal = plan.work_dir + "/" + tag + ".journal";
  std::filesystem::remove(socket_path);
  const std::int64_t t0 = now_ns();
  daemon = std::make_unique<DaemonProcess>(spawn({plan.daemon_binary, "--socket", socket_path, "--journal", journal,
               "--report", plan.work_dir + "/" + tag + ".report", "--seed",
               std::to_string(plan.seed), "--queue-cap", std::to_string(kQueueCap),
               "--telemetry-ring", "8192"}));
  while (ms_between(t0, now_ns()) < 10000.0) {
    const int fd = connect_unix(socket_path);
    if (fd >= 0) {
      write_all(fd, "PING\n");
      LineReader reader(fd);
      const auto reply = reader.next(2000);
      ::close(fd);
      if (reply && *reply == "200 pong") return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  daemon.reset();
  throw std::runtime_error("greengpud did not answer PING");
}

// -- The request connection --------------------------------------------------

enum class Kind { kSubmit, kQuery, kControl };

struct Op {
  Kind kind{Kind::kControl};
  int phase{0};
  std::int64_t sched_ns{0};
  std::int64_t sent_ns{0};
  std::int64_t reply_ns{0};
  std::string reply;
  bool done{false};
};

/// One pipelined request connection: send() from the calling thread, a
/// reader thread matches replies to requests in order.
class Connection {
 public:
  explicit Connection(const std::string& path) : fd_(connect_unix(path)), reader_(fd_) {
    if (fd_ < 0) throw std::runtime_error("cannot connect to " + path);
    thread_ = std::thread([this] { read_loop(); });
  }
  ~Connection() {
    ::shutdown(fd_, SHUT_RDWR);
    thread_.join();
    ::close(fd_);
  }

  /// Send `line` (scheduled for `sched_ns`); returns the op's index.
  std::size_t send(const std::string& line, Kind kind, int phase, std::int64_t sched_ns) {
    std::size_t index;
    {
      std::lock_guard<std::mutex> lock(mu_);
      index = ops_.size();
      Op op;
      op.kind = kind;
      op.phase = phase;
      op.sched_ns = sched_ns;
      op.sent_ns = now_ns();
      ops_.push_back(std::move(op));
    }
    write_all(fd_, line + "\n");
    return index;
  }

  /// Send and wait for the reply.
  std::string call(const std::string& line) {
    const std::size_t i = send(line, Kind::kControl, 0, now_ns());
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return ops_[i].done || closed_; });
    if (!ops_[i].done) throw std::runtime_error("daemon closed the connection");
    return ops_[i].reply;
  }

  void wait_all() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return answered_ == ops_.size() || closed_; });
  }

  [[nodiscard]] std::deque<Op> ops() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ops_;
  }
  /// Newest admitted seq (0 before the first).
  [[nodiscard]] std::uint64_t last_seq() const { return last_seq_.load(); }

 private:
  void read_loop() {
    while (const auto line = reader_.next()) {
      const std::int64_t t = now_ns();
      std::lock_guard<std::mutex> lock(mu_);
      if (answered_ >= ops_.size()) break;
      Op& op = ops_[answered_++];
      op.reply_ns = t;
      op.reply = *line;
      op.done = true;
      if (op.kind == Kind::kSubmit && line->rfind("202 ", 0) == 0) {
        last_seq_.store(field_u64(*line, "seq"));
      }
      cv_.notify_all();
    }
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }

  int fd_;
  LineReader reader_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Op> ops_;
  std::size_t answered_{0};
  bool closed_{false};
  std::atomic<std::uint64_t> last_seq_{0};
  std::thread thread_;
};

// -- The WATCH subscriber ----------------------------------------------------

class Watcher {
 public:
  explicit Watcher(const std::string& path) : fd_(connect_unix(path)) {
    if (fd_ < 0) throw std::runtime_error("cannot connect to " + path);
    write_all(fd_, "WATCH\n");
    thread_ = std::thread([this] { read_loop(); });
  }
  ~Watcher() {
    ::shutdown(fd_, SHUT_RDWR);
    thread_.join();
    ::close(fd_);
  }

  [[nodiscard]] std::uint64_t accounted() const { return delivered_ + dropped_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] bool handshake_ok() const { return handshake_ok_; }
  /// Arrival time of each request's admit EVENT, by request seq.
  [[nodiscard]] std::map<std::uint64_t, std::int64_t> admit_arrivals() const {
    std::lock_guard<std::mutex> lock(mu_);
    return admit_ns_;
  }

 private:
  void read_loop() {
    LineReader reader(fd_);
    bool first = true;
    while (const auto frame = reader.next()) {
      const std::int64_t t = now_ns();
      if (first) {
        first = false;
        handshake_ok_ = frame->rfind("200 watching", 0) == 0;
        continue;
      }
      if (frame->rfind("EVENT ", 0) == 0) {
        const std::size_t payload = frame->find(' ', 6);
        if (payload != std::string::npos &&
            frame->compare(payload + 1, 10, "admit seq=") == 0) {
          const std::uint64_t seq = std::stoull(frame->substr(payload + 11));
          std::lock_guard<std::mutex> lock(mu_);
          admit_ns_[seq] = t;
        }
        ++delivered_;
      } else if (frame->rfind("DROPPED ", 0) == 0) {
        dropped_ += std::stoull(frame->substr(8));
      }
    }
  }

  int fd_;
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<bool> handshake_ok_{false};
  mutable std::mutex mu_;
  std::map<std::uint64_t, std::int64_t> admit_ns_;
  std::thread thread_;
};

// -- Phases --------------------------------------------------------------------

/// Request mix in balanced rounds: each round is every (name, policy) pair
/// once, in a seeded order, with seeded priorities — so every seed sends the
/// same composition and only the order and priorities differ.
class Mix {
 public:
  Mix(std::uint64_t seed, const std::vector<std::string>& names) : rng_(seed), names_(names) {}
  std::string submit(bool capped = true) {
    if (round_.empty()) {
      for (const std::string& n : names_) {
        for (const char* p : kPolicies) round_.push_back(n + " " + p);
      }
      std::shuffle(round_.begin(), round_.end(), rng_);
    }
    std::string line = "SUBMIT " + round_.back() + " priority=" + std::to_string(rng_() % 4);
    round_.pop_back();
    if (capped) line += " iters=" + std::to_string(kItersCap);
    return line;
  }

 private:
  std::mt19937_64 rng_;
  const std::vector<std::string>& names_;
  std::vector<std::string> round_;
};

/// Sleep until shortly before `t`, then spin: a sender that oversleeps
/// charges its own wake-up delay to the request it sends.
void sleep_until_ns(std::int64_t t) {
  constexpr std::int64_t kSpinNs = 300'000;
  const std::int64_t d = t - now_ns() - kSpinNs;
  if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
  while (now_ns() < t) {
  }
}

/// STATS reply as key -> value.
std::map<std::string, double> stats(Connection& conn) {
  std::map<std::string, double> out;
  std::istringstream in(conn.call("STATS"));
  std::string tok;
  while (in >> tok) {
    const std::size_t eq = tok.find('=');
    if (eq != std::string::npos) out[tok.substr(0, eq)] = std::stod(tok.substr(eq + 1));
  }
  return out;
}

/// Poll STATS until nothing is queued or in flight.
std::map<std::string, double> wait_idle(Connection& conn) {
  const std::int64_t t0 = now_ns();
  for (;;) {
    auto s = stats(conn);
    if (s["queued"] == 0 && s["inflight"] == 0) return s;
    if (ms_between(t0, now_ns()) > 60000.0) throw std::runtime_error("greengpud did not drain");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// Open-loop schedule of `submits` SUBMITs at `submit_rate` (with the
/// nominal reads beside them when `queries`), tagged `phase`.
void run_open_loop(Connection& conn, Mix& mix, int submits, double submit_rate, bool queries,
                   int phase) {
  struct Planned {
    double at;
    Kind kind;
    int which;  // 0 submit, 1 status, 2 stats
  };
  const double seconds = submits / submit_rate;
  std::vector<Planned> plan;
  for (int k = 0; k < submits; ++k) {
    plan.push_back({k / submit_rate, Kind::kSubmit, 0});
  }
  if (queries) {
    for (int k = 0; k < static_cast<int>(seconds * kStatusRate); ++k) {
      plan.push_back({(k + 0.5) / kStatusRate, Kind::kQuery, 1});
    }
    for (int k = 0; k < static_cast<int>(seconds * kStatsRate); ++k) {
      plan.push_back({(k + 0.25) / kStatsRate, Kind::kQuery, 2});
    }
  }
  std::stable_sort(plan.begin(), plan.end(),
                   [](const Planned& a, const Planned& b) { return a.at < b.at; });
  const std::int64_t t0 = now_ns() + 2'000'000;
  for (const Planned& p : plan) {
    const std::int64_t sched = t0 + static_cast<std::int64_t>(p.at * 1e9);
    std::string line;
    if (p.which == 0) {
      line = mix.submit();
    } else if (p.which == 1 && conn.last_seq() != 0) {
      line = "STATUS " + std::to_string(conn.last_seq());
    } else {
      line = "STATS";
    }
    sleep_until_ns(sched);
    conn.send(line, p.kind, phase, sched);
  }
  conn.wait_all();
}

struct PhaseSamples {
  std::vector<double> submit_ms, query_ms, late_ms;
  std::vector<std::uint64_t> seqs;
  std::map<std::uint64_t, std::int64_t> reply_ns;
  std::uint64_t bad{0};
};

PhaseSamples samples(const std::deque<Op>& ops, int phase) {
  PhaseSamples s;
  for (const Op& op : ops) {
    if (op.phase != phase) continue;
    s.late_ms.push_back(ms_between(op.sched_ns, op.sent_ns));
    const double lat = ms_between(op.sched_ns, op.reply_ns);
    if (op.kind == Kind::kSubmit) {
      if (op.reply.rfind("202 ", 0) == 0) {
        const std::uint64_t seq = field_u64(op.reply, "seq");
        s.seqs.push_back(seq);
        s.reply_ns[seq] = op.reply_ns;
        s.submit_ms.push_back(lat);
      } else {
        ++s.bad;  // shed or refused: a failure, and a miss of the limit
        s.submit_ms.push_back(1e9);
      }
    } else if (op.kind == Kind::kQuery) {
      if (op.reply.rfind("200 ", 0) != 0) ++s.bad;
      s.query_ms.push_back(lat);
    }
  }
  return s;
}

/// SUBMIT-only steps at rising rates; returns the highest passing rate.
double search_max_rate(Connection& conn, Mix& mix) {
  static const double kRates[] = {150, 250, 400, 600, 900, 1300};
  double best = 0.0;
  int phase = kFirstSearchPhase;
  for (const double rate : kRates) {
    wait_idle(conn);
    run_open_loop(conn, mix, static_cast<int>(rate), rate, false, phase);
    const auto s = samples(conn.ops(), phase);
    const double queued = stats(conn)["queued"];
    const bool ok = s.bad == 0 && quantile(s.submit_ms, 0.99) <= kLatencyLimitMs &&
                    queued <= rate * 0.1;
    std::fprintf(stderr, "  search %5.0f SUBMIT/s: p99 %.2f ms, queued %.0f -> %s\n", rate,
                 quantile(s.submit_ms, 0.99), queued, ok ? "ok" : "over");
    if (!ok) break;
    best = rate;
    ++phase;
  }
  return best;
}

struct ReportRow {
  std::string workload, policy, iters;
  std::string outcome;  // the simulated fields of the outcome line
};

/// What one daemon instance gave: its timed requests, its output checks and
/// the simulated fields of the outcomes it must have produced.
struct Session {
  PhaseSamples timed;                  // the nominal requests, if any
  std::vector<std::uint64_t> counted;  // further seqs that must have an outcome
  std::vector<double> watch_lag_ms;
  std::map<std::string, double> final_stats;
  std::uint64_t watch_delivered{0}, watch_dropped{0};
  bool stream_ok{false}, stats_ok{false};
  std::vector<std::string> sim_rows;
  std::uint64_t attempted{0}, failed{0};
};

/// Start a daemon tagged `tag`, run `body(conn, socket_path, session)` on a
/// request connection with a WATCH subscriber beside it, drain, check the
/// accounting, stop the daemon and read the report it regenerates from its
/// journal.
template <typename Body>
Session run_session(const DaemonPlan& plan, const std::string& tag, Body body) {
  std::unique_ptr<DaemonProcess> daemon;
  std::string sock;
  start_and_ping(plan, tag, daemon, sock);
  Session s;
  {
    Watcher watcher(sock);
    Connection conn(sock);
    body(conn, sock, s);

    s.final_stats = wait_idle(conn);
    const auto published = static_cast<std::uint64_t>(s.final_stats["telemetry_seq"]);
    const std::int64_t t_wait = now_ns();
    while (watcher.accounted() < published && ms_between(t_wait, now_ns()) < 5000.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    s.watch_delivered = watcher.delivered();
    s.watch_dropped = watcher.dropped();
    s.stream_ok = watcher.handshake_ok() && s.watch_delivered + s.watch_dropped == published;

    const auto arrivals = watcher.admit_arrivals();
    for (const auto& [seq, reply] : s.timed.reply_ns) {
      const auto it = arrivals.find(seq);
      if (it != arrivals.end()) {
        s.watch_lag_ms.push_back(ms_between(reply, it->second));
      } else if (s.watch_dropped == 0) {
        ++s.failed;  // an admitted request whose admit EVENT never arrived
      }
    }
    for (const Op& op : conn.ops()) {
      if (op.kind == Kind::kControl) continue;
      ++s.attempted;
      const bool ok = op.reply.rfind(op.kind == Kind::kSubmit ? "202 " : "200 ", 0) == 0;
      if (!ok) ++s.failed;
    }
  }
  std::map<std::string, double>& st = s.final_stats;
  s.stats_ok = st["admitted"] == st["completed"] + st["failed"] + st["evicted"];
  s.attempted += 2;  // the two accounting checks
  if (!s.stream_ok) ++s.failed;
  if (!s.stats_ok) ++s.failed;
  daemon->stop();

  // The daemon's report, regenerated from its journal at shutdown.
  std::map<std::uint64_t, ReportRow> rows;
  {
    std::ifstream in(plan.work_dir + "/" + tag + ".report");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("admit ", 0) == 0) {
        ReportRow& r = rows[field_u64(" " + line, "seq")];
        r.workload = field(line, "workload");
        r.policy = field(line, "policy");
        r.iters = field(line, "iters");
      } else if (line.rfind("outcome ", 0) == 0) {
        // Keep the simulated fields; device, seq and vtime follow timing.
        std::string sim;
        for (const char* k : {"status", "exec", "gpu_j", "cpu_j", "verified", "faults",
                              "watchdog", "scaler", "moves"}) {
          sim += std::string(k) + "=" + field(line, k) + " ";
        }
        rows[field_u64(" " + line, "seq")].outcome = sim;
      }
    }
  }
  std::vector<std::uint64_t> counted = s.timed.seqs;
  counted.insert(counted.end(), s.counted.begin(), s.counted.end());
  for (const std::uint64_t seq : counted) {
    const auto it = rows.find(seq);
    if (it == rows.end() || it->second.outcome.empty()) {
      ++s.failed;  // an admitted request with no outcome in the report
      continue;
    }
    const ReportRow& r = it->second;
    s.sim_rows.push_back(r.workload + " " + r.policy + " iters=" + r.iters + " " + r.outcome);
    if (r.iters == "0" && field(" " + r.outcome, "verified") != "1") ++s.failed;
  }
  return s;
}

}  // namespace

void run_daemon_workload(const DaemonPlan& plan, Report& report) {
  std::filesystem::create_directories(plan.work_dir);
  Mix mix(plan.seed, plan.names);
  std::vector<Session> sessions;

  // Nominal open loop, after a warm-up round.
  const int round = static_cast<int>(plan.names.size() * std::size(kPolicies));
  std::fprintf(stderr, "daemon: nominal %.0f SUBMIT/s, %d SUBMITs\n", kSubmitRate,
               kNominalRounds * round);
  sessions.push_back(
      run_session(plan, "nominal", [&](Connection& conn, const std::string&, Session& s) {
        (void)conn.call("PAUSE");
        run_open_loop(conn, mix, kWarmupRounds * round, kSubmitRate, true, kWarmupPhase);
        run_open_loop(conn, mix, kNominalRounds * round, kSubmitRate, true, kNominalPhase);
        s.timed = samples(conn.ops(), kNominalPhase);
        (void)conn.call("RESUME");
      }));

  // Saturated executor: the paper's matrix, uncapped, kSaturateRounds times,
  // released at once; then the max-rate search.
  std::vector<double> rtt_us;
  double completions_per_s = 0.0;
  double max_rate = 0.0;
  sessions.push_back(
      run_session(plan, "matrix", [&](Connection& conn, const std::string& sock, Session& s) {
        // PING round trip on a connection of its own.
        const int fd = connect_unix(sock);
        LineReader reader(fd);
        for (int i = 0; i < 200; ++i) {
          const std::int64_t t = now_ns();
          write_all(fd, "PING\n");
          (void)reader.next(2000);
          rtt_us.push_back(ms_between(t, now_ns()) * 1e3);
        }
        ::close(fd);

        // One capped round, untimed, so the timed rounds find the executor's
        // code and allocator warm.
        for (int r = 0; r < round; ++r) {
          (void)conn.send(mix.submit(), Kind::kSubmit, kWarmupPhase, now_ns());
        }
        wait_idle(conn);

        (void)conn.call("PAUSE");
        for (int r = 0; r < kSaturateRounds; ++r) {
          for (const std::string& w : plan.names) {
            for (const char* p : kPolicies) {
              (void)conn.send("SUBMIT " + w + " " + p, Kind::kSubmit, kSaturatePhase, now_ns());
            }
          }
        }
        conn.wait_all();
        const double done_before = stats(conn)["completed"];
        const std::int64_t t_resume = now_ns();
        (void)conn.call("RESUME");
        const auto after = wait_idle(conn);
        const double batch_s = ms_between(t_resume, now_ns()) / 1e3;
        completions_per_s = (after.at("completed") - done_before) / batch_s;
        s.counted = samples(conn.ops(), kSaturatePhase).seqs;

        max_rate = search_max_rate(conn, mix);
      }));

  // Pool the sessions.
  PhaseSamples nominal;
  std::vector<double> watch_lag_ms;
  std::vector<std::string> sim_rows;
  std::map<std::string, double> totals;
  std::uint64_t watch_delivered = 0, watch_dropped = 0;
  bool stream_ok = true, stats_ok = true;
  for (Session& s : sessions) {
    const PhaseSamples& t = s.timed;
    nominal.submit_ms.insert(nominal.submit_ms.end(), t.submit_ms.begin(), t.submit_ms.end());
    nominal.query_ms.insert(nominal.query_ms.end(), t.query_ms.begin(), t.query_ms.end());
    nominal.late_ms.insert(nominal.late_ms.end(), t.late_ms.begin(), t.late_ms.end());
    watch_lag_ms.insert(watch_lag_ms.end(), s.watch_lag_ms.begin(), s.watch_lag_ms.end());
    sim_rows.insert(sim_rows.end(), s.sim_rows.begin(), s.sim_rows.end());
    for (const char* k : {"admitted", "completed", "failed", "evicted", "shed", "telemetry_seq",
                          "telemetry_dropped"}) {
      totals[k] += s.final_stats[k];
    }
    watch_delivered += s.watch_delivered;
    watch_dropped += s.watch_dropped;
    stream_ok = stream_ok && s.stream_ok;
    stats_ok = stats_ok && s.stats_ok;
    report.attempted += s.attempted;
    report.failed += s.failed;
  }

  std::sort(sim_rows.begin(), sim_rows.end());
  std::string all;
  for (const std::string& r : sim_rows) all += r + "\n";
  report.info["digest.daemon_report"] = digest(all);
  report.info["daemon_report_rows"] = std::to_string(sim_rows.size());

  report.metrics["service.completions_per_s"] = completions_per_s;
  report.metrics["service.socket_submit_p50_ms"] = median(nominal.submit_ms);
  report.metrics["service.socket_submit_p95_ms"] = quantile(nominal.submit_ms, kTailQ);
  report.info["daemon_submit_samples"] = std::to_string(nominal.submit_ms.size());
  report.info["daemon_submit_p99_ms"] = std::to_string(quantile(nominal.submit_ms, 0.99));

  report.metrics["service.query_p99_ms"] = quantile(nominal.query_ms, 0.99);
  report.metrics["service.watch_lag_p99_ms"] = quantile(watch_lag_ms, 0.99);
  report.metrics["service.socket_rtt_us"] = median(rtt_us);
  report.metrics["service.shed"] = totals["shed"];
  report.metrics["service.telemetry_dropped"] = totals["telemetry_dropped"];
  report.metrics["service.submit_max_rps"] = max_rate;
  report.metrics["bench.gen_late_p99_ms"] = quantile(nominal.late_ms, 0.99);
  std::fprintf(stderr,
               "daemon: SUBMIT p50 %.3f ms, p95 %.3f ms, p99 %.3f ms (n=%zu); query p99 %.3f ms "
               "(n=%zu); watch lag p99 %.3f ms (n=%zu); generator late p99 %.3f ms\n",
               report.metrics["service.socket_submit_p50_ms"],
               report.metrics["service.socket_submit_p95_ms"], quantile(nominal.submit_ms, 0.99),
               nominal.submit_ms.size(),
               report.metrics["service.query_p99_ms"], nominal.query_ms.size(),
               report.metrics["service.watch_lag_p99_ms"], watch_lag_ms.size(),
               report.metrics["bench.gen_late_p99_ms"]);
  std::fprintf(stderr,
               "daemon: %.1f completions/s; stream delivered %llu + dropped %llu of %.0f "
               "(%s); STATS admitted %.0f completed %.0f failed %.0f evicted %.0f shed %.0f "
               "(%s), over %zu daemons\n",
               completions_per_s, static_cast<unsigned long long>(watch_delivered),
               static_cast<unsigned long long>(watch_dropped), totals["telemetry_seq"],
               stream_ok ? "accounted" : "GAP", totals["admitted"], totals["completed"],
               totals["failed"], totals["evicted"], totals["shed"],
               stats_ok ? "consistent" : "INCONSISTENT", sessions.size());
}

}  // namespace perfbench
