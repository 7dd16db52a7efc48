// In-process tests of the greengpud state machine: admission over the line
// protocol, execution, drain, kill-point crashes, resume and replay — the
// whole service without a socket or a thread.  The CI smoke job drives the
// same matrix through the real daemon binary.
#include "src/service/core.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/killpoint.h"
#include "src/common/snapshot.h"
#include "src/service/journal.h"
#include "src/workloads/registry.h"

namespace gg::service {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class ServiceCoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto dir = std::filesystem::temp_directory_path();
    const std::string stem =
        std::string("gg_core_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    journal_ = (dir / (stem + ".journal")).string();
    control_journal_ = (dir / (stem + "_control.journal")).string();
    report_ = (dir / (stem + ".report")).string();
    control_report_ = (dir / (stem + "_control.report")).string();
    for (const auto& p : {journal_, control_journal_, report_, control_report_}) {
      std::filesystem::remove(p);
    }
  }
  void TearDown() override {
    common::disarm_kill_points();
    for (const auto& p : {journal_, control_journal_, report_, control_report_}) {
      std::filesystem::remove(p);
    }
  }

  static ServiceConfig small_config() {
    ServiceConfig config;
    config.devices = 2;
    config.queue_capacity = 4;
    config.seed = 0x5EEDULL;
    return config;
  }

  std::string journal_;
  std::string control_journal_;
  std::string report_;
  std::string control_report_;
};

TEST_F(ServiceCoreTest, SubmitExecuteReport) {
  ServiceCore core(small_config(), journal_, /*resume=*/false);
  EXPECT_EQ(core.handle_line("SUBMIT bfs best-performance"), "202 accepted seq=1");
  EXPECT_EQ(core.stats().submitted, 1u);
  EXPECT_EQ(core.stats().admitted, 1u);
  EXPECT_EQ(core.queue_depth(), 1u);

  EXPECT_TRUE(core.step());
  EXPECT_EQ(core.stats().completed, 1u);
  EXPECT_GT(core.vtime().get(), 0.0);
  EXPECT_EQ(core.handle_line("STATUS 1"), "200 status seq=1 state=ok");
  EXPECT_FALSE(core.step()) << "queue drained";

  core.write_report(report_);
  std::istringstream lines(read_file(report_));
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("admit seq=1 workload=bfs policy=best-performance", 0), 0u)
      << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("start seq=1 device=0 vtime=0.000000", 0), 0u) << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("outcome seq=1 device=0 status=ok", 0), 0u) << line;
  EXPECT_FALSE(std::getline(lines, line)) << "exactly three records";
}

TEST_F(ServiceCoreTest, ProtocolRejectsGarbageWithoutSideEffects) {
  ServiceCore core(small_config(), journal_, /*resume=*/false);
  EXPECT_EQ(core.handle_line("PING"), "200 pong");
  EXPECT_EQ(core.handle_line(""), "400 empty request");
  EXPECT_EQ(core.handle_line("FROB"), "400 unknown verb FROB");
  EXPECT_EQ(core.handle_line("STATUS 9"), "404 unknown-seq 9");
  EXPECT_EQ(core.handle_line("STATUS x"), "400 bad seq");
  // Bad submissions cost no seq and leave no journal record.
  EXPECT_EQ(core.handle_line("SUBMIT").rfind("400", 0), 0u);
  EXPECT_EQ(core.handle_line("SUBMIT nope best-performance").rfind("400", 0), 0u);
  EXPECT_EQ(core.handle_line("SUBMIT bfs nope").rfind("400", 0), 0u);
  EXPECT_EQ(core.handle_line("SUBMIT bfs greengpu frobs=1").rfind("400", 0), 0u);
  EXPECT_EQ(core.handle_line("SUBMIT bfs greengpu priority=x").rfind("400", 0), 0u);
  EXPECT_EQ(core.stats().submitted, 0u);
  EXPECT_EQ(core.handle_line("SUBMIT bfs greengpu priority=1 deadline=9000 iters=5"),
            "202 accepted seq=1");
}

TEST_F(ServiceCoreTest, SubmitAdmitsEveryRegistryNameAndRejectsUnknownOnes) {
  ServiceConfig config = small_config();
  config.queue_capacity = 64;
  ServiceCore core(config, journal_, /*resume=*/false);
  const std::vector<std::string_view> names = workloads::accepted_workload_names();
  for (const auto& canonical : workloads::all_workload_names()) {
    EXPECT_NE(std::find(names.begin(), names.end(), canonical), names.end()) << canonical;
  }
  for (const auto& pipeline : workloads::pipeline_workload_names()) {
    EXPECT_NE(std::find(names.begin(), names.end(), pipeline), names.end()) << pipeline;
  }
  std::size_t seq = 0;
  for (const std::string_view name : names) {
    SCOPED_TRACE(std::string(name));
    EXPECT_NE(workloads::make_workload(name), nullptr);
    EXPECT_EQ(core.handle_line("SUBMIT " + std::string(name) + " best-performance"),
              "202 accepted seq=" + std::to_string(++seq));
  }
  EXPECT_THROW((void)workloads::make_workload("nope"), std::invalid_argument);
  EXPECT_EQ(core.handle_line("SUBMIT nope best-performance"),
            "400 unknown workload: nope");
  EXPECT_EQ(core.handle_line("SUBMIT bfs_v2 best-performance"),
            "400 unknown workload: bfs_v2");
  EXPECT_EQ(core.stats().submitted, seq);
}

TEST_F(ServiceCoreTest, PauseHoldsWorkResumeReleasesIt) {
  ServiceCore core(small_config(), journal_, /*resume=*/false);
  EXPECT_EQ(core.handle_line("PAUSE"), "200 paused");
  EXPECT_EQ(core.handle_line("SUBMIT bfs best-performance"), "202 accepted seq=1");
  EXPECT_TRUE(core.paused());
  EXPECT_FALSE(core.step()) << "paused core claims nothing";
  EXPECT_EQ(core.handle_line("RESUME"), "200 resumed");
  EXPECT_TRUE(core.step());
}

TEST_F(ServiceCoreTest, OverloadShedsAndDrainRefusesNewWork) {
  ServiceConfig config = small_config();
  config.queue_capacity = 1;
  ServiceCore core(config, journal_, /*resume=*/false);
  EXPECT_EQ(core.handle_line("SUBMIT bfs best-performance"), "202 accepted seq=1");
  EXPECT_EQ(core.handle_line("SUBMIT bfs best-performance"),
            "503 shed seq=2 reason=queue-full");
  // A higher-priority arrival displaces the queued request instead.
  EXPECT_EQ(core.handle_line("SUBMIT bfs best-performance priority=3"),
            "202 accepted seq=3");
  EXPECT_EQ(core.handle_line("STATUS 1"), "200 status seq=1 state=evicted");
  EXPECT_EQ(core.stats().evicted, 1u);

  EXPECT_EQ(core.handle_line("DRAIN"), "200 draining");
  EXPECT_EQ(core.handle_line("SUBMIT bfs best-performance"),
            "503 shed seq=4 reason=draining");
  EXPECT_FALSE(core.drained()) << "seq=3 still queued";
  EXPECT_TRUE(core.step());
  EXPECT_TRUE(core.drained()) << "nothing queued or in flight: safe to exit";
}

TEST_F(ServiceCoreTest, GenerousDeadlineIsMet) {
  ServiceCore core(small_config(), journal_, /*resume=*/false);
  EXPECT_EQ(core.handle_line("SUBMIT bfs best-performance deadline=900000"),
            "202 accepted seq=1");
  EXPECT_TRUE(core.step());
  core.write_report(report_);
  EXPECT_NE(read_file(report_).find("deadline=met"), std::string::npos);
}

TEST_F(ServiceCoreTest, ResumedRunMatchesUninterruptedRunByteForByte) {
  const char* submissions[] = {
      "SUBMIT bfs best-performance priority=1",
      "SUBMIT bfs greengpu",
      "SUBMIT bfs scaling priority=2",
  };
  {  // Control: never killed.
    ServiceCore core(small_config(), control_journal_, /*resume=*/false);
    for (const char* s : submissions) ASSERT_EQ(core.handle_line(s).substr(0, 3), "202");
    while (core.step()) {}
    core.write_report(control_report_);
  }
  {  // Live run, killed after one completion…
    ServiceCore core(small_config(), journal_, /*resume=*/false);
    for (const char* s : submissions) ASSERT_EQ(core.handle_line(s).substr(0, 3), "202");
    ASSERT_TRUE(core.step());
  }
  {  // …and resumed: counters, backlog and the rest of the work are rebuilt.
    ServiceCore core(small_config(), journal_, /*resume=*/true);
    EXPECT_EQ(core.stats().submitted, 3u);
    EXPECT_EQ(core.stats().admitted, 3u);
    EXPECT_EQ(core.stats().completed, 1u);
    EXPECT_EQ(core.queue_depth(), 2u);
    EXPECT_EQ(core.handle_line("STATUS 3"), "200 status seq=3 state=ok")
        << "priority 2 ran first";
    while (core.step()) {}
    core.write_report(report_);
  }
  EXPECT_EQ(read_file(report_), read_file(control_report_));
}

TEST_F(ServiceCoreTest, CrashBeforeResultIsReexecutedOnResume) {
  {  // Control.
    ServiceCore core(small_config(), control_journal_, /*resume=*/false);
    ASSERT_EQ(core.handle_line("SUBMIT bfs best-performance"), "202 accepted seq=1");
    ASSERT_EQ(core.handle_line("SUBMIT bfs greengpu"), "202 accepted seq=2");
    while (core.step()) {}
    core.write_report(control_report_);
  }
  {  // The request executes but dies before its outcome is journaled.
    ServiceCore core(small_config(), journal_, /*resume=*/false);
    ASSERT_EQ(core.handle_line("SUBMIT bfs best-performance"), "202 accepted seq=1");
    ASSERT_EQ(core.handle_line("SUBMIT bfs greengpu"), "202 accepted seq=2");
    common::arm_kill_point(common::KillPoint::kServicePreResult, 1,
                           common::CrashMode::kThrow);
    EXPECT_THROW((void)core.step(), common::CrashInjected);
  }
  {
    ServiceCore core(small_config(), journal_, /*resume=*/true);
    EXPECT_EQ(core.stats().completed, 0u);
    EXPECT_EQ(core.handle_line("STATUS 1"), "200 status seq=1 state=running")
        << "the journaled claim is back in flight";
    while (core.step()) {}
    core.write_report(report_);
  }
  EXPECT_EQ(read_file(report_), read_file(control_report_));
}

TEST_F(ServiceCoreTest, JournaledClaimOutranksTheRebuiltQueue) {
  // A claim is journaled before execution precisely so this scenario cannot
  // reorder history: seq=1 was claimed (priority 0), then a priority-5
  // request arrived, then the daemon died.  The resumed daemon must finish
  // seq=1 first — like the live run does — not let the rebuilt priority
  // queue run seq=2 ahead of it.
  {  // Control: the live run survives its in-process crash and retries.
    ServiceCore core(small_config(), control_journal_, /*resume=*/false);
    ASSERT_EQ(core.handle_line("SUBMIT bfs best-performance"), "202 accepted seq=1");
    common::arm_kill_point(common::KillPoint::kServicePreResult, 1,
                           common::CrashMode::kThrow);
    EXPECT_THROW((void)core.step(), common::CrashInjected);
    ASSERT_EQ(core.handle_line("SUBMIT bfs greengpu priority=5"),
              "202 accepted seq=2");
    while (core.step()) {}
    core.write_report(control_report_);
  }
  {  // Same story, but the crash kills the process instead.
    ServiceCore core(small_config(), journal_, /*resume=*/false);
    ASSERT_EQ(core.handle_line("SUBMIT bfs best-performance"), "202 accepted seq=1");
    common::arm_kill_point(common::KillPoint::kServicePreResult, 1,
                           common::CrashMode::kThrow);
    EXPECT_THROW((void)core.step(), common::CrashInjected);
    ASSERT_EQ(core.handle_line("SUBMIT bfs greengpu priority=5"),
              "202 accepted seq=2");
    // Process death here: the core is dropped with seq=1 claimed.
  }
  {
    ServiceCore core(small_config(), journal_, /*resume=*/true);
    while (core.step()) {}
    core.write_report(report_);
  }
  const std::string report = read_file(report_);
  EXPECT_EQ(report, read_file(control_report_));
  EXPECT_LT(report.find("outcome seq=1"), report.find("outcome seq=2"))
      << "claim order survived the restart";
}

TEST_F(ServiceCoreTest, SupervisedRetryAfterInProcessCrash) {
  ServiceCore core(small_config(), journal_, /*resume=*/false);
  ASSERT_EQ(core.handle_line("SUBMIT bfs best-performance"), "202 accepted seq=1");
  common::arm_kill_point(common::KillPoint::kServicePreResult, 1,
                         common::CrashMode::kThrow);
  EXPECT_THROW((void)core.step(), common::CrashInjected);
  core.note_restart();
  // The kill-point was single-shot; the retry re-executes the same claim and
  // lands exactly one outcome.
  EXPECT_TRUE(core.step());
  EXPECT_EQ(core.stats().completed, 1u);
  EXPECT_EQ(core.stats().restarts, 1u);
  core.write_report(report_);
  const std::string report = read_file(report_);
  EXPECT_EQ(report.find("outcome seq=1"), report.rfind("outcome seq=1"))
      << "one outcome, not two, despite the retry";
}

TEST_F(ServiceCoreTest, CrashAfterAdmitLosesTheReplyNotTheRequest) {
  {
    ServiceCore core(small_config(), journal_, /*resume=*/false);
    common::arm_kill_point(common::KillPoint::kServicePostAdmit, 1,
                           common::CrashMode::kThrow);
    EXPECT_THROW((void)core.handle_line("SUBMIT bfs best-performance"),
                 common::CrashInjected);
    // The client never saw "202", but the admission is journaled.
  }
  ServiceCore core(small_config(), journal_, /*resume=*/true);
  EXPECT_EQ(core.stats().admitted, 1u);
  EXPECT_EQ(core.handle_line("STATUS 1"), "200 status seq=1 state=queued");
  EXPECT_TRUE(core.step());
  EXPECT_EQ(core.handle_line("STATUS 1"), "200 status seq=1 state=ok");
}

TEST_F(ServiceCoreTest, ResumeAtEveryStepMatchesTheUninterruptedRun) {
  // Device 1 fails every request and is quarantined at once; each later
  // completion makes it probe-due, so the breaker alternates a probe of
  // device 1 (which fails and re-opens it) with a run on device 0.  A
  // resumed daemon must rebuild the half-open claims too, not just the
  // outcomes, or it sends the request after a failed probe to device 1.
  ServiceConfig config = small_config();
  config.queue_capacity = 8;
  config.faulty_devices = {1};
  config.faults.launch_fail_rate = 1.0;
  config.breaker.failure_threshold = 1;
  config.breaker.probe_after = 1;
  constexpr int kRequests = 8;
  const auto submit_all = [](ServiceCore& core) {
    for (int i = 0; i < kRequests; ++i) {
      ASSERT_EQ(core.handle_line("SUBMIT bfs best-performance iters=1"),
                "202 accepted seq=" + std::to_string(i + 1));
    }
  };
  // Everything a client can see once the work is done.
  const auto observe = [](ServiceCore& core, const std::string& report) {
    core.write_report(report);
    std::string out = read_file(report) + core.handle_line("STATS") + "\n" +
                      core.handle_line("HEALTH") + "\n";
    std::string reply;
    const std::uint64_t id = core.watch("WATCH FROM 1", reply);
    out += reply + "\n";
    while (auto frame = core.next_frame(id)) out += *frame + "\n";
    return out;
  };

  std::string control;
  {
    ServiceCore core(config, control_journal_, /*resume=*/false);
    submit_all(core);
    while (core.step()) {}
    control = observe(core, control_report_);
  }
  for (int seq = 1; seq <= kRequests; ++seq) {
    const std::string start = "start seq=" + std::to_string(seq) +
                              " device=" + std::to_string((seq - 1) % 2) + " ";
    EXPECT_NE(control.find(start), std::string::npos) << start;
  }
  ASSERT_NE(control.find("transition=reopened"), std::string::npos);

  for (int kill_after = 1; kill_after < kRequests; ++kill_after) {
    SCOPED_TRACE("killed after " + std::to_string(kill_after) + " steps");
    {
      ServiceCore core(config, journal_, /*resume=*/false);
      submit_all(core);
      for (int i = 0; i < kill_after; ++i) ASSERT_TRUE(core.step());
    }
    ServiceCore resumed(config, journal_, /*resume=*/true);
    while (resumed.step()) {}
    EXPECT_EQ(observe(resumed, report_), control);
  }
}

TEST_F(ServiceCoreTest, ResumeRebuildsTheCostModel) {
  // The 60 s default estimate alone blows a 10 s deadline; the observed cost
  // of one completed bfs run fits it.  A resumed core must know that cost.
  {
    ServiceCore core(small_config(), journal_, /*resume=*/false);
    ASSERT_EQ(core.handle_line("SUBMIT bfs best-performance iters=1"),
              "202 accepted seq=1");
    ASSERT_TRUE(core.step());
    ASSERT_LT(core.vtime().get(), 4.0);
  }
  ServiceCore core(small_config(), journal_, /*resume=*/true);
  EXPECT_EQ(core.handle_line("SUBMIT bfs best-performance iters=1 deadline=10"),
            "202 accepted seq=2");
  EXPECT_EQ(core.handle_line("SUBMIT bfs greengpu iters=1 deadline=10"),
            "503 shed seq=3 reason=deadline-unmeetable")
      << "no run of this pair observed: the default estimate applies";
}

TEST_F(ServiceCoreTest, ResumeRefusesAStartTheStateContradicts) {
  // Each journal below ends in a start record that no live core writes; the
  // resumed core and the offline stream both refuse it, naming the record.
  const ServiceConfig config = small_config();
  const auto admit = [](ServiceJournal& journal, std::uint64_t seq,
                        std::uint64_t priority) {
    Request request;
    request.seq = seq;
    request.workload = "bfs";
    request.policy = "best-performance";
    request.priority = priority;
    journal.admit(request);
  };
  const auto expect_refused = [&](const std::string& where, const std::string& why) {
    try {
      ServiceCore core(config, journal_, /*resume=*/true);
      ADD_FAILURE() << "resume accepted an inconsistent start record";
    } catch (const common::SnapshotError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(journal_), std::string::npos) << what;
      EXPECT_NE(what.find(where), std::string::npos) << what;
      EXPECT_NE(what.find(why), std::string::npos) << what;
    }
    std::string out;
    std::string error;
    EXPECT_FALSE(ServiceCore::events_window(config, journal_, 1, out, error));
    EXPECT_NE(error.find(where), std::string::npos) << error;
  };
  {  // One completion in, the breaker picks device 1; seq=2 ran on device 0.
    ServiceJournal journal(journal_, config.fingerprint(), /*fresh=*/true);
    admit(journal, 1, 0);
    admit(journal, 2, 0);
    journal.start({1, 0, 0.0});
    OutcomeRecord outcome;
    outcome.seq = 1;
    journal.outcome(outcome);
    journal.start({2, 0, 0.0});
  }
  expect_refused("record 4 (seq=2)", "picks device 1");
  {  // seq=2 outranks seq=1, so the queue would run it first.
    ServiceJournal journal(journal_, config.fingerprint(), /*fresh=*/true);
    admit(journal, 1, 0);
    admit(journal, 2, 5);
    journal.start({1, 0, 0.0});
  }
  expect_refused("record 2 (seq=1)", "not next in the queue");
}

TEST_F(ServiceCoreTest, ResumeRefusesAForeignConfiguration) {
  {
    ServiceCore core(small_config(), journal_, /*resume=*/false);
    ASSERT_EQ(core.handle_line("SUBMIT bfs best-performance"), "202 accepted seq=1");
  }
  ServiceConfig other = small_config();
  other.seed = 0xD1FFULL;
  EXPECT_THROW(ServiceCore(other, journal_, /*resume=*/true),
               common::SnapshotError);
}

TEST_F(ServiceCoreTest, ReplayWindowMatchesTheReportAndRejectsBadWindows) {
  ServiceConfig config = small_config();
  {
    ServiceCore core(config, journal_, /*resume=*/false);
    ASSERT_EQ(core.handle_line("SUBMIT bfs best-performance"), "202 accepted seq=1");
    ASSERT_EQ(core.handle_line("SUBMIT bfs greengpu"), "202 accepted seq=2");
    while (core.step()) {}
    core.write_report(report_);
  }
  const std::string report = read_file(report_);
  std::string out;
  std::string error;
  // admit, admit, start, outcome, start, outcome = 6 records.
  ASSERT_TRUE(ServiceCore::replay_window(config, journal_, 0, 5, out, error))
      << error;
  EXPECT_EQ(out, report);

  // A sub-window replays to the same slice of the report.
  ASSERT_TRUE(ServiceCore::replay_window(config, journal_, 2, 3, out, error))
      << error;
  std::istringstream lines(report);
  std::string slice;
  std::string line;
  for (int i = 0; std::getline(lines, line); ++i) {
    if (i >= 2 && i <= 3) slice += line + "\n";
  }
  EXPECT_EQ(out, slice);

  EXPECT_FALSE(ServiceCore::replay_window(config, journal_, 4, 99, out, error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;

  // Replay under the wrong configuration is refused up front by the
  // journal fingerprint, naming the file.
  ServiceConfig other = config;
  other.seed = 0xD1FFULL;
  EXPECT_FALSE(ServiceCore::replay_window(other, journal_, 0, 5, out, error));
  EXPECT_NE(error.find(journal_), std::string::npos) << error;
}

TEST_F(ServiceCoreTest, ReplayDetectsATamperedOutcome) {
  ServiceConfig config = small_config();
  {
    ServiceCore core(config, journal_, /*resume=*/false);
    ASSERT_EQ(core.handle_line("SUBMIT bfs best-performance"), "202 accepted seq=1");
    ASSERT_TRUE(core.step());
  }
  // Append a forged outcome for seq=1 whose exec_time cannot come from the
  // deterministic re-execution (vtime_after keeps vtime_before consistent so
  // the forgery is only detectable by actually replaying the run).
  auto records = ServiceJournal::read(journal_, config.fingerprint());
  OutcomeRecord forged = records.back().outcome;
  forged.exec_time += 1.0;
  forged.vtime_after += 1.0;
  {
    ServiceJournal journal(journal_, config.fingerprint(), /*fresh=*/false);
    journal.outcome(forged);
  }
  std::string out;
  std::string error;
  const std::size_t last = records.size();  // index of the forged record
  EXPECT_FALSE(ServiceCore::replay_window(config, journal_, last, last, out, error));
  EXPECT_NE(error.find("exec_time"), std::string::npos) << error;
}

TEST_F(ServiceCoreTest, ReplayOfAnEmptyJournalIsAnError) {
  ServiceConfig config = small_config();
  { ServiceCore core(config, journal_, /*resume=*/false); }
  std::string out;
  std::string error;
  EXPECT_FALSE(ServiceCore::replay_window(config, journal_, 0, 0, out, error));
  EXPECT_NE(error.find("no records"), std::string::npos) << error;
}

}  // namespace
}  // namespace gg::service
