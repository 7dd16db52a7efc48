// greengpu_cli's flag table (tools/cli_flags.h) against the real binary:
// every flag, probed with a non-default value in every mode (and in a single
// run under each of the six policies), must be refused (exit 2, naming the
// flag), change the output, or -- where the table promises it -- change
// nothing.  A flag the CLI would drop silently fails here without a test
// written for it.  The second test fuzzes Flags and the table check.
#include "tools/cli_flags.h"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.h"

namespace gg::cli {
namespace {

namespace fs = std::filesystem;

/// Test data: a non-default value for every table flag, the workloads a
/// single run and a campaign probe it on, and the flags that satisfy its
/// precondition (kept only in modes that read both).  The table reads a flag
/// differently by workload class, so the default probes one of each: a
/// divisible Table II workload (a CPU share), another Table II workload (GPU
/// only) and a pipeline workload (host work under every policy).  A read
/// flag does not move every workload: --phi 0.5 moves hotspot but not
/// kmeans, --sync 0 moves lud but not kmeans under the division tier, and
/// --beta (0.1, 0.5 or 0.99) moves neither pipeline workload's short run.
struct Probe {
  std::string value;
  std::vector<std::string> workloads = {"kmeans", "lud", "kmeans_pipeline"};
  std::vector<std::string> extras = {};
};

const std::map<std::string, Probe>& probes() {
  const std::vector<std::string> classes = {"kmeans", "lud", "kmeans_pipeline"};
  const std::vector<std::string> faults = {"--fault-rate", "0.2", "--hardened", "1"};
  const std::vector<std::string> ckpt = {"--checkpoint-dir", "ckpt"};
  static const std::map<std::string, Probe> kProbes = {
      {"workload", {"lud", {"kmeans"}}},
      {"policy", {"scaling"}},
      {"ratio", {"0.5"}},
      {"core-level", {"2"}},
      {"mem-level", {"2"}},
      {"divider", {"qilin"}},
      {"governor", {"powersave"}},
      {"step", {"0.2"}},
      {"init-ratio", {"0.5"}},
      {"safeguard", {"0"}},
      {"alpha-c", {"0.5"}},
      {"alpha-m", {"0.5"}},
      {"phi", {"1"}},
      {"beta", {"0.99", {"kmeans", "pathfinder"}}},
      {"interval", {"1"}},
      {"iterations", {"3"}},
      {"jobs", {"3"}},
      {"sync", {"0", {"hotspot", "lud", "kmeans_pipeline"}}},
      {"trace", {"out.csv"}},
      {"csv", {"1"}},
      {"no-verify", {"1"}},
      {"gpus", {"2"}},
      {"replay", {"../trace2.csv"}},
      {"campaign", {"1"}},
      {"json", {"out.json"}},
      {"markdown", {"1"}},
      {"list", {"1"}},
      {"checkpoint-dir", {"ckpt"}},
      {"checkpoint-every",
       {"2", classes, {"--checkpoint-dir", "ckpt", "--checkpoint-every", "5"}}},
      {"resume", {"1", classes, ckpt}},
      {"crash-at",
       {"mid-checkpoint",
        classes,
        {"--checkpoint-dir", "ckpt", "--checkpoint-every", "2"}}},
      {"hardened", {"1", classes, {"--fault-rate", "0.2", "--fault-seed", "3"}}},
      {"fault-rate", {"0.05"}},
      {"fault-seed", {"3", classes, faults}},
      {"fault-util-drop", {"0.1"}},
      {"fault-util-stale", {"0.1"}},
      {"fault-util-corrupt", {"0.1"}},
      {"fault-clock-reject", {"0.5"}},
      {"fault-clock-delay", {"0.5"}},
      {"fault-clock-clamp", {"0.5"}},
      {"fault-clock-delay-s",
       {"10", classes, {"--fault-clock-delay", "0.3", "--hardened", "1"}}},
      {"fault-launch", {"0.1"}},
      {"fault-host", {"0.1"}},
      {"fault-throttle-mtbf", {"20"}},
      {"fault-throttle-duration",
       {"15", classes, {"--fault-throttle-mtbf", "20", "--hardened", "1"}}},
      {"engine", {"batch"}},
      {"fault-replicates", {"2", classes, faults}},
      {"fault-warmup", {"5", classes, faults}},
      {"pipeline", {"0"}},
      {"stream-depth", {"1"}},
      {"chunks", {"4"}},
  };
  return kProbes;
}

const FlagRow& row_of(const std::string& name) {
  for (const FlagRow& row : kFlags) {
    if (name == row.name) return row;
  }
  throw std::invalid_argument("not a table flag: " + name);
}

/// What one run of the binary shows: exit status, stdout and the files it
/// wrote.  Snapshot bytes record the iteration they were taken at, so only
/// a snapshot's presence counts (the checkpoint cadence promises identical
/// reports, not identical snapshots).
struct Outcome {
  int status = 0;
  std::string out;
  std::string err;
  std::map<std::string, std::string> files;
};

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

class CliProbe {
 public:
  /// `name` keeps the scratch directories of tests that run at once apart.
  explicit CliProbe(const std::string& name)
      : dir_(fs::current_path() / ("cli_flags_probe_" + name)) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    // Forty phases, so that every WMA knob moves the replay; the second
    // trace only has to differ.
    std::string trace =
        "0,91,49 10,27,21 20,21,85 26,90,96 36,90,36 42,56,59 48,3,66 58,62,94 78,87,38 "
        "98,10,87 113,78,20 128,39,9 143,84,4 153,40,43 159,39,12 169,85,76 179,62,36 "
        "194,71,95 209,25,11 229,100,19 239,41,61 249,85,77 259,60,64 274,65,97 "
        "284,68,31 290,80,17 305,40,82 315,50,26 330,51,8 350,46,41 365,99,23 385,43,31 "
        "400,4,7 420,89,40 440,57,100 446,4,10 461,91,52 481,68,63 501,50,28 516,38,47";
    std::ranges::replace(trace, ' ', '\n');
    std::ofstream(dir_ / "trace.csv") << "time_s,core_util,mem_util\n" << trace << "\n";
    std::ofstream(dir_ / "trace2.csv") << "0,90,20\n40,10,80\n80,0,0\n";
  }
  ~CliProbe() { fs::remove_all(dir_); }
  CliProbe(const CliProbe&) = delete;
  CliProbe& operator=(const CliProbe&) = delete;

  Outcome run(const std::vector<std::string>& args) {
    const fs::path cwd = dir_ / "run";
    fs::remove_all(cwd);
    fs::create_directories(cwd);
    std::string cmd = "cd '" + cwd.string() + "' && '" GREENGPU_CLI_PATH "'";
    for (const std::string& a : args) cmd += " '" + a + "'";
    cmd += " > ../stdout 2> ../stderr";
    const int raw = std::system(cmd.c_str());
    Outcome o;
    o.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
    o.out = slurp(dir_ / "stdout");
    o.err = slurp(dir_ / "stderr");
    for (const auto& entry : fs::recursive_directory_iterator(cwd)) {
      if (!entry.is_regular_file()) continue;
      const bool snapshot = entry.path().extension() == ".ggsn";
      o.files[fs::relative(entry.path(), cwd).string()] =
          snapshot ? "" : slurp(entry.path());
    }
    return o;
  }

  const Outcome& base(const std::vector<std::string>& args) {
    std::string key;
    for (const std::string& a : args) key += a + ' ';
    auto it = bases_.find(key);
    if (it == bases_.end()) it = bases_.emplace(key, run(args)).first;
    return it->second;
  }

 private:
  fs::path dir_;
  std::map<std::string, Outcome> bases_;
};

std::string join(const std::vector<std::string>& args) {
  std::string s;
  for (const std::string& a : args) s += ' ' + a;
  return s;
}

TEST(CliFlagTable, EveryFlagChangesTheOutputOrIsRefused) {
  for (const auto& [name, probe] : probes()) (void)row_of(name);  // no stale test data
  CliProbe cli("sweep");
  std::map<std::string, int> read;  // probes that ran a flag the table reads
  static constexpr const char* kPolicies[] = {
      "best-performance", "scaling", "division", "greengpu", "static-division",
      "static-pair"};
  for (const FlagRow& row : kFlags) {
    SCOPED_TRACE(row.name);
    ASSERT_TRUE(probes().contains(row.name)) << "no probe for --" << row.name;
    EXPECT_STRNE(row.help, "");
    const Probe& probe = probes().at(row.name);
    // The tiers a case reads; a campaign's are greengpu's (tiers_of).
    struct Case {
      Mode mode;
      unsigned tiers;
      std::vector<std::string> args;
    };
    const unsigned greengpu = tiers_of("greengpu", "all");
    std::vector<Case> cases = {{kAll, greengpu, {"--workload", "all"}},
                               {kReplay, greengpu, {"--replay", "../trace.csv"}},
                               {kList, 0, {"--list"}}};
    for (const std::string& workload : probe.workloads) {
      const unsigned tiers = tiers_of("greengpu", workload);
      cases.push_back({kCampaign, tiers, {"--campaign", "--workload", workload}});
      if (std::string(row.name) == "policy") {
        cases.push_back({kSingle, tiers, {"--workload", workload}});
        continue;
      }
      for (const char* policy : kPolicies) {
        cases.push_back({kSingle,
                         tiers_of(policy, workload),
                         {"--workload", workload, "--policy", policy}});
      }
    }
    for (Case& c : cases) {
      // A mode flag is probed in its own mode against the run without it.
      const std::string name = row.name;
      if ((name == "list" && c.mode == kList) ||
          (name == "campaign" && c.mode == kCampaign)) {
        std::erase(c.args, "--" + name);
      }
      const auto reads = [&](const FlagRow& r, Mode mode) {
        return (r.modes & mode) != 0 && (r.tiers == 0 || (r.tiers & c.tiers) != 0);
      };
      // Probed with what its precondition needs and, where that adds flags,
      // without it too.
      std::vector<std::vector<std::string>> bases = {c.args};
      for (std::size_t i = 0; i + 1 < probe.extras.size(); i += 2) {
        if (reads(row, c.mode) && reads(row_of(probe.extras[i].substr(2)), c.mode)) {
          if (bases.size() == 1) bases.push_back(c.args);
          bases.back().insert(bases.back().end(), {probe.extras[i], probe.extras[i + 1]});
        }
      }
      for (const std::vector<std::string>& base_args : bases) {
        EXPECT_NO_THROW((void)check_flags(Flags(base_args))) << join(base_args);
        const Outcome& base = cli.base(base_args);
        std::vector<std::string> args = base_args;
        args.insert(args.end(), {"--" + name, probe.value});
        const Outcome probed = cli.run(args);
        const bool refused =
            probed.status == 2 && probed.err.find("--" + name) != std::string::npos;
        const std::string status = " (exit " + std::to_string(probed.status) +
                                   ", stderr: " + probed.err + ")";
        // A flag the table says this run does not read, or whose precondition
        // or value it refuses, must be refused; any other must not be.  (The
        // probe's own mode: --campaign turns --workload all into a campaign.)
        bool table_refuses = !reads(row, mode_of(Flags(args)));
        try {
          (void)check_flags(Flags(args));
        } catch (const std::invalid_argument&) {
          table_refuses = true;
        }
        if (table_refuses) {
          EXPECT_TRUE(refused) << join(args) << " is not refused" << status;
          continue;
        }
        EXPECT_FALSE(refused) << join(args) << " is refused" << status;
        ++read[name];
        const bool same = probed.status == base.status && probed.out == base.out &&
                          probed.files == base.files;
        EXPECT_EQ(same, row.identical_output)
            << join(args) << (same ? " changed nothing" : " changed the output")
            << status;
      }
    }
    // Every refusal by mode, tier or precondition is backed by a run that
    // reads the flag.
    EXPECT_GT(read[row.name], 0) << "--" << row.name << " is read by no probe";
  }
}

/// Runs where a flag has an effect, stated apart from the table: the sweep
/// above holds the binary to the table, these hold the table to the runs.
/// The flag under test is the last pair of tokens; without it the run must
/// pass the table too, and adding it must change the output.
TEST(CliFlagTable, KnownReadersAreReadAndMoveTheOutput) {
  static const std::vector<std::vector<std::string>> kReaders = {
      // A pipeline workload's host stage submits host work under any policy.
      {"--workload", "kmeans_pipeline", "--policy", "best-performance", "--fault-host",
       "0.1"},
      {"--workload", "srad_stream", "--policy", "static-pair", "--fault-host", "0.3"},
      {"--campaign", "--workload", "kmeans_pipeline", "--fault-host", "0.1"},
      // A CPU share needs a divisible workload; --workload all holds two.
      {"--workload", "all", "--policy", "static-division", "--ratio", "0.5"},
      {"--workload", "hotspot", "--policy", "division", "--gpus", "2", "--step", "0.2"},
      {"--campaign", "--fault-launch", "0.05", "--hardened", "1", "--fault-host", "0.5"},
      // A replayed trace runs the GPU scaler, and with it the utilization faults.
      {"--replay", "../trace.csv", "--fault-launch", "0.05", "--hardened", "1",
       "--fault-util-stale", "0.3"},
      // Pipeline tuning reaches a campaign over a pipeline workload.
      {"--campaign", "--workload", "srad_stream", "--stream-depth", "1"},
  };
  CliProbe cli("readers");
  for (const std::vector<std::string>& args : kReaders) {
    SCOPED_TRACE(join(args));
    const std::vector<std::string> base_args(args.begin(), args.end() - 2);
    EXPECT_NO_THROW((void)check_flags(Flags(base_args)));
    EXPECT_NO_THROW((void)check_flags(Flags(args)));
    const Outcome base = cli.run(base_args);
    const Outcome probed = cli.run(args);
    EXPECT_NE(probed.status, 2) << probed.err;
    EXPECT_TRUE(probed.status != base.status || probed.out != base.out ||
                probed.files != base.files);
  }
}

TEST(CliFlagTable, ModeFlagSetOffReadsAsAbsent) {
  const auto mode = [](const std::vector<std::string>& tokens) {
    return check_flags(Flags(tokens)).mode;
  };
  EXPECT_EQ(mode({"--campaign", "0", "--workload", "lud"}), kSingle);
  EXPECT_EQ(mode({"--list", "0", "--workload", "all"}), kAll);
  EXPECT_EQ(mode({"--replay", "", "--workload", "lud"}), kSingle);
  EXPECT_EQ(mode({"--campaign", "0", "--list"}), kList);
  EXPECT_EQ(mode({"--list", "false", "--replay", "t.csv"}), kReplay);
  EXPECT_THROW(mode({"--campaign", "1", "--list"}), std::invalid_argument);
}

TEST(CliFlagTable, FuzzedCommandLinesPassOrThrowInvalidArgument) {
  // Values of every type, out of range, malformed, and overflowing.
  static constexpr const char* kValues[] = {
      "", "0", "1", "-1", "2", "0.5", "64", "65", "1e400", "nan", "abc", "all", "lud",
      "kmeans_pipeline", "static-pair", "scaling", "batch", "mid-checkpoint",
      "pre-scaler-step:0", "mid-campaign-cell:2", "99999999999999999999", "t.csv"};
  std::vector<std::string> names = {"fault-rtae", ""};
  for (const FlagRow& row : kFlags) names.emplace_back(row.name);
  Rng rng(26);
  const auto pick = [&](const auto& pool) {
    return std::string(pool[rng.uniform_int(std::size(pool))]);
  };
  int passed = 0;
  int refused = 0;
  for (int i = 0; i < 20000; ++i) {
    std::vector<std::string> tokens;
    const auto n = rng.uniform_int(7);
    for (std::uint64_t t = 0; t < n; ++t) {
      const std::string flag = "--" + pick(names);
      switch (rng.uniform_int(5)) {
        case 0: tokens.insert(tokens.end(), {flag, pick(kValues)}); break;
        case 1: tokens.push_back(flag + "=" + pick(kValues)); break;
        case 2: tokens.push_back(flag); break;
        case 3: {  // a repeated token, or a bare "--"
          const std::string again =
              tokens.empty() ? "--" : tokens[rng.uniform_int(tokens.size())];
          tokens.push_back(again);
          break;
        }
        default: tokens.push_back(pick(kValues)); break;
      }
    }
    try {
      (void)check_flags(Flags(tokens));
      ++passed;
    } catch (const std::invalid_argument&) {
      ++refused;
    }
  }
  EXPECT_GT(passed, 100);
  EXPECT_GT(refused, 100);
}

}  // namespace
}  // namespace gg::cli
