// greengpu_cli's flag table: the one list of its flags.  Each row names a
// flag, its type and range, the modes and policy tiers that read it, what
// it needs to have any effect, and its help line.  check_flags() derives
// every rejection from the table and usage() every help line, so a flag the
// chosen run would not read fails with exit 2 instead of being dropped;
// tests/tools/cli_flags_test.cpp probes every row against the binary.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/common/flags.h"
#include "src/greengpu/campaign.h"
#include "src/greengpu/policy.h"
#include "src/sim/crash.h"
#include "src/sim/fault.h"
#include "src/workloads/registry.h"

namespace gg::cli {

/// What one invocation runs: one workload, --workload all, a trace replay,
/// the campaign matrix or the --list printout.
enum Mode : unsigned { kSingle = 1, kAll = 2, kReplay = 4, kCampaign = 8, kList = 16 };
inline constexpr unsigned kWorkloadRuns = kSingle | kAll;
inline constexpr unsigned kPolicyRuns = kSingle | kAll | kReplay;
inline constexpr unsigned kMatrixRuns = kSingle | kAll | kCampaign;
inline constexpr unsigned kEveryRun = kSingle | kAll | kReplay | kCampaign;

/// What a run reads beyond its mode: the policy's tiers, and a pipeline
/// workload's host stage; a row without tiers is read under every policy.
enum Tier : unsigned { kDivision = 1, kWma = 2, kStaticDivision = 4, kStaticPair = 8,
                       kHostStage = 16 };

enum Type { kBool, kInt, kDouble, kString };

/// What a present flag needs before it can change the run, and the refusal
/// when that is missing.
enum Needs { kNothing, kFaultChannel, kClockDelay, kThrottle, kCheckpointDir,
             kPipelineWorkload };
inline constexpr const char* kNeedsText[] = {
    "",
    " requires an active --fault-* channel",
    " requires a clock-delay rate (--fault-clock-delay or --fault-rate)",
    " requires --fault-throttle-mtbf > 0",
    " requires --checkpoint-dir",
    " requires a pipeline --workload",
};

inline constexpr double kInf = std::numeric_limits<double>::infinity();

struct FlagRow {
  const char* name;
  Type type;
  unsigned modes;
  unsigned tiers = 0;
  Needs needs = kNothing;
  /// The flag's contract is byte-identical output: it changes only how the
  /// run executes or what it leaves behind for a resume.
  bool identical_output = false;
  double lo = -kInf;
  double hi = kInf;
  bool open = false;  ///< (lo, hi) instead of [lo, hi]
  const char* range_note = "";
  const char* help = "";
};

inline constexpr FlagRow kFlags[] = {
    {.name = "workload", .type = kString, .modes = kMatrixRuns,
     .help = "Table II name, pipeline workload, or all"},
    {.name = "policy", .type = kString, .modes = kPolicyRuns,
     .help = "best-performance|scaling|division|greengpu|static-division|static-pair"},
    {.name = "ratio", .type = kDouble, .modes = kWorkloadRuns, .tiers = kStaticDivision,
     .help = "static CPU share (default 0.1)"},
    {.name = "core-level", .type = kInt, .modes = kPolicyRuns, .tiers = kStaticPair,
     .help = "static GPU core level (default 0)"},
    {.name = "mem-level", .type = kInt, .modes = kPolicyRuns, .tiers = kStaticPair,
     .help = "static GPU memory level (default 0)"},
    {.name = "divider", .type = kString, .modes = kWorkloadRuns, .tiers = kDivision,
     .help = "step|qilin|energy (energy: one card)"},
    {.name = "governor", .type = kString, .modes = kPolicyRuns,
     .help = "CPU governor: none|performance|powersave|ondemand|conservative|wma"},
    {.name = "step", .type = kDouble, .modes = kWorkloadRuns, .tiers = kDivision,
     .help = "division step"},
    {.name = "init-ratio", .type = kDouble, .modes = kWorkloadRuns, .tiers = kDivision,
     .help = "initial CPU share (one card; N cards start at 10 %)"},
    {.name = "safeguard", .type = kBool, .modes = kWorkloadRuns, .tiers = kDivision,
     .help = "division safeguard (default 1)"},
    {.name = "alpha-c", .type = kDouble, .modes = kPolicyRuns, .tiers = kWma,
     .help = "core loss trade-off (Eq. 1)"},
    {.name = "alpha-m", .type = kDouble, .modes = kPolicyRuns, .tiers = kWma,
     .help = "memory loss trade-off (Eq. 2)"},
    {.name = "phi", .type = kDouble, .modes = kPolicyRuns, .tiers = kWma, .lo = 0,
     .hi = 1, .help = "core-vs-memory balance (Eq. 3)"},
    {.name = "beta", .type = kDouble, .modes = kPolicyRuns, .tiers = kWma, .lo = 0,
     .hi = 1, .open = true, .help = "history-vs-new-loss trade-off (Eq. 4)"},
    {.name = "interval", .type = kDouble, .modes = kPolicyRuns, .tiers = kWma, .lo = 0,
     .open = true, .help = "GPU scaling period, s (default 3)"},
    {.name = "iterations", .type = kInt, .modes = kMatrixRuns, .lo = 0,
     .help = "truncate each run (skips verification)"},
    {.name = "jobs", .type = kInt, .modes = kMatrixRuns, .identical_output = true,
     .lo = 0, .help = "workers, 0 = all cores (default 1)"},
    {.name = "sync", .type = kBool, .modes = kPolicyRuns, .help = "spinning stack"},
    {.name = "trace", .type = kString, .modes = kSingle, .help = "write a trace CSV"},
    {.name = "csv", .type = kBool, .modes = kWorkloadRuns, .help = "one CSV row per run"},
    {.name = "no-verify", .type = kBool, .modes = kPolicyRuns, .help = "no verification"},
    {.name = "gpus", .type = kInt, .modes = kWorkloadRuns, .lo = 1, .hi = 64,
     .help = "identical simulated cards (default 1)"},
    {.name = "replay", .type = kString, .modes = kReplay,
     .help = "run a utilization trace CSV (time,core,mem)"},
    {.name = "campaign", .type = kBool, .modes = kCampaign,
     .help = "run the workload x policy matrix"},
    {.name = "json", .type = kString, .modes = kCampaign, .help = "write a JSON report"},
    {.name = "markdown", .type = kBool, .modes = kCampaign, .help = "Markdown, not CSV"},
    {.name = "list", .type = kBool, .modes = kList, .help = "print the names"},
    {.name = "checkpoint-dir", .type = kString, .modes = kCampaign,
     .help = "journal and snapshot directory"},
    {.name = "checkpoint-every", .type = kInt, .modes = kCampaign,
     .needs = kCheckpointDir, .identical_output = true, .lo = 1,
     .range_note = " (omit the flag to disable periodic snapshots)",
     .help = "also snapshot every N iterations"},
    {.name = "resume", .type = kBool, .modes = kCampaign, .needs = kCheckpointDir,
     .identical_output = true, .help = "skip the cells already journaled"},
    {.name = "crash-at", .type = kString, .modes = kEveryRun,
     .help = "exit 70 at POINT[:N], a kill-point (src/common/killpoint.h)"},
    {.name = "hardened", .type = kBool, .modes = kEveryRun, .needs = kFaultChannel,
     .help = "retries, rerouting, stale-sample hold, watchdog"},
    {.name = "fault-rate", .type = kDouble, .modes = kEveryRun, .help = "every channel"},
    {.name = "fault-seed", .type = kInt, .modes = kEveryRun, .needs = kFaultChannel,
     .help = "fault schedule seed"},
    {.name = "fault-util-drop", .type = kDouble, .modes = kEveryRun, .tiers = kWma,
     .help = "utilization read fails"},
    {.name = "fault-util-stale", .type = kDouble, .modes = kEveryRun, .tiers = kWma,
     .help = "utilization read repeats the last window"},
    {.name = "fault-util-corrupt", .type = kDouble, .modes = kEveryRun, .tiers = kWma,
     .help = "utilization read returns garbage"},
    {.name = "fault-clock-reject", .type = kDouble, .modes = kEveryRun, .tiers = kWma,
     .help = "clock write rejected"},
    {.name = "fault-clock-delay", .type = kDouble, .modes = kEveryRun, .tiers = kWma,
     .help = "clock write lands late"},
    {.name = "fault-clock-clamp", .type = kDouble, .modes = kEveryRun, .tiers = kWma,
     .help = "clock write moves one level"},
    {.name = "fault-clock-delay-s", .type = kDouble, .modes = kEveryRun, .tiers = kWma,
     .needs = kClockDelay, .help = "late clock write delay, s (default 0.5)"},
    {.name = "fault-launch", .type = kDouble, .modes = kEveryRun, .help = "launch fails"},
    {.name = "fault-host", .type = kDouble, .modes = kMatrixRuns,
     .tiers = kDivision | kStaticDivision | kHostStage, .help = "host chunk fails"},
    {.name = "fault-throttle-mtbf", .type = kDouble, .modes = kEveryRun,
     .help = "mean s between throttle episodes"},
    {.name = "fault-throttle-duration", .type = kDouble, .modes = kEveryRun,
     .needs = kThrottle, .help = "throttle episode, s (default 5)"},
    {.name = "engine", .type = kString, .modes = kCampaign, .identical_output = true,
     .help = "scalar|batch (default scalar)"},
    {.name = "fault-replicates", .type = kInt, .modes = kCampaign,
     .needs = kFaultChannel, .lo = 0, .help = "forked-seed copies of every policy"},
    {.name = "fault-warmup", .type = kInt, .modes = kMatrixRuns, .needs = kFaultChannel,
     .lo = 0, .help = "first faulty iteration"},
    {.name = "pipeline", .type = kBool, .modes = kMatrixRuns,
     .needs = kPipelineWorkload, .help = "overlap copies and kernels (default 1)"},
    {.name = "stream-depth", .type = kInt, .modes = kMatrixRuns,
     .needs = kPipelineWorkload, .lo = 1, .hi = 64, .help = "chunks in flight"},
    {.name = "chunks", .type = kInt, .modes = kMatrixRuns, .needs = kPipelineWorkload,
     .lo = 1, .hi = 8192, .help = "chunks/frames per iteration (default 8)"},
};

/// "in [lo, hi]", "in (lo, hi)", ">= lo", "> lo", or "" for an unbounded flag.
inline std::string range_text(const FlagRow& row) {
  char buf[64] = "";
  if (row.hi != kInf) {
    std::snprintf(buf, sizeof buf, "in %c%g, %g%c", row.open ? '(' : '[', row.lo, row.hi,
                  row.open ? ')' : ']');
  } else if (row.lo != -kInf) {
    std::snprintf(buf, sizeof buf, "%s %g", row.open ? ">" : ">=", row.lo);
  }
  return buf;
}

/// One line per flag: name, value, help, the modes that read it, and what
/// it requires or must lie in.
inline std::string usage() {
  static constexpr const char* kMetavar[] = {"[0|1]", "N", "X", "STR"};
  static constexpr const char* kModeNames[] = {"single", "all", "replay", "campaign",
                                                "list"};
  std::string out;
  for (const FlagRow& row : kFlags) {
    std::string modes;  // ",single,all,..."
    for (int bit = 0; bit < 5; ++bit) {
      if ((row.modes >> bit & 1U) != 0) modes += std::string(",") + kModeNames[bit];
    }
    const std::string range = range_text(row);
    char buf[256];
    std::snprintf(buf, sizeof buf, "  --%-24s %-6s %s [%s]%s%s%s\n", row.name,
                  kMetavar[row.type], row.help, modes.c_str() + 1, kNeedsText[row.needs],
                  range.empty() ? "" : ", ", range.c_str());
    out += buf;
  }
  return out;
}

inline Mode mode_of(const Flags& flags) {
  if (flags.get_bool("list", false)) return kList;
  if (flags.get_bool("campaign", false)) return kCampaign;
  if (!flags.get_string("replay").empty()) return kReplay;
  return flags.get_string("workload") == "all" ? kAll : kSingle;
}

/// --campaign 0, --list 0 or --replay "" selects no mode: the flag reads as absent.
inline bool mode_flag_off(const Flags& flags, const std::string& name) {
  if (name == "replay") return flags.get_string(name).empty();
  return (name == "list" || name == "campaign") && !flags.get_bool(name, false);
}

/// Why a mode does not read a flag, by mode bit; a single run reads every row
/// but the campaign's and the mode flags.
inline constexpr const char* kModeRefusal[] = {
    " requires --campaign", " needs a single --workload",
    " cannot be combined with --replay", " cannot be combined with --campaign",
    " cannot be combined with --list"};

/// The tiers a run of `workload` reads under `policy` (a campaign: greengpu).
/// A CPU share needs a divisible workload, as --workload all and a campaign
/// without one hold; a pipeline workload submits host work under any policy.
inline unsigned tiers_of(const std::string& policy, const std::string& workload) {
  const auto has = [&](const std::vector<std::string>& names) {
    return std::ranges::find(names, workload) != names.end();
  };
  const bool divisible =
      workload.empty() || workload == "all" || has(workloads::divisible_workload_names());
  const unsigned host = has(workloads::pipeline_workload_names()) ? kHostStage : 0U;
  if (policy == "static-division") return (divisible ? kStaticDivision : 0U) | host;
  if (policy == "static-pair") return kStaticPair | host;
  const greengpu::Policy p = greengpu::policy_by_name(policy);
  return (p.division && divisible ? kDivision : 0U) | (p.gpu_scaling ? kWma : 0U) | host;
}

struct Checked {
  Mode mode;
  sim::FaultConfig faults;
};

/// Throws std::invalid_argument with one line naming the first flag that is
/// unknown, malformed, out of range, not read by the mode or the policy, or
/// missing what it needs.
inline Checked check_flags(const Flags& flags) {
  const auto reject = [](const FlagRow& row, const std::string& why) {
    throw std::invalid_argument(std::string("--") + row.name + why);
  };
  for (const FlagRow& row : kFlags) (void)flags.has(row.name);  // has() marks consumed
  flags.reject_unknown();
  const Mode mode = mode_of(flags);
  for (const FlagRow& row : kFlags) {
    if (!flags.has(row.name)) continue;
    const double v = row.type == kBool     ? double(flags.get_bool(row.name, false))
                     : row.type == kInt    ? double(flags.get_int(row.name, 0))
                     : row.type == kDouble ? flags.get_double(row.name, 0.0)
                                           : double(flags.get_string(row.name).empty());
    if (row.lo != -kInf &&
        !(row.open ? (v > row.lo && v < row.hi) : (v >= row.lo && v <= row.hi))) {
      reject(row, " must be " + range_text(row) + row.range_note);
    }
    if ((row.modes & mode) != 0 || mode_flag_off(flags, row.name)) continue;
    reject(row, row.modes == kCampaign ? " requires --campaign"
                                       : kModeRefusal[std::countr_zero(unsigned{mode})]);
  }
  const std::string policy = flags.get_string("policy", "greengpu");
  const std::string workload = flags.get_string("workload");
  const unsigned tiers = tiers_of(policy, workload);
  for (const FlagRow& row : kFlags) {
    if (flags.has(row.name) && row.tiers != 0 && (row.tiers & tiers) == 0) {
      reject(row, (row.tiers & tiers_of(policy, "all")) != 0
                      ? " cannot be used with --workload " + workload
                      : " cannot be used with --policy " + policy);
    }
  }
  // Ranges of the --fault-* family are checked where they are parsed, for
  // greengpud too.
  const sim::FaultConfig faults = sim::FaultConfig::from_flags(flags);
  const bool checkpoint_dir = !flags.get_string("checkpoint-dir").empty();
  const bool met[] = {true,  // indexed by Needs
                      faults.any_faults(),
                      faults.clock_delay_rate > 0.0,
                      faults.throttle_mtbf > Seconds{0.0},
                      checkpoint_dir,
                      (tiers & kHostStage) != 0};
  for (const FlagRow& row : kFlags) {
    if (flags.has(row.name) && !met[row.needs]) reject(row, kNeedsText[row.needs]);
  }

  // Rules on a flag's value rather than its presence.
  if (const std::string e = flags.get_string("engine", "scalar");
      !greengpu::campaign_engine_from_string(e)) {
    throw std::invalid_argument("--engine must be 'scalar' or 'batch', got '" + e + "'");
  }
  if (flags.get_int("gpus", 1) > 1 && flags.has("init-ratio")) {
    throw std::invalid_argument("--init-ratio cannot be combined with --gpus > 1");
  }
  // A kill-point the run never reaches would exit 0 as if no crash was asked for.
  if (flags.has("crash-at")) {
    const std::string spec = flags.get_string("crash-at");
    using common::KillPoint;
    const KillPoint point = sim::parse_crash_spec(spec).point;
    const bool reached =
        point == KillPoint::kPreScalerStep || point == KillPoint::kPostScalerStep
            ? (tiers & kWma) != 0
        : (point == KillPoint::kMidCheckpoint || point == KillPoint::kMidCampaignCell) &&
              checkpoint_dir;
    if (!reached) throw std::invalid_argument("--crash-at " + spec + " is never reached");
  }
  return {mode, faults};
}

}  // namespace gg::cli
