"""Intraprocedural (single-body / single-line) lint rules.

This is the rule set `tools/greengpu_lint.py` has always enforced —
nondeterminism sources, unordered iteration in report paths, hot-path
allocation, batch-loop allocation, pipeline blocking syncs, checkpoint
writes, service growth, the hot registry — now built on the shared
scanner so gg-analyze's interprocedural rules see the same tokens.
See docs/STATIC_ANALYSIS.md for the rule table.
"""

from __future__ import annotations

import os
import re

from gglint.diagnostics import Diagnostic, SuppressionTable
from gglint.scanner import (loop_spans, marker_spans, match_brace,
                            strip_comments_and_strings)

# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------

SCAN_DIRS = ("src", "tools", "bench", "examples", "tests")
EXTS = (".h", ".hpp", ".cpp", ".cc")
EXCLUDE_PARTS = ("tests/tools/fixtures",)  # lint's own violation corpus

# nondeterminism: (regex, only_under_src, message)
NONDET_PATTERNS = [
    (re.compile(r"std::random_device"), False,
     "std::random_device is a nondeterministic seed source; use a seeded "
     "generator from src/common/rng.h"),
    (re.compile(r"\b(?:std::)?s?rand\s*\("), False,
     "rand()/srand() draw from hidden global state; use a seeded generator "
     "from src/common/rng.h"),
    (re.compile(r"\bsystem_clock\b|\bhigh_resolution_clock\b"), False,
     "wall-clock reads make runs irreproducible; simulated time comes from "
     "sim::EventQueue::now()"),
    (re.compile(r"\bsteady_clock\b"), True,
     "steady_clock is sanctioned for wall-time measurement in tools/ and "
     "bench/ only; inside src/ all time must come from sim::EventQueue::now()"),
    (re.compile(r"\bgettimeofday\s*\(|\bclock_gettime\s*\(|\bclock\s*\(\s*\)"), False,
     "OS clock reads make runs irreproducible; simulated time comes from "
     "sim::EventQueue::now()"),
    (re.compile(r"(?:::|\bstd::)time\s*\(|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"), False,
     "time() is a wall-clock read; simulated time comes from "
     "sim::EventQueue::now()"),
    (re.compile(r"\bgetenv\s*\("), False,
     "environment reads make runs host-dependent; thread configuration "
     "through src/common/flags.h"),
]

# unordered containers are banned outright in these translation units: they
# produce the repo's externally-visible bytes (CSV/JSON reports, traces,
# telemetry snapshots), where unspecified iteration order breaks the
# byte-identity contract.
REPORT_PATH_RE = re.compile(
    r"(src/common/(csv|json)\.(h|cpp)"
    r"|src/greengpu/(campaign|telemetry)\.(h|cpp)"
    r"|src/sim/trace\.(h|cpp)"
    r"|report|serial)")

UNORDERED_DECL_RE = re.compile(
    r"\b(?:std::)?unordered_(?:map|set|multimap|multiset)\s*<")
# declared variable name after the closing template bracket, e.g.
# `std::unordered_map<K, V> index_;` or `unordered_set<int> seen{...};`
UNORDERED_VAR_RE = re.compile(
    r"\b(?:std::)?unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s*&?\s*"
    r"(\w+)\s*(?:[;={(,)]|$)")

ALLOC_PATTERNS = [
    (re.compile(r"\bnew\b"), "operator new"),
    (re.compile(r"\b(?:malloc|calloc|realloc|strdup)\s*\("), "C allocation"),
    (re.compile(r"\bmake_(?:unique|shared)\b"), "make_unique/make_shared"),
    (re.compile(r"\.(?:push_back|emplace_back|emplace|insert|resize|reserve)\s*\("),
     "container growth"),
    (re.compile(r"\bstd::to_string\b|\bstd::(?:o|i)?stringstream\b|"
                r"\bstd::string\s*[({]"), "string construction"),
    (re.compile(r"\bstd::function\s*<"), "std::function construction"),
    (re.compile(r"\bstd::vector\s*<[^;]*?>\s+\w+\s*[({]"), "local vector"),
]

# hot-registry: (repo-relative file, definition regex, display name).
# These are the functions whose allocation-freedom the benchmarks and the
# PR 3 equivalence suite rely on; each must carry GG_HOT on its definition
# line or the line above.
REQUIRED_HOT = [
    ("src/greengpu/weight_table.cpp",
     re.compile(r"PairIndex\s+WeightTable::update_fused\s*\("),
     "WeightTable::update_fused"),
    ("src/greengpu/wma_scaler.cpp",
     re.compile(r"ScalerDecision\s+GpuFrequencyScaler::step_fast\s*\("),
     "GpuFrequencyScaler::step_fast"),
    ("src/sim/event_queue.cpp",
     re.compile(r"EventHandle\s+EventQueue::schedule_at\s*\("),
     "EventQueue::schedule_at"),
    ("src/sim/event_queue.cpp",
     re.compile(r"bool\s+EventQueue::step\s*\("),
     "EventQueue::step"),
    ("src/sim/event_queue.cpp",
     re.compile(r"bool\s+EventQueue::fire_inline\s*\("),
     "EventQueue::fire_inline"),
    ("src/sim/event_queue.h",
     re.compile(r"std::uint32_t\s+acquire\s*\("),
     "EventSlab::acquire"),
    # The CPU governor's tick loop: one call per run of back-to-back
    # samples (100 ms each, ~50k per long model-only cell).
    ("src/greengpu/cpu_governor.cpp",
     re.compile(r"void\s+CpuGovernor::tick\s*\("),
     "CpuGovernor::tick"),
    # Its leap: one loop iteration per sample that keeps the level (~96% of
    # the samples of a long model-only cell).
    ("src/greengpu/cpu_governor.cpp",
     re.compile(r"void\s+CpuGovernor::leap\s*\("),
     "CpuGovernor::leap"),
    ("src/greengpu/telemetry.h",
     re.compile(r"void\s+push\s*\("),
     "DecisionRecorder::push"),
    # Batch campaign engine: the lockstep stepper carries
    # GG_HOT_BATCH, which puts its loop body under the batch-loop-alloc rule.
    ("src/greengpu/batch_engine.cpp",
     re.compile(r"void\s+step_lockstep\s*\("),
     "step_lockstep"),
    # Async stream machinery (PR 8): the per-stream issue loop runs once per
    # queued op per completion event — the pipeline's hot path.
    ("src/cudalite/stream_scheduler.cpp",
     re.compile(r"void\s+StreamScheduler::pump\s*\("),
     "StreamScheduler::pump"),
    # The campaign's hottest real kernels: nbody's all-pairs step and
    # kmeans' assignment pass (the SSE2 lane loops) and QG's incremental
    # Sobol generation.
    ("src/workloads/nbody.cpp",
     re.compile(r"void\s+advance_bodies\s*\("),
     "advance_bodies"),
    ("src/workloads/kmeans.cpp",
     re.compile(r"void\s+assign_points\s*\("),
     "assign_points"),
    ("src/workloads/sobol.cpp",
     re.compile(r"void\s+Sobol::fill\s*\("),
     "Sobol::fill"),
]

# pipeline-blocking-sync: blocking waits banned inside GG_PIPELINE_STAGE
# callback bodies (brace-matched from the first '{' after the marker).
PIPELINE_SYNC_RE = re.compile(r"\b(?:device_synchronize|synchronize)\s*\(")

# checkpoint-write: an ofstream construction counts as a checkpoint write
# when the file itself is checkpoint infrastructure, or when the raw lines
# just above (strings and comments included — that is where path literals
# like ".ggsn" live) mention checkpoint tokens.  GG_LINT_ALLOW lines are
# not evidence, or suppression comments would self-trigger the rule.
CKPT_OFSTREAM_RE = re.compile(r"\b(?:std::)?ofstream\b")
CKPT_FILE_RE = re.compile(r"(snapshot|checkpoint|recovery|journal|ckpt)",
                          re.IGNORECASE)
CKPT_TOKEN_RE = re.compile(r"ckpt|checkpoint|snapshot|journal|\.ggsn",
                           re.IGNORECASE)
CKPT_WINDOW = 4  # raw lines above the construction scanned for evidence

# service-growth: applies to the always-on service layer (and, like the
# checkpoint-write filename heuristic, to any file named after it, which is
# how the fixture corpus exercises the rule).
SERVICE_PATH_RE = re.compile(r"(^|/)src/service/|service[^/]*$")
SERVICE_GROWTH_RE = re.compile(
    r"\.\s*(?:push_back|emplace_back|emplace|push|insert)\s*\(")
BOUNDED_RE = re.compile(r"GG_BOUNDED\(([^)]*)\)")

# socket-blocking-write: raw socket syscalls in the service layer are only
# sanctioned inside GG_NONBLOCK_IO-annotated helper bodies, whose contract
# (bounded EINTR retry, EAGAIN deferral, EPIPE -> orderly close) is what
# keeps one stalled WATCH subscriber from wedging the daemon.  The negative
# lookbehind keeps qualified names (ServiceJournal::read) from matching the
# global-scope syscall form (::read).
SOCKET_SYSCALL_RE = re.compile(r"(?<![\w>])::\s*(read|write|send|recv)\s*\(")

# --------------------------------------------------------------------------
# Mechanics
# --------------------------------------------------------------------------


class FileLinter:
    def __init__(self, relpath: str, raw: str):
        self.relpath = relpath
        self.raw_lines = raw.splitlines()
        self.code = strip_comments_and_strings(raw)
        self.code_lines = self.code.splitlines()
        self.suppressions = SuppressionTable(self.raw_lines)
        self.diags: list = []

    def report(self, line: int, rule: str, message: str) -> None:
        hit = self.suppressions.probe(line, rule)
        if hit is not None:
            kind, payload = hit
            if kind == "allowed":
                return  # suppressed with a reason
            self.diags.append(Diagnostic(
                self.relpath, payload, "bare-suppression",
                f"GG_LINT_ALLOW({rule}) needs a reason after ':'"))
            return
        self.diags.append(Diagnostic(self.relpath, line, rule, message))

    # -- nondeterminism ----------------------------------------------------
    def check_nondeterminism(self) -> None:
        under_src = self.relpath.startswith("src/")
        for ln, line in enumerate(self.code_lines, 1):
            for pattern, src_only, message in NONDET_PATTERNS:
                if src_only and not under_src:
                    continue
                if pattern.search(line):
                    self.report(ln, "nondeterminism", message)

    # -- unordered-iter ----------------------------------------------------
    def check_unordered(self) -> None:
        in_report_path = REPORT_PATH_RE.search(self.relpath) is not None
        unordered_vars = set()
        for ln, line in enumerate(self.code_lines, 1):
            if in_report_path and UNORDERED_DECL_RE.search(line):
                self.report(
                    ln, "unordered-iter",
                    "unordered containers are banned in report/serialization "
                    "paths (iteration order is unspecified); use std::map or "
                    "a sorted vector")
            for m in UNORDERED_VAR_RE.finditer(line):
                unordered_vars.add(m.group(1))
        if not unordered_vars:
            return
        names = "|".join(re.escape(v) for v in sorted(unordered_vars))
        range_for = re.compile(
            r"for\s*\([^;)]*:\s*(?:\w+(?:\.|->))*(" + names + r")\b")
        for ln, line in enumerate(self.code_lines, 1):
            m = range_for.search(line)
            if m:
                self.report(
                    ln, "unordered-iter",
                    f"range-for over unordered container '{m.group(1)}' has "
                    "unspecified order; iterate sorted keys or switch to an "
                    "ordered container")

    # -- hot-alloc ---------------------------------------------------------
    def check_hot_alloc(self) -> None:
        for name, open_idx, close_idx in marker_spans(self.code, "GG_HOT"):
            start = self.code.count("\n", 0, open_idx) + 1
            end = self.code.count("\n", 0, close_idx) + 1
            for ln in range(start, end + 1):
                line = self.code_lines[ln - 1] if ln - 1 < len(self.code_lines) else ""
                for pattern, what in ALLOC_PATTERNS:
                    if pattern.search(line):
                        self.report(
                            ln, "hot-alloc",
                            f"{what} in GG_HOT function '{name}' — hot paths "
                            "must be allocation-free (see "
                            "src/common/annotations.h)")

    # -- batch-loop-alloc --------------------------------------------------
    def check_batch_loop_alloc(self) -> None:
        """GG_HOT_BATCH steppers may allocate in their prologue (gather
        buffers, pointer tables) but never inside a loop — loop bodies run
        once per cell per iteration.  Note GG_HOT's \\bGG_HOT\\b word
        boundary does not match inside GG_HOT_BATCH (underscore is a word
        character), so the two rules never double-report a function."""
        for name, open_idx, close_idx in marker_spans(self.code, "GG_HOT_BATCH"):
            loop_lines: set = set()
            for body_open, body_close in loop_spans(self.code, open_idx, close_idx):
                first = self.code.count("\n", 0, body_open) + 1
                last = self.code.count("\n", 0, body_close) + 1
                loop_lines.update(range(first, last + 1))
            for ln in sorted(loop_lines):
                line = self.code_lines[ln - 1] if ln - 1 < len(self.code_lines) else ""
                for pattern, what in ALLOC_PATTERNS:
                    if pattern.search(line):
                        self.report(
                            ln, "batch-loop-alloc",
                            f"{what} inside a loop of GG_HOT_BATCH function "
                            f"'{name}' — the batch stepper runs this once per "
                            "cell per iteration; hoist the allocation into "
                            "the prologue (see src/common/annotations.h)")

    # -- pipeline-blocking-sync --------------------------------------------
    def check_pipeline_blocking_sync(self) -> None:
        """Stage callbacks marked GG_PIPELINE_STAGE run inside the stream
        machinery; a blocking wait there serializes (or deadlocks) the
        pipeline.  Body = first '{' after the marker, brace-matched."""
        for _, open_idx, close_idx in marker_spans(self.code, "GG_PIPELINE_STAGE"):
            start = self.code.count("\n", 0, open_idx) + 1
            end = self.code.count("\n", 0, close_idx) + 1
            for ln in range(start, end + 1):
                line = self.code_lines[ln - 1] if ln - 1 < len(self.code_lines) else ""
                if PIPELINE_SYNC_RE.search(line):
                    self.report(
                        ln, "pipeline-blocking-sync",
                        "blocking synchronize()/device_synchronize() inside a "
                        "GG_PIPELINE_STAGE callback serializes the pipeline "
                        "the stage belongs to (and a wait on the stage's own "
                        "stream deadlocks the issue loop); order with events "
                        "(stream_wait_event) and completion callbacks "
                        "(see src/common/annotations.h)")

    # -- checkpoint-write --------------------------------------------------
    def check_checkpoint_write(self) -> None:
        fname = self.relpath.rsplit("/", 1)[-1]
        infra_file = CKPT_FILE_RE.search(fname) is not None
        for ln, line in enumerate(self.code_lines, 1):
            if not CKPT_OFSTREAM_RE.search(line):
                continue
            evidence = infra_file
            if not evidence:
                lo = max(0, ln - 1 - CKPT_WINDOW)
                for raw in self.raw_lines[lo:ln]:
                    if "GG_LINT_ALLOW" in raw:
                        continue
                    if CKPT_TOKEN_RE.search(raw):
                        evidence = True
                        break
            if evidence:
                self.report(
                    ln, "checkpoint-write",
                    "direct ofstream to a checkpoint/snapshot path is not "
                    "crash-safe (a kill mid-write leaves a torn file); route "
                    "it through SnapshotWriter::write_atomic "
                    "(src/common/snapshot.h)")

    # -- service-growth ----------------------------------------------------
    def check_service_growth(self) -> None:
        if not SERVICE_PATH_RE.search(self.relpath):
            return
        for ln, line in enumerate(self.code_lines, 1):
            if not SERVICE_GROWTH_RE.search(line):
                continue
            annotation = None
            for probe in (ln, ln - 1):
                if probe < 1:
                    continue
                m = BOUNDED_RE.search(self.raw_lines[probe - 1])
                if m:
                    annotation = m
                    break
            if annotation is not None:
                if annotation.group(1).strip():
                    continue  # bounded, with a stated reason
                self.diags.append(Diagnostic(
                    self.relpath, ln, "service-growth",
                    "GG_BOUNDED() needs a reason naming the bound (e.g. "
                    "GG_BOUNDED(capacity enforced by BoundedQueue))"))
                continue
            self.report(
                ln, "service-growth",
                "unbounded container growth in the service layer — route it "
                "through common::BoundedQueue or annotate the site "
                "GG_BOUNDED(<why the growth is bounded>) "
                "(src/common/annotations.h)")

    # -- socket-blocking-write ---------------------------------------------
    def check_socket_write(self) -> None:
        """Raw ::read/::write/::send/::recv in the service layer must live
        inside a GG_NONBLOCK_IO-annotated helper body (first '{' after the
        marker, brace-matched) — anywhere else it is presumed to block the
        daemon's single poll thread."""
        if not SERVICE_PATH_RE.search(self.relpath):
            return
        sanctioned: set = set()
        for _, open_idx, close_idx in marker_spans(self.code, "GG_NONBLOCK_IO"):
            first = self.code.count("\n", 0, open_idx) + 1
            last = self.code.count("\n", 0, close_idx) + 1
            sanctioned.update(range(first, last + 1))
        for ln, line in enumerate(self.code_lines, 1):
            m = SOCKET_SYSCALL_RE.search(line)
            if not m or ln in sanctioned:
                continue
            self.report(
                ln, "socket-blocking-write",
                f"raw ::{m.group(1)}() in the service layer outside a "
                "GG_NONBLOCK_IO helper — a blocking socket call lets one "
                "slow peer wedge the daemon's poll loop; route the byte "
                "through the annotated non-blocking helpers "
                "(src/common/annotations.h)")

    def run(self) -> list:
        self.check_nondeterminism()
        self.check_unordered()
        self.check_hot_alloc()
        self.check_batch_loop_alloc()
        self.check_pipeline_blocking_sync()
        self.check_checkpoint_write()
        self.check_service_growth()
        self.check_socket_write()
        return self.diags


def check_registry(root: str) -> list:
    diags = []
    for relpath, pattern, display in REQUIRED_HOT:
        path = os.path.join(root, relpath)
        try:
            with open(path, encoding="utf-8") as f:
                raw = f.read()
        except OSError:
            diags.append(Diagnostic(
                relpath, 1, "hot-registry",
                f"registry function '{display}' expected here but the file "
                "is missing — update REQUIRED_HOT in tools/gglint/"
                "intraprocedural.py"))
            continue
        lines = strip_comments_and_strings(raw).splitlines()
        found = False
        for ln, line in enumerate(lines, 1):
            if pattern.search(line):
                found = True
                prev = lines[ln - 2] if ln >= 2 else ""
                if "GG_HOT" not in line and "GG_HOT" not in prev:
                    diags.append(Diagnostic(
                        relpath, ln, "hot-registry",
                        f"'{display}' is in the hot registry but its "
                        "definition is missing the GG_HOT annotation"))
                break
        if not found:
            diags.append(Diagnostic(
                relpath, 1, "hot-registry",
                f"registry function '{display}' not found — if it moved or "
                "was renamed, update REQUIRED_HOT in tools/gglint/"
                "intraprocedural.py"))
    return diags


def iter_tree(root: str, dirs=SCAN_DIRS):
    for top in dirs:
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for fname in sorted(filenames):
                path = os.path.join(dirpath, fname)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                if not rel.endswith(EXTS):
                    continue
                if any(part in rel for part in EXCLUDE_PARTS):
                    continue
                yield path, rel


def resolve_targets(root: str, files) -> list:
    """Map explicit file arguments to (abspath, display-relpath) pairs the
    way the lint always has: root-relative when under root, bare basename
    otherwise (fixtures referenced from elsewhere)."""
    targets = []
    for f in files:
        path = os.path.abspath(f)
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        if rel.startswith(".."):
            rel = os.path.basename(path)  # outside root: bare name
        targets.append((path, rel))
    return targets
