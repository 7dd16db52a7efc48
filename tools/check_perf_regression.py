#!/usr/bin/env python3
"""Perf regression gate for BENCH_campaign.json.

Compares a freshly measured record against the committed one:

  check_perf_regression.py --baseline BENCH_campaign.json \
                           --current  BENCH_new.json [--tolerance 0.25]

Checks, in order:
  * hard invariants that must hold on any host: the determinism identity
    flags (including batch-vs-scalar engine identity), the scaler
    fast-vs-reference decision identity, the attached-vs-heap-driven
    CPU governor identity, and exact counts (the 36-cell campaign computes
    one verify reference per workload, 9; the model-only kmeans cell takes
    49405 governor decisions; a default bfs run relaxes 7 rounds);
  * the scaler fast path must actually be faster than the reference
    (speedup floor, host-independent — both sides ran on the same machine);
  * the batch campaign engine must beat the scalar engine on the replicate
    sweep (speedup floor, host-independent for the same reason);
  * Sobol::fill must beat per-index Sobol::sample on the same points
    (speedup floor, host-independent — both sides ran on the same machine),
    and the nbody, kmeans and QG fast paths must keep their bits whatever
    the work split (invariant flag);
  * the pipelined schedules must beat their synchronous baselines on
    simulated makespan (speedup floor) and keep a minimum copy/compute
    overlap — fully host-independent: both sides are simulated seconds;
  * the parallel speedup vs --jobs 1, but only when neither record carries
    the single_core_host marker — one worker cannot speed anything up, so
    comparing that number across host classes is meaningless;
  * the nbody and kmeans verify() references on a host_cpus-worker pool
    must not run slower than the same references on a 1-worker pool
    (speedup floor, both sides on the same machine), skipped when the
    current record carries the single_core_host marker;
  * ns/op (the governor's per-tick cost included) and campaign wall-clock
    regressions vs the baseline, but only
    when the baseline was recorded on the same host class (matching
    host_cpus) — absolute timings are not comparable across machines.

Exit code 0 = pass, 1 = regression/invariant failure, 2 = usage error.
Stdlib only.
"""

import argparse
import json
import sys

# Timed metrics gated when the host class matches ("lower is better").
TIMED_METRICS = [
    ("campaign", "serial_seconds"),
    ("campaign", "parallel_seconds"),
    ("event_queue", "schedule_fire_ns_per_event"),
    ("event_queue", "schedule_cancel_fire_ns_per_event"),
    ("event_queue", "cancel_churn_ns_per_op"),
    ("scaler", "fast_ns_per_step"),
    ("checkpoint", "every_0_seconds"),
    ("checkpoint", "every_10_seconds"),
    ("checkpoint", "every_100_seconds"),
    ("batch", "scalar_seconds"),
    ("batch", "batch_seconds"),
    ("pipeline", "campaign_seconds"),
    ("kernels", "nbody_ns_per_interaction"),
    ("kernels", "kmeans_ns_per_distance"),
    ("governor", "ns_per_tick"),
    ("verify", "nbody_pooled_ms"),
    ("verify", "kmeans_pooled_ms"),
]

# Invariants that must be true in the current record, on any host.
INVARIANT_FLAGS = [
    ("campaign", "identical_reports"),
    ("campaign", "identical_reports_with_faults"),
    ("scaler", "decisions_identical"),
    ("checkpoint", "journaled_reports_identical"),
    ("batch", "identical_reports"),
    ("batch", "identical_reports_across_jobs"),
    ("pipeline", "all_verified"),
    ("pipeline", "pipelined_energy_lower"),
    ("pipeline", "identical_reports_across_jobs"),
    ("pipeline", "identical_reports_across_engines"),
    ("pipeline", "identical_reports_after_resume"),
    ("kernels", "identical"),
    # The attached CPU governor (samples run inline, off the event heap)
    # against the same governor stepped from a plain heap event.
    ("governor", "identical_to_heap_driven"),
    # nbody's and kmeans' references verify a full run on a 1-worker and a
    # host_cpus-worker pool, and reject a run with a skipped merge on both.
    ("verify", "identical"),
    # Streaming telemetry: every event a slow consumer loses must be
    # accounted by DROPPED framing — delivered + dropped == published.
    ("service", "drop_accounting_exact"),
]

# Counts the current record must hit exactly, on any host.  The default
# campaign is Table II x the paper's four policies; its cells share one
# verify reference per workload, so 9 for 36 cells.  The model-only kmeans
# cell under frequency scaling takes 49405 ondemand decisions whether its
# samples are stepped or leaped, so a leap that drops or doubles a sample
# fails here.  The default bfs run relaxes rounds 1-7 and stops at its fixed
# point (round 7 is the first that lowers no distance): 6 would return early
# distances, 96 means the fixed-point exit is gone.
EXACT_COUNTS = [
    ("campaign", "references", 9),
    ("governor", "decisions", 49405),
    ("kernels", "bfs_rounds_relaxed", 7),
]

# Scaler fast path vs reference, same host by construction.  Wall-clock
# ratio, so it still breathes with host load: repeated runs measure
# 1.77-2.13x on the reference container, hence a floor below that band.
SPEEDUP_FLOOR = 1.5
# Batch engine vs scalar engine on the replicate sweep.  Algorithmic, not
# parallel: both sides run --jobs 1 on the same machine, so the floor holds
# on any host class, single-core included.
BATCH_SPEEDUP_FLOOR = 5.0
# Sobol::fill (one XOR per point) vs Sobol::sample (one XOR per set bit of
# the point's Gray code) over QG's campaign points, same thread, same host.
# Six runs on a 4-vCPU Xeon VM measured 4.8-9.2x (fill ~1.1-2.6 ns per
# sample, its stores included); the floor sits below that band and still
# catches a fill that falls back to per-index generation.
SOBOL_FILL_SPEEDUP_FLOOR = 3.0
# The worse of nbody's and kmeans' verify() references on a host_cpus-worker
# pool vs a 1-worker pool, same host.  Three runs on a quiet 4-vCPU Xeon VM
# measured 1.67-1.80x (nbody 1.67-1.90x, kmeans 1.78-1.98x); two runs while
# the VM's vCPUs were contended read 0.97x and 1.11x.  The floor sits below
# that contended band, so noise alone does not fail it; it catches a pooled
# reference that runs slower than one worker (lock or handoff overhead per
# block, oversubscription), not one that ignores its pool (~1.0x).
VERIFY_SPEEDUP_FLOOR = 0.9
# Pipelined vs synchronous schedule, in SIMULATED seconds — pure model
# arithmetic, identical on every host, so the floors are exact gates, not
# noise-tolerant ones.  Measured: kmeans 1.42x / srad 1.49x at the default
# stream depth, overlap efficiency 0.57 / 0.50.
PIPELINE_SPEEDUP_FLOOR = 1.3   # worst workload's makespan speedup
PIPELINE_OVERLAP_FLOOR = 0.3   # worst workload's overlapped/copy-busy ratio
# Telemetry fan-out floor, events/sec at the WORST measured subscriber count
# (16).  The hub hot path is a seq assignment plus one string copy per ring,
# measured in the millions/sec on the reference container; 50k/s is two
# orders of magnitude of headroom for slow CI hosts while still catching an
# accidental O(subscribers^2) or per-publish allocation storm.
STREAM_EVENTS_FLOOR = 50_000.0


def get(record, section, key):
    try:
        return record[section][key]
    except (KeyError, TypeError):
        return None


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--baseline", required=True, help="committed BENCH_campaign.json")
    p.add_argument("--current", required=True, help="freshly measured record")
    p.add_argument("--tolerance", type=float, default=0.25,
                   help="allowed fractional slowdown vs baseline (default 0.25)")
    args = p.parse_args()

    # A missing/unreadable/malformed BASELINE is not a failure: it just means
    # there is nothing to gate against yet (fresh branch, first record, or a
    # hand-edited file).  Skip cleanly instead of tracebacking in CI.
    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"[SKIP] no usable baseline ({e}); perf gate skipped")
        return 0
    if not isinstance(baseline, dict):
        print(f"[SKIP] baseline {args.baseline} is not a JSON object; "
              "perf gate skipped")
        return 0

    # The CURRENT record was just measured by the caller — if it is broken,
    # the measurement step is broken, and that is a usage error.
    try:
        with open(args.current) as f:
            current = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read current record: {e}", file=sys.stderr)
        return 2
    if not isinstance(current, dict):
        print(f"error: current record {args.current} is not a JSON object",
              file=sys.stderr)
        return 2

    failures = []

    for section, key in INVARIANT_FLAGS:
        value = get(current, section, key)
        if value is None:
            failures.append(f"{section}.{key}: missing from current record")
        elif value is not True:
            failures.append(f"{section}.{key}: expected true, got {value!r}")
        else:
            print(f"[OK]   {section}.{key} = true")

    for section, key, expected in EXACT_COUNTS:
        value = get(current, section, key)
        if value is None:
            failures.append(f"{section}.{key}: missing from current record")
        elif value != expected:
            failures.append(f"{section}.{key}: expected {expected}, got {value!r}")
        else:
            print(f"[OK]   {section}.{key} = {expected}")

    speedup = get(current, "scaler", "speedup_fast_vs_reference")
    if not isinstance(speedup, (int, float)) or isinstance(speedup, bool):
        failures.append("scaler.speedup_fast_vs_reference: missing from current record")
    elif speedup < SPEEDUP_FLOOR:
        failures.append(
            f"scaler.speedup_fast_vs_reference: {speedup:.2f}x < {SPEEDUP_FLOOR:.1f}x floor")
    else:
        print(f"[OK]   scaler fast path {speedup:.2f}x faster than reference "
              f"(floor {SPEEDUP_FLOOR:.1f}x)")

    batch_speedup = get(current, "batch", "speedup_vs_scalar")
    if not isinstance(batch_speedup, (int, float)) or isinstance(batch_speedup, bool):
        failures.append("batch.speedup_vs_scalar: missing from current record")
    elif batch_speedup < BATCH_SPEEDUP_FLOOR:
        failures.append(
            f"batch.speedup_vs_scalar: {batch_speedup:.2f}x < "
            f"{BATCH_SPEEDUP_FLOOR:.1f}x floor")
    else:
        print(f"[OK]   batch engine {batch_speedup:.2f}x faster than scalar "
              f"(floor {BATCH_SPEEDUP_FLOOR:.1f}x)")

    fill_speedup = get(current, "kernels", "sobol_fill_speedup_vs_sample")
    if not isinstance(fill_speedup, (int, float)) or isinstance(fill_speedup, bool):
        failures.append("kernels.sobol_fill_speedup_vs_sample: missing from current record")
    elif fill_speedup < SOBOL_FILL_SPEEDUP_FLOOR:
        failures.append(
            f"kernels.sobol_fill_speedup_vs_sample: {fill_speedup:.2f}x < "
            f"{SOBOL_FILL_SPEEDUP_FLOOR:.1f}x floor")
    else:
        print(f"[OK]   Sobol::fill {fill_speedup:.1f}x faster than per-index sample "
              f"(floor {SOBOL_FILL_SPEEDUP_FLOOR:.1f}x)")

    pipe_speedup = get(current, "pipeline", "min_makespan_speedup")
    if not isinstance(pipe_speedup, (int, float)) or isinstance(pipe_speedup, bool):
        failures.append("pipeline.min_makespan_speedup: missing from current record")
    elif pipe_speedup < PIPELINE_SPEEDUP_FLOOR:
        failures.append(
            f"pipeline.min_makespan_speedup: {pipe_speedup:.2f}x < "
            f"{PIPELINE_SPEEDUP_FLOOR:.1f}x floor (simulated, host-independent)")
    else:
        print(f"[OK]   pipelined schedules {pipe_speedup:.2f}x faster than sync "
              f"(floor {PIPELINE_SPEEDUP_FLOOR:.1f}x, simulated)")

    stream_rate = get(current, "service", "watch_min_events_per_sec")
    if not isinstance(stream_rate, (int, float)) or isinstance(stream_rate, bool):
        failures.append("service.watch_min_events_per_sec: missing from current record")
    elif stream_rate < STREAM_EVENTS_FLOOR:
        failures.append(
            f"service.watch_min_events_per_sec: {stream_rate:.0f}/s < "
            f"{STREAM_EVENTS_FLOOR:.0f}/s floor")
    else:
        print(f"[OK]   telemetry fan-out {stream_rate:.0f} events/s at the worst "
              f"subscriber count (floor {STREAM_EVENTS_FLOOR:.0f}/s)")

    overlap = get(current, "pipeline", "min_overlap_efficiency")
    if not isinstance(overlap, (int, float)) or isinstance(overlap, bool):
        failures.append("pipeline.min_overlap_efficiency: missing from current record")
    elif overlap < PIPELINE_OVERLAP_FLOOR:
        failures.append(
            f"pipeline.min_overlap_efficiency: {overlap:.2f} < "
            f"{PIPELINE_OVERLAP_FLOOR:.1f} floor")
    else:
        print(f"[OK]   pipeline overlap efficiency {overlap:.2f} "
              f"(floor {PIPELINE_OVERLAP_FLOOR:.1f})")

    verify_speedup = get(current, "verify", "min_speedup")
    if current.get("single_core_host") is True:
        print("[SKIP] verify.min_speedup: single-core host marker set")
    elif not isinstance(verify_speedup, (int, float)) or isinstance(verify_speedup, bool):
        failures.append("verify.min_speedup: missing from current record")
    elif verify_speedup < VERIFY_SPEEDUP_FLOOR:
        failures.append(
            f"verify.min_speedup: {verify_speedup:.2f}x < "
            f"{VERIFY_SPEEDUP_FLOOR:.1f}x floor")
    else:
        print(f"[OK]   pooled verify references {verify_speedup:.2f}x faster than one "
              f"worker (floor {VERIFY_SPEEDUP_FLOOR:.1f}x)")

    # Parallel speedup needs real cores on BOTH records: a single-core host
    # legitimately reports ~1.0x, and comparing that against a multi-core
    # baseline (or vice versa) is a host-class artifact, not a regression.
    cur_single = current.get("single_core_host") is True
    base_single = baseline.get("single_core_host") is True
    par_speedup = get(current, "campaign", "speedup_vs_jobs1")
    base_par_speedup = get(baseline, "campaign", "speedup_vs_jobs1")
    if cur_single or base_single:
        print("[SKIP] campaign.speedup_vs_jobs1: single-core host marker set "
              f"(current={cur_single}, baseline={base_single})")
    elif not isinstance(par_speedup, (int, float)) or isinstance(par_speedup, bool):
        failures.append("campaign.speedup_vs_jobs1: missing from current record")
    elif not isinstance(base_par_speedup, (int, float)) or isinstance(base_par_speedup, bool):
        print("[SKIP] campaign.speedup_vs_jobs1: not in baseline (first record)")
    elif par_speedup < base_par_speedup * (1.0 - args.tolerance):
        failures.append(
            f"campaign.speedup_vs_jobs1: {par_speedup:.2f}x vs baseline "
            f"{base_par_speedup:.2f}x (beyond {args.tolerance * 100.0:.0f}% tolerance)")
    else:
        print(f"[OK]   campaign.speedup_vs_jobs1: {par_speedup:.2f}x vs baseline "
              f"{base_par_speedup:.2f}x")

    base_cpus = baseline.get("host_cpus")
    cur_cpus = current.get("host_cpus")
    if base_cpus != cur_cpus:
        print(f"[SKIP] timed comparisons: baseline host_cpus={base_cpus} != "
              f"current host_cpus={cur_cpus} (different host class)")
    else:
        for section, key in TIMED_METRICS:
            base = get(baseline, section, key)
            cur = get(current, section, key)
            if not isinstance(base, (int, float)) or isinstance(base, bool):
                print(f"[SKIP] {section}.{key}: not in baseline (first record)")
                continue
            if not isinstance(cur, (int, float)) or isinstance(cur, bool):
                failures.append(f"{section}.{key}: missing from current record")
                continue
            if base <= 0:
                print(f"[SKIP] {section}.{key}: non-positive baseline {base}")
                continue
            ratio = cur / base
            status = "OK" if ratio <= 1.0 + args.tolerance else "FAIL"
            line = (f"[{status}] {section}.{key}: {cur:.3g} vs baseline {base:.3g} "
                    f"({(ratio - 1.0) * 100.0:+.1f}%, tolerance "
                    f"{args.tolerance * 100.0:.0f}%)")
            print(line)
            if status == "FAIL":
                failures.append(line)

    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
