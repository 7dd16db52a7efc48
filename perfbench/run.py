#!/usr/bin/env python3
"""GreenGPU benchmark: one command, two workloads.

    python3 perfbench/run.py --workload campaign|sweep --seed N \
        --seconds T --trace 0|1

Run from the repository root.  Builds the libraries, greengpud and the
harness from source into .bench_build/perfbench (Release), runs the chosen
workload and prints, as the last line of stdout, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.  See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

RUN_TIMEOUT_S = 170


def metric_units(trace):
    """Name -> unit of the metrics BENCHMARK.json lists for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; compiler output goes to stderr."""
    for needed in ("src/CMakeLists.txt", "tools/greengpud.cpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"perfbench: {needed} not found; run from a GreenGPU checkout")
            sys.exit(2)
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["campaign", "sweep"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    wanted = metric_units(args.trace)

    try:
        build()
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        log(f"perfbench: build failed: {e}")
        sys.exit(2)
    # Write back what the build (or an earlier run) left dirty, so that the
    # journals and checkpoints the run writes do not queue behind it.
    os.sync()
    harness = os.path.join(BUILD, "perfbench_harness")
    host = json.loads(subprocess.run([harness, "--mode", "host"], capture_output=True,
                                     text=True, check=True).stdout)
    fit = host["build_type"] == "Release"
    print(f"host: nproc={host['nproc']} compiler={host['compiler']} "
          f"build_type={host['build_type']}"
          + ("" if fit else " -- NOT A RELEASE BUILD: unfit for comparison"))

    work = os.path.join(ROOT, ".bench_build", f"perfbench-work-{os.getpid()}")
    cmd = [harness, "--mode", "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", work,
           "--daemon", os.path.join(BUILD, "greengpud")]
    # Its own session, so a timeout also stops the daemon the harness started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("perfbench: harness timed out")
        sys.exit(1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: harness failed with exit code {proc.returncode}")
        sys.exit(1)
    out = json.loads(lines[-1])

    missing = [m for m in wanted if m not in out["metrics"]]
    if missing:
        log(f"perfbench: harness did not report {missing}")
        sys.exit(1)
    for key, value in sorted(out["info"].items()):
        print(f"{key}: {value}")
    metrics = {m: {"value": out["metrics"][m], "unit": unit} for m, unit in wanted.items()}
    for m, v in metrics.items():
        print(f"{m} = {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": out["failed"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
