#!/usr/bin/env python3
"""End-to-end benchmark of the repro package: five workloads, one command.

    python3 benchmarks/e2e/run.py --seed S [--workload W] [--trace [0|1]]
                                  [--seconds N | --smoke] [--out F]
    python3 benchmarks/e2e/run.py --compare A.json B.json

Every workload runs in a fresh subprocess, so peak RSS, set-up time, shm
workers and module caches never leak from one workload into the next.  The
untraced run (``--trace 0``, the default) reports the end-to-end metrics;
the traced run (``--trace 1``) reports the per-layer metrics and never feeds
the end-to-end numbers.  For each workload the last line printed is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero if any output check failed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time

import plan

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

#: BLAS is pinned to one thread in every workload subprocess: the box has
#: two cores and the load generator is one process.
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: glibc malloc serves every array from the heap and keeps freed memory, in
#: place of mapping fresh pages for each temporary above 128 KiB.  A wide-MLP
#: step touched 4 500-14 000 fresh pages (18-56 MB), and what a first touch
#: costs inside this microVM is the host's business: it was a quarter of the
#: step in one hour and 40 % of it in the next, on every percentile.  The
#: arithmetic and the memory traffic of the temporaries are still measured.
MALLOC_PINS = {"MALLOC_MMAP_THRESHOLD_": str(1 << 32), "MALLOC_TRIM_THRESHOLD_": str(1 << 32)}
#: extra set-up-only subprocesses per untraced run (the benchmark contract
#: asks for set-up to be repeated within a run); ``setup_s`` is the fastest
#: of them and the measuring subprocess's own, for the reason the op timings
#: are low percentiles (``workloads.QUIET_PERCENTILE``)
SETUP_REPEATS = 4
#: an invocation has this long per workload it runs, subprocesses included:
#: the driver runs one workload per invocation and stops it after 180 s
DEADLINE_S = 170.0
#: declared here, not in BENCHMARK.json, whose metrics may never read 0: the
#: bound is absolute, so any failed op on side B of a comparison is worse
FAILED_OPS_SHARE = {"name": "failed_ops_share", "unit": "ratio", "better": "lower", "bound": 0.0}
#: per-layer counters that must repeat exactly between runs of one seed
EXACT_COUNTERS = (
    "transport.rounds",
    "transport.messages",
    "transport.modeled_bytes",
    "transport.virtual_ms",
    "backends.rounds",
    "backends.payload_bytes",
    "compression.codec_calls",
)


def load_manifest() -> dict:
    with open(MANIFEST) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Workload subprocess
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    """Run one workload in this process; print its record as one JSON line."""
    setup_started = time.perf_counter()  # just before ``import repro``
    sys.path.insert(0, SRC)
    import workloads

    if args.child == "setup":
        prepared = workloads.set_up(args.workload, args.seed, args.smoke, False, setup_started)
        prepared.close()
        record = {"setup_s": prepared.setup_s}
    else:
        record = workloads.run_workload(
            args.workload,
            args.seed,
            None if args.smoke else args.seconds,
            trace=bool(args.trace),
            setup_started=setup_started,
            trace_path=os.path.join(HERE, "out", f"trace-{args.workload}.json"),
        )
    print(json.dumps(record))
    return 0


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for name in THREAD_PINS:
        env[name] = "1"
    env.update(MALLOC_PINS)
    return env


class ChildFailed(Exception):
    """A workload subprocess timed out, crashed or printed no record."""


def spawn(mode: str, workload: str, args: argparse.Namespace, deadline: float) -> dict:
    """Run one workload subprocess to its end and return its record."""
    command = [
        sys.executable, os.path.abspath(__file__), "--child", mode,
        "--workload", workload, "--seed", str(args.seed), "--trace", str(args.trace),
    ]  # fmt: skip
    command += ["--smoke"] if args.smoke else ["--seconds", str(args.seconds)]
    # Its own session, so that a timeout can stop its shm workers with it.
    process = subprocess.Popen(
        command, env=child_env(), stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise ChildFailed(
            f"subprocess stopped at the invocation's deadline ({DEADLINE_S:.0f} s per workload)"
        ) from None
    if process.returncode != 0:
        raise ChildFailed(f"subprocess exited with {process.returncode}")
    try:
        return json.loads(stdout.splitlines()[-1])
    except (IndexError, ValueError):
        raise ChildFailed("subprocess printed no record") from None


def run_one(workload: str, args: argparse.Namespace, deadline: float) -> dict:
    """The record of one workload; a subprocess that did not finish counts
    every planned op as failed."""
    try:
        record = spawn("measure", workload, args, deadline)
        if not args.trace and not args.smoke:
            setups = [record["metrics"]["setup_s"]["value"]] + [
                spawn("setup", workload, args, deadline)["setup_s"] for _ in range(SETUP_REPEATS)
            ]
            record["setup_s_samples"] = setups
            record["metrics"]["setup_s"]["value"] = min(setups)
    except ChildFailed as failure:
        planned = plan.WORKLOADS[workload]
        ops = plan.SMOKE_OPS if args.smoke else planned.min_ops
        share = {"value": 1.0, "unit": FAILED_OPS_SHARE["unit"]}
        return {
            "workload": workload,
            "seed": args.seed,
            "ops": 0,
            "samples_per_op": planned.samples_per_op,
            "attempted": ops,
            "failed": ops,
            "check_failures": [str(failure)],
            "error": None,
            "metrics": {} if args.trace else {FAILED_OPS_SHARE["name"]: share},
        }
    return record


def result_line(record: dict, declared: set[str]) -> str:
    """The contract's result object for one workload run: the metrics are
    the ones BENCHMARK.json declares for this kind of run."""
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: v for k, v in record["metrics"].items() if k in declared},
        }
    )


def print_record(record: dict, declared: set[str]) -> None:
    print(
        f"== {record['workload']}  seed {record['seed']}  ops {record['ops']}/{record['attempted']}"
        f"  ({record['samples_per_op']} samples/op)"
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:34s} {metric['value']:16.6g} {metric['unit']}")
    for name, metric in record.get("raw", {}).items():
        print(f"  (not gated) {name:22s} {metric['value']:16.6g} {metric['unit']}")
    for failure in record["check_failures"]:
        print(f"  CHECK FAILED: {failure}")
    if record["error"]:
        print("  an op raised; see stderr")
    print(result_line(record, declared))


# ----------------------------------------------------------------------
# Compare
# ----------------------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    """One row per (workload, end-to-end metric); non-zero if any is worse.

    ``unresolved`` marks a timing or memory pair that cannot be judged: a
    value is missing or not finite on one side, or one of the runs had
    failed ops.  Documents of traced runs get one row per exact counter
    instead (``same``/``differs``).
    """
    with open(path_a) as a, open(path_b) as b:
        doc_a, doc_b = json.load(a), json.load(b)
    specs = load_manifest()["end_to_end"] + [FAILED_OPS_SHARE]
    worse = 0
    print(f"{'workload':16s} {'metric':18s} {'A':>14s} {'B':>14s} {'B vs A':>9s} {'bound':>6s}  verdict")
    for workload, rec_a in doc_a["workloads"].items():
        rec_b = doc_b["workloads"].get(workload)
        if rec_b is None:
            print(f"{workload:16s} missing from {path_b}: unresolved")
            continue
        if doc_a["trace"]:
            for name in EXACT_COUNTERS:
                va = rec_a["metrics"].get(name, {}).get("value")
                vb = rec_b["metrics"].get(name, {}).get("value")
                verdict = "same" if va is not None and va == vb else "differs"
                worse += verdict == "differs"
                print(f"{workload:16s} {name:24s} {va!r:>22} {vb!r:>22}  {verdict}")
            continue
        failed = rec_a["failed"] or rec_b["failed"]
        for spec in specs:
            name, bound = spec["name"], spec["bound"]
            va = rec_a["metrics"].get(name, {}).get("value")
            vb = rec_b["metrics"].get(name, {}).get("value")
            change = ""
            if spec is FAILED_OPS_SHARE:
                verdict = "ok" if vb == 0 else "worse"
            elif failed or va is None or vb is None or not (math.isfinite(va) and math.isfinite(vb) and va):
                verdict = "unresolved"
            else:
                relative = (vb - va) / va
                change = f"{relative:+.1%}"
                verdict = "worse" if (relative if spec["better"] == "lower" else -relative) > bound else "ok"
            worse += verdict == "worse"
            print(f"{workload:16s} {name:18s} {va!s:>14.14} {vb!s:>14.14} {change:>9s} {bound:6.2f}  {verdict}")
    return 1 if worse else 0


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=plan.RUN_SECONDS, help="how long each workload measures")
    parser.add_argument("--smoke", action="store_true", help="12 ops per workload, same code paths and checks")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--out", help="write the results as one JSON document")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", choices=("measure", "setup"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: {SRC}/repro not found: the benchmark runs the program from source", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    names = list(plan.WORKLOADS)
    if args.workload and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; options: {names}")
    selected = [args.workload] if args.workload else names

    declared = {m["name"] for m in load_manifest()["per_layer" if args.trace else "end_to_end"]}
    deadline = time.monotonic() + DEADLINE_S * len(selected)
    document = {
        "benchmark": "benchmarks/e2e",
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": {
            "python": sys.version.split()[0],
            "cpu_count": os.cpu_count(),
            "thread_pins": {name: "1" for name in THREAD_PINS},
            "malloc_pins": MALLOC_PINS,
            "repro_env_removed": sorted(k for k in os.environ if k.startswith("REPRO_")),
        },
        "workloads": {},
    }
    failed = 0
    for name in selected:
        record = run_one(name, args, deadline)
        document["workloads"][name] = record
        failed += record["failed"]
        print_record(record, declared)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
