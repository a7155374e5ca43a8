#!/usr/bin/env python3
"""Alternating parent / change pairs of the end-to-end benchmark, summarised.

    python3 benchmarks/ab_pairs.py --parent REV --out BENCH_PRnn.json
                                   [--pairs 10] [--seconds 30] [--workloads W ...]
    python3 benchmarks/ab_pairs.py --layers BENCH_PRnn.json

The procedure ``benchmarks/e2e/README.md`` prescribes for a change that claims
a gain, in one command.  ``git archive REV`` (the parent) and the working tree
(the change: tracked and untracked files, nothing ignored) are exported into
two temporary directories, so both sides run from a tree of their own.  Pair
``p`` runs ``benchmarks/e2e/run.py --workload W --seed p --out F`` from each
directory, the parent first on even pairs and the change first on odd ones,
and keeps ``run.py --compare parent.json change.json``'s table.  Two more pairs
per workload follow: ``--trace 1`` for the per-layer ``*_ms`` rows, and
``--smoke --trace 1``, whose compare table says whether the exact counters
agree at equal op counts.  Per workload x end-to-end metric the summary holds
both medians, quartile distances and ranges, the pairs the change won, and
``spread_bound`` = the metric's ``BENCHMARK.json`` bound x the parent's median
with ``spread_ok`` telling whether the change's range stays inside it.  A
per-op time (unit ``ms``) also gets ROADMAP item 1's corridor: its reciprocal's
range is bounded at ``bound`` x the parent's median, so a disturbance of
``d`` ms (``parent_range``) on a step of ``t_c`` ms passes only while
``t_c (t_c + d) > d t_p / bound``; ``corridor_floor`` is the smallest such
``t_c`` and ``inside_corridor`` says whether the change's median is above it.
``claim_met`` is the verdict on a claimed gain: the change ahead in at least
nine of ten pairs, and its median better than the parent's by more than the
parent's quartile distance.  The traced pairs' per-layer ``*_ms`` rows are
printed last as a parent / change / delta table per workload; ``--layers
LEDGER`` prints that table from a written ledger and runs nothing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("benchmarks", "e2e", "run.py")


# ----------------------------------------------------------------------
# Summary arithmetic (pure: no subprocess, no clock)
# ----------------------------------------------------------------------
def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def corridor_floor(parent_median: float, disturbance: float, bound: float) -> float:
    """The smallest ``t_c`` with ``t_c (t_c + d) > d t_p / bound``.

    With ``t_c = t_p`` and the benchmark's bound of 0.25 that is ``t > 3 d``:
    below it even an unchanged tree spreads too widely in ops/s.
    """
    d = disturbance
    return (math.sqrt(d * d + 4.0 * d * parent_median / bound) - d) / 2.0


def summarize(pairs: list[dict], specs: list[dict]) -> dict:
    """``{workload: {metric: row}}`` over ``pairs``, for the metrics in ``specs``.

    A pair is ``{"workload", "parent": {"metrics": {name: value}}, "change":
    {...}}``; a spec is a ``BENCHMARK.json`` ``end_to_end`` entry (``name``,
    ``better``, ``bound``).  A pair in which either side has no value for a
    metric (a failed run) is left out of that metric's row, whose ``pairs``
    says how many were used.  The change wins a pair when its value is
    strictly better; ties count for neither side.  ``claim_met``: the change
    won at least 9/10 of the pairs and its median is better by more than
    ``parent_iqr``.
    """
    summary: dict = {}
    for workload in dict.fromkeys(pair["workload"] for pair in pairs):
        rows = [pair for pair in pairs if pair["workload"] == workload]
        summary[workload] = {}
        for spec in specs:
            name = spec["name"]
            values = [(p["parent"]["metrics"].get(name), p["change"]["metrics"].get(name)) for p in rows]
            values = [(a, b) for a, b in values if a is not None and b is not None]
            if not values:
                continue
            parent, change = [a for a, _ in values], [b for _, b in values]
            gain = 1.0 if spec["better"] == "lower" else -1.0  # sign that makes "better" positive
            parent_median, change_median = statistics.median(parent), statistics.median(change)
            parent_iqr, spread_bound = _iqr(parent), spec["bound"] * parent_median
            change_range = max(change) - min(change)
            won = sum(gain * (a - b) > 0 for a, b in values)
            row = summary[workload][name] = {
                "pairs": len(values),
                "parent_median": parent_median,
                "change_median": change_median,
                "change_over_parent": change_median / parent_median,
                "per_pair_ratio": [b / a for a, b in values],
                "pairs_change_better": won,
                "pairs_parent_better": sum(gain * (a - b) < 0 for a, b in values),
                "parent_iqr": parent_iqr,
                "change_iqr": _iqr(change),
                "median_gain_over_parent_iqr": (
                    gain * (parent_median - change_median) / parent_iqr if parent_iqr else None
                ),
                "parent_range": max(parent) - min(parent),
                "change_range": change_range,
                "spread_bound": spread_bound,
                "spread_ok": change_range <= spread_bound,
                "claim_met": 10 * won >= 9 * len(values)
                and gain * (parent_median - change_median) > parent_iqr,
            }
            if spec["unit"] == "ms":
                row["corridor_floor"] = corridor_floor(parent_median, row["parent_range"], spec["bound"])
                row["inside_corridor"] = change_median > row["corridor_floor"]
    return summary


def print_summary(summary: dict) -> None:
    for workload, rows in summary.items():
        for name, row in rows.items():
            line = (
                f"{workload:16s} {name:16s} {row['parent_median']:.4g} -> {row['change_median']:.4g}"
                f" ({row['change_over_parent']:.3f}x, change ahead in {row['pairs_change_better']}"
                f" of {row['pairs']}, spread_ok={row['spread_ok']}, claim_met={row['claim_met']})"
            )
            if "corridor_floor" in row:
                line += (
                    f" corridor: t_c > {row['corridor_floor']:.4g} at d = {row['parent_range']:.3g},"
                    f" inside={row['inside_corridor']}"
                )
            print(line)


def layer_deltas(traced: list[dict]) -> dict:
    """``{workload: {row: (parent, change, change - parent)}}`` for every
    per-layer ``*_ms`` row of the traced pairs that both sides report."""
    table: dict = {}
    for pair in traced:
        parent, change = pair["parent"]["metrics"], pair["change"]["metrics"]
        rows = table.setdefault(pair["workload"], {})
        for name, value in parent.items():
            if name.endswith("_ms") and "." in name and change.get(name) is not None:
                rows[name] = (value, change[name], change[name] - value)
    return table


def print_layer_deltas(table: dict) -> None:
    for workload, rows in table.items():
        print(f"{workload}: per-layer ms per op, parent -> change (delta)")
        for name, (parent, change, delta) in rows.items():
            print(f"  {name:32s} {parent:10.3f} {change:10.3f} {delta:+10.3f}")


# ----------------------------------------------------------------------
# Exporting the two trees and running them
# ----------------------------------------------------------------------
def git(*args: str) -> str:
    return subprocess.run(("git", *args), cwd=ROOT, check=True, capture_output=True, text=True).stdout


def export_revision(rev: str, dest: str) -> None:
    archive = subprocess.Popen(("git", "archive", rev), cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(("tar", "-x", "-C", dest), stdin=archive.stdout, check=True)
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")


def export_working_tree(dest: str) -> None:
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, names):
        source = os.path.join(ROOT, name)
        if os.path.isfile(source):  # a file deleted in the working tree is still in the index
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(source, os.path.join(dest, name))


def run_side(tree: str, out: str, workload: str, seed: int, flags: list[str]) -> dict:
    """One ``run.py`` invocation from ``tree``, writing ``out``; its record for
    ``workload`` with the metrics flattened to plain values."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # each side imports its own src/
    command = [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--out", out, *flags]
    done = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL)
    with open(out) as handle:
        record = json.load(handle)["workloads"][workload]
    return {
        "exit": done.returncode,
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: metric["value"] for name, metric in record["metrics"].items()},
    }


def run_pair(trees: dict, workload: str, seed: int, flags: list[str]) -> dict:
    """Both sides of one pair, the parent first when ``seed`` is even, and the
    ``--compare`` table of their two documents."""
    order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
    outs = {side: f"{trees[side]}-{workload}-{seed}{''.join(flags)}.json" for side in order}
    pair = {"seed": seed, "workload": workload, "flags": " ".join(flags), "first": order[0]}
    shown = "tensor.backward_ms" if "--trace" in flags else "op_ms_quiet"
    for side in order:
        pair[side] = run_side(trees[side], outs[side], workload, seed, flags)
        print(f"{workload} seed {seed} {side:6s} {shown} {pair[side]['metrics'].get(shown)}", flush=True)
    compared = subprocess.run(
        (sys.executable, RUN, "--compare", outs["parent"], outs["change"]),
        cwd=trees["change"], capture_output=True, text=True,
    )  # fmt: skip
    pair["compare"] = {"exit": compared.returncode, "table": compared.stdout.splitlines()}
    return pair


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="git revision of the parent side")
    parser.add_argument("--out", help="where to write the JSON ledger")
    parser.add_argument("--layers", metavar="LEDGER", help="print LEDGER's per-layer table and stop")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in manifest["workloads"]])
    args = parser.parse_args(argv)
    if args.layers:
        with open(args.layers) as handle:
            print_layer_deltas(layer_deltas(json.load(handle)["traced"]))
        return 0
    if not (args.parent and args.out):
        parser.error("--parent and --out are required unless --layers is given")

    dirty = " + uncommitted changes" if git("status", "--porcelain").strip() else ""
    ledger = {
        "parent": f"{args.parent} = {git('rev-parse', '--short', args.parent).strip()}",
        "change": f"working tree on {git('rev-parse', '--short', 'HEAD').strip()}{dirty}",
        "run_seconds": args.seconds,
        "command": f"python3 {RUN} --workload W --seed PAIR --out F FLAGS, then run.py --compare",
        "note": "A = parent, B = change; seed = pair index; even pairs run the parent first, odd "
        "pairs the change; workloads in the order given inside a pair; each side runs from an "
        "export of its tree in a directory of its own; spread_bound = the BENCHMARK.json bound x "
        "the parent's median, in the metric's own unit; spread_ok = change_range <= spread_bound; "
        "traced = one --trace 1 pair per workload for the per-layer *_ms rows; traced_smoke = one "
        "--smoke --trace 1 pair per workload, whose compare table says whether the exact counters "
        "agree at equal op counts",
        "environment": {"python": sys.version.split()[0], "cpu_count": os.cpu_count()},
        "summary": {},
        "pairs": [],
        "traced": [],
        "traced_smoke": [],
    }
    timed = ["--seconds", str(args.seconds)]
    plan = [("pairs", w, seed, timed) for seed in range(args.pairs) for w in args.workloads]
    plan += [("traced", w, 0, [*timed, "--trace", "1"]) for w in args.workloads]
    plan += [("traced_smoke", w, 0, ["--smoke", "--trace", "1"]) for w in args.workloads]
    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as scratch:
        trees = {side: os.path.join(scratch, side) for side in ("parent", "change")}
        for tree in trees.values():
            os.mkdir(tree)
        export_revision(args.parent, trees["parent"])
        export_working_tree(trees["change"])
        for section, workload, seed, flags in plan:
            ledger[section].append(run_pair(trees, workload, seed, flags))
            ledger["summary"] = summarize(ledger["pairs"], manifest["end_to_end"])
            with open(args.out, "w") as handle:  # after every pair: an interrupted sitting keeps its runs
                json.dump(ledger, handle, indent=1)
    for pair in ledger["traced_smoke"]:
        print("\n".join(pair["compare"]["table"]))
    print_summary(ledger["summary"])
    print_layer_deltas(layer_deltas(ledger["traced"]))
    pairs = ledger["pairs"] + ledger["traced"] + ledger["traced_smoke"]
    return 0 if all(p[side]["exit"] == 0 and p[side]["correct"] for p in pairs for side in trees) else 1


if __name__ == "__main__":
    sys.exit(main())
