"""Command-line entry point: ``python -m repro <experiment> [options]``.

Regenerates individual tables/figures of the paper's evaluation, runs the
auto-tuner, statically analyzes algorithm communication schedules
(``python -m repro analyze``), or prints the system inventory.
``python -m repro all`` is the same as ``examples/reproduce_paper.py``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

#: experiment name -> (module under :mod:`repro.experiments`, its ``run`` kwargs);
#: a module is imported only when its experiment runs
EXPERIMENTS: dict[str, tuple[str, dict[str, int]]] = {
    "table1": ("table1_support", {}),
    "table2": ("table2_models", {}),
    "table3": ("table3_speedup", {}),
    "table4": ("table4_epoch_time", {}),
    "table5": ("table5_ablation", {}),
    "fig5": ("fig5_convergence_systems", {"epochs": 4}),
    "fig6": ("fig6_convergence_algorithms", {"epochs": 5}),
    "fig7": ("fig7_network_conditions", {}),
    "heterogeneity": ("heterogeneity_study", {}),
    "scalability": ("scalability", {}),
    "time-to-loss": ("time_to_loss", {}),
    "silver-bullet": ("silver_bullet", {}),
}


def _run_experiment(name: str) -> object:
    module, kwargs = EXPERIMENTS[name]
    return importlib.import_module(f".experiments.{module}", __package__).run(**kwargs)


def _run_plans(args) -> int:
    """Symbolic plan-space sweep: no transport, no dry run (``--plans``).

    Exit code 1 when any error-severity finding fires on a default-enabled
    plan (a plan the enumerator emits without codec/topology overrides) —
    the ``lint-plans`` CI gate.
    """
    from .analysis.planspace import enumerate_points, sweep_planspace

    algorithms = None
    if args.algorithm is not None:
        algorithms = [args.algorithm]
    points = enumerate_points(
        algorithms=algorithms,
        world_shapes=((args.nodes, args.gpus_per_node),),
    )
    try:
        report = sweep_planspace(points)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(json.dumps(report.to_dict(), indent=2) if args.json else report.render())
    return 0 if report.ok else 1


def _run_protocol(args) -> int:
    """Protocol gate: model exploration + mutations + live conformance."""
    from .analysis.protocol import analyze_protocol

    report = analyze_protocol(live=not args.no_live)
    print(json.dumps(report.to_dict(), indent=2) if args.json else report.render())
    return 0 if report.ok else 1


def _run_analyze(args) -> int:
    from .algorithms.registry import ALGORITHM_REGISTRY
    from .analysis import analyze_algorithm, analyze_all
    from .baselines import BASELINE_REGISTRY

    if args.nodes < 1 or args.gpus_per_node < 1:
        print("--nodes and --gpus-per-node must be >= 1", file=sys.stderr)
        return 2
    if args.steps < 1:
        print("--steps must be >= 1 (0 steps would pass vacuously)", file=sys.stderr)
        return 2
    if args.explain is not None and args.explain < 0:
        print("--explain takes a non-negative finding index", file=sys.stderr)
        return 2
    if args.explain is not None and (args.plans or args.protocol):
        print("--explain applies to a single-algorithm or --all report, not to "
              "--plans or --protocol", file=sys.stderr)
        return 2
    if args.protocol:
        return _run_protocol(args)
    if args.plans:
        return _run_plans(args)
    if args.all:
        report = analyze_all(
            num_nodes=args.nodes, gpus_per_node=args.gpus_per_node, steps=args.steps,
        )
        findings = report.all_findings()
    else:
        if args.algorithm is None:
            print("analyze needs an algorithm name or --all", file=sys.stderr)
            return 2
        known = set(ALGORITHM_REGISTRY) | set(BASELINE_REGISTRY)
        if args.algorithm not in known:
            print(
                f"unknown algorithm {args.algorithm!r}; options: {sorted(known)}",
                file=sys.stderr,
            )
            return 2
        report = analyze_algorithm(
            args.algorithm,
            num_nodes=args.nodes,
            gpus_per_node=args.gpus_per_node,
            steps=args.steps,
        )
        findings = report.findings
    if args.explain is not None:
        if args.explain >= len(findings):
            print(
                f"--explain {args.explain}: report has only {len(findings)} "
                "finding(s)",
                file=sys.stderr,
            )
            return 2
        print(findings[args.explain].explain())
        return 0 if report.ok else 1
    print(json.dumps(report.to_dict(), indent=2) if args.json else report.render())
    return 0 if report.ok else 1


def _run_perf(args) -> int:
    from .perf import render, run_suite

    result = run_suite()
    print(render(result))
    if args.out is not None:
        with open(args.out, "w") as handle:
            handle.write(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


def _run_autotune(args) -> int:
    from .cluster.topology import paper_cluster
    from .core.autotune import recommend
    from .models.zoo_specs import all_specs

    specs = all_specs()
    if args.model not in specs:
        print(f"unknown model {args.model!r}; options: {sorted(specs)}", file=sys.stderr)
        return 2
    report = recommend(specs[args.model], paper_cluster(args.network))
    print(report.render())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="regenerate one experiment (or 'all')"
    )
    run_parser.add_argument(
        "experiment", choices=sorted(EXPERIMENTS) + ["all"],
    )

    tune_parser = subparsers.add_parser(
        "autotune", help="recommend the best algorithm for a model/network"
    )
    tune_parser.add_argument("model", help="VGG16 | BERT-LARGE | BERT-BASE | Transformer | LSTM+AlexNet")
    tune_parser.add_argument(
        "--network", default="25gbps", choices=["10gbps", "25gbps", "100gbps"]
    )

    perf_parser = subparsers.add_parser(
        "perf",
        help="report-only microbenches with no end-to-end equivalent",
        description=(
            "Time the shm in-place pool reduce, the wire codec and the "
            "symbolic lowering against their reference legs and print the "
            "table.  Report-only: it gates nothing and exits 0; the measuring "
            "stick is benchmarks/e2e (make e2e-smoke, make ab)."
        ),
    )
    perf_parser.add_argument("--out", default=None, help="also write the records as JSON")

    analyze_parser = subparsers.add_parser(
        "analyze",
        help="statically verify an algorithm's communication schedule",
        description=(
            "Dry-run an algorithm or baseline on a small simulated cluster, "
            "lower its execution plan and every O/F/H x update-mode variant, "
            "and run the rule suite (buffer-aliasing, ef-invariant, "
            "peer-matching, and the happens-before engine's hb-deadlock, "
            "hb-race, hb-lost-update and hb-staleness). "
            "Exit code 1 when any error-severity finding fires."
        ),
    )
    analyze_parser.add_argument(
        "algorithm", nargs="?", default=None, help="registry name, e.g. 'allreduce'"
    )
    analyze_parser.add_argument(
        "--all", action="store_true",
        help="sweep every registered algorithm and baseline",
    )
    analyze_parser.add_argument("--nodes", type=int, default=2)
    analyze_parser.add_argument("--gpus-per-node", type=int, default=2)
    analyze_parser.add_argument(
        "--steps", type=int, default=5, help="dry-run iterations to record"
    )
    analyze_parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    analyze_parser.add_argument(
        "--explain", type=int, default=None, metavar="N",
        help=(
            "print finding N with its happens-before witness (the unordered "
            "event pair and a minimal HB path) instead of the full report"
        ),
    )
    analyze_parser.add_argument(
        "--protocol", action="store_true",
        help=(
            "verify the transport backend protocol: exhaustively explore "
            "the shm protocol model (all interleavings, DPOR-reduced), run "
            "the seeded-bug mutation suite, and replay one sanitized live "
            "shm run through the cross-process conformance checker; exit 1 "
            "on any finding, missed mutation, or divergence"
        ),
    )
    analyze_parser.add_argument(
        "--no-live", action="store_true",
        help="with --protocol: skip the live sanitized shm run (model only)",
    )
    analyze_parser.add_argument(
        "--plans", action="store_true",
        help=(
            "symbolic plan-space sweep: enumerate O/F/H x algorithm plan "
            "points, verify each with the static rules plus the lowered "
            "rule suite — no transport, no dry run. Covers every algorithm "
            "and baseline; an algorithm name restricts the sweep; exit 1 on "
            "any error-severity finding"
        ),
    )

    args = parser.parse_args(argv)
    if args.command == "perf":
        return _run_perf(args)
    if args.command == "autotune":
        return _run_autotune(args)
    if args.command == "analyze":
        return _run_analyze(args)

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        print(f"== {name} ==")
        print(_run_experiment(name).render())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
