"""Command-line experiment runner.

    python -m repro.experiments                # run everything
    python -m repro.experiments table1 figure7 # run selected experiments
    python -m repro.experiments --list         # show experiment ids
    python -m repro.experiments figure7 --out out/     # + table/ASCII plot files
    python -m repro.experiments figure9 chaos --seeds 5 --jobs 2 --out out/sweep
    python -m repro.experiments sens_costs --set scale=1.25,1.5,2.0

Every invocation plans ``(id, seed, duration, config)`` cells, checks
every flag against every named id before any cell runs, and runs the
cells through :func:`repro.experiments.golden.run_cells` on ``--jobs``
workers. Without ``--seeds`` or ``--set``, each id prints its own
result. With either, the cells are replicas, merged into mean ± 95 % CI
rows per id and ``--set`` value (:mod:`repro.experiments.sweep`).
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from pathlib import Path

from repro.faults.scenarios import resolve_scenario
from repro.net.transport import resolve_transport

from . import CAMPAIGNS, REGISTRY
from .golden import GOLDEN_SEED, run_cells
from .report import ExperimentResult
from .sweep import Job, JobOutcome, SweepReport, merge_replicate, write_sweep_artifacts

#: runner parameters the CLI itself decides, so ``--set`` may not vary them
_OWNED = {
    "seed": "--seed or --seeds",
    "duration_us": "--duration",
    "out_dir": "the CLI",
}


def _write_artifacts(result: ExperimentResult, directory: Path, name: str) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    parts = [result.render()]
    for series in result.series:
        if len(series.x):
            parts.append("")
            parts.append(result.ascii_plot(series.name))
    (directory / f"{name}.txt").write_text("\n".join(parts) + "\n")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help="experiment ids to run (default: all)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list experiment ids; with experiment ids given, list the "
        "scenarios of each scenario-driven experiment instead",
    )
    parser.add_argument(
        "--scenarios",
        metavar="A,B",
        default=None,
        help="comma-separated scenario names for scenario-driven "
        "experiments (chaos, failover, cluster); see --list",
    )
    parser.add_argument(
        "--transport",
        metavar="T[,T]",
        default=None,
        help="media transport(s) for experiments that accept one: "
        "udp, tcp, ttp (comma-separated for the transport comparison)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="override the RNG seed for experiments that accept one "
        "(same seed => identical results); with --seeds or --set, the "
        f"first replica's seed (default {GOLDEN_SEED})",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=None,
        metavar="N",
        help="run N replicas of each id at consecutive seeds and merge "
        "them into mean and 95%% CI rows",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="US",
        help="simulated duration in µs for experiments that accept one "
        "(default: each runner's own)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default: 1)",
    )
    parser.add_argument(
        "--set",
        metavar="KEY=V1,V2",
        default=None,
        help="run one replica per value of the runner parameter KEY "
        "(e.g. n_nodes=2,3,4), merged like --seeds",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="write artifacts to DIR: <id>.txt (tables + ASCII plots) per "
        "experiment, or SWEEP_result.txt and SWEEP_report.json for replicas",
    )
    args = parser.parse_args(argv)

    if args.list:
        defaults = vars(parser.parse_args([]))
        given = [
            f"--{key}"
            for key, value in vars(args).items()
            if key not in ("experiments", "list") and value != defaults[key]
        ]
        if given:
            parser.error(f"--list takes only experiment ids, not {', '.join(given)}")
        if args.experiments:
            unknown = [n for n in args.experiments if n not in REGISTRY]
            if unknown:
                parser.error(f"unknown experiment(s): {', '.join(unknown)}")
            for name in args.experiments:
                if name not in CAMPAIGNS:
                    print(f"{name}: (not scenario-driven)")
                else:
                    print(f"{name}:")
                    for scenario in CAMPAIGNS[name].values():
                        print(f"  {scenario.name:14s} {scenario.description}")
        else:
            for name in REGISTRY:
                print(name)
        return 0

    names = args.experiments or list(REGISTRY)
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")
    for flag, count in (("--jobs", args.jobs), ("--seeds", args.seeds)):
        if count is not None and count < 1:
            parser.error(f"{flag} must be a positive count, got {count}")

    def listed(flag: str, text: str | None) -> list[str] | None:
        """A comma-list flag's names, or None when it is absent."""
        if text is None:
            return None
        items = [t for t in text.split(",") if t]
        if not items:
            parser.error(f"{flag} names nothing, got {text!r}")
        return items

    def check_transports(flag: str, names: list[str]) -> None:
        """Refuse a transport name the runners would refuse."""
        try:
            for tname in names:
                resolve_transport(tname)
        except ValueError as exc:
            parser.error(f"{flag}: {exc}")

    scenario_names = listed("--scenarios", args.scenarios)
    transport_names = listed("--transport", args.transport)
    if transport_names is not None:
        check_transports("--transport", transport_names)
    axis = None
    if args.set is not None:
        axis, sep, text = args.set.partition("=")
        if not (axis and sep):
            parser.error(f"--set takes KEY=V1,V2,..., got {args.set!r}")
        if axis in _OWNED:
            parser.error(f"--set may not vary {axis}; {_OWNED[axis]} decides it")
        values = listed(f"--set {axis}", text)
        if axis == "transport":
            check_transports("--set transport", values)
    # every flag is checked against every named id before any of them runs
    planned = []
    for name in names:
        params = inspect.signature(REGISTRY[name]).parameters
        kwargs = {}
        if args.seeds is not None and "seed" not in params:
            parser.error(f"experiment {name!r} does not take --seeds")
        if scenario_names is not None:
            if name not in CAMPAIGNS:
                parser.error(f"experiment {name!r} does not take --scenarios")
            try:
                for scenario in scenario_names:
                    resolve_scenario(scenario, CAMPAIGNS[name], kind=name)
            except ValueError as exc:
                parser.error(str(exc))
            kwargs["scenarios"] = scenario_names
        if transport_names is not None:
            if "transports" in params:
                kwargs["transports"] = transport_names
            elif "transport" in params:
                if len(transport_names) != 1:
                    parser.error(
                        f"experiment {name!r} takes a single --transport"
                    )
                kwargs["transport"] = transport_names[0]
            else:
                parser.error(f"experiment {name!r} does not take --transport")
        configs = [kwargs]
        if axis is not None:
            if axis not in params:
                parser.error(f"experiment {name!r} does not take --set {axis}")
            kind = type(params[axis].default)
            if kind not in (int, float, str):
                parser.error(
                    f"--set {axis}: experiment {name!r} has no int, float "
                    "or str default for it"
                )
            if axis in kwargs:
                parser.error(f"--set {axis} and --transport both set it")
            try:
                configs = [{**kwargs, axis: kind(v)} for v in values]
            except ValueError:
                parser.error(
                    f"--set {axis} takes {kind.__name__} values for "
                    f"{name!r}, got {text!r}"
                )
        planned.append((name, configs))

    replicated = args.seeds is not None or axis is not None
    if replicated:
        base = GOLDEN_SEED if args.seed is None else args.seed
        seeds = [base + k for k in range(args.seeds or 1)]
    else:
        seeds = [args.seed]
    jobs = [
        Job(name, seed, args.duration, config)
        for name, configs in planned
        for config in configs
        for seed in seeds
    ]
    # replicas are result objects only, so their runners write no artifacts
    artifacts = {"out_dir": None} if replicated else {}
    cells = [
        (j.experiment, j.seed, j.duration_us, {**j.config, **artifacts})
        for j in jobs
    ]
    t0 = time.perf_counter()
    outcomes = [
        JobOutcome(job, *out) for job, out in zip(jobs, run_cells(cells, args.jobs))
    ]
    report = SweepReport(outcomes, time.perf_counter() - t0, args.jobs)

    if replicated:
        title = f"{'x'.join(names)} x {len(seeds)} seeds (base {seeds[0]})"
        if axis is not None:
            title += f" x {axis}={','.join(values)}"
        merged = merge_replicate(report, title, axis)
        print(merged.render())
        if args.out:
            written = write_sweep_artifacts(args.out, merged, report, argv)
            print(f"wrote {', '.join(written)}")
        print(report.summary_line())
    else:
        for outcome in outcomes:
            if outcome.ok:
                print(outcome.result.render())
                print()
                if args.out:
                    _write_artifacts(
                        outcome.result, Path(args.out), outcome.job.experiment
                    )
    for outcome in report.failed:
        print(f"FAILED {outcome.job.label}: {outcome.error}", file=sys.stderr)
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
