"""Command-line experiment runner.

    python -m repro.experiments                # run everything
    python -m repro.experiments table1 figure7 # run selected experiments
    python -m repro.experiments --list         # show experiment ids
    python -m repro.experiments figure7 --plots out/   # + ASCII plot files
    python -m repro.experiments sweep --jobs 4 # parallel multi-seed sweep
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

from repro.faults.scenarios import resolve_scenario
from repro.net.transport import resolve_transport

from . import CAMPAIGNS, REGISTRY
from .report import ExperimentResult


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
    if argv and argv[0] == "sweep":
        # the parallel sweep engine owns its own CLI (see sweep.py)
        from .sweep import main as sweep_main

        return sweep_main(argv[1:])
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
        "--plots",
        metavar="DIR",
        help="also write per-experiment text artifacts (tables + ASCII plots)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="override the RNG seed for experiments that accept one "
        "(e.g. chaos; same seed => identical results)",
    )
    args = parser.parse_args(argv)

    if args.list:
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

    def listed(flag: str, text: str | None) -> list[str] | None:
        """A comma-list flag's names, or None when it is absent."""
        if text is None:
            return None
        items = [t for t in text.split(",") if t]
        if not items:
            parser.error(f"{flag} names nothing, got {text!r}")
        return items

    scenario_names = listed("--scenarios", args.scenarios)
    transport_names = listed("--transport", args.transport)
    if transport_names is not None:
        try:
            for tname in transport_names:
                resolve_transport(tname)
        except ValueError as exc:
            parser.error(str(exc))
    # every flag is checked against every named id before any of them runs
    planned = []
    for name in names:
        params = inspect.signature(REGISTRY[name]).parameters
        kwargs = {}
        if args.seed is not None and "seed" in params:
            kwargs["seed"] = args.seed
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
        planned.append((name, kwargs))
    for name, kwargs in planned:
        result = REGISTRY[name](**kwargs)
        print(result.render())
        print()
        if args.plots:
            _write_artifacts(result, Path(args.plots), name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
