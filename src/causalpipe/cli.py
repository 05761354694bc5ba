"""Command-line interface: run the pipeline, analyse a CSV, or benchmark.

Subcommands
    run       simulate -> collect -> discover under one config
    discover  causal discovery on an existing CSV (file is kept)
    bench     synthetic ground-truth benchmark over seeds and methods

Exit codes: 0 success, 1 invalid input/config (a flag is checked like the
config field it sets), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import statistics
import sys
import time as time_mod
from pathlib import Path

from . import scm_bench
from .config import (ConfigError, ScenarioConfig, config_from_dict, config_to_dict,
                     default_config, fields_from_json, is_integer, json_kind,
                     read_json_file)
from .discovery import DiscoveryError, DiscoveryParams, discover
from .pipeline import discover_csv, run_pipeline
from .stats import TEParams
from .timeseries import CsvFormatError

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

# Benchmark label -> (ci_test, method)
BENCH_METHODS = {
    "pcmci-parcorr": ("parcorr", "pcmci"),
    "pcmci-kridge": ("kridge_dcor", "pcmci"),
    "fpcmci": ("kridge_dcor", "fpcmci"),
}
BENCH_KEYS = ("specs", "methods", "seeds", "seed", "discovery")


def _add_discovery_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=None,
                        help="significance threshold (default 0.05)")
    parser.add_argument("--tau-min", type=int, default=None, help="minimum time lag")
    parser.add_argument("--tau-max", type=int, default=None, help="maximum time lag")
    parser.add_argument("--citest", choices=["parcorr", "kridge-dcor"], default=None,
                        help="conditional independence test")
    parser.add_argument("--method", choices=["pcmci", "fpcmci"], default=None,
                        help="discovery method")
    parser.add_argument("--seed", type=int, default=None, help="master seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="causalpipe", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full simulate/collect/discover pipeline")
    run.add_argument("--config", type=Path, default=None, help="JSON config file")
    run.add_argument("--out", type=Path, default=None, help="output directory")
    run.add_argument("--duration", type=float, default=None, help="run length [s]")
    run.add_argument("--dt", type=float, default=None, help="sampling step [s]")
    run.add_argument("--batch-seconds", type=float, default=None,
                     help="batch length [s]")
    _add_discovery_flags(run)
    run.add_argument("--quiet", action="store_true", help="suppress progress output")
    run.add_argument("--quiet-abort", action="store_true",
                     help="do not drain the pool backlog at shutdown")

    disc = sub.add_parser("discover", help="run discovery on an existing CSV")
    disc.add_argument("csv", type=Path, help="input time-series CSV")
    disc.add_argument("--out", type=Path, default=Path("."), help="output directory")
    disc.add_argument("--config", type=Path, default=None, help="JSON config file")
    _add_discovery_flags(disc)
    disc.add_argument("--quiet", action="store_true")

    bench = sub.add_parser("bench", help="benchmark methods on synthetic ground truth")
    bench.add_argument("--config", type=Path, required=True,
                       help="JSON benchmark spec (specs, seeds, methods)")
    bench.add_argument("--out", type=Path, default=Path("bench_out"),
                       help="output directory")
    bench.add_argument("--seed", type=int, default=None, help="base seed override")
    bench.add_argument("--quiet", action="store_true")
    return parser


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    """The --config document, or the default config's, with the flags written
    over its fields and parsed as one document, so a flag is checked exactly
    like the field it sets."""
    if args.config is None:
        payload, what = config_to_dict(default_config()), "config"
    else:
        payload, what = read_json_file(args.config, "config file"), f"config file {args.config}"
    out = getattr(args, "out", None)
    flags = {
        "duration": getattr(args, "duration", None), "seed": args.seed,
        "output_dir": None if out is None else str(out),
        "collector": {"dt": getattr(args, "dt", None),
                      "batch_seconds": getattr(args, "batch_seconds", None),
                      "pool_dir": None if out is None else str(out / "pool")},
        "discovery": {"alpha": args.alpha, "tau_min": args.tau_min, "tau_max": args.tau_max,
                      "ci_test": args.citest and args.citest.replace("-", "_"),
                      "method": args.method, "seed": args.seed},
    }
    if isinstance(payload, dict):
        _write_flags(payload, flags)
    return config_from_dict(payload, what)


def _write_flags(document: dict, flags: dict) -> None:
    """Write each flag that was given over the field of the same name; a
    section is created only for a flag given in it, and a section that is
    not an object is left for the parser to report."""
    for name, value in flags.items():
        if isinstance(value, dict):
            if all(v is None for v in value.values()):
                continue
            section = document.setdefault(name, {})
            if isinstance(section, dict):
                _write_flags(section, value)
        elif value is not None:
            document[name] = value


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    # run_pipeline validates the config before it does anything else
    result = run_pipeline(config, drain_pool=not args.quiet_abort)
    if not args.quiet:
        print(f"wrote {len(result.model_files)} model pair(s) to {result.output_dir}")
        print(f"manifest: {result.manifest_path}")
    return EXIT_OK


def _cmd_discover(args: argparse.Namespace) -> int:
    if not args.csv.is_file():
        problem = "not a file" if args.csv.exists() else "file not found"
        print(f"error: {problem}: {args.csv}", file=sys.stderr)
        return EXIT_VALIDATION
    config = _load_config(args)
    json_path, dot_path = discover_csv(args.csv, config.discovery, config.te, args.out)
    if not args.quiet:
        print(f"model written: {json_path}")
        print(f"graph written: {dot_path}")
    return EXIT_OK


def _parse_bench_config(path: Path, seed_override: int | None) -> dict:
    payload = read_json_file(path, "bench config")
    if not isinstance(payload, dict):
        raise ConfigError([f"bench config {path} must be a JSON object, got "
                           f"{json_kind(payload)}"])
    problems = [f"unknown bench config key {k!r}" for k in payload if k not in BENCH_KEYS]
    raw_specs = payload.get("specs", [])
    if not isinstance(raw_specs, list):
        problems.append(f"specs must be a JSON array, got {json_kind(raw_specs)}")
        raw_specs = []
    base_seed = payload.get("seed", 0) if seed_override is None else seed_override
    built, more = fields_from_json({
        **{f"specs[{i}]": (scm_bench.SCMSpec, raw) for i, raw in enumerate(raw_specs)},
        "seed": (int, base_seed), "discovery": (DiscoveryParams, payload.get("discovery", {}))})
    problems += more
    specs = [value for name, value in built.items() if name.startswith("specs[")]
    if not specs:
        problems.append("no benchmark specs given")
    methods = payload.get("methods", list(BENCH_METHODS))
    if not isinstance(methods, list) or not methods:
        problems.append(f"methods must be a non-empty JSON array, got {json_kind(methods)}")
    else:
        known = tuple(BENCH_METHODS)
        problems += [f"unknown method {m!r}; known: {known}" for m in methods
                     if m not in known]
    seeds = payload.get("seeds", 10)
    if not is_integer(seeds) or seeds < 1:
        problems.append(f"seeds must be an integer >= 1, got {json_kind(seeds)}")
    if problems:
        raise ConfigError(problems)
    return {"specs": specs, "methods": methods, "seeds": seeds, "base_seed": base_seed,
            "discovery": built["discovery"]}


def run_bench(specs, methods, seeds: int, base_seed: int,
              discovery: DiscoveryParams) -> list[dict]:
    """Score every spec x method over `seeds` seeds; returns report rows.

    `discovery` holds the settings that every run shares; each run sets its
    own seed, CI test and method.
    """
    rows = []
    te_params = TEParams()
    for spec in specs:
        for method in methods:
            precisions, recalls, f1s, walls = [], [], [], []
            status = "ok"
            for s in range(seeds):
                seed = base_seed + s
                run_spec = dataclasses.replace(spec, seed=seed)
                try:
                    batch, truth = scm_bench.generate(run_spec)
                except scm_bench.SpecUnstableError as exc:
                    status = f"unstable: {exc}"
                    break
                ci_test, discovery_method = BENCH_METHODS[method]
                params = dataclasses.replace(discovery, seed=seed, ci_test=ci_test,
                                             method=discovery_method)
                t_start = time_mod.perf_counter()
                model = discover(batch, params, te_params, batch_id=f"{spec.name}-{seed}")
                walls.append(time_mod.perf_counter() - t_start)
                result = scm_bench.score(model, truth)
                precisions.append(result.precision)
                recalls.append(result.recall)
                f1s.append(result.f1)
            row = {"spec": spec.name, "method": method, "status": status,
                   "seeds": len(f1s)}
            for label, values in (("precision", precisions), ("recall", recalls),
                                  ("f1", f1s), ("wall_seconds", walls)):
                row[f"{label}_mean"] = round(statistics.mean(values), 6) if values else ""
                row[f"{label}_std"] = round(statistics.stdev(values), 6) if len(values) > 1 else ""
            rows.append(row)
    return rows


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg = _parse_bench_config(args.config, args.seed)
    rows = run_bench(cfg["specs"], cfg["methods"], cfg["seeds"], cfg["base_seed"],
                     cfg["discovery"])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = out_dir / "bench_report.csv"
    fieldnames = list(rows[0].keys())
    with open(report, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    if not args.quiet:
        widths = {k: max(len(k), *(len(str(r[k])) for r in rows)) for k in fieldnames}
        print("  ".join(k.ljust(widths[k]) for k in fieldnames))
        for r in rows:
            print("  ".join(str(r[k]).ljust(widths[k]) for k in fieldnames))
        print(f"report written: {report}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if getattr(args, "quiet", False) else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "discover":
            return _cmd_discover(args)
        return _cmd_bench(args)
    except (ConfigError, CsvFormatError, DiscoveryError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception:  # pragma: no cover - defensive
        log.exception("runtime failure")
        return EXIT_RUNTIME


def entrypoint() -> None:  # pragma: no cover - console script shim
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
