"""Command-line interface: run the pipeline, analyse a CSV, or benchmark.

Subcommands
    run       simulate -> collect -> discover under one config
    discover  causal discovery on an existing CSV (file is kept)
    bench     synthetic ground-truth benchmark over seeds and methods

Exit codes: 0 success, 1 invalid input/config, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import statistics
import sys
import time as time_mod
from pathlib import Path

from . import scm_bench
from .config import (ConfigError, ScenarioConfig, default_config, load_config,
                     validate)
from .discovery import DiscoveryParams, discover
from .pipeline import discover_csv, run_pipeline
from .stats import TEParams
from .timeseries import CsvFormatError

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

BENCH_METHODS = ("pcmci-parcorr", "pcmci-kridge", "fpcmci")


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


def _apply_overrides(config: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    disc: dict = {}
    if args.alpha is not None:
        disc["alpha"] = args.alpha
    if args.tau_min is not None:
        disc["tau_min"] = args.tau_min
    if args.tau_max is not None:
        disc["tau_max"] = args.tau_max
    if args.citest is not None:
        disc["ci_test"] = args.citest.replace("-", "_")
    if args.method is not None:
        disc["method"] = args.method
    if args.seed is not None:
        disc["seed"] = args.seed
        config.seed = args.seed
    if disc:
        config.discovery = dataclasses.replace(config.discovery, **disc)
    coll: dict = {}
    if getattr(args, "dt", None) is not None:
        coll["dt"] = args.dt
    if getattr(args, "batch_seconds", None) is not None:
        coll["batch_seconds"] = args.batch_seconds
    if coll:
        config.collector = dataclasses.replace(config.collector, **coll)
    if getattr(args, "duration", None) is not None:
        config.duration = args.duration
    if getattr(args, "out", None) is not None:
        config.output_dir = Path(args.out)
        config.collector = dataclasses.replace(config.collector,
                                               pool_dir=Path(args.out) / "pool")
    return config


def _cmd_run(args: argparse.Namespace) -> int:
    if args.config is not None:
        config = load_config(args.config)
    else:
        config = default_config(output_dir=args.out or "out")
    config = _apply_overrides(config, args)
    problems = validate(config)
    if problems:
        raise ConfigError(problems)
    result = run_pipeline(config, drain_pool=not args.quiet_abort)
    if not args.quiet:
        print(f"wrote {len(result.model_files)} model pair(s) to {result.output_dir}")
        print(f"manifest: {result.manifest_path}")
    return EXIT_OK


def _discovery_args(args: argparse.Namespace) -> tuple[DiscoveryParams, TEParams]:
    if args.config is not None:
        config = load_config(args.config)
    else:
        config = default_config()
    config = _apply_overrides(config, args)
    return config.discovery, config.te


def _cmd_discover(args: argparse.Namespace) -> int:
    if not args.csv.exists():
        print(f"error: file not found: {args.csv}", file=sys.stderr)
        return EXIT_VALIDATION
    params, te_params = _discovery_args(args)
    json_path, dot_path = discover_csv(args.csv, params, te_params, args.out)
    if not args.quiet:
        print(f"model written: {json_path}")
        print(f"graph written: {dot_path}")
    return EXIT_OK


def _parse_bench_config(path: Path, seed_override: int | None) -> dict:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError([f"bench config not found: {path}"]) from None
    except json.JSONDecodeError as exc:
        raise ConfigError([f"bench config {path} is not valid JSON: {exc}"]) from None
    problems = []
    specs = []
    for i, raw in enumerate(payload.get("specs", [])):
        try:
            raw = dict(raw)
            raw["edges"] = tuple(tuple(e) for e in raw.get("edges", ()))
            specs.append(scm_bench.SCMSpec(**raw))
        except (TypeError, ValueError) as exc:
            problems.append(f"specs[{i}]: {exc}")
    if not specs:
        problems.append("no benchmark specs given")
    methods = payload.get("methods", list(BENCH_METHODS))
    for m in methods:
        if m not in BENCH_METHODS:
            problems.append(f"unknown method {m!r}; known: {BENCH_METHODS}")
    seeds = int(payload.get("seeds", 10))
    if seeds < 1:
        problems.append(f"seeds must be >= 1, got {seeds}")
    if problems:
        raise ConfigError(problems)
    discovery = payload.get("discovery", {})
    return {"specs": specs, "methods": methods, "seeds": seeds,
            "base_seed": seed_override if seed_override is not None
                         else int(payload.get("seed", 0)),
            "discovery": discovery}


def _bench_params(method: str, seed: int, overrides: dict) -> DiscoveryParams:
    base = {"tau_min": 1, "tau_max": 1, "seed": seed}
    base.update(overrides)
    if method == "pcmci-parcorr":
        base.update(ci_test="parcorr", method="pcmci")
    elif method == "pcmci-kridge":
        base.update(ci_test="kridge_dcor", method="pcmci")
    else:
        base.update(ci_test="kridge_dcor", method="fpcmci")
    return DiscoveryParams(**base)


def run_bench(specs, methods, seeds: int, base_seed: int = 0,
              discovery_overrides: dict | None = None) -> list[dict]:
    """Score every spec x method over `seeds` seeds; returns report rows."""
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
                params = _bench_params(method, seed, discovery_overrides or {})
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
    except (ConfigError, CsvFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception:  # pragma: no cover - defensive
        log.exception("runtime failure")
        return EXIT_RUNTIME


def entrypoint() -> None:  # pragma: no cover - console script shim
    raise SystemExit(main())
