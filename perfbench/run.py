"""causalpipe benchmark: one run of one workload.

    python3 perfbench/run.py --workload hri_kridge --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics of a traced sequential replay (after an untraced pass, to report the
tracing gap). `--heldout` runs the held-out input list instead of the
primary one. The last line of standard output is one JSON object
(correct, attempted, failed, metrics); a fuller record of the run, machine
included, goes to `.bench_out/results/`.

The measured section is whole passes over the workload's fixed inputs,
repeated until at least `--seconds` have elapsed; the traced run then
replays one pass. BLAS runs on one thread (set below, before numpy loads)
on every run and in every set-up process.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
BLAS_ENV = {name: str(BLAS_THREADS) for name in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="shuffles the order of the workload's fixed streams")
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum measured time; whole passes are repeated")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--heldout", action="store_true",
                        help="run the held-out inputs (to confirm a claim only)")
    return parser.parse_args(argv)


def machine_info() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure_setup(workload: str, work_dir: Path) -> list[float]:
    """Fresh interpreter each time: import through building the objects."""
    code = ("import sys, time\n"
            "start = time.perf_counter()\n"
            "import workloads\n"
            "from pathlib import Path\n"
            "workloads.build_objects(sys.argv[1], Path(sys.argv[2]))\n"
            "print(time.perf_counter() - start)\n")
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    samples = []
    for i in range(SETUP_SAMPLES):
        out_dir = work_dir / f"setup{i}"
        done = subprocess.run([sys.executable, "-c", code, workload, str(out_dir)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def check_ops(ops, reference: dict, workload: str) -> list[str]:
    """Names of operations whose model is missing or differs from the
    digest recorded on the seed code."""
    expected = reference[workload]
    bad = []
    for op in ops:
        want = expected.get(str(op.stream), {}).get(op.model_file)
        if want is None:
            raise SystemExit(f"error: no reference digest for {workload} stream "
                             f"{op.stream} {op.model_file}")
        if op.digest != want:
            bad.append(f"stream {op.stream} {op.model_file}: "
                       f"{'missing' if op.digest is None else 'digest mismatch'}")
    return bad


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "causalpipe").is_dir():
        print(f"error: {SRC / 'causalpipe'} not found; run from a causalpipe checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads
    from tracer import FailureLog

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    reference = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    # Metric names and units come from BENCHMARK.json alone.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    streams = w.heldout if args.heldout else w.inputs
    order = workloads.stream_order(streams, args.seed)

    out_root = ROOT / ".bench_out"
    work_dir = out_root / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    failures = FailureLog()
    logging.getLogger("causalpipe").addHandler(failures)
    try:
        setup = measure_setup(w.name, work_dir) if args.trace == 0 else []
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(workloads.run_pass(w, order, work_dir / f"pass{len(passes)}"))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ops = [op for p in passes for op in p.ops]
        replay = None
        if args.trace == 1:
            replay = workloads.replay_pass(w, order, work_dir / "replay", failures)
            ops += replay.ops
    finally:
        logging.getLogger("causalpipe").removeHandler(failures)
        shutil.rmtree(work_dir, ignore_errors=True)

    bad = check_ops(ops, reference, w.name)
    # A CI test that raised cannot be tied to its batch from outside; each
    # one counts as a failed operation (it also changes that batch's digest).
    failed = min(len(ops), len(bad) + failures.counts["ci_failures"])
    e2e = workloads.end_to_end(passes)
    machine = machine_info()

    record = {
        "workload": w.name,
        "seed": args.seed,
        "inputs": "heldout" if args.heldout else "primary",
        "stream_order": order,
        "trace": args.trace,
        "machine": machine,
        "attempted": len(ops),
        "failed": failed,
        "failed_share": failed / len(ops),
        "failure_log": dict(failures.counts),
        "problems": bad,
        **e2e.pop("counts"),
        "realtime_factors": [f for p in passes for f in p.realtime_factors],
        "latencies_s": [op.latency_s for op in ops],
    }
    if args.trace == 0:
        values = dict(e2e, setup_s=statistics.median(setup), peak_rss_mb=peak_rss_mb)
        record["setup_samples_s"] = setup
        declared = spec["end_to_end"]
    else:
        values = workloads.per_layer(replay, passes)
        declared = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record["metrics"] = metrics

    print(f"workload {w.name} ({record['inputs']} inputs, streams {order}), "
          f"seed {args.seed}, trace {args.trace}, {record['passes']} pass(es)")
    print("machine " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_share':28s} {record['failed_share']:>14.6g} ratio "
          f"({failed} of {len(ops)} operations)")
    print(f"  tail latency is p{record['tail_percentile']} over "
          f"{record['latency_samples']} batches")
    if replay is not None and w.ci_test == "kridge_dcor":
        share = values["stats.dcor_perm_share"]
        verdict = ("most of it, as the ROADMAP baseline predicts" if share > 0.5
                   else "NOT most of it: the ROADMAP baseline no longer holds")
        print(f"  dcor_perm_test takes {share:.1%} of discovery time: {verdict}")
    for problem in bad:
        print(f"  FAILED {problem}")

    results_dir = out_root / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{w.name}-{record['inputs']}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n",
                                              encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
