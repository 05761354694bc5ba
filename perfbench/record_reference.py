"""Record the model digests every workload must reproduce.

    python3 perfbench/record_reference.py

Run from the root of a checkout of the code the references should describe
(the seed code, for this benchmark's reference.json). It runs each
workload's primary and held-out streams once, untraced, and the CLI's
`causalpipe run --seed 42`, and writes perfbench/reference.json. A change
that should not alter behaviour must reproduce these digests; re-recording
them is a behaviour change and needs its own justification.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from run import BENCH_DIR, BLAS_ENV, ROOT, SRC, machine_info

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def cli_run_digests(out_dir: Path, pin_blas: bool) -> dict:
    """`causalpipe run --seed 42` through the CLI, in a fresh process, with
    BLAS pinned as in the benchmark or left at its default thread count."""
    code = ("import sys\nfrom causalpipe import cli\n"
            "sys.exit(cli.main(['run', '--seed', '42', '--out', sys.argv[1], '--quiet']))\n")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    if pin_blas:
        env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    subprocess.run([sys.executable, "-c", code, str(out_dir)], env=env, cwd=ROOT,
                   check=True, timeout=600)
    return {p.name: workloads.sha256(p) for p in sorted(out_dir.glob("model_*.json"))}


def main() -> int:
    work = ROOT / ".bench_out" / "record"
    reference: dict = {"machine": machine_info()}
    for w in workloads.WORKLOADS.values():
        streams = w.inputs + w.heldout
        result = workloads.run_pass(w, list(streams), work / w.name)
        digests: dict = {}
        for op in result.ops:
            if op.digest is None:
                raise SystemExit(f"{w.name} stream {op.stream}: {op.model_file} missing")
            digests.setdefault(str(op.stream), {})[op.model_file] = op.digest
        reference[w.name] = digests
        print(f"{w.name}: {len(result.ops)} models", flush=True)
    reference["run_seed42_cli"] = cli_run_digests(work / "cli42", pin_blas=True)
    # The same run through run_pipeline, as the benchmark drives it.
    seed42 = workloads.run_pass(workloads.WORKLOADS["hri_kridge"], [42], work / "seed42")
    if {op.model_file: op.digest for op in seed42.ops} != reference["run_seed42_cli"]:
        raise SystemExit("`run --seed 42` through the CLI differs from run_pipeline")
    # Model values differ in their last digits with the BLAS thread count,
    # so the unpinned digest holds only on a machine with this nproc.
    reference["run_seed42_cli_blas_default"] = {
        "nproc": os.cpu_count(),
        "digests": cli_run_digests(work / "cli42-default", pin_blas=False),
    }
    shutil.rmtree(work)
    (BENCH_DIR / "reference.json").write_text(json.dumps(reference, indent=2, sort_keys=True)
                                              + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
