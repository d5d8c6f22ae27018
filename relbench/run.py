"""Relevance-search benchmark: one command, three workloads.

Usage, from the repository root::

    python3 relbench/run.py --workload {topk-http,batch-score,write-read} \
        --seed N --seconds S --trace {0,1}

It generates its inputs from ``--seed``, builds the program from ``src/``,
measures for ``--seconds``, checks sampled answers against an independent
reference, and prints one JSON object as the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` its per-layer
metrics (a layer a workload never calls reports 0).

Exit status: 0 when every operation was answered correctly; 3 when an
answer was wrong or missing (the result line says ``"correct": false``);
2 when the benchmark itself broke -- the program is missing, a server did
not start, the run hit its time cap -- and then no result line is printed.

Provenance (git sha or source hash, seed, CPUs, Python/numpy/scipy/BLAS,
graph size) and, for traced runs, every span are written to
``.relbench/runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".relbench"
EXIT_WRONG = 3
EXIT_BROKE = 2
#: Wall-clock cap on one run: a hang fails fast instead of stalling.
RUN_CAP_S = 170
WORKLOADS = ("topk-http", "batch-score", "write-read")


class _Abort(BaseException):
    """Raised by the time cap or a termination signal."""


@dataclass
class Run:
    repro: object
    workload: str
    seed: int
    seconds: float
    trace: bool
    size: str
    perturb: bool
    inputs: object
    src: Path
    workdir: Path


def _abort(signum, frame):
    raise _Abort(f"stopped by signal {signum} (time cap {RUN_CAP_S} s)")


def _provenance(repro, run: Run) -> dict:
    import numpy
    import scipy

    git = None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            git = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version",
                                               "openblas configuration")}
    except (KeyError, TypeError):
        blas = None
    from repro.serve.procs import usable_cpus

    return {
        "git_sha": git,
        "src_sha256": digest.hexdigest(),
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "size": run.size,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")
        },
        "platform": platform.platform(),
        "graph_edges_generated": run.inputs.num_edges,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("reference", "toy"),
                        default="reference", help="toy: the self-test's graph")
    parser.add_argument("--perturb", action="store_true",
                        help="corrupt one sampled answer (self-test only)")
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _abort)
    signal.signal(signal.SIGTERM, _abort)
    signal.signal(signal.SIGINT, _abort)
    signal.alarm(RUN_CAP_S)
    workdir = None
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (SRC / "repro" / "__init__.py").is_file():
            raise FileNotFoundError(f"no program sources under {SRC}")
        sys.path.insert(0, str(SRC))
        import repro

        import inputs

        OUT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
        run = Run(
            repro=repro, workload=args.workload, seed=args.seed,
            seconds=args.seconds, trace=bool(args.trace), size=args.size,
            perturb=args.perturb,
            inputs=inputs.make_graph(args.seed, args.size),
            src=SRC, workdir=workdir,
        )
        host = _provenance(repro, run)
        if args.workload == "topk-http":
            from http_load import topk_http as workload
        elif args.workload == "batch-score":
            from inproc import batch_score as workload
        else:
            from inproc import write_read as workload
        started = time.perf_counter()
        out = workload(run)
        host["run_wall_s"] = time.perf_counter() - started
    except (Exception, _Abort) as exc:
        import traceback

        traceback.print_exc()
        print(f"relbench: benchmark broke: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_BROKE
    finally:
        signal.alarm(0)
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer"] if run.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        value, unit = out.metrics.get(entry["name"], (0.0, entry["unit"]))
        metrics[entry["name"]] = {"value": value, "unit": unit}
    correct = not out.mismatches and out.failed == 0
    failed = min(out.attempted, out.failed + len(out.mismatches))
    record = {
        "host": host, "info": out.info, "errors": out.errors,
        "mismatches": out.mismatches[:50], "metrics": metrics,
        "trace": out.trace,
    }
    name = f"{run.workload}-seed{run.seed}-trace{int(run.trace)}.json"
    (OUT / "runs").mkdir(exist_ok=True)
    (OUT / "runs" / name).write_text(json.dumps(record, default=str))

    print("host " + json.dumps(host, default=str))
    for problem in (out.errors + out.mismatches)[:20]:
        print(f"problem: {problem}")
    for key, item in metrics.items():
        print(f"{key:28s} {item['value']:14.6f} {item['unit']}")
    print(f"checked {out.info.get('answers_checked', 0)} answers; "
          f"{len(out.mismatches)} mismatched; record in .relbench/runs/{name}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(out.attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0 if correct else EXIT_WRONG


if __name__ == "__main__":
    sys.exit(main())
