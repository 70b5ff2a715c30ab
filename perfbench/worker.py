"""One repetition of a workload, in a fresh process.

    python3 perfbench/worker.py --workload psl-toy --seed 1 --dir REP_DIR
        [--trace] [--setup-only] [--smoke]

Imports flpareto from the checkout's `src`, writes the workload's
manifests under REP_DIR/inputs and runs each through the public entry
point `flpareto.cli.main(["optimize", "--config", ...])`, one after
another, with outputs under REP_DIR/out.  It writes REP_DIR/result.json:
the clock reading at the first call into flpareto (the end of set-up),
the wall time of the invocations, each invocation's error (null when it
succeeded), peak RSS, CPU time, bytes written and, with --trace, the spans.
--setup-only stops at the first call and so measures set-up alone.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from flpareto import cli  # noqa: E402

import workloads  # noqa: E402


def _wchar() -> int:
    """Bytes this process has passed to write calls so far."""
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar field")


def _cpu_seconds() -> float:
    return sum(
        r.ru_utime + r.ru_stime
        for r in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def _environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    (args.dir / "inputs").mkdir(parents=True)
    configs = []
    for i, (tree, manifest) in enumerate(
        workloads.invocations(args.workload, args.seed, args.smoke)
    ):
        path = args.dir / "inputs" / f"{i}.json"
        path.write_text(json.dumps({**manifest, "out_dir": str(args.dir / "out" / tree)}))
        configs.append(str(path))

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    t_first = time.perf_counter()
    result: dict = {"t_first": t_first, "env": _environment()}
    if not args.setup_only:
        wchar0, cpu0 = _wchar(), _cpu_seconds()
        errors = []
        for i, config in enumerate(configs):
            if tracer is not None:
                tracer.run_id = i
            try:
                rc = cli.main(["optimize", "--config", config])
                errors.append(None if rc == 0 else f"exit code {rc}")
            except (Exception, SystemExit):
                errors.append(traceback.format_exc())
        result["run_s"] = time.perf_counter() - t_first
        result["cpu_s"] = _cpu_seconds() - cpu0
        result["bytes_written"] = _wchar() - wchar0
        result["errors"] = errors
        result["final_ckpt_bytes"] = sum(
            p.stat().st_size for p in (args.dir / "out").glob("*/checkpoints/*.json")
        )
        peak_kib = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        result["peak_rss_mb"] = peak_kib / 1024.0
        if tracer is not None:
            result["spans"] = tracer.spans
    (args.dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
