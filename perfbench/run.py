"""flpareto's benchmark: closed-loop searches through the public CLI.

    python3 perfbench/run.py [--workload fl-search|psl-toy|nsga2-archive|all]
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Each repetition of a workload is a fresh worker process (worker.py) that
runs the manifests of one of the run's searches (workloads.sub_seeds) one
after another; repetitions rotate over the searches until --seconds is
spent.  With --trace 0 the last line reports the end-to-end metrics; with
--trace 1 each search runs untraced then traced, and the last line reports
the per-layer metrics (medians over the traced repetitions) plus the
tracing overhead.  Every repetition's output trees are checked (checks.py)
and digested; a search's digest must not change between repetitions or
between traced and untraced ones.

run_ref is the workload's run time in units of a reference loop: each
untraced repetition's wall time (run_s) divided by the median time of the
reference loop (a fixed pure-Python integer loop, about 18 ms on a 2 GHz
Xeon core) timed just before and just after it, then the median over each
search's repetitions, summed over the searches.  On a shared host the
machine itself runs up to 1.7x slower for stretches of seconds to
minutes, so wall time moves with the host: raw run_s medians of two
40-second runs differ by up to 40%.  The reference loop slows with the
host and not with the program, so the ratio moves with the program only.
The raw run_s of each search is printed with the other human-readable
lines.  setup_s and peak_rss_mb are medians over the untraced
repetitions.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  `attempted` counts manifest
invocations; an invocation fails when it raises, returns non-zero or
writes a tree that fails a check.  Human-readable lines above it give each
end-to-end metric's median, quartiles and sample count, the environment,
the artifact digest and the final hypervolumes.

Workers run with the BLAS/OpenMP pools pinned to one thread and without
FLPARETO_OUT / FLPARETO_WORKERS, and write under .bench_build/ in the
checkout, which is removed afterwards.  --smoke shrinks every budget to
check the metric names quickly; its numbers mean nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from checks import check_tree, final_hv, tree_digest
from tracer import PER_LAYER, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_ref", "ref", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("ok_ratio", "ratio", "higher"),
)
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# a workload's run, however slow the program, ends within this many seconds
DEADLINE_S = 170
RATIO_BASES = {
    "flsim.invalid_ratio": "flo_evaluate calls",
    "runner.ckpt_rewrite_ratio": "bytes of the final checkpoints",
    "psl.hvi.hv_calls_per_pick": "candidates picked",
    "trace.overhead_ratio": "untraced run_ref",
    "trace.span_coverage": "traced run_s",
}


# one reference loop, and how many of them are timed between repetitions
REF_LOOP_N = 200_000
REF_LOOPS = 8


def reference_loops() -> list[float]:
    """Times of REF_LOOPS runs of a fixed pure-Python loop: the host's speed now."""
    times = []
    for _ in range(REF_LOOPS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_LOOP_N):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return times


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("FLPARETO_OUT", "FLPARETO_WORKERS")}
    env.update(PINNED_THREADS)
    return env


def run_worker(workload: str, seed: int, rep_dir: Path, timeout: float, *,
               trace=False, setup_only=False, smoke=False) -> dict:
    """Run one worker process and return its result, with setup_s added."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--dir", str(rep_dir)]
    cmd += [flag for flag, on in (("--trace", trace), ("--setup-only", setup_only), ("--smoke", smoke)) if on]
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=_worker_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker did not finish within the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads((rep_dir / "result.json").read_text())
    # perf_counter is CLOCK_MONOTONIC on Linux, shared by both processes
    result["setup_s"] = result["t_first"] - t_spawn
    return result


def _check_rep(workload: str, seed: int, rep_dir: Path, result: dict, smoke: bool) -> tuple[list[bool], list[str]]:
    """Per-invocation failure flags and the problems behind them."""
    invs = workloads.invocations(workload, seed, smoke)
    failed = [err is not None for err in result["errors"]]
    problems = [f"invocation {i}: {err}" for i, err in enumerate(result["errors"]) if err]
    last = {tree: i for i, (tree, _) in enumerate(invs)}
    for tree, i in last.items():
        found = check_tree(rep_dir / "out" / tree, invs[i][1])
        if found:
            failed[i] = True
            problems += [f"{tree}: {p}" for p in found]
    return failed, problems


def _stats(values: list[float]) -> str:
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return f"median={med:.6g} q1={q1:.6g} q3={q3:.6g} n={len(values)}"


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run one workload for about `seconds`; print its report, return its result."""
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"perfbench-{workload}-", dir=scratch))
    subs = workloads.sub_seeds(workload, seed)
    per_search = 2 if trace else 1
    samples: dict[str, list[float]] = {"setup_s": [], "peak_rss_mb": []}
    run_s: dict[int, list[float]] = {sub: [] for sub in subs}
    run_ref: dict[int, list[float]] = {sub: [] for sub in subs}
    traced_run_ref: dict[int, list[float]] = {sub: [] for sub in subs}
    ref_all: list[float] = []
    layer_samples: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    digests: dict[int, str] = {}
    hv: dict[int, dict] = {}
    env = None
    try:
        if not smoke:
            # an unmeasured set-up first fills the bytecode and page caches
            run_worker(workload, subs[0], tmp / "warmup", deadline - time.perf_counter(), setup_only=True)
        ref_before = reference_loops()
        rep_times: list[float] = []
        rep = 0
        while True:
            sub = subs[rep // per_search % len(subs)]
            traced = trace and rep % 2 == 1
            rep_dir = tmp / f"rep{rep}"
            t0 = time.perf_counter()
            res = run_worker(workload, sub, rep_dir, deadline - time.perf_counter(),
                             trace=traced, smoke=smoke)
            ref_after = reference_loops()
            ref = statistics.median(ref_before + ref_after)
            ref_all += ref_after
            ref_before = ref_after
            env = res["env"]
            flags, found = _check_rep(workload, sub, rep_dir, res, smoke)
            rep_digest = tree_digest(rep_dir / "out")
            if sub not in digests:
                digests[sub] = rep_digest
                if not found:
                    hv[sub] = {t: final_hv(rep_dir / "out" / t) for t in sorted(os.listdir(rep_dir / "out"))}
            elif rep_digest != digests[sub]:
                flags = [True] * len(flags)
                found.append(f"rep {rep} ({'traced' if traced else 'untraced'}), search {sub}: "
                             f"artifact digest {rep_digest} != {digests[sub]}")
            attempted += len(flags)
            failed += sum(flags)
            problems += found
            if traced:
                traced_run_ref[sub].append(res["run_s"] / ref)
                layer_samples.append(layer_metrics(res["spans"], res))
            else:
                run_s[sub].append(res["run_s"])
                run_ref[sub].append(res["run_s"] / ref)
                for name in samples:
                    samples[name].append(res[name])
            shutil.rmtree(rep_dir)
            rep_times.append(time.perf_counter() - t0)
            rep += 1
            elapsed = time.perf_counter() - start
            if (rep >= per_search * len(subs) and rep % per_search == 0
                    and elapsed + per_search * statistics.median(rep_times) > seconds):
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"== {workload} seed={seed} trace={int(trace)} repetitions={rep} "
          f"wall={time.perf_counter() - start:.1f}s")
    print("env " + json.dumps(env, sort_keys=True))
    for sub in subs:
        print(f"search {sub}: artifact digest {digests[sub]}")
        print(f"search {sub}: final hv_feasible " + json.dumps(hv.get(sub), sort_keys=True))
    print(f"fail_ratio {failed}/{attempted} invocations")
    for p in problems:
        print(f"FAILED {p}")

    units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
    if trace:
        values = {name: statistics.median(s[name] for s in layer_samples)
                  for name in layer_samples[0]}
        values["trace.overhead_ratio"] = (sum(statistics.median(traced_run_ref[sub]) for sub in subs)
                                          / sum(statistics.median(run_ref[sub]) for sub in subs))
        for name, unit, _ in PER_LAYER:
            base = f"  (base: {RATIO_BASES[name]})" if name in RATIO_BASES else ""
            print(f"{name:36s} {unit:10s} {values[name]:.6g}{base}")
    else:
        values = {name: statistics.median(v) for name, v in samples.items()}
        values["run_ref"] = sum(statistics.median(run_ref[sub]) for sub in subs)
        values["ok_ratio"] = (attempted - failed) / attempted
        print(f"{'setup_s':12s} {'s':6s} {_stats(samples['setup_s'])}")
        print(f"{'ref loop':12s} {'s':6s} {_stats(ref_all)}")
        for sub in subs:
            print(f"{'run_s':12s} {'s':6s} {_stats(run_s[sub])}  (search {sub})")
            print(f"{'run_ref':12s} {'ref':6s} {_stats(run_ref[sub])}  (search {sub})")
        print(f"{'run_ref':12s} {'ref':6s} {values['run_ref']:.6g}  (sum of the searches' medians)")
        print(f"{'peak_rss_mb':12s} {'MiB':6s} {_stats(samples['peak_rss_mb'])}")
        print(f"{'ok_ratio':12s} {'ratio':6s} {values['ok_ratio']:.6g}  (base: {attempted} invocations)")
    names = [n for n, _, _ in (PER_LAYER if trace else END_TO_END)]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "flpareto" / "__init__.py").is_file():
        print(f"error: no flpareto sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: measure(w, args.seed, args.seconds, bool(args.trace), args.smoke) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        out = results[names[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{n}": v for w, r in results.items() for n, v in r["metrics"].items()},
        }
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
