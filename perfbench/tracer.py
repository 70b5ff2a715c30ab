"""Spans around flpareto's module boundaries, and the per-layer metrics.

The tracer wraps functions from outside the package, at the module
attribute their caller resolves: `flsim` calls `loss_and_grad` through
its own global imported from `net`, so the wrapper replaces
`flpareto.flsim.loss_and_grad`.  Each wrapped call records a span (id,
name, start, end, parent, run id, attributes) in memory; the worker writes
the spans out when its repetition ends and `layer_metrics` turns them into
the per-layer metrics.

`loss_and_grad` runs once per minibatch (4,000 times per FL evaluation
with the simulator's default rounds and epochs), so it gets no span of its own: its calls, time and rows are
summed into the enclosing `flo_evaluate` span, which keeps the tracing
overhead low.  Generation spans are synthetic: each runs from the engine's
start, or the previous generation's end, to the end of the engine's
once-per-generation `_record`, and is excluded from self time and
coverage because it overlaps its siblings.
"""

from __future__ import annotations

import itertools
import os
import statistics
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# Per-layer metrics: (name, unit, better).  Values of a layer that does not
# run on a workload read 0.
PER_LAYER = (
    ("net.loss_and_grad.calls", "count", "lower"),
    ("net.loss_and_grad.s", "s", "lower"),
    ("net.loss_and_grad.gflop_per_s", "GFLOP/s", "higher"),
    ("flsim.flo_evaluate.calls", "count", "lower"),
    ("flsim.flo_evaluate.s", "s", "lower"),
    ("flsim.flo_evaluate.rd.p50_s", "s", "lower"),
    ("flsim.flo_evaluate.bc.p50_s", "s", "lower"),
    ("flsim.flo_evaluate.sf.p50_s", "s", "lower"),
    ("flsim.invalid_ratio", "ratio", "lower"),
    ("flsim.local_sgd.s", "s", "lower"),
    ("flsim.fedavg.s", "s", "lower"),
    ("data.load_dataset.calls", "count", "lower"),
    ("data.load_dataset.s", "s", "lower"),
    ("protect.rd_protect.s", "s", "lower"),
    ("protect.bc_protect.s", "s", "lower"),
    ("protect.sf_protect.s", "s", "lower"),
    ("runner.ckpt_write.calls", "count", "lower"),
    ("runner.ckpt_write.s", "s", "lower"),
    ("runner.ckpt_write.bytes", "B", "lower"),
    ("runner.ckpt_rewrite_ratio", "ratio", "lower"),
    ("runner.ckpt_read.s", "s", "lower"),
    ("runner.bytes_written", "B", "lower"),
    ("runner.cpu_s", "s", "lower"),
    ("nsga2.generation.p50_s", "s", "lower"),
    ("nsga2.evaluate_batch.s", "s", "lower"),
    ("nsga2.select_survivors.s", "s", "lower"),
    ("nsga2.rank_and_crowding.s", "s", "lower"),
    ("nsga2.self_s", "s", "lower"),
    ("moo.hypervolume.calls", "count", "lower"),
    ("moo.hypervolume.s", "s", "lower"),
    ("moo.hypervolume.points_mean", "points", "lower"),
    ("moo.nondominated_sort.s", "s", "lower"),
    ("moo.pareto_front_mask.s", "s", "lower"),
    ("gp.gp_fit.calls", "count", "lower"),
    ("gp.gp_fit.s", "s", "lower"),
    ("gp.gp_posterior_grad.calls", "count", "lower"),
    ("gp.gp_posterior_grad.s", "s", "lower"),
    ("gp.gp_posterior.s", "s", "lower"),
    ("psl.generation.p50_s", "s", "lower"),
    ("psl.train_pareto_set_model.self_s", "s", "lower"),
    ("psl.greedy_hvi_select.s", "s", "lower"),
    ("psl.greedy_hvi_select.self_s", "s", "lower"),
    ("psl.hvi.hv_calls_per_pick", "calls/pick", "lower"),
    ("psl.generate_candidates.s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.span_coverage", "ratio", "higher"),
)

# Which end-to-end metric each layer's metrics should move, on which
# workload, and where they should not move (the layer does not run there,
# or barely).  A metric belongs to the layer named by its first component.
LAYERS = {
    "net": ("run_ref on fl-search", ("psl-toy", "nsga2-archive")),
    "flsim": ("run_ref on fl-search", ("psl-toy", "nsga2-archive")),
    "data": ("run_ref on fl-search", ("psl-toy", "nsga2-archive")),
    "protect": ("run_ref on fl-search", ("psl-toy", "nsga2-archive")),
    "runner": (
        "run_ref and peak_rss_mb on nsga2-archive; run_ref on fl-search for seed-level parallelism",
        ("psl-toy",),
    ),
    "nsga2": ("run_ref on nsga2-archive", ("psl-toy",)),
    "moo": ("run_ref on nsga2-archive (few large calls) and on psl-toy (many small calls)", ("fl-search",)),
    "gp": ("run_ref on psl-toy", ("fl-search", "nsga2-archive")),
    "psl": ("run_ref on psl-toy", ("fl-search", "nsga2-archive")),
    "trace": ("none", ("fl-search", "psl-toy", "nsga2-archive")),
}


class _Local(threading.local):
    def __init__(self):
        self.stack: list[int] = []
        self.agg: list | None = None  # loss_and_grad [calls, seconds, rows]


def _matmul_flops_per_row(spec) -> int:
    """Multiply-add FLOPs of one sample through loss_and_grad's matmuls.

    Forward: X W1, a1 W2, a2 W3.  Backward: both products per layer,
    except the input gradient of the first layer, which is not formed.
    """
    i, h1, h2, c = spec.in_dim, spec.hidden1, spec.hidden2, spec.n_classes
    return 2 * (2 * i * h1 + 3 * h1 * h2 + 3 * h2 * c)


class Tracer:
    """In-memory span recorder; `install` wraps flpareto's boundaries."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = 0
        self._ids = itertools.count(1)
        self._tls = _Local()
        self._main_stack = self._tls.stack
        self._generation_start = 0.0
        self._engine_span = 0

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        # first span of a pool thread: its caller is the main thread's
        # innermost open span (evaluate_batch)
        main = self._main_stack
        return main[-1] if main else 0

    def wrap(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Replace module.attr by a span-recording wrapper.

        `before(span id, args)` runs as the span opens; `after(attrs, args, result)`
        fills the span's attribute dict once the call has returned.
        """
        fn = getattr(module, attr)
        tls, spans, ids = self._tls, self.spans, self._ids

        def wrapper(*args, **kwargs):
            stack = tls.stack
            parent = self._parent(stack)
            sid = next(ids)
            stack.append(sid)
            attrs: dict = {}
            if before is not None:
                before(sid, args)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(attrs, args, result)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, self.run_id, attrs))

        setattr(module, attr, wrapper)

    def install(self) -> None:
        import flpareto.cli as cli
        import flpareto.flsim as flsim
        import flpareto.moo as moo
        import flpareto.nsga2 as nsga2
        import flpareto.protect as protect
        import flpareto.psl as psl
        import flpareto.runner as runner
        import flpareto.settings as settings

        self.wrap(cli, "main", "cli.main")
        tls = self._tls
        loss_and_grad = flsim.loss_and_grad

        def summed_loss_and_grad(params, X, y, spec):
            t0 = perf_counter()
            out = loss_and_grad(params, X, y, spec)
            agg = tls.agg
            if agg is not None:
                agg[0] += 1
                agg[1] += perf_counter() - t0
                agg[2] += X.shape[0]
            return out

        flsim.loss_and_grad = summed_loss_and_grad

        def open_evaluation(sid, args):
            tls.agg = [0, 0.0, 0]

        def close_evaluation(attrs, args, result):
            cfg = args[0]
            calls, seconds, rows = tls.agg
            tls.agg = None
            attrs.update(
                mechanism=cfg.mechanism,
                diverged=bool(result.diverged),
                lag_calls=calls,
                lag_s=seconds,
                lag_flops=rows * _matmul_flops_per_row(cfg.model),
            )

        self.wrap(settings, "flo_evaluate", "flsim.flo_evaluate", open_evaluation, close_evaluation)
        self.wrap(flsim, "local_sgd", "flsim.local_sgd")
        self.wrap(flsim, "fedavg", "flsim.fedavg")
        self.wrap(flsim, "load_dataset", "data.load_dataset")
        for mech in ("rd_protect", "bc_protect", "sf_protect"):
            self.wrap(protect, mech, f"protect.{mech}")

        def open_engine(sid, args):
            self._engine_span = sid
            self._generation_start = perf_counter()

        self.wrap(runner, "run_nsga2", "nsga2.run_nsga2", open_engine)
        self.wrap(runner, "run_psl", "psl.run_psl", open_engine)
        for mod, label in ((nsga2, "nsga2"), (psl, "psl")):
            self.wrap(mod, "_record", f"{label}.record", after=self._generation_ended(f"{label}.generation"))
            self.wrap(mod, "evaluate_batch", "nsga2.evaluate_batch")
        self.wrap(nsga2, "select_survivors", "nsga2.select_survivors")
        self.wrap(nsga2, "rank_and_crowding", "nsga2.rank_and_crowding")
        self.wrap(nsga2, "nondominated_sort", "moo.nondominated_sort")

        def count_points(attrs, args, result):
            attrs["points"] = len(args[0])

        self.wrap(moo, "hypervolume", "moo.hypervolume", after=count_points)
        self.wrap(psl, "hypervolume", "moo.hypervolume", after=count_points)
        self.wrap(moo, "pareto_front_mask", "moo.pareto_front_mask")

        for fn in ("gp_fit", "gp_posterior_grad", "gp_posterior"):
            self.wrap(psl, fn, f"gp.{fn}")
        self.wrap(psl, "train_pareto_set_model", "psl.train_pareto_set_model")
        self.wrap(psl, "generate_candidates", "psl.generate_candidates")

        def count_picks(attrs, args, result):
            attrs["picks"] = len(result)

        self.wrap(psl, "greedy_hvi_select", "psl.greedy_hvi_select", after=count_picks)

        def file_size(attrs, args, result):
            path = Path(args[0])
            attrs["bytes"] = os.path.getsize(path)
            attrs["checkpoint"] = path.parent.name == "checkpoints"

        self.wrap(runner, "_dump_json", "runner._dump_json", after=file_size)
        self.wrap(runner, "_archive_from_dict", "runner.ckpt_read")

    def _generation_ended(self, name: str):
        def after(attrs, args, result):
            now = perf_counter()
            self.spans.append(
                (next(self._ids), name, self._generation_start, now,
                 self._engine_span, self.run_id, {"boundary": True})
            )
            self._generation_start = now

        return after


def _union(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(spans: list, info: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (all but overhead_ratio).

    A span whose call raised has no attributes, so attributes are read
    with defaults.

    `info` carries what the worker measured outside the spans: run_s,
    cpu_s, bytes_written and final_ckpt_bytes.
    """
    by_name: dict[str, list] = defaultdict(list)
    children: dict[int, list] = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)
        if not s[6].get("boundary"):
            children[s[4]].append(s)

    def total(name: str) -> float:
        return sum(s[3] - s[2] for s in by_name[name])

    def self_time(name: str) -> float:
        return sum(
            (s[3] - s[2]) - _union([(c[2], c[3]) for c in children[s[0]]], s[2], s[3])
            for s in by_name[name]
        )

    def p50(durations) -> float:
        return statistics.median(durations) if durations else 0.0

    evals = by_name["flsim.flo_evaluate"]
    lag_s = sum(s[6].get("lag_s", 0.0) for s in evals)
    lag_flops = sum(s[6].get("lag_flops", 0) for s in evals)
    ckpt = [s for s in by_name["runner._dump_json"] if s[6].get("checkpoint")]
    ckpt_bytes = sum(s[6]["bytes"] for s in ckpt)
    hv = by_name["moo.hypervolume"]
    hvi_ids = {s[0] for s in by_name["psl.greedy_hvi_select"]}
    picks = sum(s[6].get("picks", 0) for s in by_name["psl.greedy_hvi_select"])
    roots = [s for s in spans if s[4] == 0]
    covered = sum(_union([(c[2], c[3]) for c in children[r[0]]], r[2], r[3]) for r in roots)

    m = {
        "net.loss_and_grad.calls": sum(s[6].get("lag_calls", 0) for s in evals),
        "net.loss_and_grad.s": lag_s,
        "net.loss_and_grad.gflop_per_s": lag_flops / lag_s / 1e9 if lag_s else 0.0,
        "flsim.flo_evaluate.calls": len(evals),
        "flsim.flo_evaluate.s": total("flsim.flo_evaluate"),
        "flsim.invalid_ratio": sum(s[6].get("diverged", False) for s in evals) / len(evals) if evals else 0.0,
        "flsim.local_sgd.s": total("flsim.local_sgd"),
        "flsim.fedavg.s": total("flsim.fedavg"),
        "data.load_dataset.calls": len(by_name["data.load_dataset"]),
        "data.load_dataset.s": total("data.load_dataset"),
        "runner.ckpt_write.calls": len(ckpt),
        "runner.ckpt_write.s": sum(s[3] - s[2] for s in ckpt),
        "runner.ckpt_write.bytes": ckpt_bytes,
        "runner.ckpt_rewrite_ratio": ckpt_bytes / info["final_ckpt_bytes"] if info["final_ckpt_bytes"] else 0.0,
        "runner.ckpt_read.s": total("runner.ckpt_read"),
        "runner.bytes_written": info["bytes_written"],
        "runner.cpu_s": info["cpu_s"],
        "nsga2.generation.p50_s": p50([s[3] - s[2] for s in by_name["nsga2.generation"]]),
        "nsga2.evaluate_batch.s": total("nsga2.evaluate_batch"),
        "nsga2.select_survivors.s": total("nsga2.select_survivors"),
        "nsga2.rank_and_crowding.s": total("nsga2.rank_and_crowding"),
        "nsga2.self_s": self_time("nsga2.run_nsga2"),
        "moo.hypervolume.calls": len(hv),
        "moo.hypervolume.s": total("moo.hypervolume"),
        "moo.hypervolume.points_mean": statistics.fmean(s[6].get("points", 0) for s in hv) if hv else 0.0,
        "moo.nondominated_sort.s": total("moo.nondominated_sort"),
        "moo.pareto_front_mask.s": total("moo.pareto_front_mask"),
        "gp.gp_fit.calls": len(by_name["gp.gp_fit"]),
        "gp.gp_fit.s": total("gp.gp_fit"),
        "gp.gp_posterior_grad.calls": len(by_name["gp.gp_posterior_grad"]),
        "gp.gp_posterior_grad.s": total("gp.gp_posterior_grad"),
        "gp.gp_posterior.s": total("gp.gp_posterior"),
        "psl.generation.p50_s": p50([s[3] - s[2] for s in by_name["psl.generation"]]),
        "psl.train_pareto_set_model.self_s": self_time("psl.train_pareto_set_model"),
        "psl.greedy_hvi_select.s": total("psl.greedy_hvi_select"),
        "psl.greedy_hvi_select.self_s": self_time("psl.greedy_hvi_select"),
        "psl.hvi.hv_calls_per_pick": sum(s[4] in hvi_ids for s in hv) / picks if picks else 0.0,
        "psl.generate_candidates.s": total("psl.generate_candidates"),
        "trace.span_coverage": covered / info["run_s"],
    }
    for mech in ("rd", "bc", "sf"):
        m[f"flsim.flo_evaluate.{mech}.p50_s"] = p50(
            [s[3] - s[2] for s in evals if s[6].get("mechanism") == mech]
        )
    for mech in ("rd_protect", "bc_protect", "sf_protect"):
        m[f"protect.{mech}.s"] = total(f"protect.{mech}")
    return m
