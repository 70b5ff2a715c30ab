"""Acceptance suite: ten go/no-go checks with stated tolerances.

Each criterion prints a single [PASS]/[FAIL] line (visible with
``pytest tests/test_acceptance.py -v -s`` or by running this file
directly with ``python tests/test_acceptance.py``).  Expensive runs are
shared between criteria through a lazy module-level cache.
"""

import dataclasses
import hashlib
import json
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from flpareto.bench import constrained_toy_problem, zdt1_problem
from flpareto.data import SYNTHETIC_DEFAULTS, load_dataset
from flpareto.flsim import FLRunConfig, FlOptions, flo_evaluate, local_sgd
from flpareto.gp import GPHyper, gp_fit
from flpareto.moo import hypervolume, nondominated_sort
from flpareto.net import ModelSpec, accuracy, init_params, loss_and_grad
from flpareto.nsga2 import NsgaConfig, run_nsga2, run_random_search
from flpareto.protect import RandomizationParams, rd_leakage, sf_leakage
from flpareto.psl import (
    ParetoSetModel,
    PslConfig,
    run_psl,
    sample_preferences,
    surrogate_loss_and_grads,
)
from flpareto.runner import run_manifest
from flpareto.seeding import TAG_FL_CLIENT, TAG_FL_INIT, stream
from flpareto.settings import build_fl_problem

_cache: dict = {}


def report(num: int, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail} [{elapsed:.1f}s < {budget:.0f}s]")


def _bounded(fn):
    """Run fn, returning (result, elapsed seconds)."""
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------- criterion 1

def _peel_fronts(Y: np.ndarray) -> list[list[int]]:
    """Independent oracle: repeatedly peel the non-dominated subset."""
    le = np.all(Y[:, None, :] <= Y[None, :, :], axis=2)
    lt = np.any(Y[:, None, :] < Y[None, :, :], axis=2)
    dom = le & lt  # dom[i, j]: i dominates j
    alive = np.ones(Y.shape[0], dtype=bool)
    fronts = []
    while alive.any():
        dominated = np.any(dom[alive][:, alive], axis=0)
        idx = np.flatnonzero(alive)
        front = idx[~dominated]
        fronts.append(sorted(int(i) for i in front))
        alive[front] = False
    return fronts


def test_criterion_1_sort_oracle_equivalence():
    def work():
        rng = np.random.default_rng(2024)
        for trial in range(200):
            n = int(rng.integers(1, 65))
            m = int(rng.integers(2, 4))
            if trial % 2:
                Y = rng.integers(0, 8, size=(n, m)).astype(float)  # heavy ties
            else:
                Y = rng.random((n, m))
            got = [sorted(f) for f in nondominated_sort(Y)]
            if got != _peel_fronts(Y):
                return False, trial
        return True, 200

    (ok, n), dt = _bounded(work)
    report(1, ok and dt < 10, f"non-dominated sort == brute-force partition on {n} instances", dt, 10)
    assert ok and dt < 10


# ---------------------------------------------------------------- criterion 2

def _mc_hv(Y, z, n_samples, seed):
    Y = Y[np.all(Y <= z, axis=1)]
    if Y.shape[0] == 0:
        return 0.0, 0.0
    lo = Y.min(axis=0)
    box = float(np.prod(z - lo))
    rng = np.random.default_rng(seed)
    hits = 0
    chunk = 250_000
    for start in range(0, n_samples, chunk):
        c = min(chunk, n_samples - start)
        pts = lo + rng.random((c, z.shape[0])) * (z - lo)
        dominated = np.zeros(c, dtype=bool)
        for y in Y:
            dominated |= np.all(pts >= y, axis=1)
        hits += int(dominated.sum())
    p = hits / n_samples
    return p * box, np.sqrt(max(p * (1 - p), 1e-12) / n_samples) * box


def test_criterion_2_hypervolume_exact_vs_monte_carlo():
    def work():
        if hypervolume([[1, 2], [2, 1]], [3, 3]) != 3.0:
            return False, "hand value"
        rng = np.random.default_rng(7)
        worst = 0.0
        for trial in range(50):
            m = 2 if trial % 2 else 3
            n = int(rng.integers(1, 21))
            Y = rng.random((n, m)) * 2.0
            z = np.full(m, 2.5)
            exact = hypervolume(Y, z)
            est, se = _mc_hv(Y, z, 10**6, seed=trial + 1000)
            dev = abs(exact - est) / max(se, 1e-12)
            worst = max(worst, dev)
            if abs(exact - est) > 3.0 * se:
                return False, f"trial {trial}: {dev:.2f} SE"
        return True, f"max deviation {worst:.2f} SE over 50 fronts"

    (ok, detail), dt = _bounded(work)
    report(2, ok and dt < 60, f"exact HV vs 1e6-sample Monte Carlo: {detail}; HV example == 3.0", dt, 60)
    assert ok and dt < 60


# ---------------------------------------------------------------- criterion 3

def _zdt1_runs():
    if "zdt1_runs" not in _cache:
        prob = zdt1_problem(10)
        cfg = NsgaConfig(population_size=50, generations=150)
        _cache["zdt1_runs"] = [run_nsga2(prob, cfg, seed=s) for s in range(5)]
    return _cache["zdt1_runs"]


def test_criterion_3_nsga2_zdt1_convergence():
    def work():
        finals = [r.records[-1].hv_feasible for r in _zdt1_runs()]
        passed = sum(v >= 0.60 for v in finals)
        return passed, finals

    (passed, finals), dt = _bounded(work)
    ok = passed >= 4 and dt < 120
    report(3, ok, f"ZDT1 HV {np.round(finals, 3).tolist()} (optimum 2/3): {passed}/5 seeds >= 0.60", dt, 120)
    assert ok


# ---------------------------------------------------------------- criterion 4

def _constraint_efficacy_runs():
    if "crit4" not in _cache:
        cfg = NsgaConfig(population_size=10, generations=10)
        problems = {
            "constrained_toy": constrained_toy_problem(3),
            "sf": build_fl_problem(
                "sf", {"width_max": 16, "dataset": {"n_per_client": 200, "n_test": 1000}}
            ),
        }
        runs = {}
        for name, prob in problems.items():
            cm, bl = [], []
            for seed in range(5):
                cm.append(run_nsga2(prob, cfg, seed=seed))
                bl.append(
                    run_nsga2(
                        dataclasses.replace(prob, constraints=prob.constraints.with_zero_penalties()), cfg, seed=seed,
                    )
                )
            runs[name] = (cm, bl)
        _cache["crit4"] = runs
    return _cache["crit4"]


def test_criterion_4_constraint_efficacy():
    def work():
        details = []
        all_ok = True
        for name, (cm, bl) in _constraint_efficacy_runs().items():
            cm_med = np.median([[r.hv_feasible for r in run.records] for run in cm], axis=0)
            bl_med = np.median([[r.hv_feasible for r in run.records] for run in bl], axis=0)
            bad = [t + 1 for t in range(10) if t + 1 >= 5 and cm_med[t] < bl_med[t]]
            all_ok &= not bad
            details.append(
                f"{name}: min gap gens5+ {np.min((cm_med - bl_med)[4:]):+.3f}"
                + (f" VIOLATIONS {bad}" if bad else "")
            )
        return all_ok, "; ".join(details)

    (ok, detail), dt = _bounded(work)
    ok = ok and dt < 900
    report(4, ok, f"median feasible HV cmofl >= baseline at gens 5..10: {detail}", dt, 900)
    assert ok


# ---------------------------------------------------------------- criterion 5

BUDGET_REF = np.array([1.1, 11.0])


def _budget_runs():
    if "crit5" not in _cache:
        prob = dataclasses.replace(zdt1_problem(10), ref_point=BUDGET_REF)
        psl_cfg = PslConfig(generations=20, batch_size=5, n_init=5)
        nsga_cfg = NsgaConfig(population_size=5, generations=20)
        psl = [run_psl(prob, psl_cfg, seed=s) for s in range(5)]
        rnd = [
            run_random_search(prob, 5, 20, seed=s)
            for s in range(5)
        ]
        nsga = [run_nsga2(prob, nsga_cfg, seed=s) for s in range(5)]
        _cache["crit5"] = (psl, rnd, nsga)
    return _cache["crit5"]


def test_criterion_5_psl_budget_efficiency():
    def work():
        psl, rnd, nsga = _budget_runs()
        for runs in (psl, rnd, nsga):
            for r in runs:
                assert len(r.archive) == 105, "budget must be exactly 105 evaluations"
        med = lambda runs: float(np.median([r.records[-1].hv_feasible for r in runs]))
        return med(psl), med(rnd), med(nsga)

    (psl_hv, rnd_hv, nsga_hv), dt = _bounded(work)
    ok = psl_hv >= rnd_hv and dt < 600
    report(
        5, ok,
        f"budget-105 ZDT1 median HV: PSL {psl_hv:.2f} >= random {rnd_hv:.2f} "
        f"(NSGA-II at equal budget: {nsga_hv:.2f})",
        dt, 600,
    )
    assert ok


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_privacy_formulas():
    c1 = FlOptions().c1  # the fl block's default distortion constant

    def work():
        checks = [
            rd_leakage(RandomizationParams(0.0, 2.0), 100, c1) == 1.0,
            rd_leakage(RandomizationParams(1.0, 1.0), 4, c1) == 0.0,
            rd_leakage(RandomizationParams(0.5, 2.0), 16, c1) == 0.75,
            sf_leakage([], 8.0) == 1.0,
            sf_leakage([1e12], 8.0) == 0.0,
            abs(sf_leakage([8.0 * np.log(2.0)], 8.0)) < 1e-12,
        ]
        sig = [rd_leakage(RandomizationParams(s, 2.0), 64, c1) for s in np.linspace(0, 1, 1000)]
        clip = [rd_leakage(RandomizationParams(0.5, c), 64, c1) for c in np.linspace(1, 4, 1000)]
        mus = [sf_leakage([m], 8.0) for m in np.linspace(0, 3, 1000)]
        mono = (
            all(b <= a for a, b in zip(sig, sig[1:]))
            and all(b >= a for a, b in zip(clip, clip[1:]))
            and all(b <= a for a, b in zip(mus, mus[1:]))
            and all(0.0 <= v <= 1.0 for v in mus)
        )
        return all(checks), mono

    (exact, mono), dt = _bounded(work)
    ok = exact and mono
    report(6, ok, f"closed-form leakage values exact={exact}, 1000-point sweeps monotone={mono}", dt, 60)
    assert ok


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_fl_sanity():
    def work():
        spec = ModelSpec(in_dim=20, hidden1=32, hidden2=32, n_classes=2)
        res = flo_evaluate(
            FLRunConfig(model=spec, lr=0.1, fl=FlOptions(dataset=dict(SYNTHETIC_DEFAULTS)), seed=42)
        )
        sane = res.eps_u <= 0.05

        cfg = FLRunConfig(
            model=spec, lr=0.1, seed=11,
            fl=FlOptions(dataset=dict(SYNTHETIC_DEFAULTS), clients=1, rounds=3, local_epochs=2),
        )
        fed = flo_evaluate(cfg)
        data = load_dataset(cfg.fl.dataset, 1, seed=int(cfg.fl.dataset.get("seed", 0)))
        w = init_params(spec, stream(cfg.seed, TAG_FL_INIT))
        for i in range(cfg.fl.rounds):
            w = local_sgd(
                w, data.client_X[0], data.client_y[0], spec,
                cfg.fl.local_epochs, cfg.fl.batch_size, cfg.lr,
                stream(cfg.seed, TAG_FL_CLIENT, i, 0),
            )
        central_acc = accuracy(w, data.test_X, data.test_y, spec)
        bitwise = fed.accuracy == central_acc
        return sane, res.eps_u, bitwise

    (sane, eps_u, bitwise), dt = _bounded(work)
    ok = sane and bitwise
    report(7, ok, f"no-protection eps_u={eps_u:.4f} <= 0.05; K=1 == centralized SGD bit-for-bit: {bitwise}", dt, 120)
    assert ok


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_gradient_checks():
    def work():
        rng = np.random.default_rng(5)
        spec = ModelSpec(in_dim=4, hidden1=6, hidden2=5, n_classes=3)
        w = init_params(spec, rng) + 0.05 * rng.normal(size=spec.n_params)
        X = rng.normal(size=(3, 4))
        y = np.array([0, 2, 1])
        _, grad = loss_and_grad(w, X, y, spec)
        h = 1e-6
        worst_net = 0.0
        for i in rng.choice(spec.n_params, size=40, replace=False):
            e = np.zeros(spec.n_params)
            e[i] = h
            lp, _ = loss_and_grad(w + e, X, y, spec)
            lm, _ = loss_and_grad(w - e, X, y, spec)
            fd = (lp - lm) / (2 * h)
            worst_net = max(worst_net, abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-10))

        from flpareto.moo import ConstraintSpec

        Xt = rng.random((10, 2))
        gps = [
            gp_fit(Xt, np.sum((Xt - 0.2) ** 2, axis=1), GPHyper(0.4, 1.0, 1e-4)),
            gp_fit(Xt, np.sum((Xt - 0.8) ** 2, axis=1), GPHyper(0.4, 1.0, 1e-4)),
        ]
        cs = ConstraintSpec(bounds=(None, 0.5), penalties=(0.0, 20.0))
        model = ParetoSetModel.create(2, 2, (8, 8), rng)
        model.params["W3"] = rng.normal(0, 0.1, model.params["W3"].shape)
        model.params["b3"] = rng.normal(0, 0.1, model.params["b3"].shape)
        lam = sample_preferences(5, 2, rng)
        ideal = np.array([-0.1, -0.1])
        _, grads = surrogate_loss_and_grads(model, lam, gps, cs, ideal, 0.1, 50.0)
        worst_psl = 0.0
        pick = np.random.default_rng(1)
        for key, P in model.params.items():
            for fid in pick.choice(P.size, size=min(6, P.size), replace=False):
                idx = np.unravel_index(fid, P.shape)
                orig = P[idx]
                P[idx] = orig + h
                lp, _ = surrogate_loss_and_grads(model, lam, gps, cs, ideal, 0.1, 50.0)
                P[idx] = orig - h
                lm, _ = surrogate_loss_and_grads(model, lam, gps, cs, ideal, 0.1, 50.0)
                P[idx] = orig
                fd = (lp - lm) / (2 * h)
                worst_psl = max(
                    worst_psl, abs(fd - grads[key][idx]) / max(abs(fd), abs(grads[key][idx]), 1e-10)
                )
        return worst_net, worst_psl

    (worst_net, worst_psl), dt = _bounded(work)
    ok = worst_net < 1e-4 and worst_psl < 1e-4
    report(
        8, ok,
        f"finite-difference agreement: local-SGD loss grad {worst_net:.2e}, "
        f"Pareto-set-model grad {worst_psl:.2e} (both < 1e-4 rel)",
        dt, 120,
    )
    assert ok


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_monotonicity():
    def work():
        psl_runs, _, _ = _budget_runs()
        psl_ok = all(
            all(b >= a - 1e-12 for a, b in zip(hv, hv[1:]))
            for hv in ([r.hv_feasible for r in run.records] for run in psl_runs)
        )
        nsga_runs = list(_zdt1_runs())
        for cm, bl in _constraint_efficacy_runs().values():
            nsga_runs.extend(cm)
            nsga_runs.extend(bl)
        nsga_ok = all(
            run.records[-1].hv_feasible >= run.records[0].hv_feasible - 1e-12
            for run in nsga_runs
        )
        return psl_ok, nsga_ok, len(psl_runs), len(nsga_runs)

    (psl_ok, nsga_ok, n_psl, n_nsga), dt = _bounded(work)
    ok = psl_ok and nsga_ok
    report(
        9, ok,
        f"PSL archive HV non-decreasing in {n_psl}/{n_psl} runs; "
        f"NSGA-II HV(T) >= HV(1) in {n_nsga}/{n_nsga} runs of criteria 3-4",
        dt, 60,
    )
    assert ok


# --------------------------------------------------------------- criterion 10

def _hash_tree(out: Path) -> dict:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def test_criterion_10_artifact_determinism():
    def work():
        tmp = Path(tempfile.mkdtemp(prefix="flpareto-accept-"))
        try:
            def manifest(out, workers):
                return {
                    "algorithm": "nsga2",
                    "setting": "constrained_toy",
                    "seeds": [0, 1],
                    "generations": 4,
                    "population": 8,
                    "workers": workers,
                    "out_dir": str(out),
                }

            run_manifest(manifest(tmp / "a", 1))
            first = _hash_tree(tmp / "a")
            shutil.rmtree(tmp / "a")
            run_manifest(manifest(tmp / "a", 1))
            second = _hash_tree(tmp / "a")
            run_manifest(manifest(tmp / "b", 4))
            third = _hash_tree(tmp / "b")
            return first == second, first == third
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    (rerun_same, workers_same), dt = _bounded(work)
    ok = rerun_same and workers_same
    report(
        10, ok,
        f"byte-identical artifacts: rerun={rerun_same}, workers 1 vs 4={workers_same}",
        dt, 120,
    )
    assert ok


if __name__ == "__main__":
    failures = 0
    for fn in [
        test_criterion_1_sort_oracle_equivalence,
        test_criterion_2_hypervolume_exact_vs_monte_carlo,
        test_criterion_3_nsga2_zdt1_convergence,
        test_criterion_4_constraint_efficacy,
        test_criterion_5_psl_budget_efficiency,
        test_criterion_6_privacy_formulas,
        test_criterion_7_fl_sanity,
        test_criterion_8_gradient_checks,
        test_criterion_9_monotonicity,
        test_criterion_10_artifact_determinism,
    ]:
        try:
            fn()
        except AssertionError:
            failures += 1
    raise SystemExit(1 if failures else 0)
