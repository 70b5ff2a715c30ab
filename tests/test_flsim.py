import hashlib
import json
import struct

import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import oracle_loss_and_grad, oracle_predict

from flpareto.data import (
    SYNTHETIC_DEFAULTS,
    IdxFormatError,
    iid_partition,
    load_dataset,
    load_idx_images,
    load_idx_labels,
)
import flpareto.flsim as flsim
import flpareto.protect as protect
import flpareto.settings as settings
from flpareto.flsim import EvaluationResult, FLRunConfig, FlOptions, fedavg, flo_evaluate, local_sgd
from flpareto.net import ModelSpec, accuracy, init_params, loss_and_grad, predict
from flpareto.protect import RandomizationParams, SparsificationParams, BatchCryptParams
from flpareto.seeding import TAG_FL_CLIENT, TAG_FL_INIT, stream
from flpareto.settings import build_fl_problem, build_space, make_run_config

SPEC = ModelSpec(in_dim=20, hidden1=32, hidden2=32, n_classes=2)

# SHA-256 of dtype, shape and bytes of flsim._stacked_data's client X, client y,
# test X and test y: the default synthetic spec at 5 clients, and the small IDX
# spec of TestDatasetCache.test_idx_arrays_bit_for_bit at 3 clients
SYNTHETIC_DIGESTS = [
    "43b7c616c70c953b43868aedb097cc25c88aba1ada7a155aa477e707cdad4480",
    "ea8bab0ee32a2343e6ec50edcd8c5ae4deb57ee434a63a1e5ac985349d62d4f2",
    "085c75af208ba099f1df409a4624b64d1dbcdbbc6e46c807940c5d61f4a469c5",
    "62c8add311d90739eb196b964d4251936657b6aad3757be653dc9e1b33d63439",
]
IDX_DIGESTS = [
    "86ad242d112b64147701c0c1f605b055c59d7b970eed83c09791f995da2c5ac6",
    "7b7145d02dd1609e2a8f67a7dbe0efdeb395268122ce7af04003addd3d6e6ead",
    "626dcc8da09615b21f977868c481ee196f2f2654ac5f562a2c34cd2a33c0702b",
    "01f3ef21b596ed40638aac4ef637d553bf2991536cb20b4b068eba1f7dfa4673",
]


def _write_idx(directory, images, labels, img_magic=0x803, lbl_magic=0x801):
    """IDX image and label files of uint8 `images` (n, rows, cols) and `labels` in `directory`."""
    directory.mkdir(parents=True, exist_ok=True)
    n, rows, cols = images.shape
    img_path = directory / "imgs.idx3-ubyte"
    img_path.write_bytes(struct.pack(">iiii", img_magic, n, rows, cols) + images.tobytes())
    lbl_path = directory / "lbls.idx1-ubyte"
    lbl_path.write_bytes(struct.pack(">ii", lbl_magic, n) + labels.tobytes())
    return img_path, lbl_path


def _idx_spec(directory, classes, **splits):
    """An idx dataset spec over IDX files, in `directory`, of each split's (images, labels)."""
    paths = {}
    for split, (images, labels) in splits.items():
        img_path, lbl_path = _write_idx(directory / split, images, labels)
        paths[f"{split}_images"], paths[f"{split}_labels"] = str(img_path), str(lbl_path)
    return {"kind": "idx", **paths, "classes": classes}


def _cfg(mechanism="none", mechanism_params=None, lr=0.1, seed=42, **fl):
    """A run of SPEC on the default synthetic data; `fl` holds FlOptions fields."""
    fl = FlOptions(**{"dataset": dict(SYNTHETIC_DEFAULTS), **fl})
    cfg = FLRunConfig(model=SPEC, lr=lr, fl=fl, mechanism_params=mechanism_params, seed=seed)
    assert cfg.mechanism == mechanism
    return cfg


class TestNet:
    def test_gradient_matches_finite_differences(self, rng):
        spec = ModelSpec(in_dim=4, hidden1=5, hidden2=3, n_classes=3)
        w = init_params(spec, rng) + 0.05 * rng.normal(size=spec.n_params)
        X = rng.normal(size=(3, 4))
        y = np.array([0, 2, 1])
        loss, grad = loss_and_grad(w, X, y, spec)
        h = 1e-6
        ids = rng.choice(spec.n_params, size=25, replace=False)
        for i in ids:
            e = np.zeros(spec.n_params)
            e[i] = h
            lp, _ = loss_and_grad(w + e, X, y, spec)
            lm, _ = loss_and_grad(w - e, X, y, spec)
            fd = (lp - lm) / (2 * h)
            assert abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-10) < 1e-4

    def test_weight_mask_counts(self):
        spec = ModelSpec(in_dim=4, hidden1=5, hidden2=3, n_classes=2)
        mask = spec.weight_mask()
        assert mask.sum() == 4 * 5 + 5 * 3 + 3 * 2
        assert (~mask).sum() == 5 + 3 + 2
        assert mask.size == spec.n_params


def _oracle_case(rng, K, b, in_dim, h1, h2, C):
    """Weights, inputs and labels for one model (K None) or a K-stack."""
    spec = ModelSpec(in_dim=in_dim, hidden1=h1, hidden2=h2, n_classes=C)
    lead = () if K is None else (K,)
    w = rng.normal(0.0, 0.8, size=lead + (spec.n_params,))
    return spec, w, rng.normal(size=lead + (b, in_dim)), rng.integers(0, C, size=lead + (b,))


def _assert_matches_oracle(spec, w, X, y):
    with np.errstate(all="ignore"):
        loss, grad = loss_and_grad(w, X, y, spec)
        ref_loss, ref_grad = oracle_loss_and_grad(w, X, y, spec)
        pred, ref_pred = predict(w, X, spec), oracle_predict(w, X, spec)
    assert type(loss) is type(ref_loss) and np.shape(loss) == np.shape(ref_loss)
    assert np.asarray(loss).tobytes() == np.asarray(ref_loss).tobytes()
    assert grad.shape == ref_grad.shape and grad.tobytes() == ref_grad.tobytes()
    assert pred.tobytes() == ref_pred.tobytes()


class TestLossAndGradOracle:
    """Losses, gradients and predictions equal the frozen oracle's bytes."""

    @pytest.mark.parametrize("K", [None, 1, 2, 5])
    @pytest.mark.parametrize("b", [1, 7, 64])
    @pytest.mark.parametrize("C", [2, 3, 10])
    def test_bytes_equal_oracle(self, rng, K, b, C):
        for in_dim, h1, h2 in [(20, 32, 32), (3, 1, 4), (1, 5, 1), (1, 1, 1)]:
            _assert_matches_oracle(*_oracle_case(rng, K, b, in_dim, h1, h2, C))

    @pytest.mark.parametrize("K", [None, 2, 5])
    def test_dead_units_equal_oracle(self, rng, K):
        spec, w, X, y = _oracle_case(rng, K, 7, 6, 8, 5, 3)
        W1, b1, W2, b2, _, _ = spec.unpack(w)
        W1[..., 2], b1[..., 2] = 0.0, -1.0  # layer-1 unit 2 is dead for the whole batch
        W1[..., 5], b1[..., 5] = 0.0, 0.0  # layer-1 unit 5 sits at exactly 0
        W2[..., 0], b2[..., 0] = 0.0, -3.0  # layer-2 unit 0 is dead too
        _assert_matches_oracle(spec, w, X, y)
        b2[...] = -1e9  # the whole second layer is dead
        _assert_matches_oracle(spec, w, X, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("K", [None, 2, 5])
    @pytest.mark.parametrize("layer", range(6))
    def test_non_finite_parameter_rows_equal_oracle(self, rng, K, bad, layer):
        spec, w, X, y = _oracle_case(rng, K, 7, 6, 8, 5, 3)
        layers = spec.unpack(w)
        W2, b2 = layers[2], layers[3]
        W2[..., 1], b2[..., 1] = 0.0, -1.0  # a dead layer-2 unit, whose gradients stay +0.0
        row = (..., 0, slice(None)) if len(spec.shapes[layer]) == 2 else (..., 0)
        layers[layer][row] = bad  # a weight row, or one bias entry
        _assert_matches_oracle(spec, w, X, y)
        if K is not None:  # one client's row poisoned, the others finite
            w[1:] = rng.normal(0.0, 0.8, size=w[1:].shape)
            _assert_matches_oracle(spec, w, X, y)


class TestLocalSgd:
    def test_zero_lr_identity(self, rng):
        X, y = rng.normal(size=(32, 20)), rng.integers(0, 2, 32)
        w = init_params(SPEC, rng)
        out = local_sgd(w, X, y, SPEC, epochs=2, batch_size=8, lr=0.0, rng=rng)
        assert np.array_equal(out, w)

    def test_full_batch_descent_with_small_lr(self, rng):
        X, y = rng.normal(size=(64, 20)), rng.integers(0, 2, 64)
        w = init_params(SPEC, rng)
        before, _ = loss_and_grad(w, X, y, SPEC)
        out = local_sgd(w, X, y, SPEC, epochs=1, batch_size=64, lr=1e-3, rng=rng)
        after, _ = loss_and_grad(out, X, y, SPEC)
        assert after <= before


def _sgd_reference(w, X, y, spec, epochs, batch_size, lr, rng):
    """One client's minibatch SGD as a plain loop of single-model steps."""
    w = w.copy()
    for _ in range(epochs):
        order = rng.permutation(X.shape[0])
        for start in range(0, X.shape[0], batch_size):
            idx = order[start : start + batch_size]
            w -= lr * loss_and_grad(w, X[idx], y[idx], spec)[1]
    return w


class TestLockstep:
    def _clients(self, rng, K=3, n=50):
        return rng.normal(size=(K, n, 20)), rng.integers(0, 2, (K, n))

    def test_stacked_loss_and_grad_equals_per_model_calls(self, rng):
        X, y = self._clients(rng, n=9)
        W = np.stack([init_params(SPEC, rng) for _ in range(3)])
        loss, grad = loss_and_grad(W, X, y, SPEC)
        for k in range(3):
            lk, gk = loss_and_grad(W[k], X[k], y[k], SPEC)
            assert loss[k] == lk and np.array_equal(grad[k], gk)

    def test_stacked_clients_equal_separate_calls(self, rng):
        X, y = self._clients(rng)
        w0 = init_params(SPEC, rng)
        rngs = [stream(9, TAG_FL_CLIENT, 0, k) for k in range(3)]
        W = local_sgd(w0, X, y, SPEC, 2, 16, 0.1, rngs)
        assert np.all(np.isfinite(W))
        for k in range(3):
            wk = local_sgd(w0, X[k], y[k], SPEC, 2, 16, 0.1, stream(9, TAG_FL_CLIENT, 0, k))
            ref = _sgd_reference(w0, X[k], y[k], SPEC, 2, 16, 0.1, stream(9, TAG_FL_CLIENT, 0, k))
            assert np.array_equal(W[k], wk) and np.array_equal(wk, ref)

    def test_diverged_client_row_is_nan_and_others_train_on(self, rng):
        X, y = self._clients(rng)
        X[1] *= 1e300  # overflowing logits give client 1 a non-finite loss
        w0 = init_params(SPEC, rng)
        rngs = [stream(9, TAG_FL_CLIENT, 0, k) for k in range(3)]
        W = local_sgd(w0, X, y, SPEC, 2, 16, 0.1, rngs)
        assert np.all(np.isnan(W[1]))
        for k in (0, 2):
            wk = local_sgd(w0, X[k], y[k], SPEC, 2, 16, 0.1, stream(9, TAG_FL_CLIENT, 0, k))
            assert np.array_equal(W[k], wk)

    def test_mid_run_divergence_keeps_completed_rounds(self):
        # at this lr and seed, round 0 completes and round 1 diverges
        res = flo_evaluate(_cfg(lr=1e7, seed=2, rounds=4, local_epochs=1))
        assert res.diverged and res.eps_u == 1.0 and res.accuracy == 0.0
        assert [r["round"] for r in res.round_trace] == [0]
        assert res.eps_c == flo_evaluate(_cfg(rounds=1, local_epochs=1)).eps_c


class TestRunConfig:
    @pytest.mark.parametrize(
        "key,value",
        [("clients", 0), ("rounds", -1), ("local_epochs", 0), ("batch_size", 0), ("batch_size", -1)],
    )
    def test_out_of_range_field_named_first(self, key, value):
        # batch_size -1 used to train nothing and report the untrained model
        with pytest.raises(ValueError, match=f"^{key} must be >= "):
            FlOptions(**{key: value})

    # a NaN or infinite lr got past an `lr < 0` check, and its run diverged
    # in round 0 into an empty trace: eps_p 0 and eps_c 0, a spurious front row
    @pytest.mark.parametrize("lr", [-1.0, float("nan"), float("inf")])
    def test_lr_outside_zero_to_inf_refused(self, lr):
        with pytest.raises(ValueError, match="^lr must be finite and >= 0"):
            FLRunConfig(model=SPEC, lr=lr, fl=FlOptions(rounds=1, local_epochs=1))

    # a direct config gets the manifest path's checks: unchecked, the typo
    # trained on the default 20 features
    def test_dataset_typo_named(self):
        with pytest.raises(ValueError, match=r"^dataset\.featurs "):
            FLRunConfig(model=SPEC, lr=0.1, fl=FlOptions(dataset={"featurs": 5}))

    # unchecked, params of no mechanism failed mid-run with an AttributeError
    @pytest.mark.parametrize(
        "params", [{"sigma_rd": 0.5}, "rd", EvaluationResult(0.0, 0.0, 0.0, 1.0)], ids=["dict", "str", "other"]
    )
    def test_params_that_are_no_mechanisms_refused(self, params):
        with pytest.raises(ValueError, match="^mechanism_params must be None or one of RandomizationParams"):
            FLRunConfig(model=SPEC, lr=0.1, mechanism_params=params)

    @pytest.mark.parametrize(
        "params, mechanism",
        [
            (RandomizationParams(sigma_rd=0.5, c_clip=2.0), "rd"),
            (BatchCryptParams(batch_size=100), "bc"),
            (SparsificationParams(rho=0.5, xi=0.1), "sf"),
            (None, "none"),
        ],
    )
    def test_mechanism_named_by_its_params(self, params, mechanism):
        assert FLRunConfig(model=SPEC, lr=0.1, mechanism_params=params).mechanism == mechanism

    # refused before any client trains; unchecked, these failed inside a matmul
    # or a reshape
    @pytest.mark.parametrize(
        "model, dataset, message",
        [
            (ModelSpec(in_dim=7), {}, r"in_dim 7\b.*\(20 features"),
            (ModelSpec(in_dim=20, n_classes=2), {"classes": 3}, r"n_classes 2\b.*, 3 classes"),
        ],
    )
    def test_model_that_does_not_fit_its_dataset_refused(self, monkeypatch, model, dataset, message):
        monkeypatch.setattr(flsim, "local_sgd", lambda *a: pytest.fail("a client trained"))
        cfg = FLRunConfig(model=model, lr=0.1, fl=FlOptions(dataset=dataset, rounds=1, local_epochs=1))
        with pytest.raises(ValueError, match=message):
            flo_evaluate(cfg)

    # the params hold the searched values only, so a direct config and the
    # manifest path read the same fl block's constants
    @pytest.mark.parametrize(
        "setting, fl, values, params",
        [
            ("bc", {"clients": 3}, {"bs": 100}, BatchCryptParams(100)),
            ("rd", {"c1": 4.0}, {"sigma_rd": 0.05, "c_clip": 2.0}, RandomizationParams(0.05, 2.0)),
            ("bc", {"payload_bits": 600}, {"bs": 200}, BatchCryptParams(200)),
            ("sf", {"c2": 1.0}, {"rho": 0.5, "xi": 0.3}, SparsificationParams(0.5, 0.3)),
        ],
        ids=["clients", "c1", "payload_bits", "c2"],
    )
    def test_direct_config_reads_the_fl_blocks_constants(self, setting, fl, values, params):
        fl = FlOptions(**{"dataset": dict(SYNTHETIC_DEFAULTS), "rounds": 1, "local_epochs": 1, **fl})
        via_manifest = flo_evaluate(make_run_config(setting, {"lr": 0.1, **values}, fl, seed=3))
        direct = flo_evaluate(FLRunConfig(model=SPEC, lr=0.1, fl=fl, mechanism_params=params, seed=3))
        assert direct == via_manifest


class TestEvaluatorSeam:
    # perfbench's tracer wraps settings.flo_evaluate and reads `mechanism` and
    # `model` from its argument; fl-search evaluates in worker processes, where
    # a traced smoke run never shows them, so this pins the seam
    @pytest.mark.parametrize("setting", ["rd", "bc", "sf"])
    def test_problem_passes_a_config_naming_its_setting(self, monkeypatch, setting):
        seen = []

        def recording(cfg):
            seen.append(cfg)
            return flo_evaluate(cfg)

        monkeypatch.setattr(settings, "flo_evaluate", recording)
        problem = build_fl_problem(setting, {"rounds": 1, "local_epochs": 1, "width_max": 4})
        problem.evaluate(np.full((1, problem.dim), 0.5), [0])
        assert [(cfg.mechanism, type(cfg.model)) for cfg in seen] == [(setting, ModelSpec)]

    # the tracer's protect.*.s metrics wrap these names, which flsim must call
    # through the module once per client per round
    @pytest.mark.parametrize("setting", ["rd", "bc", "sf"])
    def test_problem_calls_its_mechanism_per_client_per_round(self, monkeypatch, setting):
        calls = {"rd": 0, "bc": 0, "sf": 0}
        for mech in calls:
            original = getattr(protect, f"{mech}_protect")

            def counting(*args, _mech=mech, _original=original, **kwargs):
                calls[_mech] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(protect, f"{mech}_protect", counting)
        fl = {"clients": 3, "rounds": 2, "local_epochs": 1, "width_max": 4}
        problem = build_fl_problem(setting, fl)
        row = problem.evaluate(np.full((1, problem.dim), 0.5), [0])
        assert np.isfinite(row).all() and row[0, 0] < 1.0  # a trained row, not an invalid one
        per_run = fl["clients"] * fl["rounds"]
        assert calls == {mech: per_run if mech == setting else 0 for mech in calls}


class TestDatasetCache:
    def _count_loads(self, monkeypatch):
        calls = []

        def counting(spec, n_clients, seed=0):
            calls.append((spec.get("n_per_client"), n_clients))
            return load_dataset(spec, n_clients, seed=seed)

        flsim._stacked_data.cache_clear()
        monkeypatch.setattr(flsim, "load_dataset", counting)
        return calls

    def test_cached_arrays_reject_writes(self):
        flo_evaluate(_cfg(rounds=0))  # fills the entry for the default dataset
        arrays = flsim._stacked_data(json.dumps(dict(SYNTHETIC_DEFAULTS), sort_keys=True), 5)
        assert [a.shape for a in arrays] == [(5, 1000, 20), (5, 1000), (2000, 20), (2000,)]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    @staticmethod
    def _digests(arrays):
        return [
            hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + np.ascontiguousarray(a).tobytes()).hexdigest()
            for a in arrays
        ]

    def test_synthetic_arrays_bit_for_bit(self):
        arrays = flsim._stacked_data(json.dumps(dict(SYNTHETIC_DEFAULTS), sort_keys=True), 5)
        assert self._digests(arrays) == SYNTHETIC_DIGESTS

    def test_idx_arrays_bit_for_bit(self, tmp_path):
        # 23 training images dealt to 3 clients leave 2 over; the test split has its own 9
        gen = np.random.default_rng(5)
        splits = {}
        for split, n in (("train", 23), ("test", 9)):
            images = gen.integers(0, 256, size=(n, 4, 4), dtype=np.uint8)
            splits[split] = images, (gen.permutation(n) % 3).astype(np.uint8)
        spec = _idx_spec(tmp_path, 3, **splits)
        arrays = flsim._stacked_data(json.dumps(spec, sort_keys=True), 3)
        assert [a.shape for a in arrays] == [(3, 7, 16), (3, 7), (9, 16), (9,)]
        assert self._digests(arrays) == IDX_DIGESTS

    def test_one_load_per_dataset_and_client_count(self, monkeypatch):
        calls = self._count_loads(monkeypatch)
        small = {**SYNTHETIC_DEFAULTS, "n_per_client": 40}
        reordered = dict(reversed(list(small.items())))
        for ds, clients in ((small, 5), (reordered, 5), (small, 3), (SYNTHETIC_DEFAULTS, 3)):
            flo_evaluate(_cfg(dataset=dict(ds), clients=clients, rounds=1, local_epochs=1))
        assert calls == [(40, 5), (40, 3), (1000, 3)]


class TestFedavg:
    def test_identical_inputs(self, rng):
        w = rng.normal(size=10)
        out = fedavg([w, w.copy(), w.copy()])
        assert np.allclose(out, w, rtol=1e-15, atol=0.0)

    def test_two_vector_mean(self):
        a, b = np.zeros(5), np.full(5, 2.0)
        assert np.array_equal(fedavg([a, b]), np.ones(5))

    def test_matches_summation_oracle(self, rng):
        ws = [rng.normal(size=30) for _ in range(5)]
        oracle = sum(ws) / 5.0
        assert np.max(np.abs(fedavg(ws) - oracle)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fedavg([np.zeros(3), np.zeros(4)])


class TestFlo:
    def test_zero_rounds(self):
        res = flo_evaluate(_cfg(rounds=0))
        assert res.eps_p == 0.0 and res.eps_c == 0.0
        assert 0.0 <= res.eps_u <= 1.0
        assert res.round_trace == []

    def test_separable_synthetic_reaches_95(self):
        res = flo_evaluate(_cfg())
        assert res.eps_u <= 0.05
        assert res.eps_p == 1.0  # unprotected sharing leaks fully

    def test_logistic_regression_oracle_99(self):
        # independent check that the synthetic task itself is easy
        data = load_dataset(dict(SYNTHETIC_DEFAULTS), n_clients=5, seed=0)
        X = np.vstack(data.client_X)
        y = np.concatenate(data.client_y)

        def nll(w):
            z = X @ w[:-1] + w[-1]
            return np.mean(np.log1p(np.exp(-np.where(y == 1, z, -z))))

        w0 = np.zeros(X.shape[1] + 1)
        w = minimize(nll, w0, method="L-BFGS-B").x
        z = data.test_X @ w[:-1] + w[-1]
        acc = np.mean((z > 0).astype(int) == data.test_y)
        assert acc >= 0.99

    def test_single_client_equals_centralized_sgd(self):
        cfg = _cfg(clients=1, rounds=3, local_epochs=2)
        res = flo_evaluate(cfg)
        # rebuild centralized training: same init, same per-round streams,
        # fedavg over one client is the identity
        data = load_dataset(cfg.fl.dataset, 1, seed=int(cfg.fl.dataset.get("seed", 0)))
        w = init_params(cfg.model, stream(cfg.seed, TAG_FL_INIT))
        for i in range(cfg.fl.rounds):
            w = local_sgd(
                w, data.client_X[0], data.client_y[0], cfg.model,
                cfg.fl.local_epochs, cfg.fl.batch_size, cfg.lr,
                stream(cfg.seed, TAG_FL_CLIENT, i, 0),
            )
        acc = accuracy(w, data.test_X, data.test_y, cfg.model)
        assert res.accuracy == acc  # bit-for-bit identical parameters

    def test_one_round_equals_manual_composition(self):
        cfg = _cfg(clients=3, rounds=1)
        res = flo_evaluate(cfg)
        data = load_dataset(cfg.fl.dataset, 3, seed=int(cfg.fl.dataset.get("seed", 0)))
        w0 = init_params(cfg.model, stream(cfg.seed, TAG_FL_INIT))
        locals_ = [
            local_sgd(
                w0, data.client_X[k], data.client_y[k], cfg.model,
                cfg.fl.local_epochs, cfg.fl.batch_size, cfg.lr,
                stream(cfg.seed, TAG_FL_CLIENT, 0, k),
            )
            for k in range(3)
        ]
        w = fedavg(locals_)  # exact componentwise mean
        assert res.accuracy == accuracy(w, data.test_X, data.test_y, cfg.model)

    def test_determinism(self):
        a, b = flo_evaluate(_cfg()), flo_evaluate(_cfg())
        assert a == b

    def test_divergence_flag_forces_eps_u_one(self):
        res = flo_evaluate(_cfg(lr=1e12, rounds=2))
        assert res.diverged and res.eps_u == 1.0

    def test_mechanism_config_error_keeps_evaluator_total(self):
        p = BatchCryptParams(batch_size=800)  # < 2 bits per value at 5 clients
        res = flo_evaluate(_cfg(mechanism="bc", mechanism_params=p, rounds=1))
        assert res.diverged and res.eps_u == 1.0

    def test_rd_mechanism_reports_formula_leakage(self):
        p = RandomizationParams(sigma_rd=0.5, c_clip=2.0)
        cfg = _cfg(mechanism="rd", mechanism_params=p, rounds=2)
        res = flo_evaluate(cfg)
        from flpareto.protect import rd_leakage

        assert res.eps_p == pytest.approx(rd_leakage(p, SPEC.n_params, cfg.fl.c1))

    def test_sf_costs_average_over_rounds(self):
        p = SparsificationParams(rho=1.0, xi=0.0)
        res = flo_evaluate(_cfg(mechanism="sf", mechanism_params=p, rounds=2))
        assert res.eps_p == 1.0  # everything shared leaks fully
        assert res.eps_c == pytest.approx(float(SPEC.weight_mask().sum()))

    def test_time_costs_sum_over_rounds(self):
        r1 = flo_evaluate(_cfg(rounds=1))
        r2 = flo_evaluate(_cfg(rounds=2))
        assert r2.eps_c == pytest.approx(2 * r1.eps_c)


class TestData:
    def test_synthetic_partition_sizes_disjoint(self):
        data = load_dataset(dict(SYNTHETIC_DEFAULTS), n_clients=5, seed=0)
        # the stacked arrays the simulator trains on
        assert isinstance(data.client_X, np.ndarray) and data.client_X.shape == (5, 1000, 20)
        assert isinstance(data.client_y, np.ndarray) and data.client_y.shape == (5, 1000)
        seen = set()
        for X in data.client_X:
            for row in X[:, 0]:
                assert row not in seen  # distinct continuous values
                seen.add(row)

    def test_partition_class_histogram_within_5pct(self):
        data = load_dataset(dict(SYNTHETIC_DEFAULTS), n_clients=5, seed=0)
        y_all = np.concatenate(data.client_y)
        global_hist = np.bincount(y_all, minlength=2) / y_all.size
        for y in data.client_y:
            hist = np.bincount(y, minlength=2) / y.size
            assert np.max(np.abs(hist - global_hist)) < 0.05

    def test_partition_rejects_overallocation(self, rng):
        X, y = rng.normal(size=(10, 2)), rng.integers(0, 2, 10)
        with pytest.raises(ValueError):
            iid_partition(X, y, n_clients=3, n_per_client=4, rng=rng)

    def test_idx_roundtrip_counts_match_header(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(7, 4, 3)).astype(np.uint8)
        labels = rng.integers(0, 10, size=7).astype(np.uint8)
        img_path, lbl_path = _write_idx(tmp_path, images, labels)
        X = load_idx_images(img_path)
        y = load_idx_labels(lbl_path, n_classes=10)
        assert X.shape == (7, 12)
        assert np.array_equal(y, labels)
        # independent byte-level check of one pixel
        raw = img_path.read_bytes()
        assert X[2, 5] == raw[16 + 2 * 12 + 5] / 255.0

    def test_idx_bad_magic_names_offset(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(2, 2, 2)).astype(np.uint8)
        labels = rng.integers(0, 10, size=2).astype(np.uint8)
        img_path, lbl_path = _write_idx(tmp_path, images, labels, img_magic=0x999)
        with pytest.raises(IdxFormatError, match="offset 0"):
            load_idx_images(img_path)

    def test_idx_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.idx3-ubyte"
        path.write_bytes(struct.pack(">iiii", 0x803, 5, 2, 2) + b"\x00" * 3)
        with pytest.raises(IdxFormatError, match="offset 16"):
            load_idx_images(path)

    def test_idx_label_out_of_range(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(3, 2, 2)).astype(np.uint8)
        labels = np.array([0, 9, 3], dtype=np.uint8)
        _, lbl_path = _write_idx(tmp_path, images, labels)
        with pytest.raises(IdxFormatError, match="outside"):
            load_idx_labels(lbl_path, n_classes=5)

    @pytest.mark.parametrize("setting", ["rd", "sf"])
    def test_idx_dataset_runs_through_fl_problem(self, tmp_path, rng, setting):
        images = rng.integers(0, 256, size=(30, 4, 4)).astype(np.uint8)
        labels = (np.arange(30) % 3).astype(np.uint8)
        img_path, lbl_path = _write_idx(tmp_path, images, labels)
        paths = dict.fromkeys(("train_images", "test_images"), str(img_path))
        paths.update(dict.fromkeys(("train_labels", "test_labels"), str(lbl_path)))
        fl = {"dataset": {"kind": "idx", **paths, "classes": 3}, "clients": 3, "rounds": 1,
              "local_epochs": 1, "batch_size": 5, "width_max": 4}
        problem = build_fl_problem(setting, fl)
        genes = np.full(problem.dim, 0.99)  # hidden widths decode to width_max
        Y = problem.evaluate(genes[None], [0])
        assert Y.shape == (1, problem.n_obj) and np.all(np.isfinite(Y))
        # the model reads its width from the 4x4 header and its classes from the spec
        cfg = make_run_config(setting, build_space(setting, 4).decode(genes), FlOptions(**fl), 0)
        assert (cfg.model.in_dim, cfg.model.n_classes) == (16, 3)
        assert not flo_evaluate(cfg).diverged
        # each client gets y.size // clients samples, as load_dataset documents
        client_X = flsim._stacked_data(json.dumps(cfg.fl.dataset, sort_keys=True), 3)[0]
        assert client_X.shape == (3, 10, 16)
        if setting == "sf":  # the widest model's weights: 16*4 + 4*4 + 4*3
            assert problem.ref_point[2] == 1.05 * 92

    def test_idx_fewer_training_images_than_clients_refused(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(3, 4, 4)).astype(np.uint8)
        labels = np.array([0, 1, 0], dtype=np.uint8)
        spec = _idx_spec(tmp_path, 2, train=(images, labels), test=(images, labels))
        with pytest.raises(ValueError, match="3 training images.* 5 clients"):
            load_dataset(spec, n_clients=5)
        # refused at the first evaluation, before any client trains
        flsim._stacked_data.cache_clear()
        model = ModelSpec(in_dim=16, hidden1=4, hidden2=4, n_classes=2)
        fl = FlOptions(dataset=spec, clients=5, rounds=1, local_epochs=1)
        with pytest.raises(ValueError, match="3 training images.* 5 clients"):
            flo_evaluate(FLRunConfig(model=model, lr=0.1, fl=fl))
        assert load_dataset(spec, n_clients=3).client_X.shape == (3, 1, 16)

    def test_idx_test_image_shape_must_match_training(self, tmp_path, rng):
        train = rng.integers(0, 256, size=(6, 4, 4)).astype(np.uint8)
        test = rng.integers(0, 256, size=(6, 3, 3)).astype(np.uint8)
        labels = (np.arange(6) % 2).astype(np.uint8)
        spec = _idx_spec(tmp_path, 2, train=(train, labels), test=(test, labels))
        with pytest.raises(IdxFormatError, match="test images are 3x3 but training images are 4x4"):
            load_dataset(spec, n_clients=2)

    def test_idx_dataset_end_to_end(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(40, 3, 3)).astype(np.uint8)
        labels = (np.arange(40) % 2).astype(np.uint8)
        img_path, lbl_path = _write_idx(tmp_path, images, labels)
        spec = {
            "kind": "idx",
            "train_images": str(img_path),
            "train_labels": str(lbl_path),
            "test_images": str(img_path),
            "test_labels": str(lbl_path),
            "classes": 2,
        }
        data = load_dataset(spec, n_clients=4, seed=1)
        assert len(data.client_X) == 4
        assert all(x.shape[0] == 10 for x in data.client_X)
