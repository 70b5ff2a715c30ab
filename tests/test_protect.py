import math

import numpy as np
import pytest

from conftest import oracle_bc_pack
from flpareto import protect
from flpareto.flsim import FlOptions
from flpareto.protect import (
    BatchCryptParams,
    RandomizationParams,
    SparsificationParams,
    bc_bits,
    bc_cost,
    bc_protect,
    rd_leakage,
    rd_protect,
    sf_cost,
    sf_leakage,
    sf_protect,
)

FL = FlOptions()  # the default mechanism constants


def _zero_op_costs(monkeypatch, t_enc=0.0):
    for name, value in (("T_ENC", t_enc), ("T_ADD", 0.0), ("T_DEC", 0.0)):
        monkeypatch.setattr(protect, name, value)


class TestRandomization:
    def test_no_noise_small_norm_identity(self, rng):
        W = np.array([0.3, -0.4])  # norm 0.5 <= clip
        p = RandomizationParams(sigma_rd=0.0, c_clip=1.0)
        assert np.array_equal(rd_protect(W, p, rng), W)

    def test_clip_norm_exact(self, rng):
        p = RandomizationParams(sigma_rd=0.0, c_clip=1.5)
        W = rng.normal(size=50)
        W *= 3.0 / np.linalg.norm(W)  # norm = 2 * clip
        out = rd_protect(W, p, rng)
        assert np.linalg.norm(out) == pytest.approx(1.5)

    def test_empirical_noise_std(self):
        p = RandomizationParams(sigma_rd=0.37, c_clip=2.0)
        rng = np.random.default_rng(0)
        W = np.zeros(10_000)
        out = rd_protect(W, p, rng)
        assert abs(np.std(out) - 0.37) / 0.37 < 0.03

    def test_leakage_zero_noise_full_leak(self):
        assert rd_leakage(RandomizationParams(0.0, 2.0), d_w=100, c1=FL.c1) == 1.0

    def test_leakage_example_saturated(self):
        assert rd_leakage(RandomizationParams(1.0, 1.0), d_w=4, c1=FL.c1) == pytest.approx(0.0)

    def test_leakage_example_interior(self):
        got = rd_leakage(RandomizationParams(0.5, 2.0), d_w=16, c1=FL.c1)
        assert got == pytest.approx(0.75)

    def test_monotone_in_sigma_and_clip(self):
        sigmas = np.linspace(0.0, 1.0, 1000)
        vals = [rd_leakage(RandomizationParams(s, 2.0), 64, FL.c1) for s in sigmas]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
        clips = np.linspace(1.0, 4.0, 1000)
        vals = [rd_leakage(RandomizationParams(0.5, c), 64, FL.c1) for c in clips]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


class TestBatchCrypt:
    def test_all_zero_roundtrip(self):
        deq = bc_protect(np.zeros(250), bc_bits(100, FL.payload_bits, FL.clients))
        batches = oracle_bc_pack(np.zeros(250), 100, FL.payload_bits, FL.clients)
        assert np.array_equal(deq, np.zeros(250))
        assert all(isinstance(b, int) for b in batches)

    def test_quantization_error_bound(self, rng):
        b = bc_bits(400, FL.payload_bits, FL.clients)  # 6 bits per value
        for _ in range(20):
            W = rng.normal(size=500) * rng.random()
            deq = bc_protect(W, b)
            r = np.max(np.abs(W))
            assert np.max(np.abs(deq - W)) <= r / (2 ** (b - 1) - 1) + 1e-15

    def test_idempotent_second_pass_exact(self, rng):
        b = bc_bits(200, FL.payload_bits, FL.clients)
        for _ in range(20):
            W = rng.normal(size=333)
            d1 = bc_protect(W, b)
            d2 = bc_protect(d1, b)
            assert np.array_equal(d1, d2)

    def test_sixteen_bit_mode_near_identity(self, rng):
        b = bc_bits(100, FL.payload_bits, FL.clients)  # 36 bits per value
        W = rng.normal(size=1000)
        deq = bc_protect(W, b)
        assert np.max(np.abs(deq - W)) < 1e-3 * np.max(np.abs(W))

    def test_batch_too_large_for_payload(self):
        # 4096 // 800 - 4 = 1 bit at 5 clients
        with pytest.raises(ValueError, match=r"^payload_bits 4096 leaves 1 bits per value at batch_size 800"):
            bc_bits(800, FL.payload_bits, 5)

    def test_batch_count(self, monkeypatch):
        _zero_op_costs(monkeypatch, t_enc=1.0)  # cost = batch count
        assert bc_cost(100, 100, 0.0) == 1
        assert bc_cost(101, 100, 0.0) == 2

    def test_single_batch_when_small(self):
        batches = oracle_bc_pack(np.ones(60), 100, FL.payload_bits, FL.clients)
        assert len(batches) == 1

    def test_cost_halves_when_bs_doubles(self):
        d_w = 800
        c1 = bc_cost(d_w, 100, 0.0)
        c2 = bc_cost(d_w, 200, 0.0)
        assert c1 == pytest.approx(2 * c2)

    def test_zero_op_costs_give_mean_train_time(self, monkeypatch):
        _zero_op_costs(monkeypatch)
        assert bc_cost(500, 100, [1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_cost_formula(self):
        nb = 3  # batches of 100 in 250 values
        want = 1.5 + nb * protect.T_ENC + nb * (4 * protect.T_ADD + protect.T_DEC)
        assert bc_cost(250, 100, [1.0, 2.0, 1.0, 2.0]) == pytest.approx(want)

    def test_aggregation_headroom_absorbs_client_sum(self, rng):
        # packed codes are offset-binary; a K-fold slot-wise sum must not
        # overflow into the next slot
        slot = FL.payload_bits // 200
        total = 0
        for _ in range(FL.clients):
            W = rng.normal(size=200)
            W[0] = np.max(np.abs(W)) + 1.0  # force a full-scale code
            batches = oracle_bc_pack(W, 200, FL.payload_bits, FL.clients)
            total += batches[0]
        assert total < 1 << (slot * 200)


class TestSparsification:
    def test_full_share(self, rng):
        p = SparsificationParams(rho=1.0, xi=0.0)
        W = rng.normal(size=40)
        res = sf_protect(W, np.zeros(40), p, rng.random(40) < p.rho)
        assert res.shared_mask.all()
        assert not res.retained_mask.any()
        assert not res.never_public_mask.any()

    def test_no_share(self, rng):
        p = SparsificationParams(rho=0.0, xi=0.0)
        res = sf_protect(rng.normal(size=40), np.zeros(40), p, rng.random(40) < p.rho)
        assert not res.shared_mask.any()
        assert res.never_public_mask.all()

    def test_retained_bottom_half_by_update_magnitude(self, rng):
        p = SparsificationParams(rho=1.0, xi=0.5)
        W_old = rng.normal(size=100)
        W_new = W_old + rng.normal(size=100)
        res = sf_protect(W_new, W_old, p, rng.random(100) < p.rho)
        # full-sort oracle
        order = np.argsort(np.abs(W_new - W_old), kind="stable")
        want = set(order[:50].tolist())
        got = set(np.flatnonzero(res.retained_mask).tolist())
        assert got == want

    def test_partition_is_exact(self, rng):
        for _ in range(20):
            p = SparsificationParams(rho=float(rng.random()), xi=float(rng.random() * 0.99))
            eligible = rng.random(60) < 0.8
            W_new, W_old = rng.normal(size=60), rng.normal(size=60)
            res = sf_protect(W_new, W_old, p, rng.random(60) < p.rho, eligible=eligible)
            total = res.shared_mask | res.retained_mask | res.never_public_mask
            assert np.array_equal(total, eligible)
            assert not (res.shared_mask & res.retained_mask).any()
            assert not (res.shared_mask & res.never_public_mask).any()

    def test_leakage_empty_private_set_full_leak(self):
        assert sf_leakage([], 8.0) == 1.0

    def test_leakage_huge_mu_clamped_to_zero(self):
        assert sf_leakage([1e9], 8.0) == 0.0

    def test_leakage_log2_point(self):
        mu = 8.0 * math.log(2.0)
        assert sf_leakage([mu], 8.0) == pytest.approx(0.0, abs=1e-12)

    def test_leakage_monotone_pre_clamp(self):
        mus = np.linspace(0.0, 3.0, 1000)
        vals = [sf_leakage([m], 8.0) for m in mus]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_cost_examples(self):
        full = np.ones(100, dtype=bool)
        assert sf_cost([full, full]) == pytest.approx(100.0)
        assert sf_cost([np.zeros(100, dtype=bool)]) == 0.0

    def test_cost_popcount_oracle(self, rng):
        masks = [rng.random(64) < rng.random() for _ in range(5)]
        want = sum(int(np.sum(m)) for m in masks) / 5
        assert sf_cost(masks) == pytest.approx(want)

    def test_weakest_settings_identity_like(self, rng):
        # sigma=0 post-clip, >=16-bit quantization, rho=1 xi=0
        W = rng.normal(size=100) * 0.1
        rd = rd_protect(W, RandomizationParams(0.0, 4.0), rng)
        assert np.array_equal(rd, W)
        deq = bc_protect(W, bc_bits(100, FL.payload_bits, FL.clients))
        assert np.max(np.abs(deq - W)) < 1e-3 * np.max(np.abs(W))
        p = SparsificationParams(1.0, 0.0)
        sf = sf_protect(W, np.zeros(100), p, rng.random(100) < p.rho)
        assert sf.shared_mask.all()


# each error names its field first, so a manifest's `fl.<field>` can be blamed
@pytest.mark.parametrize(
    "make,field",
    [
        (lambda v: FlOptions(c1=v), "c1"),
        (lambda v: FlOptions(c2=v), "c2"),
    ],
    ids=["c1", "c2"],
)
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_distortion_constant_finite_and_positive(make, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite and > 0"):
        make(value)


# bc's searched batch size is its params' one field; its constants are the fl block's
@pytest.mark.parametrize("field", ["batch_size", "payload_bits", "clients"])
def test_batch_crypt_field_named(field):
    make = BatchCryptParams if field == "batch_size" else lambda v: FlOptions(**{field: v})
    with pytest.raises(ValueError, match=f"^{field} must be >= 1"):
        make(0)


# NaN must fail each check: let through, rd adds no noise (or clips nothing)
# and reports leakage 0, a perfect-privacy row
@pytest.mark.parametrize(
    "make,field",
    [
        (lambda: RandomizationParams(math.nan, 2.0), "sigma_rd"),
        (lambda: RandomizationParams(0.5, math.nan), "c_clip"),
        (lambda: rd_leakage(RandomizationParams(0.5, 2.0), 16, math.nan), "c1"),
        (lambda: BatchCryptParams(math.nan), "batch_size"),
        (lambda: sf_leakage([0.1], math.nan), "c2"),
    ],
    ids=["sigma_rd", "c_clip", "rd_leakage-c1", "batch_size", "sf_leakage-c2"],
)
def test_nan_mechanism_value_refused_by_name(make, field):
    with pytest.raises(ValueError, match=f"^{field} "):
        make()
