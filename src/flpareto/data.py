"""Dataset specs, loading and IID partitioning for the federated simulator.

This module owns the dataset spec, a manifest's `fl.dataset` block: its
rules (`check_spec`), each kind's defaults (`KIND_DEFAULTS`, merged into a
spec in one place), its dimensions and the arrays it loads to.  Two kinds:
a separable synthetic Gaussian-blob generator (desk scale, the default)
and big-endian IDX image/label files (magics 0x00000803 and 0x00000801).
Loading refuses an IDX dataset whose test images' rows x cols differ from
its training images', or that has fewer training images than clients.
Partitioning is stratified by class so per-client class histograms track
the global one, and deals the clients straight into stacked (K, n, d) /
(K, n) arrays.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .spaces import _coerce

__all__ = [
    "IdxFormatError",
    "FederatedData",
    "load_idx_images",
    "load_idx_labels",
    "iid_partition",
    "check_spec",
    "load_dataset",
    "dataset_dims",
    "SYNTHETIC_DEFAULTS",
]

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

SYNTHETIC_DEFAULTS = {
    "kind": "synthetic",
    "n_per_client": 1000,
    "n_test": 2000,
    "features": 20,
    "classes": 2,
    "separation": 1.0,
    "noise": 0.4,
    "seed": 0,
}
IDX_PATHS = ("train_images", "train_labels", "test_images", "test_labels")
# each kind's defaults; an idx n_per_client of None is an equal share of the training images
KIND_DEFAULTS = {
    "synthetic": SYNTHETIC_DEFAULTS,
    "idx": {"kind": "idx", "classes": 10, "n_per_client": None},
}
# the fields a dataset spec of each kind may hold; an idx spec needs every path
DATASET_FIELDS = {
    "synthetic": frozenset(SYNTHETIC_DEFAULTS),
    "idx": frozenset({*KIND_DEFAULTS["idx"], *IDX_PATHS}),
}
# the type and least value of each numeric dataset field, of either kind
DATASET_VALUES = {
    "n_per_client": (int, 1),
    "n_test": (int, 1),
    "features": (int, 1),
    "classes": (int, 2),
    "seed": (int, 0),
    "separation": (float, 0.0),
    "noise": (float, 0.0),
}


class IdxFormatError(ValueError):
    """Malformed IDX payload; the message names the offending byte offset."""


@dataclass
class FederatedData:
    client_X: np.ndarray  # (K, n, d)
    client_y: np.ndarray  # (K, n)
    test_X: np.ndarray
    test_y: np.ndarray

    @property
    def n_clients(self) -> int:
        return len(self.client_X)


def check_spec(spec) -> None:
    """ValueError, naming the field as `dataset.<field>` first, unless `spec` is
    a dataset spec: its kind's fields only, and each number by `_coerce`'s rule."""
    if not isinstance(spec, dict):
        raise ValueError("dataset must be an object")
    kind = spec.get("kind", "synthetic")
    if not isinstance(kind, str) or kind not in DATASET_FIELDS:
        raise ValueError(f"dataset.kind must be one of {tuple(DATASET_FIELDS)}, got {kind!r}")
    extra = sorted(set(spec) - DATASET_FIELDS[kind])
    if extra:
        raise ValueError(f"dataset.{extra[0]} is not a {kind} dataset field")
    missing = [k for k in IDX_PATHS if kind == "idx" and k not in spec]
    if missing:
        raise ValueError(f"dataset.{missing[0]} is required by an idx dataset")
    for name, value in spec.items():
        if name not in DATASET_VALUES:
            continue
        hint, lo = DATASET_VALUES[name]
        try:
            ok = _coerce(value, hint) >= lo
        except ValueError:
            ok = False
        if not ok:
            kind_of = "an integer" if hint is int else "a finite number"
            raise ValueError(f"dataset.{name} must be {kind_of} >= {lo}, got {value!r}")


def _filled(spec: dict) -> dict:
    """`spec` over its kind's defaults; ValueError for an unknown kind."""
    kind = spec.get("kind", "synthetic")
    if not isinstance(kind, str) or kind not in KIND_DEFAULTS:
        raise ValueError(f"unknown dataset kind {kind!r}")
    return {**KIND_DEFAULTS[kind], **spec}


def _idx_header(data: bytes, magic: int) -> tuple[int, ...]:
    """The dimensions in the header of an IDX file of `magic`, whose low byte is their count."""
    head = 4 + 4 * (magic & 0xFF)
    if len(data) < head:
        raise IdxFormatError(f"truncated header at offset {len(data)}: need {head} bytes")
    got, *dims = struct.unpack_from(f">{head // 4}i", data, 0)
    if got != magic:
        raise IdxFormatError(f"bad magic 0x{got:08x} at offset 0: expected 0x{magic:08x}")
    return tuple(dims)


def _read_idx(path, magic: int) -> np.ndarray:
    """The uint8 payload of the IDX file of `magic` at `path`, shaped as its header says."""
    with open(path, "rb") as fh:
        data = fh.read()
    dims = _idx_header(data, magic)
    head = 4 + 4 * len(dims)
    expected = head + math.prod(dims)
    if len(data) != expected:
        raise IdxFormatError(
            f"payload length mismatch at offset {head}: header implies {expected} bytes, got {len(data)}"
        )
    return np.frombuffer(data, dtype=np.uint8, offset=head).reshape(dims)


def _pixels(images: np.ndarray) -> np.ndarray:
    """(n, rows, cols) uint8 images as an (n, rows*cols) float array in [0, 1]."""
    n, rows, cols = images.shape
    return images.reshape(n, rows * cols).astype(float) / 255.0


def load_idx_images(path) -> np.ndarray:
    """Parse an IDX3 ubyte image file into an (n, rows*cols) float array in [0, 1]."""
    return _pixels(_read_idx(path, IMAGES_MAGIC))


def load_idx_labels(path, n_classes: int | None = None) -> np.ndarray:
    """Parse an IDX1 ubyte label file; optionally validate the label range."""
    labels = _read_idx(path, LABELS_MAGIC).astype(np.int64)
    if n_classes is not None and labels.size and labels.max() >= n_classes:
        bad = int(np.argmax(labels >= n_classes))
        raise IdxFormatError(f"label {labels[bad]} at offset {8 + bad} outside [0, {n_classes})")
    return labels


def _class_cycled_order(y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Indices ordered by cycling through shuffled per-class pools: every
    pool's r-th index, in class order, comes before any pool's (r+1)-th."""
    pools = [rng.permutation(np.flatnonzero(y == c)) for c in np.unique(y)]
    rounds = np.concatenate([np.arange(pool.size) for pool in pools])
    return np.concatenate(pools)[np.argsort(rounds, kind="stable")]


def iid_partition(
    X: np.ndarray,
    y: np.ndarray,
    n_clients: int,
    n_per_client: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint per-client splits of exactly n_per_client samples each,
    stacked as (n_clients, n_per_client, d) X and (n_clients, n_per_client) y.

    Dealing from a class-cycled order keeps every client's class histogram
    within a few counts of the global proportions.
    """
    if n_clients * n_per_client > y.size:
        raise ValueError(f"cannot assign {n_per_client} samples to each of {n_clients} clients "
                         f"from {y.size} available")
    order = _class_cycled_order(y, rng)
    idx = order[: n_clients * n_per_client].reshape(n_clients, n_per_client)
    return X[idx], y[idx]


def _make_synthetic(full: dict, n_train: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """n_train training and full["n_test"] test samples of the filled synthetic spec `full`."""
    rng = np.random.default_rng(int(full["seed"]))
    d, classes = int(full["features"]), int(full["classes"])
    if classes == 2:
        # antipodal means give a deterministic margin of 2 * separation
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        means = np.stack([u, -u])
    else:
        means = rng.normal(size=(classes, d))
        means /= np.linalg.norm(means, axis=1, keepdims=True)
    means = means * float(full["separation"])

    def draw(n):
        ys = np.arange(n) % classes
        rng.shuffle(ys)
        Xs = means[ys] + float(full["noise"]) * rng.normal(size=(n, d))
        return Xs, ys

    return (*draw(n_train), *draw(int(full["n_test"])))


def dataset_dims(spec: dict) -> tuple[int, int]:
    """(features, classes) of the dataset `spec` describes, without loading it.

    An IDX dataset's features are its training images' rows x cols, read
    from the file header; its classes are `spec["classes"]` (default 10).
    """
    full = _filled(spec)
    if full["kind"] == "idx":
        with open(full["train_images"], "rb") as fh:
            _, rows, cols = _idx_header(fh.read(16), IMAGES_MAGIC)
        return rows * cols, int(full["classes"])
    return int(full["features"]), int(full["classes"])


def load_dataset(spec: dict, n_clients: int, seed: int = 0) -> FederatedData:
    """Build the stacked per-client train partitions and the shared test split.

    `spec["kind"]` selects "synthetic" (generator parameters) or "idx"
    (file paths).  `seed` drives the partition shuffle only; the synthetic
    generator uses its own seed so data is identical across evaluations.
    """
    full = _filled(spec)
    n_per_client = full["n_per_client"]
    if full["kind"] == "synthetic":
        X, y, test_X, test_y = _make_synthetic(full, int(n_per_client) * n_clients)
    else:
        train, test = (_read_idx(full[f"{split}_images"], IMAGES_MAGIC) for split in ("train", "test"))
        y, test_y = (load_idx_labels(full[f"{split}_labels"], int(full["classes"])) for split in ("train", "test"))
        if train.shape[1:] != test.shape[1:]:
            raise IdxFormatError(
                "test images are {}x{} but training images are {}x{}".format(*test.shape[1:], *train.shape[1:])
            )
        if train.shape[0] != y.size or test.shape[0] != test_y.size:
            raise IdxFormatError("image/label counts disagree between paired files")
        X, test_X = _pixels(train), _pixels(test)
        if n_per_client is None:
            if y.size < n_clients:
                raise ValueError(
                    f"an idx dataset of {y.size} training images cannot give each of {n_clients} clients one"
                )
            n_per_client = y.size // n_clients
    rng = np.random.default_rng([int(seed), 7])
    return FederatedData(*iid_partition(X, y, n_clients, int(n_per_client), rng), test_X, test_y)
