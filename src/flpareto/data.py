"""Dataset loading and IID partitioning for the federated simulator.

Two sources: a separable synthetic Gaussian-blob generator (desk scale,
the default) and big-endian IDX image/label files (magics 0x00000803 and
0x00000801).  Partitioning is stratified by class so per-client class
histograms track the global one.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IdxFormatError",
    "FederatedData",
    "load_idx_images",
    "load_idx_labels",
    "iid_partition",
    "load_dataset",
    "dataset_dims",
    "SYNTHETIC_DEFAULTS",
    "IDX_PATHS",
    "DATASET_FIELDS",
    "DATASET_VALUES",
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
# the fields a dataset spec of each kind may hold; an idx spec needs every path
DATASET_FIELDS = {
    "synthetic": frozenset(SYNTHETIC_DEFAULTS),
    "idx": frozenset({"kind", *IDX_PATHS, "classes", "n_per_client"}),
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
    client_X: list[np.ndarray]
    client_y: list[np.ndarray]
    test_X: np.ndarray
    test_y: np.ndarray
    n_classes: int

    @property
    def n_clients(self) -> int:
        return len(self.client_X)


def _idx_images_header(data: bytes) -> tuple[int, int, int]:
    """(n, rows, cols) from the first 16 bytes of an IDX3 image file."""
    if len(data) < 16:
        raise IdxFormatError(f"truncated header at offset {len(data)}: need 16 bytes")
    magic, n, rows, cols = struct.unpack_from(">iiii", data, 0)
    if magic != IMAGES_MAGIC:
        raise IdxFormatError(
            f"bad magic 0x{magic:08x} at offset 0: expected 0x{IMAGES_MAGIC:08x}"
        )
    return n, rows, cols


def load_idx_images(path) -> np.ndarray:
    """Parse an IDX3 ubyte image file into an (n, rows*cols) float array in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    n, rows, cols = _idx_images_header(data)
    expected = 16 + n * rows * cols
    if len(data) != expected:
        raise IdxFormatError(
            f"payload length mismatch at offset 16: header implies {expected} bytes, got {len(data)}"
        )
    imgs = np.frombuffer(data, dtype=np.uint8, offset=16).reshape(n, rows * cols)
    return imgs.astype(float) / 255.0


def load_idx_labels(path, n_classes: int | None = None) -> np.ndarray:
    """Parse an IDX1 ubyte label file; optionally validate the label range."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 8:
        raise IdxFormatError(f"truncated header at offset {len(data)}: need 8 bytes")
    magic, n = struct.unpack_from(">ii", data, 0)
    if magic != LABELS_MAGIC:
        raise IdxFormatError(
            f"bad magic 0x{magic:08x} at offset 0: expected 0x{LABELS_MAGIC:08x}"
        )
    if len(data) != 8 + n:
        raise IdxFormatError(
            f"payload length mismatch at offset 8: header implies {8 + n} bytes, got {len(data)}"
        )
    labels = np.frombuffer(data, dtype=np.uint8, offset=8).astype(np.int64)
    if n_classes is not None and labels.size and labels.max() >= n_classes:
        bad = int(np.argmax(labels >= n_classes))
        raise IdxFormatError(
            f"label {labels[bad]} at offset {8 + bad} outside [0, {n_classes})"
        )
    return labels


def _class_cycled_order(y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Indices ordered by cycling through shuffled per-class pools."""
    classes = np.unique(y)
    pools = [rng.permutation(np.flatnonzero(y == c)) for c in classes]
    order = np.empty(y.size, dtype=np.int64)
    pos = 0
    cursors = [0] * len(pools)
    while pos < y.size:
        for i, pool in enumerate(pools):
            if cursors[i] < pool.size:
                order[pos] = pool[cursors[i]]
                cursors[i] += 1
                pos += 1
    return order


def iid_partition(
    X: np.ndarray,
    y: np.ndarray,
    n_clients: int,
    n_per_client: int,
    rng: np.random.Generator,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Disjoint per-client splits of exactly n_per_client samples each.

    Dealing from a class-cycled order keeps every client's class histogram
    within a few counts of the global proportions.
    """
    if n_clients * n_per_client > y.size:
        raise ValueError(
            f"cannot assign {n_per_client} samples to each of {n_clients} clients "
            f"from {y.size} available"
        )
    order = _class_cycled_order(y, rng)
    client_X, client_y = [], []
    for k in range(n_clients):
        idx = order[k * n_per_client : (k + 1) * n_per_client]
        client_X.append(X[idx].copy())
        client_y.append(y[idx].copy())
    return client_X, client_y


def _make_synthetic(spec: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    cfg = {**SYNTHETIC_DEFAULTS, **spec}
    rng = np.random.default_rng(int(cfg["seed"]))
    d, classes = int(cfg["features"]), int(cfg["classes"])
    if classes == 2:
        # antipodal means give a deterministic margin of 2 * separation
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        means = np.stack([u, -u])
    else:
        means = rng.normal(size=(classes, d))
        means /= np.linalg.norm(means, axis=1, keepdims=True)
    means = means * float(cfg["separation"])
    n_train = int(cfg["n_per_client"]) * int(cfg.get("_n_clients", 1))
    n_test = int(cfg["n_test"])

    def draw(n):
        ys = np.arange(n) % classes
        rng.shuffle(ys)
        Xs = means[ys] + float(cfg["noise"]) * rng.normal(size=(n, d))
        return Xs, ys

    X, y = draw(n_train)
    tX, ty = draw(n_test)
    return X, y, tX, ty


def dataset_dims(spec: dict) -> tuple[int, int]:
    """(features, classes) of the dataset `spec` describes, without loading it.

    An IDX dataset's features are its training images' rows x cols, read
    from the file header; its classes are `spec["classes"]` (default 10).
    """
    kind = spec.get("kind", "synthetic")
    if kind == "synthetic":
        full = {**SYNTHETIC_DEFAULTS, **spec}
        return int(full["features"]), int(full["classes"])
    if kind == "idx":
        with open(spec["train_images"], "rb") as fh:
            _, rows, cols = _idx_images_header(fh.read(16))
        return rows * cols, int(spec.get("classes", 10))
    raise ValueError(f"unknown dataset kind {kind!r}")


def load_dataset(spec: dict, n_clients: int, seed: int = 0) -> FederatedData:
    """Build per-client train partitions and the shared test split.

    `spec["kind"]` selects "synthetic" (generator parameters) or "idx"
    (file paths).  `seed` drives the partition shuffle only; the synthetic
    generator uses its own seed so data is identical across evaluations.
    """
    kind = spec.get("kind", "synthetic")
    if kind == "synthetic":
        full = {**SYNTHETIC_DEFAULTS, **spec, "_n_clients": n_clients}
        X, y, test_X, test_y = _make_synthetic(full)
        n_per_client = int(full["n_per_client"])
        n_classes = int(full["classes"])
    elif kind == "idx":
        n_classes = dataset_dims(spec)[1]
        X = load_idx_images(spec["train_images"])
        y = load_idx_labels(spec["train_labels"], n_classes)
        test_X = load_idx_images(spec["test_images"])
        test_y = load_idx_labels(spec["test_labels"], n_classes)
        if X.shape[0] != y.shape[0] or test_X.shape[0] != test_y.shape[0]:
            raise IdxFormatError("image/label counts disagree between paired files")
        n_per_client = int(spec.get("n_per_client", y.size // n_clients))
    else:
        raise ValueError(f"unknown dataset kind {kind!r}")
    rng = np.random.default_rng([int(seed), 7])
    client_X, client_y = iid_partition(X, y, n_clients, n_per_client, rng)
    return FederatedData(
        client_X=client_X,
        client_y=client_y,
        test_X=test_X,
        test_y=test_y,
        n_classes=n_classes,
    )
