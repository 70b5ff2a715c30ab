"""Two-hidden-layer ReLU perceptron on flat parameter vectors.

Parameters live in a single float vector so protection mechanisms and
federated averaging can treat the model as plain numbers; a (K, d_w)
stack of them holds K clients' models, which the forward and backward
passes handle through batched matmuls over the leading axis.  Gradients
are hand-derived (softmax cross-entropy) and are checked against finite
differences in the test suite.

`loss_and_grad` runs once per minibatch, so it does its elementwise work
in place: biases, ReLUs, the log-softmax and the logit gradient overwrite
their matmul's output, each layer's gradient is written into its view of
one flat buffer, and ReLU backward is a bitwise AND with an all-zeros or
all-ones integer mask.  Every matmul and reduction has the operands and
axis of the plain formulation, so the bits are those of a straightforward
implementation (a frozen copy is the tests' oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["ModelSpec", "init_params", "loss_and_grad", "predict", "accuracy"]


@dataclass(frozen=True)
class ModelSpec:
    in_dim: int
    hidden1: int = 32
    hidden2: int = 32
    n_classes: int = 2

    def __post_init__(self):
        if min(self.in_dim, self.hidden1, self.hidden2, self.n_classes) < 1:
            raise ValueError("all layer widths must be >= 1")

    @property
    def shapes(self) -> list[tuple[int, ...]]:
        return [
            (self.in_dim, self.hidden1),
            (self.hidden1,),
            (self.hidden1, self.hidden2),
            (self.hidden2,),
            (self.hidden2, self.n_classes),
            (self.n_classes,),
        ]

    @cached_property
    def layout(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """(start, stop, shape) of each layer's slice of the flat vector."""
        out, off = [], 0
        for s in self.shapes:
            size = math.prod(s)
            out.append((off, off + size, s))
            off += size
        return tuple(out)

    @property
    def n_params(self) -> int:
        return self.layout[-1][1]

    def weight_mask(self) -> np.ndarray:
        """True at weight-matrix entries, False at biases."""
        return np.concatenate([np.full(b - a, len(s) == 2) for a, b, s in self.layout])

    def unpack(self, params: np.ndarray) -> list[np.ndarray]:
        """Views of the layers; a leading client axis (K, d_w) gives (K, *shape)."""
        lead = params.shape[:-1]
        return [params[..., a:b].reshape(lead + s) for a, b, s in self.layout]


def init_params(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """fan-in-scaled normal weights, zero biases, as one flat vector."""
    parts = []
    for s in spec.shapes:
        if len(s) == 2:
            parts.append(rng.normal(0.0, 1.0 / np.sqrt(s[0]), size=s).ravel())
        else:
            parts.append(np.zeros(s))
    return np.concatenate(parts)


def _forward(layers: list[np.ndarray], X: np.ndarray):
    """Logits and the two ReLU activations; each layer adds its bias and
    clips in place in its matmul's output."""
    W1, b1, W2, b2, W3, b3 = layers
    a1 = X @ W1
    a1 += b1[..., None, :]
    np.maximum(a1, 0.0, out=a1)
    a2 = a1 @ W2
    a2 += b2[..., None, :]
    np.maximum(a2, 0.0, out=a2)
    logits = a2 @ W3
    logits += b3[..., None, :]
    return logits, (a1, a2)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, overwriting `logits`."""
    logits -= logits.max(axis=-1, keepdims=True)
    logits -= np.log(np.add.reduce(np.exp(logits), axis=-1, keepdims=True))
    return logits


def _relu_backward(d: np.ndarray, a: np.ndarray) -> None:
    """Zero `d` where the unit is inactive (a <= 0), in place.

    An AND of d's bits with 0 or with all ones: inactive entries become
    +0.0, the others keep every bit, NaN payloads included.
    """
    bits = d.view(np.int64)
    np.bitwise_and(bits, np.subtract(a <= 0.0, 1, dtype=np.int64), out=bits)


def _t(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def loss_and_grad(
    params: np.ndarray, X: np.ndarray, y: np.ndarray, spec: ModelSpec
) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean cross-entropy and its gradient as a flat vector.

    One model: params (d_w,), X (b, d), y (b,) give a scalar loss and a
    (d_w,) gradient.  K stacked models: params (K, d_w), X (K, b, d),
    y (K, b) give K losses and a (K, d_w) gradient; each client's numbers
    equal those of its own single-model call bit for bit.  Parameters are
    float64; each layer's gradient is written straight into its view of
    the returned vector.
    """
    layers = spec.unpack(params)
    W1, _, W2, _, W3, _ = layers
    logits, (a1, a2) = _forward(layers, X)
    n = X.shape[-2]
    logp = _log_softmax(logits)
    onehot = y[..., None] == np.arange(logp.shape[-1])
    loss = -(np.add.reduce(logp[onehot].reshape(y.shape), axis=-1) / n)
    dlogits = np.exp(logp, out=logp)
    dlogits -= onehot
    dlogits /= n
    grad = np.empty(params.shape)
    gW1, gb1, gW2, gb2, gW3, gb3 = spec.unpack(grad)
    np.matmul(_t(a2), dlogits, out=gW3)
    np.add.reduce(dlogits, axis=-2, out=gb3)
    da2 = dlogits @ _t(W3)
    _relu_backward(da2, a2)
    np.matmul(_t(a1), da2, out=gW2)
    np.add.reduce(da2, axis=-2, out=gb2)
    da1 = da2 @ _t(W2)
    _relu_backward(da1, a1)
    np.matmul(_t(X), da1, out=gW1)
    np.add.reduce(da1, axis=-2, out=gb1)
    return loss, grad


def predict(params: np.ndarray, X: np.ndarray, spec: ModelSpec) -> np.ndarray:
    logits, _ = _forward(spec.unpack(params), X)
    return np.argmax(logits, axis=-1)


def accuracy(params: np.ndarray, X: np.ndarray, y: np.ndarray, spec: ModelSpec) -> float:
    return float(np.mean(predict(params, X, spec) == y))
