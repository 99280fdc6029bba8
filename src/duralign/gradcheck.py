"""Central finite-difference checks for every analytic gradient."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attention, tokens

__all__ = [
    "FD_STEP",
    "GradCheckResult",
    "central_difference",
    "relative_error",
    "check_energy_gradients",
    "check_encoder_gradients",
    "check_lattice_gradients",
]

FD_STEP = 1e-6


@dataclass(frozen=True)
class GradCheckResult:
    target: str
    max_rel_err: float
    step: float
    passed: bool


def central_difference(fn, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central finite-difference gradient of a scalar loss, from one
    call of ``fn`` on a stack of all 2 * x.size perturbed points.

    Row 2i of the stack is x with x[i] + step, row 2i + 1 is x with
    x[i] - step (i in ravel order); ``fn`` maps the (2 * x.size,
    *x.shape) stack to the vector of the rows' losses.  The stack holds
    O(x.size ** 2) floats, so this is meant for small checks.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    k = np.arange(flat.size)
    points = np.tile(flat, (2 * flat.size, 1))
    points[2 * k, k] = flat + step
    points[2 * k + 1, k] = flat - step
    losses = np.asarray(fn(points.reshape((-1,) + x.shape)), dtype=np.float64)
    if losses.shape != (2 * flat.size,):
        raise ValueError("fn must return one loss per stacked point")
    return ((losses[0::2] - losses[1::2]) / (2.0 * step)).reshape(x.shape)


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Norm-based relative error ||a - n|| / (||a|| + ||n||).

    Elementwise ratios blow up on near-zero components where the
    finite-difference estimate is pure roundoff noise; the norm ratio
    compares the gradients at the scale they actually act."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.linalg.norm(a) + np.linalg.norm(n)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(a - n) / denom)


def _pack(*arrays: np.ndarray) -> np.ndarray:
    return np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])


def check_energy_gradients(seed: int, step: float = FD_STEP, corrupt: bool = False) -> GradCheckResult:
    """Check content-energy parameter gradients against finite differences."""
    rng = np.random.default_rng(seed)
    qd, kd, ad, n = 5, 4, 6, 7
    params = attention.EnergyParams.init(seed, query_dim=qd, key_dim=kd, attn_dim=ad)
    query = rng.normal(0.0, 1.0, qd)
    keys = rng.normal(0.0, 1.0, (n, kd))
    upstream = rng.normal(0.0, 1.0, n)

    grads = attention.content_energies_backward(params, query, keys, upstream)
    analytic = _pack(grads.W, grads.V, grads.v, grads.b)
    if corrupt:
        analytic = analytic + 1e-2

    shapes = [params.W.shape, params.V.shape, params.v.shape, params.b.shape]
    theta0 = _pack(params.W, params.V, params.v, params.b)

    def loss(theta: np.ndarray) -> float:
        offset = 0
        arrays = []
        for shape in shapes:
            size = int(np.prod(shape))
            arrays.append(theta[offset : offset + size].reshape(shape))
            offset += size
        p = attention.EnergyParams(W=arrays[0], V=arrays[1], v=arrays[2], b=arrays[3])
        return float(np.dot(upstream, attention.content_energies(p, query, keys)))

    numeric = central_difference(lambda thetas: [loss(theta) for theta in thetas], theta0, step)
    err = relative_error(analytic, numeric)
    return GradCheckResult("energies", err, step, err <= 1e-5)


def check_encoder_gradients(seed: int, step: float = FD_STEP, corrupt: bool = False) -> GradCheckResult:
    """Check duration-encoder parameter gradients against finite differences."""
    rng = np.random.default_rng(seed)
    hidden, n = 6, 8
    params = tokens.DurationEncoderParams.init(seed, hidden=hidden)
    rows = np.column_stack(
        [
            rng.uniform(0.05, 2.0, n),
            rng.uniform(40.0, 200.0, n),
            rng.uniform(0.0, 5.0, n),
        ]
    )
    feats = tokens.DurationFeatures(rows=rows)
    upstream = rng.normal(0.0, 1.0, n)

    grads = tokens.encoder_backward(params, feats, upstream)
    analytic = _pack(grads.w1, grads.b1, grads.w2, np.array([grads.b2]))
    if corrupt:
        analytic = analytic + 1e-2

    theta0 = _pack(params.w1, params.b1, params.w2, np.array([params.b2]))

    def loss(theta: np.ndarray) -> float:
        w1 = theta[: hidden * 3].reshape(hidden, 3)
        b1 = theta[hidden * 3 : hidden * 4]
        w2 = theta[hidden * 4 : hidden * 5]
        b2 = float(theta[-1])
        p = tokens.DurationEncoderParams(w1=w1, b1=b1, w2=w2, b2=b2)
        q = tokens.encoder_forward(p, feats).q
        return float(np.dot(upstream, q))

    numeric = central_difference(lambda thetas: [loss(theta) for theta in thetas], theta0, step)
    err = relative_error(analytic, numeric)
    return GradCheckResult("encoder", err, step, err <= 1e-5)


def check_lattice_gradients(seed: int, step: float = FD_STEP, corrupt: bool = False) -> GradCheckResult:
    """Check lattice reverse-mode gradients (dq and dE) with a
    duration-matching occupancy loss.  The finite differences run as two
    passes of the private batched forward, ``attention._batch_forward``:
    one over the perturbed tokens, one over the perturbed energies."""
    rng = np.random.default_rng(seed)
    n, t_steps = 4, 12
    d = rng.integers(2, 6, n).astype(np.float64)
    q0 = rng.uniform(0.2, 0.8, n)
    energies = attention.normalize_energies(rng.normal(0.0, 1.0, (t_steps, n)))
    opts = attention.StepOptions(mechanism="gdca", convention="prose")

    mat = attention.lattice_forward(tokens.TransitionTokens(q=q0), energies, opts, keep_cache=True)
    occupancy = mat.probs.sum(axis=0)
    d_probs = np.tile(2.0 * (occupancy - d), (t_steps + 1, 1))
    dq, d_energies = attention.lattice_backward(mat, d_probs)
    analytic = _pack(dq, d_energies)
    if corrupt:
        analytic = analytic + 1e-2

    def loss(qs: np.ndarray, es: np.ndarray) -> np.ndarray:
        """Occupancy loss of each sequence in a batched forward pass."""
        probs = attention._batch_forward(qs, es, opts)
        return np.sum((probs.sum(axis=-2) - d) ** 2, axis=-1)

    numeric = _pack(
        central_difference(lambda qs: loss(qs, np.broadcast_to(energies, (len(qs),) + energies.shape)), q0, step),
        central_difference(lambda es: loss(np.broadcast_to(q0, (len(es), n)), es), energies, step),
    )
    err = relative_error(analytic, numeric)
    return GradCheckResult("lattice", err, step, err <= 1e-5)
