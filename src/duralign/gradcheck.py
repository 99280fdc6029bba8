"""Central finite-difference checks for every analytic gradient.

Each check calls its backward pass through the module that owns it
(``attention.content_energies_backward``, ``tokens.encoder_backward``,
``attention.lattice_backward``), so a negative control replaces that
attribute with a wrong gradient and expects ``passed=False``; the
tests do so."""

from __future__ import annotations

from dataclasses import dataclass, fields

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
    O(x.size ** 2) floats, so this is meant for small checks.  A point
    holding a NaN, an infinity or an int beyond the double range is
    rejected as ``non-finite point``, and an empty one as ``empty point``.
    """
    x = tokens._floats("point", x)
    if x.size == 0:
        raise ValueError("empty point")
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


def _check_parameters(target: str, params, grads, loss, step: float) -> GradCheckResult:
    """Check ``grads`` against central differences of ``loss(params)``.

    ``grads`` is of the type of ``params``: a backward pass returns its
    gradients as a parameter set.  Both are flattened in field order,
    and each perturbed point is rebuilt into that type (a scalar field
    as a float)."""
    names = [f.name for f in fields(params)]
    shapes = [np.shape(getattr(params, name)) for name in names]
    bounds = np.cumsum([0] + [int(np.prod(shape)) for shape in shapes])

    def rebuild(theta: np.ndarray):
        parts = [
            theta[lo:hi].reshape(shape) if shape else float(theta[lo]) for lo, hi, shape in zip(bounds, bounds[1:], shapes)
        ]
        return type(params)(**dict(zip(names, parts)))

    analytic = _pack(*(getattr(grads, name) for name in names))
    theta0 = _pack(*(getattr(params, name) for name in names))
    numeric = central_difference(lambda thetas: [loss(rebuild(theta)) for theta in thetas], theta0, step)
    err = relative_error(analytic, numeric)
    return GradCheckResult(target, err, step, err <= 1e-5)


def check_energy_gradients(seed: int, step: float = FD_STEP) -> GradCheckResult:
    """Check content-energy parameter gradients against finite differences."""
    seed = tokens._checked("seed", seed, int, least=0)
    rng = np.random.default_rng(seed)
    qd, kd, ad, n = 5, 4, 6, 7
    params = attention.EnergyParams.init(seed, query_dim=qd, key_dim=kd, attn_dim=ad)
    query = rng.normal(0.0, 1.0, qd)
    keys = rng.normal(0.0, 1.0, (n, kd))
    upstream = rng.normal(0.0, 1.0, n)
    grads = attention.content_energies_backward(params, query, keys, upstream)

    def loss(p: attention.EnergyParams) -> float:
        return float(np.dot(upstream, attention.content_energies(p, query, keys)))

    return _check_parameters("energies", params, grads, loss, step)


def check_encoder_gradients(seed: int, step: float = FD_STEP) -> GradCheckResult:
    """Check duration-encoder parameter gradients against finite differences."""
    seed = tokens._checked("seed", seed, int, least=0)
    rng = np.random.default_rng(seed)
    n = 8
    params = tokens.DurationEncoderParams.init(seed, hidden=6)
    rows = np.column_stack([rng.uniform(0.05, 2.0, n), rng.uniform(40.0, 200.0, n), rng.uniform(0.0, 5.0, n)])
    feats = tokens.DurationFeatures(rows=rows)
    upstream = rng.normal(0.0, 1.0, n)
    grads = tokens.encoder_backward(params, feats, upstream)

    def loss(p: tokens.DurationEncoderParams) -> float:
        return float(np.dot(upstream, tokens.encoder_forward(p, feats).q))

    return _check_parameters("encoder", params, grads, loss, step)


def check_lattice_gradients(seed: int, step: float = FD_STEP) -> GradCheckResult:
    """Check lattice reverse-mode gradients (dq and dE) with a
    duration-matching occupancy loss.  The finite differences run as two
    passes of the one forward loop, ``attention._forward``, over
    phoneme-first columns: one over the perturbed tokens, one over the
    perturbed energies."""
    seed = tokens._checked("seed", seed, int, least=0)
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

    def loss(qs: np.ndarray, es: np.ndarray) -> np.ndarray:
        """Occupancy loss of each of B sequences, (B, N) tokens over (B, T, N)
        energies, stepped as phoneme-first columns."""
        rows, _ = attention._forward(qs.T, np.ascontiguousarray(es.transpose(1, 2, 0)), opts)
        return np.sum((rows.sum(axis=0) - d[:, None]) ** 2, axis=0)

    numeric = _pack(
        central_difference(lambda qs: loss(qs, np.broadcast_to(energies, (len(qs),) + energies.shape)), q0, step),
        central_difference(lambda es: loss(np.broadcast_to(q0, (len(es), n)), es), energies, step),
    )
    err = relative_error(analytic, numeric)
    return GradCheckResult("lattice", err, step, err <= 1e-5)
