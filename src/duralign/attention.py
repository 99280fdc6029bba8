"""Monotonic alignment lattice with duration-token control.

The recursion advances probability mass over phonemes one step at a
time: mass at phoneme n either moves to n+1 (weight q_n) or stays
(weight 1-q_n), is reweighted by content energies, and is renormalized.
The final phoneme is absorbing: its outgoing move weight folds back
into its stay weight, so the pre-normalization step conserves mass.

Three mechanisms share one private step kernel and differ only in the
move/stay weights:

* gdca  - duration-token weights (move q_{n-1}, stay 1-q_n)
* fa    - token-free forward recursion (move 1, stay 1)
* la    - content-only (no weights: the energies are the alignment)

The kernel is built once per run: weights, scratch buffers and the
window at every offset, so a step's mask is a slice and a step writes
its row in place.  ``lattice_forward``, ``simulate.run_simulation`` and
``gdca_step``/``fa_step``/``la_step`` all step through it; those three
check their input and reject options that name another mechanism.  The
simulator offers each block of rows to ``_Kernel.la_block``, which steps
it whole only for an la kernel.  With q = 0.5 everywhere the gdca weights
are exactly half the fa weights (including the absorbing boundary), so
the two mechanisms agree bit-for-bit after normalization.

Every public type and function holds one sequence: tokens are one (N,)
vector and an alignment one (T, N) matrix.  ``lattice_forward`` and the
gradient check step through the one private ``_forward``; only the check
hands it many sequences at once, as phoneme-first columns.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np
from numpy import add, divide, multiply, negative, subtract

from ._shortest import repr_columns
from .tokens import TransitionTokens, _checked, _floats, _typed_fields

__all__ = [
    "EnergyParams",
    "AlignmentDistribution",
    "AlignmentMatrix",
    "StepOptions",
    "LatticeCache",
    "content_energies",
    "content_energies_backward",
    "normalize_energies",
    "init_alignment",
    "gdca_step",
    "fa_step",
    "la_step",
    "dynamic_filter",
    "window_mask",
    "context_vector",
    "lattice_forward",
    "lattice_backward",
    "pure_lattice_occupancy",
    "alignment_to_csv",
    "alignment_to_pgm",
]

MECHANISMS = ("la", "fa", "gdca")
CONVENTIONS = ("prose", "eq3-literal")
WINDOW_SHAPES = ("rectangular", "triangular")
_BLOCK = 128  # rows that _csv_chunks formats, lattice_backward finishes and run_simulation steps at a time


# ---------------------------------------------------------------------------
# Content energies


@dataclass
class EnergyParams:
    """Additive scoring: e(n) = v . tanh(W m + V h_n + b)."""

    W: np.ndarray  # (attn_dim, query_dim)
    V: np.ndarray  # (attn_dim, key_dim)
    v: np.ndarray  # (attn_dim,)
    b: np.ndarray  # (attn_dim,)

    def __post_init__(self):
        self.W, self.V, self.v, self.b = (_floats("energy parameter", x) for x in (self.W, self.V, self.v, self.b))
        a = self.v.size
        if self.W.shape[0] != a or self.V.shape[0] != a or self.b.shape != (a,):
            raise ValueError("inconsistent energy parameter shapes")

    @classmethod
    def init(cls, seed: int, query_dim: int = 8, key_dim: int = 8, attn_dim: int = 8):
        """Seeded N(0, 0.5^2) entries."""
        rng = np.random.default_rng(seed)
        return cls(
            W=rng.normal(0.0, 0.5, (attn_dim, query_dim)),
            V=rng.normal(0.0, 0.5, (attn_dim, key_dim)),
            v=rng.normal(0.0, 0.5, attn_dim),
            b=rng.normal(0.0, 0.5, attn_dim),
        )


def _energy_inputs(params: EnergyParams, query: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    query, keys = _floats("query", query), _floats("keys", keys)
    if keys.ndim != 2 or keys.shape[0] < 1:
        raise ValueError("keys must be a non-empty (N, key_dim) array")
    if query.shape != (params.W.shape[1],) or keys.shape[1] != params.V.shape[1]:
        raise ValueError("query/key dimension mismatch")
    return query, keys


def content_energies(params: EnergyParams, query: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Raw energy of the query against each key row; 64-bit throughout."""
    query, keys = _energy_inputs(params, query, keys)
    return _content(params, query, keys @ params.V.T)


def _content(params: EnergyParams, query: np.ndarray, projected_keys: np.ndarray) -> np.ndarray:
    return np.tanh(params.W @ query + projected_keys + params.b) @ params.v


def content_energies_backward(
    params: EnergyParams, query: np.ndarray, keys: np.ndarray, upstream_grad: np.ndarray
) -> EnergyParams:
    """Analytic gradients of sum(upstream_grad * e) w.r.t. W, V, v, b, as
    an ``EnergyParams`` (so a gradient that overflows is rejected as
    ``non-finite energy parameter``)."""
    query, keys = _energy_inputs(params, query, keys)
    de = _floats("upstream gradient", upstream_grad)
    if de.shape != (keys.shape[0],):
        raise ValueError("upstream gradient shape mismatch")
    a = np.tanh(params.W @ query + keys @ params.V.T + params.b)
    dv = a.T @ de
    dz = np.outer(de, params.v) * (1.0 - a * a)  # (N, attn_dim)
    db = dz.sum(axis=0)
    return EnergyParams(W=np.outer(db, query), V=dz.T @ keys, v=dv, b=db)


def normalize_energies(e: np.ndarray) -> np.ndarray:
    """Stable softmax (max-subtraction) over the last axis, so a (T, N)
    matrix is normalized row by row; each row sums to 1, entries > 0."""
    return _softmax(_finite_energy(e))


def _softmax(e: np.ndarray) -> np.ndarray:
    w = np.exp(e - e.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def _finite_energy(e: np.ndarray) -> np.ndarray:
    e = _floats("energy", e)
    if e.shape[-1:] == (0,):
        raise ValueError("empty energy vector: need at least one phoneme")
    return e


# ---------------------------------------------------------------------------
# Alignment containers


def _unchecked(cls, fields: dict):
    """A dataclass ``cls`` holding ``fields`` that the library built or already checked, without its entry checks."""
    made = object.__new__(cls)
    made.__dict__.update(fields)
    return made


@dataclass(frozen=True)
class AlignmentDistribution:
    p: np.ndarray
    step: int = 0

    def __post_init__(self):
        p = _floats("alignment", self.p)
        object.__setattr__(self, "p", p)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("alignment must be a non-empty vector")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("alignment is not a probability distribution")


@dataclass
class AlignmentMatrix:
    """Rows are decoder steps, columns are phonemes."""

    probs: np.ndarray  # (T, N)
    cache: "LatticeCache | None" = None

    def __post_init__(self):
        self.probs = _floats("alignment probability", self.probs)
        if self.probs.ndim != 2 or 0 in self.probs.shape:
            raise ValueError(f"alignment matrix must be one non-empty (T, N) array; got shape {self.probs.shape}")

    @property
    def n_steps(self) -> int:
        return self.probs.shape[0]

    @property
    def n_phonemes(self) -> int:
        return self.probs.shape[1]

    def argmax_path(self) -> np.ndarray:
        return np.argmax(self.probs, axis=1)


@dataclass(frozen=True)
class StepOptions:
    mechanism: str = "gdca"
    filter_enabled: bool = False
    window_width: int = 16
    window_shape: str = "rectangular"
    convention: str = "prose"

    def __post_init__(self):
        _typed_fields(self, int, "window_width")
        _typed_fields(self, bool, "filter_enabled")
        if self.mechanism not in MECHANISMS:
            raise ValueError(f"unknown mechanism '{self.mechanism}'")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"unknown convention '{self.convention}'")
        if self.window_shape not in WINDOW_SHAPES:
            raise ValueError(f"unknown window shape '{self.window_shape}'")
        if self.window_width < 2 or self.window_width % 2 != 0:
            raise ValueError("window width must be an even integer >= 2")


def init_alignment(n: int) -> AlignmentDistribution:
    """All mass on the first phoneme: p_0 = (1, 0, ..., 0)."""
    if n < 1:
        raise ValueError("need at least one phoneme")
    p = np.zeros(n)
    p[0] = 1.0
    return AlignmentDistribution(p=p, step=0)


# ---------------------------------------------------------------------------
# Step kernel


def _shift_weights(q: np.ndarray, convention: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-position (move-in, stay) weights for the recursion.

    move[n] multiplies p_{t-1}(n-1) (move[0] is unused); stay[n]
    multiplies p_{t-1}(n).  The final stay weight absorbs the outgoing
    move weight so the step conserves mass.  ``q`` is (N,) or, for a
    batch, phoneme-first (N, B); the weights take its shape.
    """
    move = np.empty(q.shape)
    stay = np.empty(q.shape)
    if convention == "prose":
        move[1:] = q[:-1]
        stay[:] = 1.0 - q
    else:  # eq3-literal: coefficients exactly as printed
        move[1:] = 1.0 - q[:-1]
        stay[:] = q
    move[0] = 0.0
    stay[-1] = 1.0  # absorbing: stay + outgoing move
    return move, stay


class _Kernel:
    """One run's step kernel, for rows of ``shape``: (N,), or (N, B)
    columns for a batch, with raw tokens ``q`` laid out the same way.
    Its constructor is the one place that dispatches on the mechanism,
    which it reads from ``opts``; a caller offers a (T, N) block of rows
    to ``la_block``, which steps it at once for an la kernel (``stay`` is
    None) and leaves a kernel with weights to ``step``."""

    def __init__(self, q: np.ndarray | None, opts: StepOptions, shape: tuple):
        n = shape[0]
        self.stay = None  # la has no weights
        if opts.mechanism == "fa":  # gdca at q = 0.5, doubled: move 1, stay 1, final stay 2
            move, stay = _shift_weights(np.full(shape, 0.5), "prose")
            move, self.stay = 2.0 * move, 2.0 * stay
        elif opts.mechanism == "gdca":
            if q is None or len(q) != n:
                raise ValueError("gdca needs tokens matching the phoneme count")
            move, self.stay = _shift_weights(q, opts.convention)
        if self.stay is not None:
            self.move1 = move[1:]
            self.a = np.empty(shape)
            self.a1 = self.a[1:]
            self.head = np.empty((n - 1,) + shape[1:])
        self.table = _window_table(n, opts) if opts.filter_enabled else None
        self.lo, self.hi = n - 1, 2 * n - 1  # center c's mask is table[lo - c : hi - c]

    def step(self, p: np.ndarray, e: np.ndarray, out: np.ndarray):
        """One step from ``p`` with energies ``e`` into ``out`` (not ``p``;
        also the scratch row), by the plain expressions' ufuncs in their
        order.  The pre-content vector goes to the kernel's scratch row
        ``a``; returns the normalizer, one per column."""
        if self.table is not None:  # never batched
            c = p.argmax()
            mask = self.table[self.lo - c : self.hi - c]
        if self.stay is None:  # la: the energies, masked with the filter, are the alignment
            b = e if self.table is None else multiply(mask, e, out)
        else:
            if self.table is not None:
                p = multiply(p, mask, out)
            multiply(self.stay, p, self.a)
            add(self.a1, multiply(self.move1, p[:-1], self.head), self.a1)
            b = multiply(self.a, e, out)
        s = add.reduce(b, axis=0)
        low = s < 1e-300
        if low.any() if low.ndim else low:  # a scalar's .any() costs a microsecond
            raise FloatingPointError("alignment normalizer underflowed; inconsistent filter/energy combination")
        divide(b, s, out)
        return s

    def la_block(self, p: np.ndarray, e: np.ndarray, out: np.ndarray) -> bool:
        """Step T la rows after ``p`` into ``out``, bit for bit as ``step`` would, and
        return True; return False, for the caller to step the block row by row, for a
        kernel with weights, if a normalizer is below 1e-300 or, with the filter, if a
        row's argmax is not the centre that masked the next row."""
        if self.stay is not None:
            return False
        b = e
        if self.table is not None:  # walk the centres: each one the argmax of the masked row before it
            b, c, centres = out, p.argmax(), np.empty(len(e), dtype=np.intp)
            for i, (row, o) in enumerate(zip(e, out)):
                c = centres[i] = multiply(self.table[self.lo - c : self.hi - c], row, o).argmax()
        s = add.reduce(b, axis=1)
        if (s < 1e-300).any():
            return False
        divide(b, s[:, None], out)
        return self.table is None or bool((out.argmax(axis=1) == centres).all())


def _window_table(n: int, opts: StepOptions) -> np.ndarray:
    """The window of ``opts`` at offsets 1-n .. n-1 from its center, so
    that over n phonemes center c's mask is table[n-1-c : 2n-1-c]."""
    half = opts.window_width // 2
    offset = np.abs(np.arange(1 - n, n))
    taper = 1.0 if opts.window_shape == "rectangular" else 1.0 - offset / (half + 1)
    return np.where(offset <= half, taper, 0.0)


def window_mask(n: int, center: int, width: int, shape: str = StepOptions.window_shape) -> np.ndarray:
    """Multiplicative window of total width ``width`` centered at ``center``.

    Keeps indices in [center - width/2, center + width/2] (clipped);
    rectangular keeps them as-is, triangular applies a linear taper that
    peaks at the center and stays positive inside the window.  Rejects an
    unknown shape, a width that is odd or below 2, and a center outside
    [0, n).
    """
    opts = StepOptions(filter_enabled=True, window_width=width, window_shape=shape)  # checks the window
    if not 0 <= center < n:
        raise ValueError(f"window center {center} outside [0, {n})")
    return _window_table(n, opts)[n - 1 - center : 2 * n - 1 - center]


def dynamic_filter(
    p_prev: AlignmentDistribution | np.ndarray, width: int = StepOptions.window_width, shape: str = StepOptions.window_shape
) -> np.ndarray:
    """Zero the previous alignment outside a window around its argmax.

    Ties break toward the smallest index.  The result is intentionally
    not renormalized; normalization happens at the end of the step.
    """
    p = p_prev.p if isinstance(p_prev, AlignmentDistribution) else _floats("alignment", p_prev)
    if p.size == 0:
        raise ValueError("empty alignment vector: nothing to filter")
    return p * window_mask(p.size, int(np.argmax(p)), width, shape)


def _public_step(mechanism: str, p_prev: AlignmentDistribution | None, q: TransitionTokens | None, e_norm, opts: StepOptions):
    """The one validated step behind ``gdca_step``, ``fa_step`` and
    ``la_step``: options for the step's own ``mechanism``, finite
    energies, an alignment of their length (the kernel checks the
    tokens), and a checked distribution out.  Without ``p_prev`` (la's
    first step) the result is step 0."""
    if opts.mechanism != mechanism:
        raise ValueError(f"{mechanism}_step got opts for mechanism '{opts.mechanism}'")
    e = _finite_energy(e_norm)
    p = e if p_prev is None else p_prev.p  # la without the filter never reads p
    if p.size != e.size:
        raise ValueError("length mismatch between alignment and energies")
    out = np.empty(e.size)
    _Kernel(None if q is None else q.q, opts, e.shape).step(p, e, out)
    return AlignmentDistribution(p=out, step=0 if p_prev is None else p_prev.step + 1)


def gdca_step(
    p_prev: AlignmentDistribution,
    q: TransitionTokens,
    e_norm: np.ndarray,
    opts: StepOptions = StepOptions(),
) -> AlignmentDistribution:
    """One duration-controlled step: filter, recursion, content, normalize."""
    return _public_step("gdca", p_prev, q, e_norm, opts)


def fa_step(
    p_prev: AlignmentDistribution,
    e_norm: np.ndarray,
    opts: StepOptions = StepOptions(mechanism="fa"),
) -> AlignmentDistribution:
    """Token-free forward step: p(n-1) + p(n), content multiply, normalize."""
    return _public_step("fa", p_prev, None, e_norm, opts)


def la_step(
    e_norm: np.ndarray,
    p_prev: AlignmentDistribution | None = None,
    opts: StepOptions = StepOptions(mechanism="la"),
) -> AlignmentDistribution:
    """Content-only step; with the filter enabled, a window centered at
    the previous argmax masks the energies before renormalizing."""
    if p_prev is None:  # first step: no previous argmax to center a window on
        opts = replace(opts, filter_enabled=False)
    return _public_step("la", p_prev, None, e_norm, opts)


def context_vector(p: AlignmentDistribution | np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Alignment-weighted sum of key rows, for a finite alignment and finite keys."""
    pv = p.p if isinstance(p, AlignmentDistribution) else _floats("alignment", p)
    keys = _floats("keys", keys)
    if keys.shape[0] != pv.size:
        raise ValueError("alignment/key length mismatch")
    return pv @ keys


# ---------------------------------------------------------------------------
# Full lattice


@dataclass
class LatticeCache:
    """Intermediates from a gdca forward pass, for reverse mode; the energies are a copy."""

    q: np.ndarray
    energies: np.ndarray  # (T, N), normalized
    p_rows: np.ndarray  # (T+1, N)
    sums: np.ndarray  # (T,) normalizers
    convention: str


def lattice_forward(
    q: TransitionTokens | None,
    energies: np.ndarray,
    opts: StepOptions = StepOptions(),
    keep_cache: bool = False,
) -> AlignmentMatrix:
    """Run T steps of the selected mechanism over a T x N matrix of
    normalized energies (``normalize_energies`` of the raw ones).

    Row 0 of the result is the initial delta distribution; rows 1..T are
    the stepped alignments.  A cache for the backward pass is recorded
    only for the unfiltered gdca mechanism; it shares the result's rows
    and adds a copy of the energies: about 2 (T+1) N doubles in all.
    """
    energies = _finite_energy(energies)
    if energies.ndim != 2:
        raise ValueError("energies must be a (T, N) matrix")
    if keep_cache and (opts.mechanism != "gdca" or opts.filter_enabled):
        raise ValueError("backward cache requires unfiltered gdca")
    rows, sums = _forward(None if q is None else q.q, energies, opts)
    alignment = AlignmentMatrix(probs=rows)  # its finiteness mask is freed before the cache copies the energies
    if keep_cache:
        alignment.cache = LatticeCache(q.q.copy(), energies.copy(), rows, sums, opts.convention)
    return alignment


def _forward(q: np.ndarray | None, energies: np.ndarray, opts: StepOptions) -> tuple[np.ndarray, np.ndarray]:
    """The one forward loop: T steps from the one-hot row over (T, N)
    normalized energies with (N,) tokens, or, for the gradient check's B
    unfiltered sequences, over (T, N, B) phoneme-first columns with
    (N, B) tokens.  Returns the (T+1, ...) rows and the (T, ...)
    normalizers.  A column's normalizer sums it in sequence where a
    single run sums its row pairwise, so a column equals its own run bit
    for bit only for N < 8, and to rounding (about 1e-13 at N = 256) above."""
    t_steps, shape = len(energies), energies.shape[1:]
    rows = np.empty((t_steps + 1,) + shape)
    rows[0] = 0.0
    rows[0, 0] = 1.0
    kernel = _Kernel(q, opts, shape)
    steps = (kernel.step(p, e, out) for p, e, out in zip(rows, energies, rows[1:]))
    return rows, np.fromiter(steps, dtype=np.dtype((np.float64, shape[1:])), count=t_steps)


def lattice_backward(alignment: AlignmentMatrix, d_probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reverse-mode gradients (dLoss/dq, dLoss/dE) through a gdca run.

    ``d_probs`` holds a finite dLoss/dp for every row of the alignment
    matrix (row 0's entry is ignored: the initial distribution is
    constant).  Reverse steps keep only the recurrence, in buffers built
    once per call.  Per block of 128, ufuncs rebuild the pre-content rows
    a from ``p_rows``, make dE's rows (db until then) db * a and add the
    dq terms in step order by one ``add.reduce``: bit for bit a plain loop.
    """
    cache = alignment.cache
    if cache is None:
        raise ValueError("alignment has no backward cache; rerun with keep_cache=True")
    d_probs = _floats("upstream gradient d_probs", d_probs)
    if d_probs.shape != alignment.probs.shape:
        raise ValueError("upstream gradient shape mismatch")
    t_steps, n = cache.energies.shape
    move, stay = _shift_weights(cache.q, cache.convention)
    # prose: dq[n] gains da[n+1] * p_prev[n] (move) and loses da[n] * p_prev[n] (stay); eq3-literal negates both
    minus = slice(2, None, 2) if cache.convention == "prose" else slice(1, None, 2)  # the terms rows to negate
    dq, d_energies, g, carry, head = np.zeros(n), np.empty((t_steps, n)), np.empty(n), np.zeros(n), np.empty(n - 1)
    carry0, move1, blk = carry[:-1], move[1:], min(_BLOCK, t_steps)
    da_rows, a_rows, heads = np.empty((blk, n)), np.empty((blk, n)), np.empty((blk, n - 1))
    # dq, then each step's move and stay terms, last first; a zero last column stops numpy summing one column pairwise
    terms = np.zeros((2 * blk + 1, n))
    for hi in range(t_steps, 0, -_BLOCK):
        lo, k = max(hi - _BLOCK, 0), min(hi, _BLOCK)
        for t in range(hi - 1, lo - 1, -1):
            add(carry, d_probs[t + 1], g)
            db = d_energies[t]
            divide(subtract(g, np.dot(g, cache.p_rows[t + 1]), db), cache.sums[t], db)
            da = multiply(db, cache.energies[t], da_rows[t - lo])
            multiply(da, stay, carry)
            add(carry0, multiply(da[1:], move1, head), carry0)
        p, a, rows = cache.p_rows[lo:hi], a_rows[:k], terms[: 2 * k + 1]
        multiply(stay, p, a)  # the forward kernel's pre-content rows
        add(a[:, 1:], multiply(move1, p[:, :-1], heads[:k]), a[:, 1:])
        multiply(d_energies[lo:hi], a, d_energies[lo:hi])
        p_prev, da = p[::-1, :-1], da_rows[k - 1 :: -1]  # last step first
        rows[0] = dq
        multiply(da[:, 1:], p_prev, rows[1::2, :-1])
        multiply(da[:, :-1], p_prev, rows[2::2, :-1])
        negative(rows[minus, :-1], rows[minus, :-1])
        add.reduce(rows, axis=0, out=dq)
    return dq, d_energies


def pure_lattice_occupancy(q: TransitionTokens | np.ndarray, horizon: int) -> np.ndarray:
    """Expected per-phoneme occupancy of the bare move/stay chain.

    Runs the recursion with no content term and with mass exiting past
    the final phoneme, summing the per-step probabilities.  Occupancy of
    phoneme n converges to the geometric dwell 1/q_n as the horizon
    passes the point of numerical absorption.
    """
    qv = q.q if isinstance(q, TransitionTokens) else TransitionTokens(q=q).q
    horizon = _checked("horizon", horizon, int, least=0)
    p = init_alignment(qv.size).p
    occupancy = np.zeros(qv.size)
    for _ in range(horizon):
        occupancy += p
        nxt = (1.0 - qv) * p
        nxt[1:] += qv[:-1] * p[:-1]
        p = nxt
    return occupancy


# ---------------------------------------------------------------------------
# Exports


def _texts(texts: list[str]) -> np.ndarray:
    """(len(texts), width) uint8: the ASCII texts right-aligned in zero bytes."""
    width = max(map(len, texts))
    raw = "".join(text.rjust(width, "\0") for text in texts).encode("ascii")
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(texts), width)


def _csv_chunks(alignment: AlignmentMatrix) -> Iterator[bytes]:
    """The bytes of ``alignment_to_csv``: the header, then one chunk per
    128-row block, so a caller can write the CSV without holding it."""
    yield b"t,n,p\n"
    cols = _texts([f"{j}," for j in range(alignment.n_phonemes)])
    zero = repr_columns(np.zeros(1))
    for t0 in range(0, alignment.n_steps, _BLOCK):
        yield _csv_block(alignment.probs[t0 : t0 + _BLOCK], t0, cols, zero)


def _csv_block(block: np.ndarray, t0: int, cols: np.ndarray, zero: np.ndarray) -> bytes:
    """The lines of rows t0, t0 + 1, ... (a function, so that its arrays
    are freed before the next block is formatted)."""
    mask = (block != 0.0) | np.signbit(block)  # every cell but +0.0
    rows = _texts([f"{t}," for t in range(t0, t0 + len(block))])
    # the text of each written cell, after the 0.0 that the others share
    texts = np.ascontiguousarray(np.concatenate([zero, repr_columns(block[mask])], axis=1).T)
    which = np.cumsum(mask).reshape(mask.shape) * mask
    lines = np.concatenate([
        np.broadcast_to(rows[:, None], block.shape + rows.shape[1:]),
        np.broadcast_to(cols, block.shape + cols.shape[1:]),
        texts[which],
        np.full(block.shape + (1,), ord("\n"), dtype=np.uint8),
    ], axis=2)
    return lines.tobytes().translate(None, b"\0")


def alignment_to_csv(alignment: AlignmentMatrix) -> str:
    """CSV export: a ``t,n,p`` header, then one ``t,n,p`` line per lattice
    cell in row-major order (step t, then phoneme n).  Each probability
    is written as ``repr(float)``, the shortest text that reads back to
    the same double; an exact ``+0.0`` is written as ``0.0`` (and
    ``-0.0`` as ``-0.0``).  The lines are built by array operations 128
    rows at a time, in fixed columns whose zero-byte padding is then
    dropped by one ``bytes.translate`` per block; ``_shortest`` finds
    the digits of every cell but +0.0, so the cost follows the size of
    the alignment, not its values.  The CLI writes the blocks of
    ``_csv_chunks`` straight to disk, so what it holds besides the
    alignment is one block."""
    return b"".join(_csv_chunks(alignment)).decode("ascii")


def alignment_to_pgm(alignment: AlignmentMatrix) -> bytes:
    """Binary PGM (P5): one image row per decoder step, one column per
    phoneme, pixel value round(255 * p)."""
    t, n = alignment.probs.shape
    pixels = np.clip(np.rint(alignment.probs * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{n} {t}\n255\n".encode("ascii")
    return header + pixels.tobytes()
