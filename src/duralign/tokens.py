"""Per-phoneme transition tokens: move probabilities derived from durations.

The token q_n is the probability of advancing past phoneme n at each
decoder step.  Two sources are provided: a closed-form oracle (geometric
dwell, q = 1/d) and a small trainable encoder mapping duration features
to (0, 1) with hand-rolled analytic gradients.  The encoder's
parameters go to text and back in one fixed layout: ``params_from_text``
reads what ``params_to_text`` writes and rejects anything else by name.

The module also owns the package's private input checks, so each rule
is written once: ``_checked`` for settings fields and scalar arguments,
``_floats`` for arrays and ``_durations`` for frame targets.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .score import PhonemeSequence

__all__ = [
    "Q_MIN_DEFAULT",
    "TransitionTokens",
    "DurationFeatures",
    "DurationEncoderParams",
    "TrainConfig",
    "TrainingDiverged",
    "oracle_tokens",
    "duration_features",
    "encoder_forward",
    "encoder_backward",
    "train_encoder",
    "tokens_to_csv",
    "params_to_text",
    "params_from_text",
]

Q_MIN_DEFAULT = 1e-4

# Fixed feature scaling applied inside the encoder so raw BPM values do
# not saturate the hidden tanh layer.
_FEATURE_SCALE = np.array([1.0, 0.01, 0.25])


@dataclass(frozen=True)
class TransitionTokens:
    q: np.ndarray  # shape (N,); each element in (0, 1]

    def __post_init__(self):
        q = _floats("transition token", self.q)
        object.__setattr__(self, "q", q)
        if q.ndim != 1 or q.size == 0:
            raise ValueError(f"q must be one non-empty (N,) vector; got shape {q.shape}")
        if not np.all((q > 0) & (q <= 1)):
            raise ValueError("transition tokens must lie in (0, 1]")

    def __len__(self) -> int:
        return self.q.size


@dataclass(frozen=True)
class DurationFeatures:
    """Per-phoneme rows: (duration_s, tempo_bpm, log target frames)."""

    rows: np.ndarray  # shape (N, 3)

    def __post_init__(self):
        rows = _floats("feature value", self.rows)
        object.__setattr__(self, "rows", rows)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ValueError("features must be an (N, 3) array")
        if np.any(rows[:, 0] <= 0):
            raise ValueError("non-positive duration_s")


# What a settings field of each type takes: numpy's scalars too, and a
# bool only where a bool is asked for.
_FIELD_TYPES = {
    int: ("an integer", (int, np.integer)),
    float: ("a real number", (int, float, np.integer, np.floating)),
    bool: ("a bool", (bool, np.bool_)),
}


def _is_a(value, kind: type) -> bool:
    return isinstance(value, _FIELD_TYPES[kind][1]) and (kind is bool or not isinstance(value, bool))


def _checked(name: str, value, kind: type, least=None):
    """The one checker of settings fields and scalar arguments: ``value``
    as a ``kind``, or a ValueError naming ``name`` if it is not a ``kind``
    by ``_FIELD_TYPES``, is a non-finite float or is below ``least``."""
    if not _is_a(value, kind):
        raise ValueError(f"{name} must be {_FIELD_TYPES[kind][0]}; got {value}")
    try:
        value = kind(value)
    except OverflowError:  # float() of an int beyond the largest double
        value = math.inf
    if kind is float and not math.isfinite(value):
        raise ValueError(f"non-finite {name}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")
    return value


def _typed_fields(settings, kind: type, *names: str, least=None):
    """Check each named field of a frozen settings dataclass with ``_checked`` and store what it returns."""
    for name in names:
        object.__setattr__(settings, name, _checked(name, getattr(settings, name), kind, least))


def _floats(name: str, x) -> np.ndarray:
    """The one converter of array arguments: ``x`` as float64, or a
    ValueError ``non-finite <name>`` if it holds a NaN, an infinity or an
    int beyond the largest double.  Its transient bool mask is freed
    before the caller allocates, so it adds nothing to a peak."""
    try:
        a = np.asarray(x, dtype=np.float64)
    except OverflowError:  # an int beyond the largest double: as in ``_checked``, an infinity
        a = np.array(np.inf)
    if not np.isfinite(a).all():
        raise ValueError(f"non-finite {name}")
    return a


def _durations(seq: PhonemeSequence | np.ndarray) -> np.ndarray:
    """The one frame-target rule: the targets of a phoneme sequence, or
    an array of them, as a non-empty, finite, positive float64 vector."""
    d = _floats("durations", seq.target_frames if isinstance(seq, PhonemeSequence) else seq)
    if d.size == 0:
        raise ValueError("empty durations: need at least one phoneme")
    if d.ndim != 1:
        raise ValueError(f"durations must be one (N,) vector; got shape {d.shape}")
    if np.any(d <= 0):
        raise ValueError("non-positive durations")
    return d


def oracle_tokens(seq: PhonemeSequence | np.ndarray, q_min: float = Q_MIN_DEFAULT) -> TransitionTokens:
    """Closed-form tokens: q_n = clamp(1/d_n, q_min, 1).

    Under a per-step Bernoulli(q) move, dwell time is geometric with
    mean 1/q, so this matches the frame target d_n exactly; larger
    durations give smaller tokens.
    """
    try:
        ok = _checked("q_min", q_min, float) <= 1.0
    except ValueError:  # not a real number, or not finite
        ok = False
    if not ok:
        raise ValueError(f"q_min must be finite and <= 1; got {q_min}")
    d = _durations(seq)
    if np.any(d < 1):
        raise ValueError("frame targets must be >= 1")
    return TransitionTokens(q=np.clip(1.0 / d, q_min, 1.0))


def duration_features(seq: PhonemeSequence) -> DurationFeatures:
    """Build encoder features from a phoneme sequence, each phoneme at the
    tempo ``expand_to_phonemes`` gave it; an event without one is rejected."""
    rows = np.empty((len(seq), 3))
    for i, ev in enumerate(seq.events):
        if ev.tempo_bpm is None:
            raise ValueError(f"phoneme {i} ('{ev.phoneme}') has no tempo_bpm")
        rows[i] = (ev.duration_s, ev.tempo_bpm, np.log(ev.target_frames))
    return DurationFeatures(rows=rows)


# ---------------------------------------------------------------------------
# Trainable encoder: y = sigmoid(w2 . tanh(W1 x + b1) + b2), per row.


@dataclass
class DurationEncoderParams:
    w1: np.ndarray  # (hidden, 3)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden,)
    b2: float

    @property
    def hidden(self) -> int:
        return self.b1.size

    @classmethod
    def init(cls, seed: int, hidden: int = 16, scale: float = 0.5) -> "DurationEncoderParams":
        rng = np.random.default_rng(seed)
        return cls(
            w1=rng.normal(0.0, scale, size=(hidden, 3)),
            b1=rng.normal(0.0, scale, size=hidden),
            w2=rng.normal(0.0, scale, size=hidden),
            b2=float(rng.normal(0.0, scale)),
        )

    def check_finite(self):
        for value in (self.w1, self.b1, self.w2, self.b2):
            _floats("encoder parameter", value)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below, neither of which overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _forward_parts(params: DurationEncoderParams, rows: np.ndarray):
    x = rows * _FEATURE_SCALE
    h = np.tanh(x @ params.w1.T + params.b1)  # (N, hidden)
    y = _sigmoid(h @ params.w2 + params.b2)  # (N,)
    return x, h, y


def _check_encoder(params: DurationEncoderParams, feats: DurationFeatures):
    params.check_finite()
    if params.w1.shape != (params.hidden, feats.rows.shape[1]):
        raise ValueError("parameter/feature dimension mismatch")


def encoder_forward(params: DurationEncoderParams, feats: DurationFeatures) -> TransitionTokens:
    """Map duration features to tokens, elementwise per phoneme row."""
    _check_encoder(params, feats)
    _, _, y = _forward_parts(params, feats.rows)
    # Keep strictly inside (0, 1) even under extreme saturation.
    tiny = np.finfo(np.float64).tiny
    below_one = np.nextafter(1.0, 0.0)
    return TransitionTokens(q=np.clip(y, tiny, below_one))


def encoder_backward(
    params: DurationEncoderParams, feats: DurationFeatures, upstream_grad: np.ndarray
) -> DurationEncoderParams:
    """Analytic gradients of sum(upstream_grad * q) w.r.t. all parameters,
    as a ``DurationEncoderParams``, for finite parameters and a finite
    upstream gradient."""
    _check_encoder(params, feats)
    upstream = _floats("upstream gradient", upstream_grad)
    if upstream.shape != (feats.rows.shape[0],):
        raise ValueError("upstream gradient shape mismatch")
    return _encoder_grads(params, *_forward_parts(params, feats.rows), upstream)


def _encoder_grads(
    params: DurationEncoderParams, x: np.ndarray, h: np.ndarray, y: np.ndarray, upstream: np.ndarray
) -> DurationEncoderParams:
    """The reverse pass of ``encoder_backward`` from its forward parts."""
    dy = upstream * y * (1.0 - y)  # (N,)
    db2 = float(dy.sum())
    dw2 = h.T @ dy
    dpre = dy[:, None] * params.w2 * (1.0 - h * h)
    dw1 = dpre.T @ x
    db1 = dpre.sum(axis=0)
    return DurationEncoderParams(w1=dw1, b1=db1, w2=dw2, b2=db2)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 2.0
    epochs: int = 800
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        _typed_fields(self, int, "epochs", "batch_size", least=1)
        _typed_fields(self, int, "seed", least=0)
        _typed_fields(self, float, "learning_rate", least=0)


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch


def train_encoder(
    feats: DurationFeatures, targets: TransitionTokens, cfg: TrainConfig
) -> tuple[DurationEncoderParams, list[float]]:
    """Minibatch SGD on squared error against target tokens, from
    ``DurationEncoderParams.init(cfg.seed, scale=0.2)`` (hidden size 16).

    Deterministic given cfg.seed; returns the trained parameters and the
    per-epoch mean loss (computed on pre-update batches).
    """
    n = feats.rows.shape[0]
    if n == 0:
        raise ValueError("empty dataset")
    target = targets.q
    if target.shape != (n,):
        raise ValueError("target/feature length mismatch")
    params = DurationEncoderParams.init(cfg.seed, scale=0.2)
    rng = np.random.default_rng(cfg.seed)
    lr = cfg.learning_rate
    # the sums np.mean takes, without its wrappers: a batch's mean square, then the epoch's mean of those
    batch_losses = np.empty(-(-n // cfg.batch_size))
    history: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for b, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            x, h, y = _forward_parts(params, feats.rows[idx])
            err = y - target[idx]
            batch_losses[b] = loss = np.add.reduce(err * err) / idx.size
            if not math.isfinite(loss):
                raise TrainingDiverged(epoch)
            grads = _encoder_grads(params, x, h, y, 2.0 * err / idx.size)
            params.w1 -= lr * grads.w1
            params.b1 -= lr * grads.b1
            params.w2 -= lr * grads.w2
            params.b2 -= lr * grads.b2
        history.append(float(np.add.reduce(batch_losses) / batch_losses.size))
    return params, history


# ---------------------------------------------------------------------------
# Serialization


def tokens_to_csv(seq: PhonemeSequence, tokens: TransitionTokens) -> str:
    """CSV export: index,phoneme,d_frames,q."""
    if tokens.q.shape != (len(seq),):
        raise ValueError("sequence/token length mismatch")
    out = io.StringIO()
    out.write("index,phoneme,d_frames,q\n")
    for i, ev in enumerate(seq.events):
        out.write(f"{i},{ev.phoneme},{ev.target_frames},{float(tokens.q[i])!r}\n")
    return out.getvalue()


_ARRAYS = ("w1", "b1", "w2", "b2")  # a parameter file's arrays, in file order


def params_to_text(params: DurationEncoderParams) -> str:
    """Flat text: ``hidden H``, then each array of ``_ARRAYS`` as a
    ``name rows cols`` header and its rows (vectors and ``b2`` as one
    row), every entry as ``repr(float)``, which reads back exactly."""
    lines = [f"hidden {params.hidden}"]
    for name in _ARRAYS:
        arr = np.atleast_2d(getattr(params, name))
        lines.append(f"{name} {arr.shape[0]} {arr.shape[1]}")
        lines.extend(" ".join(repr(float(v)) for v in row) for row in arr)
    return "\n".join(lines) + "\n"


def _value(text: str, name: str) -> float:
    """One entry of array ``name`` in a parameter file."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"bad value '{text}' in '{name}'") from None


def _misplaced(line: str, want: str, head: str, seen) -> str:
    """What is wrong with the array header ``line`` where ``want`` belongs."""
    name = line.split()[0]
    if name == want.split()[0]:
        return f"expected '{want}' under '{head}', got '{line}'"
    if name in seen:
        return f"repeated array '{name}'"
    return f"array '{name}' out of order" if name in _ARRAYS else f"unknown array '{name}'"


def params_from_text(text: str) -> DurationEncoderParams:
    """Read the layout ``params_to_text`` writes, and only that: ``hidden
    H``, then ``w1 H 3``, ``b1 1 H``, ``w2 1 H`` and ``b2 1 1``, each
    header line followed by its rows, in that order and nothing after
    (blank lines are skipped).  Any other array header is rejected by
    the name of its array, and any text after ``b2`` is rejected."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0] if lines else ""
    size = head.split()
    if len(size) != 2 or size[0] != "hidden" or not size[1].isdecimal() or int(size[1]) == 0:
        raise ValueError(f"bad hidden header: '{head}'")
    h, pos, arrays = int(size[1]), 1, {}
    for name, (rows, cols) in zip(_ARRAYS, ((h, 3), (1, h), (1, h), (1, 1))):
        if pos == len(lines):
            raise ValueError(f"bad parameter file: missing '{name}'")
        want = f"{name} {rows} {cols}"
        if lines[pos].split() != want.split():
            raise ValueError(f"bad parameter file: {_misplaced(lines[pos], want, head, arrays)}")
        if pos + rows >= len(lines):
            raise ValueError(f"truncated array '{name}'")
        data = [[_value(v, name) for v in ln.split()] for ln in lines[pos + 1 : pos + 1 + rows]]
        if any(len(row) != cols for row in data):
            raise ValueError(f"bad row length in '{name}'")
        arrays[name] = np.array(data)
        pos += 1 + rows
    if pos < len(lines):
        raise ValueError(f"bad parameter file: text after 'b2': '{lines[pos]}'")
    return DurationEncoderParams(w1=arrays["w1"], b1=arrays["b1"][0], w2=arrays["w2"][0], b2=float(arrays["b2"][0, 0]))
