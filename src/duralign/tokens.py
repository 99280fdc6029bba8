"""Per-phoneme transition tokens: move probabilities derived from durations.

The token q_n is the probability of advancing past phoneme n at each
decoder step.  Two sources are provided: a closed-form oracle (geometric
dwell, q = 1/d) and a small trainable encoder mapping duration features
to (0, 1) with hand-rolled analytic gradients.

The module also owns the package's two private input checks, so each
rule is written once: ``_checked`` for settings fields and scalar
arguments, ``_finite`` for arrays.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .score import PhonemeSequence, Score

__all__ = [
    "Q_MIN_DEFAULT",
    "TransitionTokens",
    "DurationFeatures",
    "DurationEncoderParams",
    "EncoderGrads",
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
        q = np.asarray(self.q, dtype=np.float64)
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
        rows = np.asarray(self.rows, dtype=np.float64)
        object.__setattr__(self, "rows", rows)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ValueError("features must be an (N, 3) array")
        _finite("feature value", rows)
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


def _finite(name: str, *arrays) -> None:
    """Raise ``non-finite <name>`` if any array holds a NaN or an infinity,
    by its min and max (a NaN reaches both), so that no mask is built."""
    for a in arrays:
        a = np.asarray(a)
        if a.size and not (math.isfinite(a.min()) and math.isfinite(a.max())):
            raise ValueError(f"non-finite {name}")


def _durations(seq: PhonemeSequence | np.ndarray) -> np.ndarray:
    """The frame targets of a phoneme sequence, or an array of them, as float64."""
    if isinstance(seq, PhonemeSequence):
        return np.array(seq.target_frames, dtype=np.float64)
    return np.asarray(seq, dtype=np.float64)


def oracle_tokens(seq: PhonemeSequence | np.ndarray, q_min: float = Q_MIN_DEFAULT) -> TransitionTokens:
    """Closed-form tokens: q_n = clamp(1/d_n, q_min, 1).

    Under a per-step Bernoulli(q) move, dwell time is geometric with
    mean 1/q, so this matches the frame target d_n exactly; larger
    durations give smaller tokens.
    """
    if not (_is_a(q_min, float) and math.isfinite(q_min) and q_min <= 1.0):
        raise ValueError(f"q_min must be finite and <= 1; got {q_min}")
    d = _durations(seq)
    _finite("frame target", d)
    if np.any(d < 1):
        raise ValueError("frame targets must be >= 1")
    return TransitionTokens(q=np.clip(1.0 / d, q_min, 1.0))


def duration_features(seq: PhonemeSequence, score: Score) -> DurationFeatures:
    """Build encoder features from a phoneme sequence and the score it expands."""
    rows = np.empty((len(seq), 3))
    for i, ev in enumerate(seq.events):
        bpm = score.notes[ev.note_index].effective_tempo(score.default_tempo_bpm)
        rows[i] = (ev.duration_s, bpm, np.log(ev.target_frames))
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
    def zeros(cls, hidden: int = 16) -> "DurationEncoderParams":
        return cls(np.zeros((hidden, 3)), np.zeros(hidden), np.zeros(hidden), 0.0)

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
        _finite("encoder parameter", self.w1, self.b1, self.w2, self.b2)


@dataclass
class EncoderGrads:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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
) -> EncoderGrads:
    """Analytic gradients of sum(upstream_grad * q) w.r.t. all parameters,
    for finite parameters and a finite upstream gradient."""
    _check_encoder(params, feats)
    upstream = np.asarray(upstream_grad, dtype=np.float64)
    if upstream.shape != (feats.rows.shape[0],):
        raise ValueError("upstream gradient shape mismatch")
    _finite("upstream gradient", upstream)
    return _encoder_grads(params, *_forward_parts(params, feats.rows), upstream)


def _encoder_grads(
    params: DurationEncoderParams, x: np.ndarray, h: np.ndarray, y: np.ndarray, upstream: np.ndarray
) -> EncoderGrads:
    """The reverse pass of ``encoder_backward`` from its forward parts."""
    dy = upstream * y * (1.0 - y)  # (N,)
    db2 = float(dy.sum())
    dw2 = h.T @ dy
    dh = np.outer(dy, params.w2)
    dpre = dh * (1.0 - h * h)
    dw1 = dpre.T @ x
    db1 = dpre.sum(axis=0)
    return EncoderGrads(w1=dw1, b1=db1, w2=dw2, b2=db2)


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
    history: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            x, h, y = _forward_parts(params, feats.rows[idx])
            err = y - target[idx]
            loss = float(np.mean(err * err))
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch)
            batch_losses.append(loss)
            grads = _encoder_grads(params, x, h, y, 2.0 * err / idx.size)
            lr = cfg.learning_rate
            params.w1 -= lr * grads.w1
            params.b1 -= lr * grads.b1
            params.w2 -= lr * grads.w2
            params.b2 -= lr * grads.b2
        history.append(float(np.mean(batch_losses)))
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


def params_to_text(params: DurationEncoderParams) -> str:
    """Flat key-value text format with declared shapes."""
    lines = [f"hidden {params.hidden}"]

    def emit(name: str, arr: np.ndarray):
        arr = np.atleast_2d(arr)
        lines.append(f"{name} {arr.shape[0]} {arr.shape[1]}")
        for row in arr:
            lines.append(" ".join(repr(float(v)) for v in row))

    emit("w1", params.w1)
    emit("b1", params.b1)
    emit("w2", params.w2)
    lines.append("b2 1 1")
    lines.append(repr(float(params.b2)))
    return "\n".join(lines) + "\n"


def params_from_text(text: str) -> DurationEncoderParams:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("hidden "):
        raise ValueError("bad parameter file: missing hidden header")
    pos = 1
    arrays: dict[str, np.ndarray] = {}
    while pos < len(lines):
        header = lines[pos].split()
        if len(header) != 3:
            raise ValueError(f"bad array header: '{lines[pos]}'")
        name, rows, cols = header[0], int(header[1]), int(header[2])
        if pos + rows >= len(lines):
            raise ValueError(f"truncated array '{name}'")
        data = []
        for r in range(rows):
            data.append([float(v) for v in lines[pos + 1 + r].split()])
            if len(data[-1]) != cols:
                raise ValueError(f"bad row length in '{name}'")
        arrays[name] = np.array(data)
        pos += 1 + rows
    try:
        return DurationEncoderParams(
            w1=arrays["w1"],
            b1=arrays["b1"].ravel(),
            w2=arrays["w2"].ravel(),
            b2=float(arrays["b2"][0, 0]),
        )
    except KeyError as exc:
        raise ValueError(f"bad parameter file: missing {exc}") from exc
