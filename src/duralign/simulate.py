"""Decoding simulator: synthetic energies, stepping loop, stop criterion.

The trained content pathway is replaced by synthetic energy generators
so alignment behavior can be studied in isolation: a duration-aligned
diagonal, a noisy diagonal, an adversarial variant with off-diagonal
spikes, and a seeded query-feedback generator that exercises the
additive scoring path end to end.

The noise of step t is ``np.random.default_rng([seed, t]).normal(0,
noise_sigma, N)``, bit for bit.  The generators of a block of steps are
seeded by one array hash of the block's (seed, t) pairs (``_seeds``)
rather than by one ``SeedSequence`` per step.  The six runs of a
comparison share its one energy source (``_SHARED``), whose blocks are
each built once and kept read-only.
"""

from __future__ import annotations

import contextvars
import json
from dataclasses import dataclass

import numpy as np

from .attention import (
    AlignmentDistribution,
    AlignmentMatrix,
    EnergyParams,
    StepOptions,
    _BLOCK,
    _content,
    _Kernel,
    _softmax,
    _underflow,
    _unchecked,
    normalize_energies,
)
from ._seeds import step_generators
from .score import PhonemeSequence
from .tokens import TransitionTokens, _checked, _durations, _is_a, _typed_fields

__all__ = [
    "ENERGY_MODES",
    "SynthEnergySpec",
    "SimConfig",
    "SimResult",
    "QueryGenerator",
    "phoneme_at_frame",
    "synth_energies",
    "run_simulation",
    "realized_durations",
]

ENERGY_MODES = ("oracle_diagonal", "noisy_diagonal", "adversarial_spike", "from_query_generator")


def _spike_schedule(schedule) -> tuple[tuple[int, int], ...]:
    """The (step, phoneme) pairs as ints, each checked to be two integers
    (numpy's too, not bools) with step >= 0; the phoneme's range is
    checked by ``_SynthRows``, which knows N."""
    pairs = []
    for pair in schedule:
        step, phoneme = pair if len(pair) == 2 else (None, None)
        if not (_is_a(step, int) and _is_a(phoneme, int)) or step < 0:
            raise ValueError(f"spike_schedule entries must be integer (step >= 0, phoneme) pairs; got {pair}")
        pairs.append((int(step), int(phoneme)))
    return tuple(pairs)


@dataclass(frozen=True)
class SynthEnergySpec:
    mode: str = "oracle_diagonal"
    noise_sigma: float = 0.0
    spike_magnitude: float = 8.0
    spike_schedule: tuple[tuple[int, int], ...] = ()  # (step, phoneme) pairs
    sharpness: float = 2.0

    def __post_init__(self):
        if self.mode not in ENERGY_MODES:
            raise ValueError(f"unknown energy mode '{self.mode}'")
        _typed_fields(self, float, "noise_sigma", least=0)
        _typed_fields(self, float, "spike_magnitude", "sharpness")
        if self.sharpness <= 0:
            raise ValueError("sharpness must be positive")
        object.__setattr__(self, "spike_schedule", _spike_schedule(self.spike_schedule))


@dataclass(frozen=True)
class SimConfig:
    opts: StepOptions = StepOptions()
    energy: SynthEnergySpec = SynthEnergySpec()
    seed: int = 0
    max_steps: int = 10000
    fixed_steps: int | None = None  # run exactly this many steps instead of the stop rule
    stop_patience: int = 3  # consecutive steps with argmax parked at the last phoneme

    def __post_init__(self):
        _typed_fields(self, int, "seed", least=0)
        _typed_fields(self, int, "max_steps", "stop_patience", least=1)
        if self.fixed_steps is not None:
            _typed_fields(self, int, "fixed_steps", least=1)


@dataclass
class SimResult:
    alignment: AlignmentMatrix  # stepped rows only, one per decoder step
    realized_frames: np.ndarray
    stop_step: int
    stopped_by: str  # "parked" | "fixed" | "max_steps"
    monotone: bool
    config: SimConfig

    def to_json_dict(self) -> dict:
        cfg = self.config
        return {
            "mechanism": cfg.opts.mechanism,
            "filter_enabled": cfg.opts.filter_enabled,
            "window_width": cfg.opts.window_width,
            "window_shape": cfg.opts.window_shape,
            "convention": cfg.opts.convention,
            "energy_mode": cfg.energy.mode,
            "noise_sigma": cfg.energy.noise_sigma,
            "sharpness": cfg.energy.sharpness,
            "spike_magnitude": cfg.energy.spike_magnitude,
            "spike_schedule": [list(pair) for pair in cfg.energy.spike_schedule],
            "seed": cfg.seed,
            "max_steps": cfg.max_steps,
            "fixed_steps": cfg.fixed_steps,
            "stop_patience": cfg.stop_patience,
            "stop_step": self.stop_step,
            "stopped_by": self.stopped_by,
            "monotone": self.monotone,
            "realized_frames": [int(v) for v in self.realized_frames],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def phoneme_at_frame(d: np.ndarray, t: int) -> int:
    """Index of the phoneme whose cumulative frame interval contains
    frame t >= 0; frames past the end belong to the last phoneme."""
    t = _checked("t", t, int, least=0)
    d = _durations(d)
    bounds = np.cumsum(d)
    idx = int(np.searchsorted(bounds, t, side="right"))
    return min(idx, d.size - 1)


class _SynthRows:
    """Energy rows of a precomputable mode for one run.  The frame
    bounds and the step-sorted spike schedule are built, and the spike
    phonemes range-checked, once; rows are then built in blocks."""

    def __init__(self, d: np.ndarray, spec: SynthEnergySpec, seed: int):
        if spec.mode == "from_query_generator":
            raise ValueError("query-generator energies are stateful; use QueryGenerator")
        self.bounds = np.cumsum(d)
        self.spec, self.seed = spec, seed
        self.noisy = spec.mode != "oracle_diagonal" and spec.noise_sigma > 0
        schedule = spec.spike_schedule if spec.mode == "adversarial_spike" else ()
        steps, phonemes = np.array(schedule, dtype=np.int64).reshape(-1, 2).T
        bad = (phonemes < 0) | (phonemes >= self.bounds.size)
        if bad.any():
            raise ValueError(f"spike schedule references phoneme {phonemes[bad][0]} out of range")
        order = np.argsort(steps, kind="stable")  # keeps schedule order within a step
        self.spike_steps, self.spike_phonemes = steps[order], phonemes[order]
        self.kept: dict[tuple[int, int], np.ndarray] = {}  # blocks kept by _KeptRows

    def rows(self, t0: int, t1: int) -> np.ndarray:
        """Normalized energy rows for decoder steps t0 .. t1-1."""
        n = self.bounds.size
        target = np.minimum(np.searchsorted(self.bounds, np.arange(t0, t1), side="right"), n - 1)
        raw = -self.spec.sharpness * np.abs(np.arange(n) - target[:, None]).astype(np.float64)
        if self.noisy:
            for i, rng in enumerate(step_generators(self.seed, t0, t1)):
                raw[i] += rng.normal(0.0, self.spec.noise_sigma, n)
        lo, hi = np.searchsorted(self.spike_steps, [t0, t1])
        np.add.at(raw, (self.spike_steps[lo:hi] - t0, self.spike_phonemes[lo:hi]), self.spec.spike_magnitude)
        return normalize_energies(raw)


class _KeptRows(_SynthRows):
    """A sharing scope's rows: each block is built once and kept read-only."""

    def rows(self, t0: int, t1: int) -> np.ndarray:
        if (t0, t1) not in self.kept:
            self.kept[t0, t1] = super().rows(t0, t1)
            self.kept[t0, t1].flags.writeable = False
        return self.kept[t0, t1]


# compare_mechanisms sets its one _KeptRows here around its six runs (None for the
# query generator).  A batched six-way driver replaces this scope once the harness
# stops timing each run.
_SHARED = contextvars.ContextVar("duralign_shared_energies", default=None)


def synth_energies(
    d: np.ndarray, spec: SynthEnergySpec, seed: int, t: int
) -> np.ndarray:
    """Normalized synthetic energy row for decoder step t.

    Deterministic given (seed, t).  Only the precomputable modes are
    handled here; the query-feedback mode lives in QueryGenerator
    because it carries state.
    """
    seed, t = _checked("seed", seed, int, least=0), _checked("t", t, int, least=0)
    return _SynthRows(_durations(d), spec, seed).rows(t, t + 1)[0]


class QueryGenerator:
    """Seeded linear-recurrence query source feeding the scoring path.

    m_t = tanh(A m_{t-1} + B c_{t-1}) with fixed seeded weights; the
    context c_{t-1} closes the loop with the previous alignment.
    """

    def __init__(self, n_phonemes: int, seed: int):
        n_phonemes = _checked("n_phonemes", n_phonemes, int, least=1)
        seed = _checked("seed", seed, int, least=0)
        self.params = EnergyParams.init(seed)  # 8-dimensional queries, keys and scores
        dim = self.params.W.shape[1]
        rng = np.random.default_rng([seed, 0xC0FFEE])
        self.keys = rng.normal(0.0, 1.0, (n_phonemes, dim))
        self.A = rng.normal(0.0, 0.4, (dim, dim))
        self.B = rng.normal(0.0, 0.4, (dim, dim))
        self.m = rng.normal(0.0, 1.0, dim)
        self._projected_keys = self.keys @ self.params.V.T

    def energies(self, p_prev: AlignmentDistribution | np.ndarray) -> np.ndarray:
        p = p_prev.p if isinstance(p_prev, AlignmentDistribution) else p_prev
        try:
            c = p @ self.keys  # context_vector's product, without its checks in the step loop
        except ValueError as err:  # matmul's core-dimension mismatch: no length check on every step
            raise ValueError("alignment/key length mismatch") from err
        self.m = np.tanh(self.A @ self.m + self.B @ c)
        return _softmax(_content(self.params, self.m, self._projected_keys))


def run_simulation(
    seq: PhonemeSequence | np.ndarray,
    tokens: TransitionTokens | None,
    cfg: SimConfig,
) -> SimResult:
    """Step the selected mechanism until the stop rule fires.

    Stops when the argmax has sat on the final phoneme for
    ``stop_patience`` consecutive steps (or after ``fixed_steps``).
    Hitting ``max_steps`` first flags the result instead of raising.
    """
    d = _durations(seq)
    n = d.size
    kernel = _Kernel(None if tokens is None else tokens.q, cfg.opts, (n,))
    stop_rule = cfg.fixed_steps is None
    limit = cfg.max_steps if stop_rule else cfg.fixed_steps
    qgen = QueryGenerator(n, cfg.seed) if cfg.energy.mode == "from_query_generator" else None
    synth = (_SHARED.get() or _SynthRows(d, cfg.energy, cfg.seed)) if qgen is None else None

    blocks, parked = [np.eye(1, n)], 0  # the one-hot row before step 0, then each block's stepped rows
    stopped_by = "max_steps" if stop_rule else "fixed"
    for t0 in range(0, limit, _BLOCK):  # a block of rows at a time, stepped whole from the row before it
        rows = np.empty((min(_BLOCK, limit - t0) + 1, n))
        rows[0] = blocks[-1][-1]
        energies = synth.rows(t0, t0 + len(rows) - 1) if qgen is None else map(qgen.energies, rows[:-1])
        stepped = kernel.run(rows, energies)[1]
        blocks.append(rows[1 : stepped + 1])
        if stop_rule:  # the stepped rows off the last phoneme, after the block's parked start and before its end
            off = np.concatenate([[-1 - parked], np.flatnonzero(blocks[-1].argmax(axis=1) != n - 1), [stepped]])
            gaps = np.flatnonzero(np.diff(off) > cfg.stop_patience)  # a run between two of them that reaches the patience
            if gaps.size:
                blocks[-1], stopped_by = blocks[-1][: off[gaps[0]] + cfg.stop_patience + 1], "parked"
                break
            parked = stepped - 1 - off[-2]
        if stepped < len(rows) - 1:
            raise _underflow(t0 + stepped)

    probs = np.concatenate(blocks[1:])
    realized, monotone = _path_counts(probs.argmax(axis=1), n)
    return SimResult(
        alignment=_unchecked(AlignmentMatrix, {"probs": probs, "cache": None}),
        realized_frames=realized,
        stop_step=len(probs),
        stopped_by=stopped_by,
        monotone=monotone,
        config=cfg,
    )


def realized_durations(alignment: AlignmentMatrix) -> tuple[np.ndarray, bool]:
    """Frames attributed to each phoneme by the per-step argmax.

    Returns (counts, monotone); monotone is False if the argmax path
    ever steps backward.
    """
    return _path_counts(alignment.argmax_path(), alignment.n_phonemes)


def _path_counts(path: np.ndarray, n: int) -> tuple[np.ndarray, bool]:
    """``realized_durations`` of an argmax path over ``n`` phonemes."""
    return np.bincount(path, minlength=n), bool((path[1:] >= path[:-1]).all())
