"""Alignment-quality metrics and desk-scale experiment drivers.

Audio-domain metrics are out of reach without a trained acoustic model,
so these reports quantify alignment behavior directly: argmax
monotonicity, distribution sharpness, and realized-vs-target duration
error, plus drivers for the six-way mechanism comparison, tempo sweeps,
and token profiling.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .attention import AlignmentMatrix, StepOptions, _unchecked
from .score import PhonemeSequence, Score, expand_to_phonemes, with_uniform_tempo
from .simulate import SimConfig, SimResult, SynthEnergySpec, _KeptRows, _SHARED, phoneme_at_frame, run_simulation
from .tokens import Q_MIN_DEFAULT, TransitionTokens, _durations, _floats, oracle_tokens

__all__ = [
    "MECHANISM_CONFIGS",
    "MechanismRow",
    "MechanismReport",
    "TempoSweepResult",
    "monotonicity_score",
    "sharpness_score",
    "duration_error",
    "compare_mechanisms",
    "tempo_sweep",
    "token_profile",
    "adversarial_family",
    "adversarial_spec",
]

# The six ablation configurations: (label, mechanism, filter_enabled).
MECHANISM_CONFIGS = (
    ("LA", "la", False),
    ("LA+Window", "la", True),
    ("FA", "fa", False),
    ("FA+DF", "fa", True),
    ("GDCA", "gdca", False),
    ("GDCA+DF", "gdca", True),
)


def monotonicity_score(alignment: AlignmentMatrix) -> float:
    """Fraction of consecutive step pairs with non-decreasing argmax."""
    if alignment.n_steps < 2:
        raise ValueError("need at least two steps")
    return _mean(np.diff(alignment.argmax_path()) >= 0)


def _run_monotonicity(result: SimResult) -> float:
    """A run's monotonicity score: 1.0, with no second argmax path, if monotone (one step included)."""
    return 1.0 if result.monotone else monotonicity_score(result.alignment)


def _mean(x: np.ndarray) -> float:
    """``np.mean`` of a non-empty array without its wrappers: the same pairwise sum over the size."""
    return float(np.add.reduce(x) / x.size)


def sharpness_score(alignment: AlignmentMatrix) -> float:
    """Mean over steps of the row maximum; 1.0 for one-hot rows."""
    return _mean(alignment.probs.max(axis=1))


def duration_error(realized: np.ndarray, target: np.ndarray) -> tuple[float, float]:
    """(mean absolute error in frames, mean relative error) for finite
    frame counts against positive targets."""
    realized, target = _floats("realized", realized), _floats("target", target)
    if realized.shape != target.shape or target.size == 0:
        raise ValueError(f"realized/target shapes must match and be non-empty; got {realized.shape} and {target.shape}")
    if (target <= 0).any():
        raise ValueError("non-positive target")
    return _duration_error(realized, target)


def _duration_error(realized: np.ndarray, target: np.ndarray) -> tuple[float, float]:
    """``duration_error`` without its checks, for a run's own frame counts and targets."""
    abs_err = np.abs(realized - target)
    return _mean(abs_err), _mean(abs_err / target)


@dataclass(frozen=True)
class MechanismRow:
    label: str
    mechanism: str
    filter_enabled: bool
    monotonicity: float
    mean_max_prob: float
    duration_mae_frames: float
    duration_rel_err: float
    stop_step: int
    failed: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MechanismReport:
    rows: tuple[MechanismRow, ...]

    def row(self, label: str) -> MechanismRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)

    def to_json(self) -> str:
        return json.dumps([r.to_json_dict() for r in self.rows], indent=2) + "\n"

    def to_text(self) -> str:
        header = f"{'system':<10} {'mono':>6} {'sharp':>6} {'mae':>8} {'rel':>7} {'stop':>6} {'failed':>6}"
        lines = [header]
        for r in self.rows:
            lines.append(
                f"{r.label:<10} {r.monotonicity:>6.3f} {r.mean_max_prob:>6.3f} "
                f"{r.duration_mae_frames:>8.2f} {r.duration_rel_err:>7.3f} "
                f"{r.stop_step:>6d} {str(r.failed):>6}"
            )
        return "\n".join(lines) + "\n"


def _row_from_result(label: str, result: SimResult, target: np.ndarray) -> MechanismRow:
    mono = _run_monotonicity(result)
    mae, rel = _duration_error(result.realized_frames, target)
    failed = result.stopped_by == "max_steps" or mono < 0.5
    return MechanismRow(
        label=label,
        mechanism=result.config.opts.mechanism,
        filter_enabled=result.config.opts.filter_enabled,
        monotonicity=mono,
        mean_max_prob=sharpness_score(result.alignment),
        duration_mae_frames=mae,
        duration_rel_err=rel,
        stop_step=result.stop_step,
        failed=failed,
    )


def compare_mechanisms(
    seq: PhonemeSequence | np.ndarray,
    tokens: TransitionTokens,
    base_cfg: SimConfig,
) -> MechanismReport:
    """Run the six ablation configurations on identical seeds/energies.

    The six runs read one synthetic energy source, whose blocks are each
    built once, so the call holds the longest run's energy rows (the
    stateful query generator stays per run).  A run is marked failed if
    the stop rule never fires within max_steps or the monotonicity score
    drops below 0.5.
    """
    d = _durations(seq)
    rows = []
    query = base_cfg.energy.mode == "from_query_generator"  # stateful: each run makes its own
    scope = _SHARED.set(None if query else _KeptRows(d, base_cfg.energy, base_cfg.seed))
    try:
        for label, mechanism, filtered in MECHANISM_CONFIGS:
            opts = _unchecked(StepOptions, {**vars(base_cfg.opts), "mechanism": mechanism, "filter_enabled": filtered})
            cfg = _unchecked(SimConfig, {**vars(base_cfg), "opts": opts})
            result = run_simulation(d, tokens, cfg)  # only the gdca kernel reads the tokens
            rows.append(_row_from_result(label, result, d))
    finally:
        _SHARED.reset(scope)
    return MechanismReport(rows=tuple(rows))


@dataclass(frozen=True)
class TempoSweepResult:
    tempos: tuple[float, ...]
    stop_steps: tuple[int, ...]
    ratios: tuple[float, ...]  # normalized to the first tempo
    results: tuple[SimResult, ...]

    def to_json(self) -> str:
        doc = {
            "tempos": list(self.tempos),
            "stop_steps": list(self.stop_steps),
            "ratios": list(self.ratios),
        }
        return json.dumps(doc, indent=2) + "\n"


def tempo_sweep(
    score: Score,
    tempos: list[float],
    base_cfg: SimConfig,
    lexicon=None,
    q_min: float = Q_MIN_DEFAULT,
) -> TempoSweepResult:
    """Simulate the same score at each tempo and report length ratios.

    Every note's effective tempo is forced to the sweep value, tokens
    are re-derived from the rescaled frame targets, and stop steps are
    normalized to the first tempo.
    """
    tempos = _floats("default_tempo_bpm", tempos).tolist()  # each becomes the default tempo of a score
    if not tempos:
        raise ValueError("empty tempo list")
    stop_steps = []
    results = []
    for tempo in tempos:
        rescored = with_uniform_tempo(score, tempo)
        seq = expand_to_phonemes(rescored, lexicon)
        tokens = oracle_tokens(seq, q_min)
        result = run_simulation(seq, tokens, base_cfg)
        stop_steps.append(result.stop_step)
        results.append(result)
    ratios = tuple(s / stop_steps[0] for s in stop_steps)
    return TempoSweepResult(
        tempos=tuple(tempos),
        stop_steps=tuple(stop_steps),
        ratios=ratios,
        results=tuple(results),
    )


_PROFILE_BLOCK = 512  # rows of the pairwise antitone check held at a time


def token_profile(seq: PhonemeSequence, tokens: TransitionTokens) -> dict:
    """Per-phoneme table of durations vs token values, with the
    duration-antitone check (larger duration => smaller token)."""
    if tokens.q.shape != (len(seq),):
        raise ValueError("sequence/token length mismatch")
    rows = [
        {
            "index": i,
            "phoneme": ev.phoneme,
            "duration_s": ev.duration_s,
            "tempo_bpm": ev.tempo_bpm,
            "d_frames": ev.target_frames,
            "q": float(tokens.q[i]),
        }
        for i, ev in enumerate(seq.events)
    ]
    d = np.array(seq.target_frames, dtype=np.float64)
    q = tokens.q
    q_tol = q + 1e-12
    violations = 0
    for lo in range(0, d.size, _PROFILE_BLOCK):  # pairs (i, j), a block of rows i at a time
        i = slice(lo, lo + _PROFILE_BLOCK)
        violations += int(np.count_nonzero((d[i, None] >= d) & (q[i, None] > q_tol)))
    return {"rows": rows, "antitone_violations": violations, "antitone": violations == 0}


def adversarial_family() -> list[dict]:
    """The frozen family of 20 adversarial spike instances over 14 phonemes.

    Each instance pairs random frame targets with two kinds of content
    noise: short bursts a few phonemes ahead of the expected diagonal
    (these drag mechanisms that follow content or spread support
    quickly) and sustained blocks roughly ten phonemes ahead, beyond
    the default filter window, which only capture mass through
    long-horizon forward leakage and are exactly what the dynamic
    filter cuts off.
    """
    n_phonemes = 14
    instances = []
    for k in range(20):
        rng = np.random.default_rng([0, k])
        d = rng.integers(8, 20, size=n_phonemes)
        total = int(d.sum())
        schedule: list[tuple[int, int]] = []
        for t in range(0, total, 4):
            expected = phoneme_at_frame(d.astype(float), t)
            near = min(n_phonemes - 1, expected + 3 + int(rng.integers(0, 3)))
            schedule.append((t, near))
        t = 0
        while t < total:
            expected = phoneme_at_frame(d.astype(float), t)
            far = min(n_phonemes - 1, expected + 10 + int(rng.integers(0, 2)))
            block = int(rng.integers(10, 20))
            for s in range(t, min(t + block, total)):
                schedule.append((s, far))
            t += block + int(rng.integers(5, 10))
        instances.append(
            {
                "seed": k,
                "d": [int(v) for v in d],
                "spike_schedule": sorted(set(schedule)),
                "spike_magnitude": 16.0,
                "sharpness": 1.2,
            }
        )
    return instances


def adversarial_spec(instance: dict) -> SynthEnergySpec:
    """SynthEnergySpec for one archived adversarial instance."""
    return SynthEnergySpec(
        mode="adversarial_spike",
        spike_magnitude=instance["spike_magnitude"],
        spike_schedule=tuple((s, n) for s, n in instance["spike_schedule"]),
        sharpness=instance["sharpness"],
    )
