"""Command-line entry point.

Subcommands: parse, tokens, simulate, sweep, gradcheck, train-encoder.
Every command is deterministic given its full flag set (including
--seed), and every flag's default is the library's own.  Exit codes:
0 success, 1 experiment-level failure (an underflowed alignment
included), 2 usage or I/O error and every input the library rejects
(a ValueError, ``ScoreError`` included): a malformed score, lexicon or
parameter file, and a flag value the library cannot serve.  ``main``
alone maps an error to its exit code and prints it as one ``error:``
line.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import evaluate, gradcheck
from .attention import CONVENTIONS, MECHANISMS, WINDOW_SHAPES, StepOptions, _csv_chunks, alignment_to_pgm
from .fileio import atomic_write_bytes, atomic_write_text
from .musicxml import parse_musicxml
from .score import (
    expand_to_phonemes,
    parse_lexicon,
    parse_score_native,
    serialize_native,
)
from .simulate import ENERGY_MODES, SimConfig, SynthEnergySpec, run_simulation
from .tokens import (
    Q_MIN_DEFAULT,
    DurationFeatures,
    TrainConfig,
    TrainingDiverged,
    duration_features,
    encoder_forward,
    oracle_tokens,
    params_from_text,
    params_to_text,
    tokens_to_csv,
    train_encoder,
)

EXIT_OK = 0
EXIT_EXPERIMENT_FAILED = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Usage or I/O error; maps to exit code 2."""


@contextmanager
def _usage_errors(prefix: str):
    """Prefix a library's rejection of a file's contents (a ValueError) with the file's path."""
    try:
        yield
    except ValueError as exc:
        raise CliError(f"{prefix}{exc}") from exc


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load_score(path: str, fmt: str, default_tempo: float | None):
    text = _read_file(path)
    with _usage_errors(f"{path}: "):
        if fmt == "musicxml":
            return parse_musicxml(text, default_tempo)
        return parse_score_native(text)


def _load_lexicon(path: str | None):
    if path is None:
        return None
    text = _read_file(path)
    with _usage_errors(f"{path}: "):
        return parse_lexicon(text)


def _add_score_args(p: argparse.ArgumentParser):
    p.add_argument("score", help="path to a score file")
    p.add_argument("--format", choices=("native", "musicxml"), default="native")
    p.add_argument("--default-tempo", type=float, default=None, help="fallback BPM for MusicXML without a tempo directive")
    p.add_argument("--lexicon", default=None, help="syllable-to-phoneme ratio table")


def _add_sim_args(p: argparse.ArgumentParser):
    p.add_argument("--mechanism", choices=MECHANISMS, default=StepOptions.mechanism)
    p.add_argument("--filter", action="store_true", dest="filter_enabled", help="enable the dynamic filter / window")
    p.add_argument("--L", type=int, default=StepOptions.window_width, dest="window_width", help="window width (even, default %(default)s)")
    p.add_argument("--window-shape", choices=WINDOW_SHAPES, default=StepOptions.window_shape)
    p.add_argument("--convention", choices=CONVENTIONS, default=StepOptions.convention)
    p.add_argument("--seed", type=int, default=SimConfig.seed)
    p.add_argument("--energy", choices=ENERGY_MODES, default=SynthEnergySpec.mode)
    p.add_argument("--noise-sigma", type=float, default=SynthEnergySpec.noise_sigma)
    p.add_argument("--sharpness", type=float, default=SynthEnergySpec.sharpness)
    p.add_argument("--max-steps", type=int, default=SimConfig.max_steps)
    p.add_argument("--fixed-steps", type=int, default=SimConfig.fixed_steps)
    p.add_argument("--q-min", type=float, default=Q_MIN_DEFAULT)


def _sim_config(args) -> SimConfig:
    opts = StepOptions(
        mechanism=args.mechanism,
        filter_enabled=args.filter_enabled,
        window_width=args.window_width,
        window_shape=args.window_shape,
        convention=args.convention,
    )
    energy = SynthEnergySpec(mode=args.energy, noise_sigma=args.noise_sigma, sharpness=args.sharpness)
    return SimConfig(
        opts=opts,
        energy=energy,
        seed=args.seed,
        max_steps=args.max_steps,
        fixed_steps=args.fixed_steps,
    )


def cmd_parse(args) -> int:
    score = _load_score(args.score, args.format, args.default_tempo)
    sys.stdout.write(serialize_native(score))
    return EXIT_OK


def cmd_tokens(args) -> int:
    score = _load_score(args.score, args.format, args.default_tempo)
    lexicon = _load_lexicon(args.lexicon)
    seq = expand_to_phonemes(score, lexicon)
    if args.source == "oracle":
        toks = oracle_tokens(seq, args.q_min)
    else:
        if args.params is None:
            raise CliError("--source encoder requires --params")
        text = _read_file(args.params)
        with _usage_errors(f"{args.params}: "):
            params = params_from_text(text)
            toks = encoder_forward(params, duration_features(seq))
    csv = tokens_to_csv(seq, toks)
    if args.out:
        atomic_write_text(args.out, csv)
    else:
        sys.stdout.write(csv)
    return EXIT_OK


def cmd_simulate(args) -> int:
    score = _load_score(args.score, args.format, args.default_tempo)
    lexicon = _load_lexicon(args.lexicon)
    seq = expand_to_phonemes(score, lexicon)
    cfg = _sim_config(args)
    toks = oracle_tokens(seq, args.q_min)
    result = run_simulation(seq, toks, cfg)

    out = Path(args.out)
    atomic_write_text(out / "report.json", result.to_json())
    atomic_write_bytes(out / "alignment.csv", _csv_chunks(result.alignment))
    atomic_write_bytes(out / "alignment.pgm", alignment_to_pgm(result.alignment))
    mono = evaluate._run_monotonicity(result)
    print(f"stop_step={result.stop_step} stopped_by={result.stopped_by} monotonicity={mono:.3f}")
    if result.stopped_by == "max_steps":
        print("simulation failed: stop rule never fired", file=sys.stderr)
        return EXIT_EXPERIMENT_FAILED
    return EXIT_OK


def cmd_sweep(args) -> int:
    score = _load_score(args.score, args.format, args.default_tempo)
    lexicon = _load_lexicon(args.lexicon)
    try:
        tempos = [float(t) for t in args.tempos.split(",") if t]
    except ValueError as exc:
        raise CliError(f"bad --tempos value: {args.tempos}") from exc
    cfg = _sim_config(args)
    sweep = evaluate.tempo_sweep(score, tempos, cfg, lexicon=lexicon, q_min=args.q_min)
    out = Path(args.out)
    atomic_write_text(out / "sweep.json", sweep.to_json())
    for tempo, result in zip(sweep.tempos, sweep.results):
        atomic_write_bytes(out / f"alignment_{tempo:g}.csv", _csv_chunks(result.alignment))
    for tempo, steps, ratio in zip(sweep.tempos, sweep.stop_steps, sweep.ratios):
        print(f"tempo={tempo:g} stop_step={steps} ratio={ratio:.4f}")
    if any(r.stopped_by == "max_steps" for r in sweep.results):
        print("sweep failed: some run never stopped", file=sys.stderr)
        return EXIT_EXPERIMENT_FAILED
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    checks = {
        "energies": gradcheck.check_energy_gradients,
        "encoder": gradcheck.check_encoder_gradients,
        "lattice": gradcheck.check_lattice_gradients,
    }
    targets = list(checks) if args.which == "all" else [args.which]
    ok = True
    for target in targets:
        result = checks[target](args.seed)
        status = "pass" if result.passed else "FAIL"
        print(f"{target}: {status} max_rel_err={result.max_rel_err:.3e} step={result.step:g}")
        ok = ok and result.passed
    return EXIT_OK if ok else EXIT_EXPERIMENT_FAILED


def _synthetic_duration_dataset(seed: int):
    """Sweep of frame targets with matching oracle tokens, for training."""
    rng = np.random.default_rng(seed)
    d = np.arange(2, 101, dtype=np.float64)
    rng.shuffle(d)
    bpm = rng.uniform(60.0, 180.0, d.size)
    rows = np.column_stack([d * 0.01, bpm, np.log(d)])
    feats = DurationFeatures(rows=rows)
    targets = oracle_tokens(d)
    return feats, targets


def cmd_train_encoder(args) -> int:
    cfg = TrainConfig(learning_rate=args.lr, epochs=args.epochs, seed=args.seed)
    feats, targets = _synthetic_duration_dataset(cfg.seed)
    try:
        params, history = train_encoder(feats, targets, cfg)
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_EXPERIMENT_FAILED
    atomic_write_text(args.out, params_to_text(params))
    if args.loss_history:
        lines = ["epoch,loss"] + [f"{i},{loss!r}" for i, loss in enumerate(history)]
        atomic_write_text(args.loss_history, "\n".join(lines) + "\n")
    print(f"final loss: {history[-1]:.6e} ({len(history)} epochs)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duralign",
        description="Duration-controlled monotonic alignment experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a score and print canonical native JSON")
    _add_score_args(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("tokens", help="compute transition tokens as CSV")
    _add_score_args(p)
    p.add_argument("--source", choices=("oracle", "encoder"), default="oracle")
    p.add_argument("--params", default=None, help="encoder parameter file (for --source encoder)")
    p.add_argument("--q-min", type=float, default=Q_MIN_DEFAULT)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tokens)

    p = sub.add_parser("simulate", help="run one decoding simulation")
    _add_score_args(p)
    _add_sim_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="simulate the score at several tempos")
    _add_score_args(p)
    _add_sim_args(p)
    p.add_argument("--tempos", required=True, help="comma-separated BPM list, e.g. 60,120,180")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--which", choices=("energies", "encoder", "lattice", "all"), default="all")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train-encoder", help="train the duration encoder on the synthetic sweep")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--out", required=True, help="parameter file path")
    p.add_argument("--loss-history", default=None, help="loss-history CSV path")
    p.set_defaults(func=cmd_train_encoder)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:  # a ValueError: the library rejected its input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FloatingPointError as exc:  # an alignment normalizer underflowed mid-run
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_EXPERIMENT_FAILED


if __name__ == "__main__":
    sys.exit(main())
