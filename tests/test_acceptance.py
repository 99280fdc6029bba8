"""Acceptance suite: one check per release criterion.

Each test prints a single [PASS]/[FAIL] line with the measured value
next to its tolerance, then asserts.  Tolerances are pinned here and
nowhere else.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from duralign.attention import (
    AlignmentDistribution,
    dynamic_filter,
    fa_step,
    gdca_step,
    la_step,
    lattice_forward,
    normalize_energies,
    pure_lattice_occupancy,
    StepOptions,
)
from duralign.cli import main
from duralign.evaluate import adversarial_spec, compare_mechanisms, tempo_sweep
from duralign.gradcheck import check_encoder_gradients, check_energy_gradients, check_lattice_gradients
from duralign.musicxml import parse_musicxml
from duralign.score import NoteEvent, ScoreError, frames_for, parse_score_native, serialize_native
from duralign.simulate import SimConfig, run_simulation
from duralign.tokens import TransitionTokens, oracle_tokens

FIXTURES = Path(__file__).parent / "fixtures"


def report(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    assert ok, detail


def random_distribution(rng, n):
    return AlignmentDistribution(p=rng.dirichlet(np.ones(n)))


def _random_step(rng, i):
    """One randomized kernel step: random size, mechanism, convention,
    and filter flag; returns (input distribution, output distribution)."""
    n = int(rng.integers(2, 65))
    p = random_distribution(rng, n)
    e = normalize_energies(rng.normal(0.0, 2.0, n))
    mech = ("gdca", "fa", "la")[i % 3]
    opts = StepOptions(
        mechanism=mech,
        filter_enabled=bool(i & 1),
        convention=("prose", "eq3-literal")[(i // 2) & 1],
    )
    if mech == "gdca":
        q = TransitionTokens(q=rng.uniform(1e-4, 1.0, n))
        return p, gdca_step(p, q, e, opts)
    if mech == "fa":
        return p, fa_step(p, e, opts)
    return p, la_step(e, p, opts)


def test_criterion_01_step_kernel_normalization_and_speed():
    """10000 randomized steps (N in [2,64], all mechanisms, both
    conventions, filter on/off): every output row sums to 1 within
    1e-9, in under 5 seconds."""
    rng = np.random.default_rng(0)
    worst = 0.0
    start = time.perf_counter()
    for i in range(10000):
        _, out = _random_step(rng, i)
        worst = max(worst, abs(float(out.p.sum()) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    report(1, ok, f"10000 steps, worst |sum-1| = {worst:.2e} (tol 1e-9), {elapsed:.2f}s (limit 5s)")


def test_criterion_02_support_advance():
    """Same randomized step recipe, recursion mechanisms only: the
    output support is always contained in the input support plus its
    one-phoneme forward shift; zero violations."""
    rng = np.random.default_rng(0)
    violations = 0
    checked = 0
    for i in range(10000):
        p, out = _random_step(rng, i)
        if i % 3 == 2:  # content-only mechanism is exempt by design
            continue
        allowed = np.zeros(p.p.size, dtype=bool)
        prev = p.p > 0
        allowed[prev] = True
        allowed[1:][prev[:-1]] = True
        if np.any((out.p > 0) & ~allowed):
            violations += 1
        checked += 1
    report(2, violations == 0, f"support-advance violations: {violations}/{checked} recursion steps (required 0)")


def test_criterion_03_half_token_fa_equivalence():
    """With q = 0.5 everywhere the duration-controlled step reproduces
    the token-free forward step within 1e-12 on 100 seeded instances."""
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 20))
        p = random_distribution(rng, n)
        e = normalize_energies(rng.normal(0.0, 2.0, n))
        left = gdca_step(p, TransitionTokens(q=np.full(n, 0.5)), e)
        right = fa_step(p, e)
        worst = max(worst, float(np.max(np.abs(left.p - right.p))))
    report(3, worst <= 1e-12, f"max |gdca(q=0.5) - fa| over 100 instances = {worst:.2e} (tol 1e-12)")


def test_criterion_04_token_extremes():
    """q = 1 marches a delta one phoneme per step under any positive
    energies; q = 1e-4 with uniform energies keeps p_t(0) >= 1 - t*q_min
    for t <= 200."""
    rng = np.random.default_rng(2)
    n, t_steps = 8, 200
    energies = rng.normal(0.0, 2.0, (t_steps, n))
    mat = lattice_forward(TransitionTokens(q=np.ones(n)), normalize_energies(energies))
    delta_exact = all(
        np.array_equal(mat.probs[t], np.eye(n)[min(t, n - 1)]) for t in range(t_steps + 1)
    )

    q_min = 1e-4
    uniform = np.full((t_steps, n), 1.0 / n)
    slow = lattice_forward(TransitionTokens(q=np.full(n, q_min)), uniform)
    floor_ok = all(slow.probs[t, 0] >= 1.0 - t * q_min for t in range(t_steps + 1))
    ok = delta_exact and floor_ok
    report(4, ok, f"q=1 exact deltas: {delta_exact}; q=1e-4 floor bound over {t_steps} steps: {floor_ok}")


def test_criterion_05_occupancy_matches_durations():
    """Bare-chain occupancy reproduces frame targets within 2% for
    d in {5, 10, 50, 100} over 10 phonemes, in under 1 second."""
    d = np.array([5.0, 10.0, 50.0, 100.0, 5.0, 10.0, 50.0, 100.0, 5.0, 10.0])
    q = TransitionTokens(q=1.0 / d)
    horizon = int(4 * d.sum())
    start = time.perf_counter()
    # exit chain: every phoneme, including the last, dwells for d_n
    occ = pure_lattice_occupancy(q, horizon=horizon)
    # absorbing lattice with uniform energies agrees for all but the
    # final phoneme, which soaks up the remaining horizon
    mat = lattice_forward(q, np.full((horizon - 1, d.size), 1.0 / d.size))
    occ_absorbing = mat.probs.sum(axis=0)  # init row counts as the first frame
    elapsed = time.perf_counter() - start
    worst = float(np.max(np.abs(occ - d) / d))
    worst = max(worst, float(np.max(np.abs(occ_absorbing[:-1] - d[:-1]) / d[:-1])))
    ok = worst < 0.02 and elapsed < 1.0
    report(5, ok, f"max relative occupancy error = {worst:.4f} (tol 0.02), {elapsed:.3f}s (limit 1s)")


def test_criterion_06_tempo_scaling():
    """Simulated utterance length scales as 1 : 1/2 : 1/3 across tempos
    60/120/180 BPM, each ratio within 5%."""
    score = parse_score_native((FIXTURES / "ten_notes.json").read_text())
    sweep = tempo_sweep(score, [60.0, 120.0, 180.0], SimConfig())
    r = sweep.ratios
    errs = [abs(r[1] - 0.5) / 0.5, abs(r[2] - 1 / 3) / (1 / 3)]
    ok = r[0] == 1.0 and max(errs) < 0.05
    report(6, ok, f"length ratios = (1, {r[1]:.3f}, {r[2]:.3f}) vs (1, 0.5, 0.333), worst err {max(errs):.3f} (tol 0.05)")


def test_criterion_07_local_duration_control():
    """Doubling one note's duration doubles its realized frames (within
    10%) while every other note stays within 10% of baseline."""
    score = parse_score_native((FIXTURES / "ten_notes.json").read_text())

    def realized_per_note(sc):
        from duralign.score import expand_to_phonemes

        seq = expand_to_phonemes(sc)
        cfg = SimConfig(fixed_steps=sum(seq.target_frames))
        result = run_simulation(seq, oracle_tokens(seq), cfg)
        per_note = np.zeros(len(sc.notes))
        for ev, frames in zip(seq.events, result.realized_frames):
            per_note[ev.note_index] += frames
        return per_note

    base = realized_per_note(score)
    notes = list(score.notes)
    notes[5] = NoteEvent(
        syllable=notes[5].syllable,
        phonemes=notes[5].phonemes,
        pitch=notes[5].pitch,
        duration_beats=notes[5].duration_beats * 2.0,
        tempo_bpm=notes[5].tempo_bpm,
    )
    doubled = realized_per_note(type(score)(score.default_tempo_bpm, tuple(notes), score.title))

    target_ratio = doubled[5] / base[5]
    others = np.abs(doubled[np.arange(10) != 5] / base[np.arange(10) != 5] - 1.0)
    ok = abs(target_ratio - 2.0) <= 0.2 and float(others.max()) <= 0.10
    report(
        7,
        ok,
        f"doubled note ratio = {target_ratio:.3f} (2.0 +/- 10%), max other-note drift = {others.max():.3f} (tol 0.10)",
    )


def test_criterion_08_adversarial_robustness_ordering():
    """On the 20 archived adversarial instances, mean argmax monotonicity
    orders duration-controlled > token-free forward > content-only, and
    the dynamic filter does not hurt duration error."""
    import json

    instances = json.loads((FIXTURES / "adversarial_family.json").read_text())
    monos = {"GDCA": [], "FA": [], "LA": []}
    maes = {"GDCA": [], "GDCA+DF": []}
    for inst in instances:
        d = np.array(inst["d"], dtype=np.float64)
        cfg = SimConfig(
            energy=adversarial_spec(inst), seed=inst["seed"], fixed_steps=int(d.sum())
        )
        rep = compare_mechanisms(d, oracle_tokens(d), cfg)
        for label in monos:
            monos[label].append(rep.row(label).monotonicity)
        for label in maes:
            maes[label].append(rep.row(label).duration_mae_frames)
    m = {k: float(np.mean(v)) for k, v in monos.items()}
    e = {k: float(np.mean(v)) for k, v in maes.items()}
    ok = m["GDCA"] > m["FA"] > m["LA"] and e["GDCA+DF"] <= e["GDCA"]
    report(
        8,
        ok,
        f"mean monotonicity GDCA {m['GDCA']:.3f} > FA {m['FA']:.3f} > LA {m['LA']:.3f}; "
        f"MAE GDCA+DF {e['GDCA+DF']:.2f} <= GDCA {e['GDCA']:.2f}",
    )


def test_criterion_09_gradient_checks():
    """All three analytic gradients match central finite differences
    within 1e-5 relative error on 20 seeds each."""
    worst = 0.0
    ok = True
    for check in (check_energy_gradients, check_encoder_gradients, check_lattice_gradients):
        for seed in range(20):
            result = check(seed)
            worst = max(worst, result.max_rel_err)
            ok = ok and result.passed
    report(9, ok, f"60 gradient checks, worst relative error = {worst:.2e} (tol 1e-5)")


def test_criterion_10_dynamic_filter_contract():
    """The dynamic filter keeps at most L+1 nonzeros (default L=16),
    never moves the argmax, and zeroes everything outside the window."""
    assert StepOptions().window_width == 16
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(500):
        n = int(rng.integers(2, 64))
        width = int(rng.choice([2, 4, 8, 16]))
        p = rng.dirichlet(np.ones(n))
        out = dynamic_filter(p, width=width)
        m = int(np.argmax(p))
        inside = np.arange(max(0, m - width // 2), min(n, m + width // 2 + 1))
        outside = np.setdiff1d(np.arange(n), inside)
        ok = ok and np.count_nonzero(out) <= width + 1
        ok = ok and int(np.argmax(out)) == m
        ok = ok and np.all(out[outside] == 0.0)
    report(10, ok, "500 filter applications: support <= L+1, argmax preserved, default L=16")


def test_criterion_11_score_ingestion():
    """Six MusicXML fixtures convert byte-for-byte to the canonical
    native form, malformed fixtures raise parse errors, and one beat at
    60 BPM on the 10 ms grid is exactly 100 frames."""
    good = ("single_note", "rest", "accidentals", "tempo_change", "melody", "octaves")
    bad = ("bad_missing_divisions", "bad_chord", "bad_no_tempo", "bad_step", "bad_tie")
    byte_ok = all(
        serialize_native(parse_musicxml((FIXTURES / "musicxml" / f"{name}.musicxml").read_text()))
        == (FIXTURES / "musicxml" / f"{name}.expected.json").read_text()
        for name in good
    )
    raised = 0
    for name in bad:
        with pytest.raises(ScoreError):
            parse_musicxml((FIXTURES / "musicxml" / f"{name}.musicxml").read_text())
        raised += 1
    note = NoteEvent("a", ("a",), 60, 1.0, tempo_bpm=60.0)
    frames = frames_for(note, 120.0)
    ok = byte_ok and raised == len(bad) and frames == 100
    report(
        11,
        ok,
        f"{len(good)} fixtures byte-identical: {byte_ok}; {raised}/{len(bad)} malformed rejected; "
        f"1 beat @ 60 BPM = {frames} frames (expected 100)",
    )


def test_criterion_12_reproducible_cli_runs(tmp_path, capsys):
    """Two identical simulate invocations produce byte-identical
    report, CSV, and PGM outputs."""
    blobs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = main(
            ["simulate", str(FIXTURES / "ten_notes.json"), "--out", str(out), "--seed", "7",
             "--energy", "noisy_diagonal", "--noise-sigma", "0.5"]
        )
        assert code == 0
        blobs.append(
            tuple((out / f).read_bytes() for f in ("report.json", "alignment.csv", "alignment.pgm"))
        )
    capsys.readouterr()
    ok = blobs[0] == blobs[1]
    report(12, ok, "two seeded simulate runs: report.json, alignment.csv, alignment.pgm byte-identical")
