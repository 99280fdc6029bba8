"""The entry-point contract: every public name that takes an array or
frame targets rejects a bad value by name.

Each row is (entry point, argument, bad value, expected message).  An
array argument gets its first number replaced by NaN, an infinity or
an int beyond the largest double, or is replaced by an empty list;
frame targets also get 0 and -3.  Each step function also gets options
that name another mechanism, and the score types built directly get a
non-finite number.  ``QueryGenerator.energies`` is left out:
the simulator's step loop calls it on rows it made itself, so it checks
nothing per step.
"""

import dataclasses
import json

import numpy as np
import pytest

from duralign.attention import (
    AlignmentDistribution,
    AlignmentMatrix,
    EnergyParams,
    StepOptions,
    content_energies,
    content_energies_backward,
    context_vector,
    dynamic_filter,
    fa_step,
    gdca_step,
    init_alignment,
    la_step,
    lattice_backward,
    lattice_forward,
    normalize_energies,
    pure_lattice_occupancy,
)
from duralign.evaluate import compare_mechanisms, duration_error, tempo_sweep
from duralign.gradcheck import central_difference
from duralign.score import NoteEvent, Score, ScoreError, parse_score_native
from duralign.simulate import SimConfig, SynthEnergySpec, phoneme_at_frame, run_simulation, synth_energies
from duralign.tokens import (
    DurationEncoderParams,
    DurationFeatures,
    TransitionTokens,
    encoder_backward,
    encoder_forward,
    oracle_tokens,
)

N = 4
D = [2.0, 3.0, 1.0, 4.0]
P = init_alignment(N)
Q = TransitionTokens(q=np.full(N, 0.5))
E = np.full(N, 1.0 / N)
ROWS = np.full((3, N), 1.0 / N)
PARAMS = EnergyParams.init(0)
QUERY, KEYS, UPSTREAM = np.zeros(8), np.zeros((N, 8)), np.zeros(N)
ENCODER = DurationEncoderParams.init(0, hidden=4)
FEATURES = DurationFeatures(rows=np.ones((N, 3)))
CACHED = lattice_forward(Q, ROWS, keep_cache=True)
CFG = SimConfig(fixed_steps=3)
SCORE = {"tempo_bpm": 120, "notes": [{"syllable": "la", "phonemes": ["l", "a"], "midi_pitch": 60, "duration_beats": 1}]}

EMPTY = "empty"
HUGE = 10**400  # an int that no double holds

# (entry point, argument, call, valid value, non-finite message, empty message)
ARRAY_ARGUMENTS = [
    ("EnergyParams", "W", lambda x: dataclasses.replace(PARAMS, W=np.array(x)), PARAMS.W,
     "non-finite energy parameter", "inconsistent energy parameter shapes"),
    ("EnergyParams", "V", lambda x: dataclasses.replace(PARAMS, V=np.array(x)), PARAMS.V,
     "non-finite energy parameter", "inconsistent energy parameter shapes"),
    ("EnergyParams", "v", lambda x: dataclasses.replace(PARAMS, v=np.array(x)), PARAMS.v,
     "non-finite energy parameter", "inconsistent energy parameter shapes"),
    ("EnergyParams", "b", lambda x: dataclasses.replace(PARAMS, b=np.array(x)), PARAMS.b,
     "non-finite energy parameter", "inconsistent energy parameter shapes"),
    ("content_energies", "query", lambda x: content_energies(PARAMS, x, KEYS), QUERY,
     "non-finite query", "query/key dimension mismatch"),
    ("content_energies", "keys", lambda x: content_energies(PARAMS, QUERY, x), KEYS,
     "non-finite keys", r"keys must be a non-empty \(N, key_dim\) array"),
    ("content_energies_backward", "query", lambda x: content_energies_backward(PARAMS, x, KEYS, UPSTREAM), QUERY,
     "non-finite query", "query/key dimension mismatch"),
    ("content_energies_backward", "keys", lambda x: content_energies_backward(PARAMS, QUERY, x, UPSTREAM), KEYS,
     "non-finite keys", r"keys must be a non-empty \(N, key_dim\) array"),
    ("content_energies_backward", "upstream_grad", lambda x: content_energies_backward(PARAMS, QUERY, KEYS, x), UPSTREAM,
     "non-finite upstream gradient", "upstream gradient shape mismatch"),
    ("normalize_energies", "e", normalize_energies, E,
     "non-finite energy", "empty energy vector"),
    ("AlignmentDistribution", "p", lambda x: AlignmentDistribution(p=x), P.p,
     "non-finite alignment", "alignment must be a non-empty vector"),
    ("AlignmentMatrix", "probs", lambda x: AlignmentMatrix(probs=x), ROWS,
     "non-finite alignment probability", r"alignment matrix must be one \(T, N\) array"),
    ("gdca_step", "e_norm", lambda x: gdca_step(P, Q, x), E,
     "non-finite energy", "empty energy vector"),
    ("fa_step", "e_norm", lambda x: fa_step(P, x), E,
     "non-finite energy", "empty energy vector"),
    ("la_step", "e_norm", lambda x: la_step(x, P), E,
     "non-finite energy", "empty energy vector"),
    ("dynamic_filter", "p_prev", dynamic_filter, P.p,
     "non-finite alignment", "empty alignment vector"),
    ("context_vector", "p", lambda x: context_vector(x, KEYS), P.p,
     "non-finite alignment", "alignment/key length mismatch"),
    ("context_vector", "keys", lambda x: context_vector(P, x), KEYS,
     "non-finite keys", "alignment/key length mismatch"),
    ("lattice_forward", "energies", lambda x: lattice_forward(Q, x), ROWS,
     "non-finite energy", "empty energy vector"),
    ("lattice_backward", "d_probs", lambda x: lattice_backward(CACHED, x), CACHED.probs,
     "non-finite upstream gradient d_probs", "upstream gradient shape mismatch"),
    ("pure_lattice_occupancy", "q", lambda x: pure_lattice_occupancy(x, 5), Q.q,
     "non-finite transition token", r"q must be one non-empty \(N,\) vector"),
    ("TransitionTokens", "q", lambda x: TransitionTokens(q=x), Q.q,
     "non-finite transition token", r"q must be one non-empty \(N,\) vector"),
    ("DurationFeatures", "rows", lambda x: DurationFeatures(rows=x), FEATURES.rows,
     "non-finite feature value", r"features must be an \(N, 3\) array"),
    ("encoder_forward", "params.w1", lambda x: encoder_forward(dataclasses.replace(ENCODER, w1=np.array(x)), FEATURES),
     ENCODER.w1, "non-finite encoder parameter", "parameter/feature dimension mismatch"),
    ("encoder_forward", "params.b2", lambda x: encoder_forward(dataclasses.replace(ENCODER, b2=x), FEATURES),
     ENCODER.b2, "non-finite encoder parameter", None),  # a scalar: nothing to empty
    ("encoder_backward", "upstream_grad", lambda x: encoder_backward(ENCODER, FEATURES, x), UPSTREAM,
     "non-finite upstream gradient", "upstream gradient shape mismatch"),
    ("duration_error", "realized", lambda x: duration_error(x, D), D,
     "non-finite realized", "realized/target shapes must match and be non-empty"),
    ("duration_error", "target", lambda x: duration_error(D, x), D,
     "non-finite target", "realized/target shapes must match and be non-empty"),
    ("tempo_sweep", "tempos", lambda x: tempo_sweep(parse_score_native(json.dumps(SCORE)), x, CFG), [120.0, 60.0],
     "non-finite default_tempo_bpm", "empty tempo list"),
    ("central_difference", "x", lambda x: central_difference(lambda p: p.sum(axis=1), x), [2.0, 1.0],
     "non-finite point", None),  # an empty point has no stack to reshape; not part of the contract
]

# (entry point, argument, call) of every name that takes frame targets
FRAME_TARGETS = [
    ("oracle_tokens", "seq", oracle_tokens),
    ("phoneme_at_frame", "d", lambda d: phoneme_at_frame(d, 0)),
    ("synth_energies", "d", lambda d: synth_energies(d, SynthEnergySpec(), 0, 0)),
    ("run_simulation", "seq", lambda d: run_simulation(d, Q, CFG)),
    ("compare_mechanisms", "seq", lambda d: compare_mechanisms(d, Q, CFG)),
]

# a step function and options that name another mechanism
MECHANISMS = [
    ("gdca_step", lambda opts: gdca_step(P, Q, E, opts), "la"),
    ("fa_step", lambda opts: fa_step(P, E, opts), "gdca"),
    ("la_step", lambda opts: la_step(E, P, opts), "fa"),
    ("la_step", lambda opts: la_step(E, None, opts), "gdca"),  # the first step, with no window to center
]

# native score fields and what the score says of each bad value
SCORE_FIELDS = [
    ("tempo_bpm", lambda v: {**SCORE, "tempo_bpm": v},
     "non-finite default_tempo_bpm", "non-positive tempo_bpm"),
    ("duration_beats", lambda v: {**SCORE, "notes": [{**SCORE["notes"][0], "duration_beats": v}]},
     "non-finite duration_beats at note 0", "non-positive duration at note 0"),
]


# score types built directly: (type, field, construct from the field's value)
SCORE_TYPES = [
    ("NoteEvent", "duration_beats", lambda v: NoteEvent("la", ("l", "a"), 60, v)),
    ("NoteEvent", "tempo_bpm", lambda v: NoteEvent("la", ("l", "a"), 60, 1.0, v)),
    ("Score", "default_tempo_bpm", lambda v: Score(default_tempo_bpm=v, notes=(NoteEvent("la", ("l", "a"), 60, 1.0),))),
]


def spoiled(valid, bad):
    """``valid`` as nested lists with its first number replaced by ``bad``,
    or an empty list."""
    if bad is EMPTY:
        return []
    values = np.array(valid, dtype=object)
    values.flat[0] = bad
    return values.tolist()


def contract_rows():
    for entry, argument, call, valid, non_finite, empty in ARRAY_ARGUMENTS:
        for bad in (np.nan, np.inf, -np.inf, HUGE, EMPTY):
            message = empty if bad is EMPTY else non_finite
            if message is not None:
                yield entry, argument, bad, lambda call=call, x=spoiled(valid, bad): call(x), f"^{message}"
    for entry, argument, call in FRAME_TARGETS:
        for bad, message in [(np.nan, "non-finite"), (np.inf, "non-finite"), (-np.inf, "non-finite"), (HUGE, "non-finite"),
                             (EMPTY, "empty"), (0, "non-positive"), (-3, "non-positive")]:
            yield entry, argument, bad, lambda call=call, d=spoiled(D, bad): call(d), f"^{message} durations"
    for entry, call, other in MECHANISMS:
        yield entry, "opts", other, lambda call=call, opts=StepOptions(mechanism=other): call(opts), \
            f"^{entry} got opts for mechanism '{other}'$"
    for field, doc, non_finite, non_positive in SCORE_FIELDS:
        for bad, text, message in [(np.nan, "NaN", non_finite), (np.inf, "Infinity", non_finite),
                                   (-np.inf, "-Infinity", non_positive), (HUGE, str(HUGE), non_finite),
                                   (EMPTY, "[]", non_positive)]:
            document = json.dumps(doc("@")).replace('"@"', text)
            yield "parse_score_native", field, bad, lambda document=document: parse_score_native(document), \
                f"^{message}$"
    for entry, field, build in SCORE_TYPES:
        for bad in (np.nan, np.inf, -np.inf, HUGE):
            yield entry, field, bad, lambda build=build, bad=bad: build(bad), f"^non-finite {field}$"


ROWS_OF_CONTRACT = list(contract_rows())


def row_id(row):
    entry, argument, bad = row[:3]
    return f"{entry}-{argument}-{'10**400' if bad is HUGE else bad}"


@pytest.mark.parametrize("entry, argument, bad, call, message", ROWS_OF_CONTRACT, ids=[row_id(r) for r in ROWS_OF_CONTRACT])
def test_entry_point_rejects_bad_input_by_name(entry, argument, bad, call, message):
    error = ScoreError if entry in ("parse_score_native", "NoteEvent", "Score") else ValueError
    with pytest.raises(error, match=message):
        call()
