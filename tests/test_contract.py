"""The entry-point contract: every public name that takes an array or
frame targets rejects a bad value by name.

Each row is (entry point, argument, bad value, expected message).  An
array argument gets its first number replaced by NaN, an infinity or
an int beyond the largest double, or is replaced by an empty list;
frame targets also get 0 and -3.  Each step function also gets options
that name another mechanism.  A duration or tempo, read by the native
reader or given to the score types built directly, gets a non-finite
number, an empty list, a bool, a string, 0 and -2.0, and a pitch gets a
number outside 0-127, a bool and a string.  An alignment matrix also
gets a (0, N) and a (T, 0) array, which no metric or export can read,
and frame targets a (2, 2) array.  The container rows give a metric a
one-step alignment, the sequence readers a sequence without phonemes
(or without tempos, or of another length than the tokens), ``Score`` no
notes, ``frames_for`` a budget beyond the double range, ``TrainConfig``
bad fields and ``train_encoder`` no data or targets of another length.
``QueryGenerator.energies`` is left out: the simulator's step loop
calls it on rows it made itself, so it checks nothing per step.
"""

import dataclasses
import json
import re

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
from duralign.evaluate import compare_mechanisms, duration_error, monotonicity_score, tempo_sweep, token_profile
from duralign.gradcheck import central_difference
from duralign.score import NoteEvent, PhonemeEvent, PhonemeSequence, Score, ScoreError, frames_for, parse_score_native
from duralign.simulate import SimConfig, SynthEnergySpec, phoneme_at_frame, run_simulation, synth_energies
from duralign.tokens import (
    DurationEncoderParams,
    DurationFeatures,
    TrainConfig,
    TransitionTokens,
    duration_features,
    encoder_backward,
    encoder_forward,
    oracle_tokens,
    tokens_to_csv,
    train_encoder,
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
     "non-finite alignment probability", r"alignment matrix must be one non-empty \(T, N\) array"),
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
     "non-finite point", "empty point"),
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


def number_values(name, noun):
    """(value, JSON text, message) of each bad duration or tempo, given
    the score types' name for the field and what a non-positive one is called."""
    return [
        (np.nan, "NaN", f"non-finite {name}"),
        (np.inf, "Infinity", f"non-finite {name}"),
        (-np.inf, "-Infinity", f"non-finite {name}"),
        (HUGE, str(HUGE), f"non-finite {name}"),
        (EMPTY, "[]", f"{name} is not a number"),
        (True, "true", f"{name} is not a number"),
        ("2", '"2"', f"{name} is not a number"),
        (0, "0", f"non-positive {noun}"),
        (-2.0, "-2.0", f"non-positive {noun}"),
    ]


PITCH_VALUES = [(bad, json.dumps(bad), f"invalid pitch {re.escape(repr(bad))}") for bad in (128, -1, True, "60")]

# native score fields: (field, document with the field's value, bad values, what the reader adds to the message)
SCORE_FIELDS = [
    ("tempo_bpm", lambda v: {**SCORE, "tempo_bpm": v}, number_values("default_tempo_bpm", "default tempo"), ""),
    ("duration_beats", lambda v: {**SCORE, "notes": [{**SCORE["notes"][0], "duration_beats": v}]},
     number_values("duration_beats", "duration"), " at note 0"),
    ("midi_pitch", lambda v: {**SCORE, "notes": [{**SCORE["notes"][0], "midi_pitch": v}]}, PITCH_VALUES, " at note 0"),
]


# score types built directly: (type, field, construct from the field's value, bad values)
SCORE_TYPES = [
    ("NoteEvent", "duration_beats", lambda v: NoteEvent("la", ("l", "a"), 60, v), number_values("duration_beats", "duration")),
    ("NoteEvent", "tempo_bpm", lambda v: NoteEvent("la", ("l", "a"), 60, 1.0, v), number_values("tempo_bpm", "tempo")),
    ("NoteEvent", "pitch", lambda v: NoteEvent("la", ("l", "a"), v, 1.0), PITCH_VALUES),
    ("Score", "default_tempo_bpm", lambda v: Score(default_tempo_bpm=v, notes=(NoteEvent("la", ("l", "a"), 60, 1.0),)),
     number_values("default_tempo_bpm", "default tempo")),
]


NO_PHONEMES = PhonemeSequence(events=())
UNTIMED = PhonemeSequence(events=(PhonemeEvent("a", 60, 0.5, 50, 0),))  # built by hand: no tempo

# (entry point, argument, what is wrong, call, message) of the containers and degenerate shapes
CONTAINERS = [
    ("monotonicity_score", "alignment", "one step", lambda: monotonicity_score(AlignmentMatrix(probs=ROWS[:1])),
     "need at least two steps"),
    ("oracle_tokens", "seq", "no phonemes", lambda: oracle_tokens(NO_PHONEMES), "empty durations: need at least one phoneme"),
    ("run_simulation", "seq", "no phonemes", lambda: run_simulation(NO_PHONEMES, None, CFG),
     "empty durations: need at least one phoneme"),
    ("token_profile", "seq", "no phonemes", lambda: token_profile(NO_PHONEMES, Q), "sequence/token length mismatch"),
    ("tokens_to_csv", "seq", "no phonemes", lambda: tokens_to_csv(NO_PHONEMES, Q), "sequence/token length mismatch"),
    ("token_profile", "tokens", "one short", lambda: token_profile(UNTIMED, Q), "sequence/token length mismatch"),
    ("tokens_to_csv", "tokens", "one short", lambda: tokens_to_csv(UNTIMED, Q), "sequence/token length mismatch"),
    ("duration_features", "seq", "no tempo", lambda: duration_features(UNTIMED), r"phoneme 0 \('a'\) has no tempo_bpm"),
    ("Score", "notes", "()", lambda: Score(default_tempo_bpm=120, notes=()), "score has no notes"),
    ("frames_for", "default_bpm", 1e-320, lambda: frames_for(NoteEvent("la", ("l", "a"), 60, 1.0), 1e-320),
     r"frame budget of 1\.0 beats at 1e-320 bpm is not finite"),
    ("DurationFeatures", "rows", "zero duration_s", lambda: DurationFeatures(rows=[[0.0, 120.0, 1.0]]),
     "non-positive duration_s"),
    ("TrainConfig", "epochs", 0, lambda: TrainConfig(epochs=0), "epochs must be >= 1"),
    ("TrainConfig", "epochs", 1.5, lambda: TrainConfig(epochs=1.5), "epochs must be an integer; got 1.5"),
    ("TrainConfig", "batch_size", 0, lambda: TrainConfig(batch_size=0), "batch_size must be >= 1"),
    ("TrainConfig", "seed", -1, lambda: TrainConfig(seed=-1), "seed must be >= 0"),
    ("TrainConfig", "learning_rate", np.nan, lambda: TrainConfig(learning_rate=np.nan), "non-finite learning_rate"),
    ("TrainConfig", "learning_rate", -1.0, lambda: TrainConfig(learning_rate=-1.0), "learning_rate must be >= 0"),
    ("TrainConfig", "learning_rate", True, lambda: TrainConfig(learning_rate=True), "learning_rate must be a real number; got True"),
    ("train_encoder", "feats", "no rows", lambda: train_encoder(DurationFeatures(rows=np.ones((0, 3))), Q, TrainConfig()),
     "empty dataset"),
    ("train_encoder", "targets", "one short", lambda: train_encoder(DurationFeatures(rows=np.ones((N + 1, 3))), Q, TrainConfig()),
     "target/feature length mismatch"),
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
    for shape in ((0, N), (3, 0)):
        yield "AlignmentMatrix", "probs", shape, lambda shape=shape: AlignmentMatrix(probs=np.zeros(shape)), \
            rf"^alignment matrix must be one non-empty \(T, N\) array; got shape {re.escape(str(shape))}$"
    for entry, argument, call in FRAME_TARGETS:
        for bad, message in [(np.nan, "non-finite"), (np.inf, "non-finite"), (-np.inf, "non-finite"), (HUGE, "non-finite"),
                             (EMPTY, "empty"), (0, "non-positive"), (-3, "non-positive")]:
            yield entry, argument, bad, lambda call=call, d=spoiled(D, bad): call(d), f"^{message} durations"
        yield entry, argument, "(2, 2)", lambda call=call: call([[1.0, 2.0], [3.0, 4.0]]), \
            r"^durations must be one \(N,\) vector; got shape \(2, 2\)$"
    for entry, call, other in MECHANISMS:
        yield entry, "opts", other, lambda call=call, opts=StepOptions(mechanism=other): call(opts), \
            f"^{entry} got opts for mechanism '{other}'$"
    for field, doc, values, where in SCORE_FIELDS:
        for bad, text, message in values:
            document = json.dumps(doc("@")).replace('"@"', text)
            yield "parse_score_native", field, bad, lambda document=document: parse_score_native(document), \
                f"^{message}{where}$"
    for entry, field, build, values in SCORE_TYPES:
        for bad, _, message in values:
            value = [] if bad is EMPTY else bad
            yield entry, field, bad, lambda build=build, value=value: build(value), f"^{message}$"
    for entry, argument, bad, call, message in CONTAINERS:
        yield entry, argument, bad, call, f"^{message}$"


ROWS_OF_CONTRACT = list(contract_rows())


def row_id(row):
    entry, argument, bad = row[:3]
    return f"{entry}-{argument}-{'10**400' if bad is HUGE else bad}"


@pytest.mark.parametrize("entry, argument, bad, call, message", ROWS_OF_CONTRACT, ids=[row_id(r) for r in ROWS_OF_CONTRACT])
def test_entry_point_rejects_bad_input_by_name(entry, argument, bad, call, message):
    error = ScoreError if entry in ("parse_score_native", "NoteEvent", "Score", "frames_for") else ValueError
    with pytest.raises(error, match=message):
        call()
