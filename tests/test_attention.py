import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duralign.attention import (
    AlignmentDistribution,
    AlignmentMatrix,
    EnergyParams,
    StepOptions,
    alignment_to_csv,
    alignment_to_pgm,
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
    window_mask,
    _batch_forward,
    _csv_chunks,
    _shift_weights,
)
from duralign.cli import main
from duralign.tokens import TransitionTokens
from pinned import X86_V2, X86_V3, X86_V4, assert_pinned


def random_energies(rng, n):
    return normalize_energies(rng.normal(0.0, 1.0, n))


def uniform(n):
    return np.full(n, 1.0 / n)


class TestContentEnergies:
    def test_zero_projection_gives_zero(self):
        params = EnergyParams(W=np.ones((3, 2)), V=np.ones((3, 4)), v=np.zeros(3), b=np.zeros(3))
        e = content_energies(params, np.ones(2), np.ones((5, 4)))
        assert np.all(e == 0.0)

    def test_identical_keys_get_equal_energy(self):
        params = EnergyParams.init(0, query_dim=2, key_dim=4, attn_dim=3)
        keys = np.tile(np.array([0.3, -1.0, 0.7, 0.2]), (6, 1))
        e = content_energies(params, np.array([0.1, -0.4]), keys)
        assert np.all(e == e[0])

    def test_scalar_recomputation(self):
        params = EnergyParams(
            W=np.array([[0.5]]), V=np.array([[-0.25]]), v=np.array([2.0]), b=np.array([0.1])
        )
        e = content_energies(params, np.array([0.8]), np.array([[1.2], [-0.4]]))
        for i, k in enumerate((1.2, -0.4)):
            assert e[i] == pytest.approx(2.0 * math.tanh(0.5 * 0.8 - 0.25 * k + 0.1), abs=1e-15)

    def test_dimension_mismatch(self):
        params = EnergyParams.init(0, query_dim=2, key_dim=4, attn_dim=3)
        with pytest.raises(ValueError):
            content_energies(params, np.ones(3), np.ones((5, 4)))
        with pytest.raises(ValueError):
            content_energies(params, np.ones(2), np.ones((5, 3)))

    @pytest.mark.parametrize(
        "query,keys,match",
        [
            (np.ones(3), np.ones((5, 4)), "query/key dimension mismatch"),
            (np.ones(2), np.ones((5, 3)), "query/key dimension mismatch"),
            (np.ones(2), np.ones(4), "keys must be a non-empty"),
            (np.ones(2), np.ones((0, 4)), "keys must be a non-empty"),
        ],
    )
    def test_backward_checks_dimensions_as_forward_does(self, query, keys, match):
        params = EnergyParams.init(0, query_dim=2, key_dim=4, attn_dim=3)
        with pytest.raises(ValueError, match=match):
            content_energies(params, query, keys)
        with pytest.raises(ValueError, match=match):
            content_energies_backward(params, query, keys, np.ones(len(keys)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_backward_rejects_nonfinite_upstream(self, bad):
        params = EnergyParams.init(0, query_dim=2, key_dim=4, attn_dim=3)
        with pytest.raises(ValueError, match="non-finite upstream gradient"):
            content_energies_backward(params, np.ones(2), np.ones((5, 4)), np.array([0.0, 1.0, bad, 0.0, 1.0]))

    def test_backward_returns_params_and_rejects_an_overflowing_gradient(self):
        params = EnergyParams.init(0, query_dim=2, key_dim=4, attn_dim=3)
        grads = content_energies_backward(params, np.ones(2), np.ones((5, 4)), np.ones(5))
        assert isinstance(grads, EnergyParams)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="^non-finite energy parameter$"):
            content_energies_backward(params, np.ones(2), np.ones((5, 4)), np.full(5, 1e308))


class TestNormalize:
    def test_uniform(self):
        assert np.allclose(normalize_energies(np.zeros(4)), 0.25, atol=1e-15)

    def test_two_to_one(self):
        e = normalize_energies(np.array([math.log(2.0), 0.0]))
        assert np.allclose(e, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_no_overflow_for_large_energies(self):
        e = normalize_energies(np.array([1000.0, 0.0, -1000.0]))
        assert np.isfinite(e).all()
        assert e.sum() == pytest.approx(1.0)
        assert e[0] == pytest.approx(1.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(0.0, 3.0, 9)
        assert np.allclose(normalize_energies(raw), normalize_energies(raw + 123.456), atol=1e-15)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            normalize_energies(np.array([0.0, np.inf]))


@pytest.mark.parametrize(
    "call",
    [
        lambda: normalize_energies(np.array([])),
        lambda: normalize_energies(np.zeros((3, 0))),
        lambda: la_step(np.array([])),
        lambda: lattice_forward(None, np.zeros((3, 0)), StepOptions(mechanism="fa")),
    ],
)
def test_energy_entry_points_reject_an_empty_vector(call):
    with pytest.raises(ValueError, match="empty energy vector"):
        call()


class TestContainers:
    def test_init_alignment(self):
        p = init_alignment(4)
        assert p.step == 0
        assert np.array_equal(p.p, [1.0, 0.0, 0.0, 0.0])

    def test_init_rejects_empty(self):
        with pytest.raises(ValueError):
            init_alignment(0)

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            AlignmentDistribution(p=np.array([0.6, 0.6]))
        with pytest.raises(ValueError):
            AlignmentDistribution(p=np.array([1.5, -0.5]))

    @pytest.mark.parametrize("bad", [[np.nan, 0.5], [np.nan, 1.0], [np.inf, 0.0], [1.0, -np.inf]])
    def test_distribution_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            AlignmentDistribution(p=np.array(bad))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mechanism": "bogus"},
            {"window_width": 7},
            {"window_width": 0},
            {"window_shape": "gaussian"},
            {"convention": "eq99"},
        ],
    )
    def test_step_options_validation(self, kwargs):
        with pytest.raises(ValueError):
            StepOptions(**kwargs)


class TestGdcaStep:
    def test_forced_move(self):
        # q = 1 everywhere: the whole distribution shifts one phoneme.
        p0 = init_alignment(3)
        q = TransitionTokens(q=np.ones(3))
        p1 = gdca_step(p0, q, uniform(3))
        assert np.array_equal(p1.p, [0.0, 1.0, 0.0])
        assert p1.step == 1

    def test_forced_move_any_positive_energies(self):
        rng = np.random.default_rng(0)
        p = init_alignment(5)
        q = TransitionTokens(q=np.ones(5))
        for t in range(4):
            p = gdca_step(p, q, random_energies(rng, 5))
            expected = np.zeros(5)
            expected[min(t + 1, 4)] = 1.0
            assert np.array_equal(p.p, expected)

    def test_forced_stay(self):
        p0 = init_alignment(2)
        q = TransitionTokens(q=np.array([1e-4, 1.0]))
        p1 = gdca_step(p0, q, uniform(2))
        # only q_min leakage moves on
        assert p1.p[0] == pytest.approx(0.9999, abs=1e-12)
        assert p1.p[1] == pytest.approx(1e-4, abs=1e-12)

    def test_absorbing_final_phoneme(self):
        # mass parked at the end stays there regardless of q.
        p0 = AlignmentDistribution(p=np.array([0.0, 0.0, 1.0]), step=0)
        q = TransitionTokens(q=np.array([0.5, 0.5, 1.0]))
        p1 = gdca_step(p0, q, uniform(3))
        assert np.array_equal(p1.p, [0.0, 0.0, 1.0])

    def test_fa_equivalence_at_half(self):
        # q = 0.5 weights are exactly half the token-free weights, so the
        # normalized distributions agree bit for bit.
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            p = AlignmentDistribution(p=rng.dirichlet(np.ones(n)))
            e = random_energies(rng, n)
            q = TransitionTokens(q=np.full(n, 0.5))
            left = gdca_step(p, q, e)
            right = fa_step(p, e)
            assert np.array_equal(left.p, right.p)

    def test_eq3_literal_convention(self):
        # literal coefficients: move weight 1-q[n-1], stay weight q[n].
        p0 = AlignmentDistribution(p=np.array([0.4, 0.6, 0.0]))
        q = TransitionTokens(q=np.array([0.2, 0.7, 0.9]))
        opts = StepOptions(convention="eq3-literal")
        p1 = gdca_step(p0, q, uniform(3), opts)
        a = np.array([0.2 * 0.4, 0.7 * 0.6 + 0.8 * 0.4, 1.0 * 0.0 + 0.3 * 0.6])
        assert np.allclose(p1.p, a / a.sum(), atol=1e-15)

    def test_prose_convention_manual(self):
        p0 = AlignmentDistribution(p=np.array([0.4, 0.6, 0.0]))
        q = TransitionTokens(q=np.array([0.2, 0.7, 0.9]))
        e = np.array([0.5, 0.3, 0.2])
        p1 = gdca_step(p0, q, e)
        a = np.array([0.8 * 0.4, 0.3 * 0.6 + 0.2 * 0.4, 1.0 * 0.0 + 0.7 * 0.6])
        b = a * e
        assert np.allclose(p1.p, b / b.sum(), atol=1e-15)

    def test_content_tilts_the_race(self):
        p0 = AlignmentDistribution(p=np.array([0.5, 0.5]))
        q = TransitionTokens(q=np.array([0.5, 0.5]))
        skewed = np.array([0.9, 0.1])
        p1 = gdca_step(p0, q, skewed)
        assert p1.p[0] > 0.5

    def test_zero_energy_underflow_raises(self):
        p0 = init_alignment(3)
        q = TransitionTokens(q=np.full(3, 0.5))
        with pytest.raises(FloatingPointError):
            gdca_step(p0, q, np.zeros(3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            gdca_step(init_alignment(3), TransitionTokens(q=np.full(2, 0.5)), uniform(3))


def test_step_functions_reject_an_alignment_of_another_length():
    p0 = init_alignment(4)
    q = TransitionTokens(q=np.full(3, 0.5))
    for step in (lambda: gdca_step(p0, q, uniform(3)), lambda: fa_step(p0, uniform(3)), lambda: la_step(uniform(3), p0)):
        with pytest.raises(ValueError, match="^length mismatch between alignment and energies$"):
            step()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_step_functions_reject_nonfinite_energy(bad):
    p0 = init_alignment(3)
    e = np.array([0.5, bad, 0.5])
    q = TransitionTokens(q=np.full(3, 0.5))
    for step in (
        lambda: gdca_step(p0, q, e),
        lambda: fa_step(p0, e),
        lambda: la_step(e),
        lambda: la_step(e, p0, StepOptions(mechanism="la", filter_enabled=True)),
    ):
        with pytest.raises(ValueError, match="non-finite energy"):
            step()


class TestFaStep:
    def test_manual(self):
        p0 = AlignmentDistribution(p=np.array([0.5, 0.5, 0.0]))
        p1 = fa_step(p0, uniform(3))
        assert np.allclose(p1.p, [0.25, 0.5, 0.25], atol=1e-15)

    def test_spreads_support_by_one(self):
        p = init_alignment(6)
        for t in range(5):
            p = fa_step(p, uniform(6))
            assert np.count_nonzero(p.p) == min(t + 2, 6)


class TestLaStep:
    def test_is_normalized_energy(self):
        e = np.array([0.2, 0.5, 0.3])
        p = la_step(e)
        assert np.allclose(p.p, e, atol=1e-15)

    def test_first_step_has_no_window(self):
        # no previous argmax to center a window on, so the filter is off
        e = np.array([0.1, 0.2, 0.3, 0.4])
        p = la_step(e, opts=StepOptions(mechanism="la", filter_enabled=True, window_width=2))
        assert p.step == 0
        assert np.array_equal(p.p, la_step(e).p)

    def test_window_masks_energies(self):
        prev = AlignmentDistribution(p=np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0]))
        e = np.full(6, 1.0 / 6.0)
        opts = StepOptions(mechanism="la", filter_enabled=True, window_width=2)
        p = la_step(e, prev, opts)
        assert np.allclose(p.p, [1 / 3, 1 / 3, 1 / 3, 0, 0, 0], atol=1e-15)


class TestDynamicFilter:
    def test_support_and_argmax(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.dirichlet(np.ones(40))
            out = dynamic_filter(p, width=16)
            assert np.count_nonzero(out) <= 17
            assert np.argmax(out) == np.argmax(p)

    def test_zeroes_outside_window(self):
        p = np.full(30, 1.0 / 30.0)
        p[20] = p[20] + 0.5
        p = p / p.sum()
        out = dynamic_filter(p, width=4)
        assert np.all(out[:18] == 0) and np.all(out[23:] == 0)
        assert np.array_equal(out[18:23], p[18:23])  # kept values untouched, no renorm

    def test_tie_breaks_to_smallest_index(self):
        p = np.array([0.3, 0.3, 0.2, 0.2])
        out = dynamic_filter(p, width=2)
        assert np.array_equal(out, [0.3, 0.3, 0.0, 0.0])

    def test_triangular_taper(self):
        p = np.full(9, 1.0 / 9.0)
        p[4] = 0.5
        p = p / p.sum()
        out = dynamic_filter(p, width=4, shape="triangular")
        mask = np.array([0.0, 0.0, 1 / 3, 2 / 3, 1.0, 2 / 3, 1 / 3, 0.0, 0.0])
        assert np.allclose(out, p * mask, atol=1e-15)

    def test_rejects_an_empty_alignment(self):
        with pytest.raises(ValueError, match="empty alignment vector"):
            dynamic_filter(np.array([]))

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            dynamic_filter(np.array([1.0]), width=3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_nonfinite_alignment(self, bad):
        with pytest.raises(ValueError, match="^non-finite alignment$"):
            dynamic_filter(np.array([0.5, bad, 0.25]))

    def test_window_mask_clips_at_edges(self):
        m = window_mask(5, 0, 16)
        assert np.array_equal(m, np.ones(5))
        m = window_mask(10, 9, 4)
        assert np.array_equal(m, [0, 0, 0, 0, 0, 0, 0, 1, 1, 1])


class TestContextVector:
    def test_delta_picks_row(self):
        keys = np.arange(12.0).reshape(4, 3)
        c = context_vector(init_alignment(4), keys)
        assert np.array_equal(c, keys[0])

    def test_uniform_gives_mean(self):
        keys = np.arange(12.0).reshape(4, 3)
        c = context_vector(uniform(4), keys)
        assert np.allclose(c, keys.mean(axis=0), atol=1e-15)

    @pytest.mark.parametrize(
        "p, keys, message",
        [
            ([np.nan, 1.0], np.ones((2, 3)), "^non-finite alignment$"),
            ([0.5, 0.5], np.array([[1.0, np.inf, 0.0], [0.0, 0.0, 0.0]]), "^non-finite keys$"),
            ([0.5, 0.5], np.full((2, 3), np.nan), "^non-finite keys$"),
        ],
    )
    def test_rejects_non_finite_input_by_name(self, p, keys, message):
        with pytest.raises(ValueError, match=message):
            context_vector(np.array(p), keys)


class TestLatticeForward:
    def test_shape_and_init_row(self):
        rng = np.random.default_rng(2)
        E = np.vstack([random_energies(rng, 5) for _ in range(7)])
        q = TransitionTokens(q=np.full(5, 0.3))
        mat = lattice_forward(q, E)
        assert mat.probs.shape == (8, 5)
        assert np.array_equal(mat.probs[0], [1, 0, 0, 0, 0])
        assert np.allclose(mat.probs.sum(axis=1), 1.0, atol=1e-9)

    def test_matches_stepwise(self):
        rng = np.random.default_rng(3)
        E = np.vstack([random_energies(rng, 4) for _ in range(6)])
        q = TransitionTokens(q=rng.uniform(0.1, 0.9, 4))
        mat = lattice_forward(q, E)
        p = init_alignment(4)
        for t in range(6):
            p = gdca_step(p, q, E[t])
            assert np.array_equal(mat.probs[t + 1], p.p)

    def test_fa_and_la_paths(self):
        rng = np.random.default_rng(5)
        E = np.vstack([random_energies(rng, 4) for _ in range(6)])
        fa = lattice_forward(None, E, StepOptions(mechanism="fa"))
        la = lattice_forward(None, E, StepOptions(mechanism="la"))
        assert fa.probs.shape == la.probs.shape == (7, 4)
        assert np.allclose(la.probs[1:], E, atol=1e-15)

    def test_rejects_nonfinite_energy_matrix(self):
        E = np.full((5, 4), 0.25)
        E[3, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite energy"):
            lattice_forward(TransitionTokens(q=np.full(4, 0.5)), E)

    def test_gdca_requires_tokens(self):
        with pytest.raises(ValueError):
            lattice_forward(None, np.full((3, 4), 0.25))

    def test_cache_holds_two_arrays_of_the_rows_size(self):
        # the rows and a copy of the energies, and no (T, N) pre-content
        # rows; AlignmentMatrix's bool finiteness mask over the rows is
        # freed before the copy is made, and the normalizers are one (T,)
        # array: the peak measured 1.014 times the two arrays, and the
        # mask (an eighth of the rows) or a list of T numpy scalars held
        # at the peak would each exceed the bound
        rng = np.random.default_rng(7)
        t_steps, n = 848, 64
        q = TransitionTokens(q=rng.uniform(0.05, 0.95, n))
        E = normalize_energies(rng.normal(0.0, 1.0, (t_steps, n)))
        tracemalloc.start()
        try:
            mat = lattice_forward(q, E, keep_cache=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mat.cache is not None
        assert peak < 1.03 * 2 * (t_steps + 1) * n * 8

    def test_cache_requires_unfiltered_gdca(self):
        E = np.full((3, 4), 0.25)
        with pytest.raises(ValueError):
            lattice_forward(None, E, StepOptions(mechanism="fa"), keep_cache=True)
        with pytest.raises(ValueError):
            lattice_forward(
                TransitionTokens(q=np.full(4, 0.5)),
                E,
                StepOptions(filter_enabled=True),
                keep_cache=True,
            )

    def test_forced_move_diagonal(self):
        # q = 1: row t is a delta at min(t, N-1) whatever the energies.
        rng = np.random.default_rng(6)
        E = np.vstack([random_energies(rng, 4) for _ in range(6)])
        mat = lattice_forward(TransitionTokens(q=np.ones(4)), E)
        for t, row in enumerate(mat.probs):
            expected = np.zeros(4)
            expected[min(t, 3)] = 1.0
            assert np.array_equal(row, expected)

    def test_slow_floor_keeps_mass_at_start(self):
        # q = q_min with uniform energies: p_t(0) >= 1 - t * q_min.
        q_min = 1e-4
        n, T = 6, 200
        E = np.full((T, n), 1.0 / n)
        mat = lattice_forward(TransitionTokens(q=np.full(n, q_min)), E)
        for t in range(T + 1):
            assert mat.probs[t, 0] >= 1.0 - t * q_min - 1e-12


def batch_problem(seed, n, t_steps=9, batch=5):
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.1, 0.9, (batch, n))
    energies = normalize_energies(rng.normal(0.0, 1.0, (batch, t_steps, n)))
    return q, energies


def looped_forward(q, energies, opts):
    """Reference for _batch_forward: one lattice_forward call per sequence."""
    batch = q.shape[0] if q.ndim == 2 else energies.shape[0]
    return np.stack(
        [
            lattice_forward(
                TransitionTokens(q=q[i] if q.ndim == 2 else q),
                energies[i] if energies.ndim == 3 else energies,
                opts,
            ).probs
            for i in range(batch)
        ]
    )


BATCH_OPTS = {
    "gdca": StepOptions(),
    "gdca-eq3": StepOptions(convention="eq3-literal"),
    "fa": StepOptions(mechanism="fa"),
    "la": StepOptions(mechanism="la"),
}


def batched_sides(q, energies, side):
    """Keep the batch on the tokens, the energies, or both."""
    if side == "tokens":
        return q, energies[0]
    if side == "energies":
        return q[0], energies
    return q, energies


def batch_forward(q, energies, opts):
    """_batch_forward with an unbatched side shared by every sequence,
    as the gradient check passes its token and energy stacks."""
    batch = q.shape[0] if q.ndim == 2 else energies.shape[0]
    n = energies.shape[-1]
    return _batch_forward(
        np.broadcast_to(q, (batch, q.shape[-1])), np.broadcast_to(energies, (batch, energies.shape[-2], n)), opts
    )


class TestLatticeBatch:
    """The private batched forward that the lattice gradient check runs."""

    @pytest.mark.parametrize("side", ["tokens", "energies", "both"])
    @pytest.mark.parametrize("name", list(BATCH_OPTS))
    def test_equals_unbatched_loop_below_eight_phonemes(self, name, side):
        q, energies = batched_sides(*batch_problem(0, 4), side)
        probs = batch_forward(q, energies, BATCH_OPTS[name])
        assert probs.shape == (5, 10, 4)
        assert np.array_equal(probs, looped_forward(q, energies, BATCH_OPTS[name]))

    @pytest.mark.parametrize("n", [14, 64])
    @pytest.mark.parametrize("side", ["tokens", "energies", "both"])
    @pytest.mark.parametrize("name", list(BATCH_OPTS))
    def test_matches_unbatched_loop_to_rounding(self, name, side, n):
        q, energies = batched_sides(*batch_problem(n, n, t_steps=3 * n), side)
        probs = batch_forward(q, energies, BATCH_OPTS[name])
        np.testing.assert_allclose(probs, looped_forward(q, energies, BATCH_OPTS[name]), rtol=1e-12)

    def test_underflow_in_one_sequence_raises(self):
        q, energies = batch_problem(7, 4)
        energies[2, 3] = 0.0
        with pytest.raises(FloatingPointError, match="underflowed"):
            batch_forward(q, energies, StepOptions())

    def test_rejects_wrong_length_batched_tokens(self):
        q, energies = batch_problem(5, 4)
        with pytest.raises(ValueError, match="matching the phoneme count"):
            batch_forward(q[:, :3], energies[0], StepOptions())

    def test_rejects_three_dimensional_tokens(self):
        with pytest.raises(ValueError, match=r"one non-empty \(N,\) vector; got shape \(2, 3, 4\)"):
            TransitionTokens(q=np.full((2, 3, 4), 0.5))

    def test_single_sequence_functions_reject_a_batch(self):
        # the public types hold one sequence, so no public function can be handed a batch
        q, energies = batch_problem(6, 4)
        with pytest.raises(ValueError, match=r"one non-empty \(N,\) vector; got shape \(1, 4\)"):
            TransitionTokens(q=q[:1])
        probs = batch_forward(q, energies, StepOptions())
        with pytest.raises(ValueError, match=r"one non-empty \(T, N\) array; got shape \(5, 10, 4\)"):
            AlignmentMatrix(probs=probs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_alignment_matrix_rejects_nonfinite_probabilities(self, bad):
        probs = np.zeros((300, 7))
        probs[123, 4] = bad
        with pytest.raises(ValueError, match="^non-finite alignment probability$"):
            AlignmentMatrix(probs=probs)


class TestOccupancy:
    def test_matches_targets(self):
        d = np.array([5.0, 10.0, 50.0, 100.0])
        q = TransitionTokens(q=1.0 / d)
        occ = pure_lattice_occupancy(q, horizon=int(4 * d.sum()))
        assert np.all(np.abs(occ - d) / d < 0.02)

    def test_single_phoneme(self):
        occ = pure_lattice_occupancy(np.array([0.25]), horizon=200)
        assert occ[0] == pytest.approx(4.0, rel=1e-6)

    @pytest.mark.parametrize("q", [[2.0, 0.5], [0.5, math.nan], [0.0, 0.5], [0.5, -0.1]])
    def test_rejects_raw_tokens_outside_unit_interval(self, q):
        message = r"^non-finite transition token$" if math.isnan(q[1]) else r"transition tokens must lie in \(0, 1\]"
        with pytest.raises(ValueError, match=message):
            pure_lattice_occupancy(np.array(q), horizon=5)

    def test_rejects_negative_horizon(self):
        with pytest.raises(ValueError, match="horizon must be >= 0"):
            pure_lattice_occupancy(np.array([0.5, 0.5]), horizon=-1)

    @pytest.mark.parametrize("horizon", [1.5, 2.0, True, np.float64(3.0), "3", None])
    def test_rejects_a_non_integer_horizon_by_name(self, horizon):
        with pytest.raises(ValueError, match=f"^horizon must be an integer; got {horizon}$"):
            pure_lattice_occupancy(np.array([0.5, 0.5]), horizon=horizon)

    def test_takes_a_numpy_integer_horizon(self):
        q = np.array([0.5, 0.25])
        assert np.array_equal(pure_lattice_occupancy(q, horizon=np.int32(7)), pure_lattice_occupancy(q, horizon=7))


class TestLatticeBackward:
    @staticmethod
    def problem(seed, n=4, t_steps=12, convention="prose"):
        rng = np.random.default_rng(seed)
        d = rng.integers(2, 6, n).astype(np.float64)
        E = np.vstack([random_energies(rng, n) for _ in range(t_steps)])
        opts = StepOptions(convention=convention)
        return d, E, opts

    @staticmethod
    def loss_and_grad(qv, d, E, opts):
        t_steps = E.shape[0]
        mat = lattice_forward(TransitionTokens(q=qv), E, opts, keep_cache=True)
        occ = mat.probs.sum(axis=0)
        loss = float(np.sum((occ - d) ** 2))
        d_probs = np.tile(2.0 * (occ - d), (t_steps + 1, 1))
        dq, dE = lattice_backward(mat, d_probs)
        return loss, dq, dE

    def test_zero_upstream_gives_zero(self):
        d, E, opts = self.problem(0)
        mat = lattice_forward(TransitionTokens(q=np.full(4, 0.5)), E, opts, keep_cache=True)
        dq, dE = lattice_backward(mat, np.zeros_like(mat.probs))
        assert np.all(dq == 0) and np.all(dE == 0)

    @pytest.mark.parametrize("convention", ["prose", "eq3-literal"])
    def test_matches_finite_differences(self, convention):
        d, E, opts = self.problem(1, convention=convention)
        q0 = np.random.default_rng(9).uniform(0.2, 0.8, 4)
        _, dq, dE = self.loss_and_grad(q0, d, E, opts)

        step = 1e-6
        for i in range(4):
            up, down = q0.copy(), q0.copy()
            up[i] += step
            down[i] -= step
            fd = (self.loss_and_grad(up, d, E, opts)[0] - self.loss_and_grad(down, d, E, opts)[0]) / (2 * step)
            assert dq[i] == pytest.approx(fd, abs=1e-5, rel=1e-5)
        flatE = E.ravel()
        for i in (0, 7, 23, 40):
            up, down = flatE.copy(), flatE.copy()
            up[i] += step
            down[i] -= step
            fd = (
                self.loss_and_grad(q0, d, up.reshape(E.shape), opts)[0]
                - self.loss_and_grad(q0, d, down.reshape(E.shape), opts)[0]
            ) / (2 * step)
            assert dE.ravel()[i] == pytest.approx(fd, abs=1e-5, rel=1e-5)

    def test_descent_on_tokens_reduces_loss(self):
        # frozen step size: 1e-3 descends monotonically for 10 steps here
        d, E, opts = self.problem(3)
        q = np.full(4, 0.5)
        losses = []
        for _ in range(11):
            loss, dq, _ = self.loss_and_grad(q, d, E, opts)
            losses.append(loss)
            q = np.clip(q - 1e-3 * dq, 1e-4, 1.0)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_requires_cache(self):
        mat = AlignmentMatrix(probs=np.full((3, 2), 0.5))
        with pytest.raises(ValueError):
            lattice_backward(mat, np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 5])
    def test_rejects_nonfinite_upstream(self, bad, row):
        d, E, opts = self.problem(0)
        mat = lattice_forward(TransitionTokens(q=np.full(4, 0.5)), E, opts, keep_cache=True)
        d_probs = np.ones_like(mat.probs)
        d_probs[row, 2] = bad
        with pytest.raises(ValueError, match="non-finite upstream gradient d_probs"):
            lattice_backward(mat, d_probs)

    @staticmethod
    def allocating_backward(alignment, d_probs):
        """The per-step loop that allocates its temporaries on every
        step, kept as the reference for the buffered reverse kernel.  It
        rebuilds each pre-content vector a from the cached rows, as the
        forward step built it."""
        cache = alignment.cache
        t_steps, n = cache.energies.shape
        move, stay = _shift_weights(cache.q, cache.convention)
        sign = 1.0 if cache.convention == "prose" else -1.0  # eq3-literal is prose with q -> 1 - q
        dq = np.zeros(n)
        d_energies = np.zeros((t_steps, n))
        carry = np.zeros(n)
        for t in range(t_steps - 1, -1, -1):
            g = carry + d_probs[t + 1]
            p_prev = cache.p_rows[t]
            db = (g - np.dot(g, cache.p_rows[t + 1])) / cache.sums[t]
            a = stay * p_prev
            a[1:] += move[1:] * p_prev[:-1]
            d_energies[t] = db * a
            da = db * cache.energies[t]
            dstay = da * p_prev
            dmove = np.zeros(n)
            dmove[1:] = da[1:] * p_prev[:-1]
            dq[:-1] += sign * dmove[1:]
            dq[:-1] -= sign * dstay[:-1]
            carry = da * stay
            carry[:-1] += da[1:] * move[1:]
        return dq, d_energies

    @pytest.mark.parametrize("convention", ["prose", "eq3-literal"])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 14, 64, 256])
    def test_equals_allocating_loop(self, convention, n):
        # the reverse pass works in 128-step blocks: T covers one short
        # block, one full block, a full one and a step, and a short last
        # block after two; at N = 2 the dq terms have one column besides
        # the zero one, where numpy would sum a lone column pairwise
        rng = np.random.default_rng(n)
        for t_steps in (1, 5, 130) if n == 256 else (1, 5, 127, 128, 129, 130, 257, 300, 385):
            q = TransitionTokens(q=rng.uniform(0.05, 0.95, n))
            E = normalize_energies(rng.normal(0.0, 2.0, (t_steps, n)))
            mat = lattice_forward(q, E, StepOptions(convention=convention), keep_cache=True)
            d_probs = rng.normal(0.0, 1.0, mat.probs.shape)
            dq, dE = lattice_backward(mat, d_probs)
            ref_dq, ref_dE = self.allocating_backward(mat, d_probs)
            assert np.array_equal(dq, ref_dq) and np.array_equal(dE, ref_dE)


def per_cell_csv(probs):
    """The original one-f-string-per-cell formatter, kept as the reference."""
    lines = ["t,n,p"]
    for t, row in enumerate(probs):
        for n, p in enumerate(row):
            lines.append(f"{t},{n},{float(p)!r}")
    return "\n".join(lines) + "\n"


# Boundaries of repr's switch to exponent notation (1e-4, 1e16), the
# smallest subnormal and normal, signed zeros and whole-number floats.
EDGE_CELLS = [
    -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-5, 1e-4, 9.999999999999999e-05,
    1e15, 1e16, 9999999999999998.0, 1.0, 2.0, -3.0, 1.0000000000000002, 0.1,
]
# Negative 17-digit texts at every decimal point position repr writes
# positionally, and in exponent form with exponents of one, two and three
# digits, beside one-digit mantissas: the longest texts (up to 24 bytes).
FULL_WIDTH_CELLS = [
    -0.00024487578205219625, -0.0011376069093704047, -0.017536302521842892, -0.13309962190059238,
    -6.4840612334059315, -24.842999217375613, -461.04944904994744, -2828.4540081564774,
    -41393.399912463225, -209090.03034054954, -1154919.3434880143, -25422720.528436854,
    -119850103.92520206, -3051810413.5176353, -32393781177.593864, -105929021966.64107,
    -3638874635554.3584, -30765438354354.715, -279032547190762.22, -1070864604859920.6,
    -3.1986002036147884e-05, -1e-05, -1.1000107421657726e-10, -1e-10, -4.2334146090032024e+16, -1e+16,
    -1.0930633032521936e+100, -1e+100, -1.8053522863564794e-300, -1e-300,
]
# every finite value but +0.0: the cells whose digits the formatter finds
written_cells = st.one_of(
    st.sampled_from(EDGE_CELLS), st.floats(allow_nan=False, allow_infinity=False)
).filter(lambda v: v != 0.0 or math.copysign(1.0, v) < 0)
any_cells = st.one_of(st.just(0.0), written_cells)


@st.composite
def csv_matrices(draw):
    t_steps = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    rows = [
        draw(st.one_of(
            st.just([0.0] * n),  # an all-zero row
            st.lists(written_cells, min_size=n, max_size=n),  # a fully dense row
            st.lists(any_cells, min_size=n, max_size=n),
        ))
        for _ in range(t_steps)
    ]
    return np.array(rows, dtype=np.float64).reshape(t_steps, n)


# A small pool with signed zeros, the smallest subnormal, another
# subnormal and a tiny normal, so that values and whole rows repeat.
POOL_CELLS = [0.0, -0.0, 5e-324, 2.2e-310, 1e-300, 0.25, 1.0]


@st.composite
def pooled_csv_matrices(draw):
    """Up to 300 rows (past the 128-row blocks of alignment_to_csv), each
    picked from a few rows drawn from the pool."""
    n = draw(st.integers(1, 4))
    row = st.lists(st.sampled_from(POOL_CELLS), min_size=n, max_size=n)
    distinct = draw(st.lists(row, min_size=1, max_size=5))
    t_steps = draw(st.integers(1, 300))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=t_steps, max_size=t_steps))
    return np.array([distinct[i] for i in picks], dtype=np.float64).reshape(t_steps, n)


class TestExports:
    # sha256 of alignment.csv from criterion 12's seeded simulate run on
    # ten_notes.json, without and with the window filter (which zeroes
    # cells), per exp kernel (``pinned``); the X86_V4 kernel's were
    # recorded with the per-cell formatter.
    CSV_DIGESTS = [
        ((), {
            X86_V4: "042b7e5db7e5241032ff1be541cf45383ec27b2bea35ae823f24e98bc0e1ac2d",
            X86_V3: "03b40bab1ff6309d54f67d776e19447847c8ccd2651ffb8435e49afa41d52006",
            X86_V2: "03b40bab1ff6309d54f67d776e19447847c8ccd2651ffb8435e49afa41d52006",
        }),
        (("--filter",), {
            X86_V4: "3e5af432a0844777146bd2e35cef1cb47352ca7f1b67bf3e90398113b38ff256",
            X86_V3: "affcf159def6cab85e4f75176fb0f2a6d9f427aebdbb21c632906bb36944c477",
            X86_V2: "affcf159def6cab85e4f75176fb0f2a6d9f427aebdbb21c632906bb36944c477",
        }),
    ]

    def test_csv(self):
        mat = AlignmentMatrix(probs=np.array([[1.0, 0.0], [0.25, 0.75], [-0.0, 1.0]]))
        lines = alignment_to_csv(mat).splitlines()
        assert lines[0] == "t,n,p"
        assert lines[1] == "0,0,1.0"
        assert lines[2] == "0,1,0.0"
        assert lines[4] == "1,1,0.75"
        assert lines[5] == "2,0,-0.0"  # -0.0 == 0, but keeps its sign

    @pytest.mark.parametrize("extra,digests", CSV_DIGESTS, ids=["unfiltered", "filtered"])
    def test_cli_csv_bytes_are_pinned(self, tmp_path, capsys, fixtures_dir, extra, digests):
        out = tmp_path / "sim"
        code = main(
            ["simulate", str(fixtures_dir / "ten_notes.json"), "--out", str(out), "--seed", "7",
             "--energy", "noisy_diagonal", "--noise-sigma", "0.5", *extra]
        )
        capsys.readouterr()
        assert code == 0
        assert_pinned(digests, hashlib.sha256((out / "alignment.csv").read_bytes()).hexdigest())

    @given(csv_matrices())
    def test_csv_matches_per_cell_formatter(self, probs):
        assert alignment_to_csv(AlignmentMatrix(probs=probs)) == per_cell_csv(probs)

    @settings(deadline=None)
    @given(pooled_csv_matrices())
    def test_pooled_csv_across_blocks_matches_per_cell_formatter(self, probs):
        assert alignment_to_csv(AlignmentMatrix(probs=probs)) == per_cell_csv(probs)

    def test_csv_with_equal_rows_at_block_edges(self):
        probs = np.random.default_rng(3).random((300, 3))
        probs[128] = probs[127]
        probs[256] = probs[255]
        probs[127, 1] = probs[128, 1] = probs[40, 2] = probs[200, 0] = -0.0
        probs[255, 2] = probs[256, 2] = 0.0
        assert alignment_to_csv(AlignmentMatrix(probs=probs)) == per_cell_csv(probs)

    def test_csv_of_full_width_texts_beside_a_block_of_short_ones(self):
        # rows 0-127 hold every full-width text between signed zeros; the
        # second block, rows 128-129, only zeros and one short text
        probs = np.zeros((130, 6))
        probs[:128] = np.resize(FULL_WIDTH_CELLS + [0.0, -0.0], (128, 6))
        probs[128] = [0.0, -0.0, 0.5, 0.0, 0.0, -0.0]
        assert alignment_to_csv(AlignmentMatrix(probs=probs)) == per_cell_csv(probs)

    def test_csv_of_random_doubles_across_blocks(self):
        # every magnitude and sign, 300 rows (three 128-row blocks)
        bits = np.random.default_rng(11).integers(0, 2**64, (300, 5), dtype=np.uint64, endpoint=False)
        probs = bits.view(np.float64).copy()
        probs[~np.isfinite(probs)] = -0.0
        probs[::7, 2] = 0.0
        assert alignment_to_csv(AlignmentMatrix(probs=probs)) == per_cell_csv(probs)

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("t_steps", [1, 127, 128, 129, 257])
    def test_csv_chunks_join_to_the_csv(self, t_steps, n):
        probs = np.random.default_rng(t_steps * 10 + n).random((t_steps, n))
        probs[::3, ::2] = 0.0
        probs[1::5, 1::2] = -0.0
        chunks = list(_csv_chunks(AlignmentMatrix(probs=probs)))
        assert chunks[0] == b"t,n,p\n"
        assert len(chunks) == 1 + -(-t_steps // 128)  # the header, then one chunk per 128-row block
        assert b"".join(chunks) == alignment_to_csv(AlignmentMatrix(probs=probs)).encode()

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_an_empty_alignment_is_rejected_by_name(self, shape):
        message = rf"^alignment matrix must be one non-empty \(T, N\) array; got shape {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=message):
            AlignmentMatrix(probs=np.zeros(shape))

    def test_pgm(self):
        mat = AlignmentMatrix(probs=np.array([[1.0, 0.0], [0.5, 0.5]]))
        data = alignment_to_pgm(mat)
        assert data.startswith(b"P5\n2 2\n255\n")
        assert data[-4:] == bytes([255, 0, 128, 128])

    @pytest.mark.parametrize("export", [alignment_to_csv, alignment_to_pgm])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_exports_reject_nonfinite(self, export, bad):
        with pytest.raises(ValueError, match="non-finite alignment"):
            export(AlignmentMatrix(probs=np.array([[bad, 1.0]])))
