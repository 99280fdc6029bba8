from dataclasses import fields

import numpy as np
import pytest

from duralign import attention, tokens
from duralign.attention import StepOptions, lattice_backward, lattice_forward, normalize_energies
from duralign.gradcheck import (
    FD_STEP,
    central_difference,
    check_encoder_gradients,
    check_energy_gradients,
    check_lattice_gradients,
    relative_error,
)
from duralign.tokens import TransitionTokens

CHECKS = (check_energy_gradients, check_encoder_gradients, check_lattice_gradients)


def test_central_difference_on_quadratic():
    x = np.array([1.0, -2.0, 3.0])
    grad = central_difference(lambda v: np.sum(v * v, axis=-1), x.copy())
    assert np.allclose(grad, 2.0 * x, atol=1e-8)


def test_central_difference_stacks_alternating_points():
    x = np.array([[1.0, -2.0], [3.0, 0.5]])
    seen = []

    def fn(stack):
        seen.append(stack.copy())
        return stack.sum(axis=(1, 2))

    assert np.allclose(central_difference(fn, x, 0.25), np.ones((2, 2)))
    (stack,) = seen
    assert stack.shape == (8, 2, 2)
    for i, (r, c) in enumerate(np.ndindex(2, 2)):
        for row, sign in ((2 * i, 1.0), (2 * i + 1, -1.0)):
            expected = x.copy()
            expected[r, c] = x[r, c] + sign * 0.25
            assert np.array_equal(stack[row], expected)


def test_central_difference_needs_one_loss_per_point():
    with pytest.raises(ValueError, match="one loss per stacked point"):
        central_difference(lambda v: np.sum(v), np.ones(3))


def looped_lattice_error(seed, step=FD_STEP):
    """check_lattice_gradients with one unbatched forward pass per
    perturbed point, as a reference for the batched check."""
    rng = np.random.default_rng(seed)
    n, t_steps = 4, 12
    d = rng.integers(2, 6, n).astype(np.float64)
    q0 = rng.uniform(0.2, 0.8, n)
    energies = np.vstack([normalize_energies(rng.normal(0.0, 1.0, n)) for _ in range(t_steps)])
    opts = StepOptions(mechanism="gdca", convention="prose")

    def loss(qv, e):
        occupancy = lattice_forward(TransitionTokens(q=qv), e, opts).probs.sum(axis=0)
        return float(np.sum((occupancy - d) ** 2))

    def one_at_a_time(f, x):
        flat = x.ravel()
        grad = np.empty(flat.size)
        for i in range(flat.size):
            up, down = flat.copy(), flat.copy()
            up[i] = flat[i] + step
            down[i] = flat[i] - step
            grad[i] = (f(up.reshape(x.shape)) - f(down.reshape(x.shape))) / (2.0 * step)
        return grad

    mat = lattice_forward(TransitionTokens(q=q0), energies, opts, keep_cache=True)
    d_probs = np.tile(2.0 * (mat.probs.sum(axis=0) - d), (t_steps + 1, 1))
    dq, d_energies = lattice_backward(mat, d_probs)
    numeric = np.concatenate(
        [one_at_a_time(lambda v: loss(v, energies), q0), one_at_a_time(lambda v: loss(q0, v), energies)]
    )
    return relative_error(np.concatenate([dq, d_energies.ravel()]), numeric)


@pytest.mark.parametrize("step", [FD_STEP, 1e-4])
@pytest.mark.parametrize("seed", range(4))
def test_batched_lattice_check_matches_looped_reference(seed, step):
    assert check_lattice_gradients(seed, step).max_rel_err == looped_lattice_error(seed, step)


def test_relative_error_metric():
    a = np.array([1.0, 2.0])
    assert relative_error(a, a) == 0.0
    assert relative_error(a, np.zeros(2)) == pytest.approx(1.0)
    assert relative_error(np.zeros(2), np.zeros(2)) == 0.0


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("seed", range(5))
def test_analytic_matches_numeric(check, seed):
    result = check(seed)
    assert result.passed, f"{result.target}: {result.max_rel_err:.3e}"
    assert result.max_rel_err <= 1e-5


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize(
    "seed, message", [(-1, "seed must be >= 0"), (1.5, "seed must be an integer; got 1.5"), (True, "seed must be an integer; got True")]
)
def test_checks_reject_a_bad_seed_by_name(check, seed, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        check(seed)


# the backward passes the checks call through their modules
BACKWARDS = [(attention, "content_energies_backward"), (tokens, "encoder_backward"), (attention, "lattice_backward")]


def shifted(backward):
    """``backward`` with 1e-2 added to every gradient it returns."""

    def wrong(*args):
        grads = backward(*args)
        if isinstance(grads, tuple):
            return tuple(g + 1e-2 for g in grads)
        return type(grads)(**{f.name: getattr(grads, f.name) + 1e-2 for f in fields(grads)})

    return wrong


def corrupt_every_backward(monkeypatch):
    for module, name in BACKWARDS:
        monkeypatch.setattr(module, name, shifted(getattr(module, name)))


@pytest.mark.parametrize("check", CHECKS)
def test_corrupt_hook_is_detected(check, monkeypatch):
    # negative control: a deliberately wrong gradient must fail the check
    corrupt_every_backward(monkeypatch)
    result = check(0)
    assert not result.passed
