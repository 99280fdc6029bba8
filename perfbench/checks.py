"""Output checks: observations of program results, compared with references.

An observation is a nested dict.  Leaves are compared exactly, except
``{"close": value, "tol": tol}`` leaves, whose numbers must lie within
the reference's ``tol``.  References in perfbench/refs/ are observations
recorded from the commit that defined the benchmark.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

PROB_TOL = 1e-9  # per probability cell
GRAD_REL_TOL = 1e-9  # relative to the array's scale
GRADCHECK_TOL = 1e-5
SAMPLED_ROWS = 8

REFS_DIR = Path(__file__).resolve().parent / "refs"


def close(value, tol: float) -> dict:
    return {"close": value, "tol": tol}


def int_digest(values) -> str:
    """Short exact digest of an integer sequence."""
    arr = np.ascontiguousarray(np.asarray(values), dtype="<i8")
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def row_sum_error(probs: np.ndarray) -> str | None:
    """Every row of an alignment must sum to 1 within PROB_TOL."""
    if probs.size == 0:
        return "empty alignment"
    worst = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    if not worst <= PROB_TOL:
        return f"alignment row sum off by {worst:.3e}"
    return None


def alignment_observation(probs: np.ndarray) -> dict:
    """Exact argmax path plus probability fingerprints within PROB_TOL:
    three weighted sums (tolerance scaled by the row count) and the cells
    at and after the argmax of evenly spaced rows."""
    probs = np.asarray(probs, dtype=np.float64)
    t_steps, n = probs.shape
    path = np.argmax(probs, axis=1)
    weights = ((np.arange(t_steps)[:, None] * 7919 + np.arange(n)[None, :] * 104729) % 1009) / 1009.0
    cells = []
    for t in np.linspace(0, t_steps - 1, SAMPLED_ROWS).astype(int):
        m = int(path[t])
        for k in (m, min(m + 1, n - 1)):
            cells.append(float(probs[t, k]))
    return {
        "shape": [t_steps, n],
        "argmax_path": int_digest(path),
        "sums": close(
            [
                float(probs.max(axis=1).sum()),
                float((probs @ np.arange(n, dtype=np.float64)).sum()),
                float((probs * weights).sum()),
            ],
            PROB_TOL * t_steps,
        ),
        "cells": close(cells, PROB_TOL),
    }


def array_observation(values: np.ndarray) -> dict:
    """Fingerprint of a real array (gradients, parameters) within a
    relative tolerance of GRAD_REL_TOL."""
    a = np.asarray(values, dtype=np.float64).ravel()
    scale = 1.0 + float(np.abs(a).sum())
    picks = np.linspace(0, a.size - 1, SAMPLED_ROWS).astype(int)
    weights = (np.arange(a.size) * 7919 % 1009) / 1009.0
    return {
        "size": int(a.size),
        "sums": close([float(a.sum()), float(np.abs(a).sum()), float(a @ weights)], GRAD_REL_TOL * scale),
        "samples": close([float(a[i]) for i in picks], GRAD_REL_TOL * scale),
    }


def compare(obs, ref, where: str = "") -> list[str]:
    """Mismatches between an observation and its reference."""
    if isinstance(ref, dict) and "close" in ref:
        if not (isinstance(obs, dict) and "close" in obs):
            return [f"{where}: expected a number"]
        got, want, tol = obs["close"], ref["close"], ref["tol"]
        got_l = got if isinstance(got, list) else [got]
        want_l = want if isinstance(want, list) else [want]
        if len(got_l) != len(want_l):
            return [f"{where}: length {len(got_l)} != {len(want_l)}"]
        return [
            f"{where}[{i}]: {g!r} differs from {w!r} by more than {tol:.1e}"
            for i, (g, w) in enumerate(zip(got_l, want_l))
            if not abs(g - w) <= tol
        ]
    if isinstance(ref, dict):
        if not isinstance(obs, dict) or set(obs) != set(ref):
            return [f"{where}: keys {sorted(obs) if isinstance(obs, dict) else obs!r} != {sorted(ref)}"]
        out = []
        for key in ref:
            out += compare(obs[key], ref[key], f"{where}.{key}" if where else key)
        return out
    if obs != ref:
        return [f"{where}: {obs!r} != {ref!r}"]
    return []


def normalize(obs):
    """Round-trip through JSON so observations compare like stored refs."""
    return json.loads(json.dumps(obs))


def load_refs(workload: str) -> dict:
    path = REFS_DIR / f"{workload}.json"
    return json.loads(path.read_text())
