"""Span tracing around duralign's public functions, from outside the package.

The tracer replaces each listed function at every import site, that is in
every loaded ``duralign`` module whose namespace binds the same object
(``duralign.simulate.gdca_step`` as well as ``duralign.attention.gdca_step``),
so calls between modules are seen too.  Spans (name, start, end, parent,
size) live in flat in-memory arrays and are written out once the run ends.
A span's self time is its duration minus the durations of its direct
children; children run one after another inside their parent, so they
never cover more than the parent's interval.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

STEP_KERNELS = ("attention.gdca_step", "attention.fa_step", "attention.la_step")
WRITES = ("fileio.atomic_write_text", "fileio.atomic_write_bytes")


def _stop_step(args, kwargs, result):
    return result.stop_step


def _epochs(args, kwargs, result):
    return len(result[1])


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


# (module, function or Class.method, size recorded on the span)
TARGETS = (
    ("score", "parse_score_native", None),
    ("score", "expand_to_phonemes", None),
    ("musicxml", "parse_musicxml", None),
    ("tokens", "oracle_tokens", None),
    ("tokens", "train_encoder", _epochs),
    ("attention", "content_energies", None),
    ("attention", "gdca_step", None),
    ("attention", "fa_step", None),
    ("attention", "la_step", None),
    ("attention", "lattice_forward", None),
    ("attention", "lattice_backward", None),
    ("attention", "alignment_to_csv", None),
    ("attention", "alignment_to_pgm", None),
    ("simulate", "synth_energies", None),
    ("simulate", "QueryGenerator.energies", None),
    ("simulate", "run_simulation", _stop_step),
    ("evaluate", "compare_mechanisms", None),
    ("evaluate", "tempo_sweep", None),
    ("evaluate", "token_profile", None),
    ("gradcheck", "check_lattice_gradients", None),
    ("fileio", "atomic_write_text", _file_size),
    ("fileio", "atomic_write_bytes", _file_size),
    ("cli", "main", None),
)

SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr, _ in TARGETS)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.size = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.pass_bounds: list[tuple[int, int]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.size.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, size_fn):
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if size_fn is not None:
                tracer.size[idx] = size_fn(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at every duralign import site."""
        loaded = [m for k, m in sorted(sys.modules.items()) if k == "duralign" or k.startswith("duralign.")]
        for (mod_name, attr, size_fn), span_name in zip(TARGETS, SPAN_NAMES):
            home = sys.modules[f"duralign.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(orig, span_name, size_fn))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(orig, span_name, size_fn)
            for mod in loaded:
                if mod.__dict__.get(attr) is orig:
                    self._patch(mod, attr, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    @contextmanager
    def traced_pass(self):
        first = len(self.start)
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.pass_bounds.append((first, len(self.start)))

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), pass_bounds=np.array(self.pass_bounds, dtype=np.int64), **self.arrays())


class SpanTable:
    """Read-side view of the recorded spans."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name_id = a["name_id"]
        self.parent = a["parent"]
        self.size = a["size"]
        self.dur_ns = a["end_ns"] - a["start_ns"]
        has_parent = self.parent >= 0
        self.child_ns = np.bincount(
            self.parent[has_parent], weights=self.dur_ns[has_parent], minlength=self.dur_ns.size
        )
        self.self_ns = self.dur_ns - self.child_ns
        self.pass_bounds = tracer.pass_bounds

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name_id, ids)

    def nesting_errors(self) -> int:
        """Spans whose children's time exceeds their own duration.  A check
        of the tracer's own bookkeeping: with one stack and one monotonic
        clock it holds unless spans are opened or closed out of order."""
        return int(np.count_nonzero(self.child_ns > self.dur_ns))

    def uncovered_ops(self, share: float) -> int:
        """The benchmark's operation spans (``op.*``) whose traced duralign
        children cover less than ``share`` of them: each operation is one
        call into duralign, so time outside it means the wrappers missed
        the work."""
        ops = np.isin(self.name_id, [i for i, n in enumerate(self.names) if n.startswith("op.")])
        return int(np.count_nonzero(ops & (self.child_ns < share * self.dur_ns)))

    def calls_per_pass(self) -> list[dict[str, int]]:
        out = []
        for lo, hi in self.pass_bounds:
            counts = np.bincount(self.name_id[lo:hi], minlength=len(self.names))
            out.append({name: int(counts[i]) for i, name in enumerate(self.names)})
        return out


def _mean(x: np.ndarray) -> float:
    return float(x.mean()) if x.size else 0.0


def _per_unit(total_ns: float, units: float) -> float:
    return total_ns / units if units else 0.0


def layer_metrics(spans: SpanTable) -> dict[str, float]:
    """Per-layer figures from the spans.  A layer the workload never
    calls reads 0.  Durations and self times include the overhead of the
    spans of traced children: most for run_simulation, whose children are
    one step kernel call a step."""
    us, ms = 1e-3, 1e-6
    dur, self_ns, size = spans.dur_ns, spans.self_ns, spans.size
    m: dict[str, float] = {}

    def mean_of(name: str, scale: float) -> float:
        return _mean(dur[spans.mask(name)]) * scale

    m["simulate.energy_us"] = mean_of("simulate.synth_energies", us)
    m["simulate.query_energy_us"] = mean_of("simulate.QueryGenerator.energies", us)
    m["attention.content_energies_us"] = mean_of("attention.content_energies", us)
    sim = spans.mask("simulate.run_simulation")
    m["simulate.loop_self_us_per_step"] = _per_unit(self_ns[sim].sum(), size[sim].sum()) * us
    steps = dur[spans.mask(*STEP_KERNELS)]
    m["attention.step_us_p50"] = float(np.percentile(steps, 50)) * us if steps.size else 0.0
    m["attention.step_us_p99"] = float(np.percentile(steps, 99)) * us if steps.size else 0.0
    name_of = np.array(spans.names)[spans.name_id]
    parent_name = np.where(spans.parent >= 0, name_of[np.maximum(spans.parent, 0)], "")
    m["gradcheck.lattice_ms"] = mean_of("gradcheck.check_lattice_gradients", ms)
    m["attention.csv_ms"] = mean_of("attention.alignment_to_csv", ms)
    m["attention.pgm_ms"] = mean_of("attention.alignment_to_pgm", ms)
    writes = spans.mask(*WRITES) & ~np.isin(parent_name, WRITES)
    m["fileio.write_ms"] = _mean(dur[writes]) * ms
    m["fileio.bytes"] = float(size[writes].sum()) / max(1, len(spans.pass_bounds))
    m["score.parse_ms"] = mean_of("score.parse_score_native", ms)
    m["score.expand_ms"] = mean_of("score.expand_to_phonemes", ms)
    m["musicxml.parse_ms"] = mean_of("musicxml.parse_musicxml", ms)
    m["tokens.oracle_us"] = mean_of("tokens.oracle_tokens", us)
    m["cli.self_ms"] = _mean(self_ns[spans.mask("cli.main")]) * ms
    train = spans.mask("tokens.train_encoder")
    m["tokens.train_epoch_ms"] = _per_unit(dur[train].sum(), size[train].sum()) * ms
    m["evaluate.token_profile_ms"] = mean_of("evaluate.token_profile", ms)
    m["evaluate.compare_self_ms"] = _mean(self_ns[spans.mask("evaluate.compare_mechanisms")]) * ms
    m["evaluate.sweep_self_ms"] = _mean(self_ns[spans.mask("evaluate.tempo_sweep")]) * ms
    return m
