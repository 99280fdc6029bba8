"""The three benchmark workloads.

Each workload sets up its inputs once, then runs identical passes.  A
pass is a list of operations, each timed on its own; after the pass the
results are checked against the recorded references and the pass's exact
counts (steps, bytes) are returned for the determinism check.

``dl`` is a namespace of the duralign modules.  Every call goes through a
module attribute at call time (``dl.evaluate.compare_mechanisms``), so
the tracer's wrappers are seen when they are installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import inputs
import speed
from checks import GRAD_REL_TOL, PROB_TOL, alignment_observation, array_observation, close, int_digest


@dataclass
class OpRecord:
    key: str
    seconds: float
    value: object = None
    error: str | None = None


class Pass:
    """Operations of one pass; ``tracer`` is set on traced passes.
    ``gauge`` times the reference kernel between operations (speed.py)."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.gauge = speed.Gauge()
        self.ops: list[OpRecord] = []
        self.wall = 0.0
        self.counts: dict[str, int] = {}

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def gap(self) -> None:
        """Between operations: one run of the reference kernel."""
        self.gauge.sample()

    def call(self, key: str, span: str, fn, *args, **kwargs):
        """Time one operation, after a gap; an exception marks it failed."""
        self.gap()
        t0 = perf_counter()
        try:
            with self.span(span):
                value = fn(*args, **kwargs)
            error = None
        except Exception as exc:  # an operation that raises is counted, not fatal
            value, error = None, f"{type(exc).__name__}: {exc}"
        self.ops.append(OpRecord(key, perf_counter() - t0, value, error))
        return value


class Workload:
    name = ""
    # Untraced passes a run makes at the least.  The pooled operations of
    # that many passes fix the percentile of the pooled tail in the record,
    # so the percentile does not depend on how many passes the machine
    # manages.
    min_passes = 3

    def __init__(self, root: Path, workdir: Path, seed: int, refs: dict):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.variant = inputs.variant_of(seed)
        self.refs = refs

    def setup(self, dl) -> None:
        raise NotImplementedError

    def run_pass(self, dl, p: Pass) -> None:
        raise NotImplementedError

    def observe(self, dl, op: OpRecord) -> tuple[dict, list[str]]:
        """(observation, invariant violations) for one successful op."""
        raise NotImplementedError

    def counts(self, p: Pass) -> dict[str, int]:
        raise NotImplementedError

    def check_pass(self, dl, p: Pass, refs: dict | None) -> dict[str, dict]:
        """Mark ops whose output is wrong; with ``refs`` None, just collect
        the observations (to record references)."""
        observed = {}
        for op in p.ops:
            if op.error is not None:
                continue
            try:
                obs, problems = self.observe(dl, op)
            except Exception as exc:  # unreadable output is a failed op
                obs, problems = None, [f"output check raised {type(exc).__name__}: {exc}"]
            if obs is not None:
                obs = checks.normalize(obs)
                observed[op.key] = obs
                if refs is not None:
                    ref = refs.get(op.key)
                    problems += ["no reference recorded"] if ref is None else checks.compare(obs, ref)
            if problems:
                op.error = "; ".join(problems[:3])
        try:
            p.counts = self.counts(p)
        except (OSError, ValueError, KeyError) as exc:
            p.counts = {"unreadable": f"{type(exc).__name__}: {exc}"}
        for op in p.ops:
            op.value = None
        return observed


# ---------------------------------------------------------------------------


class AdversarialCompare(Workload):
    """The six-way comparison on the frozen adversarial family."""

    name = "adversarial_compare"
    min_passes = 9  # 1080 simulations: p99

    def setup(self, dl) -> None:
        family = inputs.load_adversarial(self.root, self.refs.get("fixture_sha256"))
        self.order = inputs.instance_order(self.seed, len(family))
        self.cases = []
        for inst in family:
            d = np.array(inst["d"], dtype=np.float64)
            cfg = dl.simulate.SimConfig(
                energy=dl.evaluate.adversarial_spec(inst), seed=inst["seed"], fixed_steps=int(d.sum())
            )
            self.cases.append((d, cfg))
        self.labels = {(mech, filt): label for label, mech, filt in dl.evaluate.MECHANISM_CONFIGS}

    def run_pass(self, dl, p: Pass) -> None:
        for k in self.order:
            p.gap()
            d, cfg = self.cases[k]
            ops_before = len(p.ops)
            inner = dl.evaluate.run_simulation

            def one_simulation(seq, tokens, sim_cfg):
                key = f"{k:02d}.{self.labels[(sim_cfg.opts.mechanism, sim_cfg.opts.filter_enabled)]}"
                t0 = perf_counter()
                try:
                    result = inner(seq, tokens, sim_cfg)
                except Exception as exc:
                    p.ops.append(OpRecord(key, perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"))
                    raise
                p.ops.append(OpRecord(key, perf_counter() - t0, result))
                return result

            dl.evaluate.run_simulation = one_simulation
            try:
                with p.span("op.compare"):
                    report = dl.evaluate.compare_mechanisms(d, dl.tokens.oracle_tokens(d), cfg)
                error = None
            except Exception as exc:
                report, error = None, f"compare_mechanisms raised {type(exc).__name__}: {exc}"
            finally:
                dl.evaluate.run_simulation = inner
            done = {op.key for op in p.ops[ops_before:]}
            for label, _, _ in dl.evaluate.MECHANISM_CONFIGS:
                key = f"{k:02d}.{label}"
                if key not in done:
                    p.ops.append(OpRecord(key, 0.0, None, error or "simulation never ran"))
            for op in p.ops[ops_before:]:
                if op.error is None:
                    row = report.row(op.key[3:]) if report is not None else None
                    op.value = (op.value, row)
                    if row is None:
                        op.error = error

    def observe(self, dl, op):
        result, row = op.value
        probs = result.alignment.probs
        obs = {
            "stop_step": result.stop_step,
            "stopped_by": result.stopped_by,
            "monotone": result.monotone,
            "realized_frames": int_digest(result.realized_frames),
            "alignment": alignment_observation(probs),
            "row": {
                "failed": row.failed,
                "values": close(
                    [row.monotonicity, row.mean_max_prob, row.duration_mae_frames, row.duration_rel_err],
                    PROB_TOL,
                ),
            },
        }
        problem = checks.row_sum_error(probs)
        return obs, [problem] if problem else []

    def counts(self, p):
        return {"steps": sum(op.value[0].stop_step for op in p.ops if op.value is not None)}


# ---------------------------------------------------------------------------


class CliLongScore(Workload):
    """In-process CLI runs on a long seeded score: simulate, then sweep."""

    name = "cli_long_score"
    min_passes = 3  # 6 commands: too few for a percentile, so the slowest

    def setup(self, dl) -> None:
        score = inputs.long_score(self.variant)
        self.workdir.mkdir(parents=True, exist_ok=True)
        files = {"score.json": score.native, "score.musicxml": score.musicxml, "lexicon.txt": score.lexicon}
        for name, text in files.items():
            (self.workdir / name).write_text(text, encoding="utf-8")
        self.out = {"simulate": self.workdir / "simulate", "sweep": self.workdir / "sweep"}
        w = str(self.workdir)
        common = ["--lexicon", f"{w}/lexicon.txt", "--seed", str(inputs.CLI_SEED)]
        self.argv = {
            "simulate": ["simulate", f"{w}/score.json", "--format", "native", *common,
                         "--energy", "from_query_generator", "--fixed-steps", str(score.frames),
                         "--out", str(self.out["simulate"])],
            "sweep": ["sweep", f"{w}/score.musicxml", "--format", "musicxml", *common,
                      "--tempos", "120,240", "--energy", "noisy_diagonal", "--noise-sigma", "0.5",
                      "--filter", "--out", str(self.out["sweep"])],
        }
        self.first: dict[str, tuple[str, dict]] = {}

    def run_pass(self, dl, p: Pass) -> None:
        for key in ("simulate", "sweep"):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = p.call(key, f"op.cli.{key}", dl.cli.main, self.argv[key])
            if p.ops[-1].error is None and code != 0:
                p.ops[-1].error = f"exit code {code}: {sink.getvalue().strip()[-200:]}"

    def _artifacts(self, key: str) -> list[Path]:
        return sorted(self.out[key].iterdir())

    def _digest(self, key: str) -> str:
        h = hashlib.sha256()
        for path in self._artifacts(key):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        return h.hexdigest()

    def observe(self, dl, op):
        digest = self._digest(op.key)
        if op.key in self.first:
            first_digest, obs = self.first[op.key]
            if digest != first_digest:
                return obs, ["artifacts differ from the first pass"]
            return obs, []
        obs, problems = (self._observe_simulate if op.key == "simulate" else self._observe_sweep)()
        self.first[op.key] = (digest, checks.normalize(obs))
        return obs, problems

    def _observe_simulate(self):
        out = self.out["simulate"]
        report = json.loads((out / "report.json").read_text())
        probs = read_alignment_csv(out / "alignment.csv")
        problems = [e for e in (checks.row_sum_error(probs), pgm_mismatch(out / "alignment.pgm", probs)) if e]
        obs = {
            "report": {k: report[k] for k in ("stop_step", "stopped_by", "monotone")},
            "realized_frames": int_digest(report["realized_frames"]),
            "alignment": alignment_observation(probs),
        }
        return obs, problems

    def _observe_sweep(self):
        out = self.out["sweep"]
        sweep = json.loads((out / "sweep.json").read_text())
        obs = {
            "tempos": sweep["tempos"],
            "stop_steps": sweep["stop_steps"],
            "ratios": close(sweep["ratios"], PROB_TOL),
        }
        problems = []
        for tempo in sweep["tempos"]:
            probs = read_alignment_csv(out / f"alignment_{tempo:g}.csv")
            problems += [e for e in [checks.row_sum_error(probs)] if e]
            obs[f"alignment_{tempo:g}"] = alignment_observation(probs)
        return obs, problems

    def counts(self, p):
        report = json.loads((self.out["simulate"] / "report.json").read_text())
        sweep = json.loads((self.out["sweep"] / "sweep.json").read_text())
        size = sum(f.stat().st_size for key in self.out for f in self._artifacts(key))
        return {"steps": report["stop_step"] + sum(sweep["stop_steps"]), "bytes": size}


def read_alignment_csv(path: Path) -> np.ndarray:
    """Parse a ``t,n,p`` alignment CSV back into its (T, N) matrix."""
    with path.open() as fh:
        header = fh.readline().rstrip("\n")
        if header != "t,n,p":
            raise ValueError(f"{path.name}: bad header {header!r}")
        cells = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
    t_steps = int(cells[-1, 0]) + 1
    n = int(cells[-1, 1]) + 1
    if cells.shape[0] != t_steps * n:
        raise ValueError(f"{path.name}: {cells.shape[0]} cells for a {t_steps}x{n} grid")
    grid_t, grid_n = np.divmod(np.arange(t_steps * n), n)
    if not (np.array_equal(cells[:, 0], grid_t) and np.array_equal(cells[:, 1], grid_n)):
        raise ValueError(f"{path.name}: cells out of order")
    return cells[:, 2].reshape(t_steps, n)


def pgm_mismatch(path: Path, probs: np.ndarray) -> str | None:
    """The PGM must hold round(255 p) for the same matrix as the CSV."""
    raw = path.read_bytes()
    t_steps, n = probs.shape
    header = f"P5\n{n} {t_steps}\n255\n".encode("ascii")
    expected = np.clip(np.rint(probs * 255.0), 0, 255).astype(np.uint8).tobytes()
    if raw != header + expected:
        return "alignment.pgm does not match alignment.csv"
    return None


# ---------------------------------------------------------------------------


class TrainGrad(Workload):
    """Lattice forward with cache plus reverse pass at three sizes, lattice
    gradient checks, encoder training and the token profile."""

    name = "train_grad"
    min_passes = 8  # 224 operations: p95

    def setup(self, dl) -> None:
        self.cases = []
        for n in inputs.LATTICE_SIZES:
            case = inputs.lattice_case(self.variant, n)
            self.cases.append((f"N{n}", case, dl.tokens.TransitionTokens(q=1.0 / case.d)))
        self.opts = dl.attention.StepOptions(mechanism="gdca")
        self.gc_seeds = inputs.gradcheck_seeds(self.variant)
        rows, d = inputs.duration_sweep(self.variant)
        self.train_feats = dl.tokens.DurationFeatures(rows=rows)
        self.train_targets = dl.tokens.TransitionTokens(q=1.0 / d)
        self.train_cfg = dl.tokens.TrainConfig(seed=self.variant)
        tag, big, big_tokens = self.cases[-1]
        events = tuple(
            dl.score.PhonemeEvent(
                phoneme=f"p{i}", pitch=60 + i % 12, duration_s=float(f) * 0.01,
                target_frames=int(f), note_index=i // 2,
            )
            for i, f in enumerate(big.d)
        )
        self.profile_args = (dl.score.PhonemeSequence(events=events), big_tokens)

    def lattice_steps(self) -> dict[str, int]:
        """Steps of each lattice case, by tag."""
        return {tag: case.steps for tag, case, _ in self.cases}

    def run_pass(self, dl, p: Pass) -> None:
        for tag, case, q in self.cases:
            fwd = p.call(f"forward.{tag}", f"op.forward.{tag}", dl.attention.lattice_forward,
                         q, case.energies, self.opts, keep_cache=True)
            if fwd is None:
                p.ops.append(OpRecord(f"backward.{tag}", 0.0, None, "forward pass failed"))
                continue
            occupancy = fwd.probs.sum(axis=0)
            d_probs = np.tile(2.0 * (occupancy - case.d), (case.steps + 1, 1))
            p.call(f"backward.{tag}", f"op.backward.{tag}", dl.attention.lattice_backward, fwd, d_probs)
        for k, s in enumerate(self.gc_seeds):
            p.call(f"gradcheck.{k:02d}", "op.gradcheck", dl.gradcheck.check_lattice_gradients, s)
        p.call("train_encoder", "op.train_encoder", dl.tokens.train_encoder,
               self.train_feats, self.train_targets, self.train_cfg)
        p.call("token_profile", "op.token_profile", dl.evaluate.token_profile, *self.profile_args)

    def observe(self, dl, op):
        kind = op.key.split(".")[0]
        if kind == "forward":
            problem = checks.row_sum_error(op.value.probs)
            return alignment_observation(op.value.probs), [problem] if problem else []
        if kind == "backward":
            dq, d_energies = op.value
            return {"dq": array_observation(dq), "d_energies": array_observation(d_energies)}, []
        if kind == "gradcheck":
            res = op.value
            ok = res.passed and res.max_rel_err <= checks.GRADCHECK_TOL
            return {"passed": bool(ok)}, [] if ok else [f"gradient check error {res.max_rel_err:.2e}"]
        if kind == "train_encoder":
            params, history = op.value
            flat = np.concatenate([params.w1.ravel(), params.b1, params.w2, [params.b2]])
            return {
                "epochs": len(history),
                "final_loss": close(history[-1], GRAD_REL_TOL * abs(history[-1])),
                "params": array_observation(flat),
            }, []
        profile = op.value
        return {
            "rows": len(profile["rows"]),
            "antitone_violations": profile["antitone_violations"],
            "antitone": profile["antitone"],
        }, []

    def counts(self, p):
        forward = [op.value for op in p.ops if op.key.startswith("forward.") and op.value is not None]
        return {"steps": sum(m.probs.shape[0] - 1 for m in forward)}


WORKLOADS = {w.name: w for w in (AdversarialCompare, CliLongScore, TrainGrad)}
