"""Benchmark for duralign: three seeded workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload adversarial_compare --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  duralign is imported from ``src/`` of
that checkout and nowhere else.  One process, BLAS/OpenMP threads set to 1.

``--trace 0`` times passes with nothing installed in the program and
prints the end-to-end metrics, scaled to a reference machine speed
(speed.py); ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics, including the tracing overhead.  The run
lasts ``--seconds``, set-up and the first pass included, plus the pass
under way when the time is up.  Each run also writes a record with the machine, Python, numpy
and git versions, and the spans of a traced run, to ``.perfbench_out/``.
The last line of standard output is the JSON result.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

# The benchmark's own modules import numpy, so only after the thread pinning above.
import checks
import inputs
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
MODULES = ("score", "musicxml", "tokens", "attention", "simulate", "evaluate", "gradcheck", "fileio", "cli")
SETUPS_PER_PASS = 2
MIN_TRACED = 3
OP_COVERAGE = 0.9
TAIL_SHARE = 0.1  # op_ms_tail averages the slowest tenth of the operations
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
MIN_BEYOND = 10


def import_duralign() -> SimpleNamespace:
    """Fresh import of duralign from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "duralign" / "__init__.py").is_file():
        raise ImportError(f"no duralign package under {src}")
    for name in [k for k in sys.modules if k == "duralign" or k.startswith("duralign.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("duralign")
    if Path(pkg.__file__).resolve().parent != (src / "duralign").resolve():
        raise ImportError(f"duralign imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"duralign.{m}") for m in MODULES})


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "machine": platform.machine(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
    }


def tail_percentile(n: int) -> float:
    """The highest percentile of the ladder with at least MIN_BEYOND of
    ``n`` samples above it, by nearest rank; 100 (the maximum) if none."""
    for pct in TAIL_LADDER:
        if n - math.ceil(pct / 100.0 * n) >= MIN_BEYOND:
            return pct
    return 100.0


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(samples)
    return xs[max(1, math.ceil(pct / 100.0 * len(xs))) - 1]


def _duralign_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "duralign" or k.startswith("duralign.")}


def set_up(args, refs_file, workdir):
    """One timed set-up: a fresh import of duralign plus the workload's inputs."""
    t0 = perf_counter()
    dl = import_duralign()
    wl = workloads.WORKLOADS[args.workload](ROOT, workdir, args.seed, refs_file)
    wl.setup(dl)
    return dl, wl, perf_counter() - t0


def set_up_aside(args, refs_file, workdir) -> tuple[float, speed.Gauge]:
    """A set-up between passes, timed and then dropped: the duralign
    modules the passes run on are put back into sys.modules.  The
    reference kernel runs just before and just after it."""
    gauge = speed.Gauge()
    kept = _duralign_modules()
    gauge.sample()
    try:
        return set_up(args, refs_file, workdir)[2], gauge
    finally:
        for name in _duralign_modules():
            del sys.modules[name]
        sys.modules.update(kept)
        gauge.sample()


def run_pass(wl, dl, refs, tracer=None):
    """One pass; its wall time leaves out the reference kernel's runs."""
    p = workloads.Pass(tracer)
    t0 = perf_counter()
    if tracer is None:
        wl.run_pass(dl, p)
    else:
        with tracer.traced_pass():
            wl.run_pass(dl, p)
    p.gap()
    p.wall = perf_counter() - t0 - p.gauge.seconds
    wl.check_pass(dl, p, refs)
    return p


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # The run's length counts from here, so set-up and the first pass come
    # out of --seconds rather than on top of it.
    deadline = perf_counter() + args.seconds
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    refs_file = checks.load_refs(args.workload)
    variant = inputs.variant_of(args.seed)
    refs = refs_file["variants"][str(variant if args.workload != "adversarial_compare" else 0)]
    workdir = OUT_DIR / "work" / args.workload

    dl, wl, _ = set_up(args, refs_file, workdir)  # cold: first reads of the files
    tracer = tracing.Tracer() if args.trace else None
    warm = run_pass(wl, dl, refs)  # first-call effects; checked, not timed
    setups: list[tuple[float, speed.Gauge]] = []
    untraced, traced = [], []
    while True:
        # Set-ups are spread over the run, like the passes, so that their
        # median does not hang on the machine's speed in one moment.
        setups += [set_up_aside(args, refs_file, workdir) for _ in range(SETUPS_PER_PASS)]
        on = tracer is not None and len(traced) < len(untraced)
        (traced if on else untraced).append(run_pass(wl, dl, refs, tracer if on else None))
        enough = len(untraced) >= wl.min_passes and (tracer is None or len(traced) >= MIN_TRACED)
        if enough and perf_counter() >= deadline and len(traced) == (len(untraced) if tracer else 0):
            break

    all_passes = [warm] + untraced + traced
    attempted = sum(len(p.ops) for p in all_passes)
    failures = [f"{op.key}: {op.error}" for p in all_passes for op in p.ops if op.error is not None]
    drift = [f"pass {i}: {p.counts} != {warm.counts}" for i, p in enumerate(all_passes) if p.counts != warm.counts]
    shared = sum(g.shared() for g in [p.gauge for p in all_passes] + [g for _, g in setups])
    if shared:
        drift.append(f"{shared} reference kernel runs shared the process with busy threads")

    steps = warm.counts.get("steps", 0)
    # Every end-to-end time is scaled to the reference speed by the kernel
    # runs of its own pass or set-up (speed.py), then summarised by
    # medians: wall_s over the untraced passes, and each operation over its
    # repeats.  The usual tail, the highest percentile with ten operations
    # beyond it over all scaled repeats pooled, at a percentile fixed by the
    # workload's minimum pass count, is printed and kept in the record with
    # its sample count.
    op_seconds: dict[str, list[float]] = {}
    op_scaled: dict[str, list[float]] = {}
    for p in untraced:
        for op in p.ops:
            op_seconds.setdefault(op.key, []).append(op.seconds)
            op_scaled.setdefault(op.key, []).append(op.seconds * p.gauge.scale())
    wall_s = statistics.median(p.wall * p.gauge.scale() for p in untraced)
    op_times = sorted(statistics.median(times) for times in op_scaled.values())
    slowest = op_times[-math.ceil(TAIL_SHARE * len(op_times)):]
    pooled = [t for times in op_scaled.values() for t in times]
    pooled_pct = tail_percentile(len(warm.ops) * wl.min_passes)
    pooled_tail = percentile(pooled, pooled_pct)
    walls = [p.wall for p in untraced]
    metrics = {
        "setup_s": statistics.median(t * g.scale() for t, g in setups),
        "wall_s": wall_s,
        "steps_per_s": steps / wall_s,
        "op_ms_p50": statistics.median(op_times) * 1e3,
        "op_ms_tail": statistics.fmean(slowest) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    spans_recorded = 0
    if tracer is not None:
        spans = tracing.SpanTable(tracer)
        nesting = spans.nesting_errors()
        if nesting:
            drift.append(f"{nesting} spans whose children exceed them")
        uncovered = spans.uncovered_ops(OP_COVERAGE)
        if uncovered:
            drift.append(f"{uncovered} operations less than {OP_COVERAGE:.0%} inside traced duralign calls")
        calls = spans.calls_per_pass()
        drift += [f"traced pass {i}: calls differ from the first" for i, c in enumerate(calls) if c != calls[0]]
        metrics.update(tracing.layer_metrics(spans))
        # Lattice passes per step from the untraced operations, which are
        # one lattice call each, so that no span overhead enters them.
        lattice = wl.lattice_steps() if hasattr(wl, "lattice_steps") else {}
        for tag in (f"N{n}" for n in inputs.LATTICE_SIZES):
            for kind in ("forward", "backward"):
                times = op_seconds.get(f"{kind}.{tag}")
                metrics[f"attention.{kind}_us_per_step.{tag}"] = min(times) / lattice[tag] * 1e6 if times else 0.0
        traced_wall = statistics.median(p.wall * p.gauge.scale() for p in traced)
        untraced_wall = wall_s
        metrics["trace.traced_wall_s"] = traced_wall
        metrics["trace.untraced_wall_s"] = untraced_wall
        metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
        metrics["steps"] = steps
        metrics["ops"] = len(warm.ops)
        for name in tracing.SPAN_NAMES:
            metrics[f"calls.{name}"] = calls[0].get(name, 0)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace_{args.workload}.npz")
        spans_recorded = len(tracer.start)

    correct = not failures and not drift
    result_metrics = {}
    for m in declared:
        if m["name"] not in metrics:
            raise KeyError(f"metric {m['name']} is declared in BENCHMARK.json but not measured")
        result_metrics[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}

    meta = machine()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "variant": variant,
        "trace": args.trace,
        "seconds": args.seconds,
        "meta": meta,
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "error_frac": len(failures) / attempted,
        "failures": failures[:20],
        "drift": drift[:20],
        "counts": warm.counts,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "setup_times_s": [t for t, _ in setups],
        "setup_kernel_s": [g.kernel_s() for _, g in setups],
        "walls_s": walls,
        "kernel_s": [p.gauge.kernel_s() for p in untraced],
        "op_ms": {key: [round(x * 1e3, 4) for x in times] for key, times in op_seconds.items()},
        "op_ms_tail_ops": len(slowest),
        "pooled_tail_ms": {"value": pooled_tail * 1e3, "percentile": pooled_pct, "samples": len(pooled)},
        "metrics": metrics,
        "spans": spans_recorded,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print(f"# {args.workload} seed={args.seed} variant={variant} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in meta.items()))
    units = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    for name, value in metrics.items():
        unit = units.get(name, "")
        print(f"{name} = {value:.6g} {unit}".rstrip())
    print(f"times scaled to the reference speed; unscaled median pass {statistics.median(walls):.6g} s, "
          f"median reference kernel {statistics.median(p.gauge.kernel_s() for p in untraced) * 1e3:.6g} ms "
          f"(reference {speed.REFERENCE_S * 1e3:g} ms)")
    print(f"op_ms_tail is the mean of the slowest {len(slowest)} of {len(op_times)} ops, each at its median "
          f"over {len(untraced)} untraced passes; pooled p{pooled_pct:g} of all {len(pooled)} untraced ops = "
          f"{pooled_tail * 1e3:.6g} ms; {len(traced)} traced passes; {len(setups)} set-ups; {steps} steps a pass")
    print(f"error_frac = {len(failures) / attempted:.6g} ({len(failures)}/{attempted} ops)")
    for line in (failures + drift)[:10]:
        print(f"FAIL {line}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ImportError, OSError, KeyError, ValueError) as exc:
        traceback.print_exc()
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        sys.exit(2)
