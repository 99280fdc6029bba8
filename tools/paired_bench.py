"""Paired benchmark runs of two checkouts: a parent and a change.

    python3 tools/paired_bench.py --parent HEAD~1 --change HEAD --seeds 1701-1710 \
        --seconds 38 --out BENCH.json

``--parent`` and ``--change`` each name a checkout directory or a git
revision of the repository this file sits in; a revision is exported
with ``git archive`` into a work directory, so that only committed files
run.  For each workload and each seed, ``perfbench/run.py --trace 0``
runs once in each checkout, the parent first on the first seed and the
two sides alternating from then on.  The runs are sequential: one
benchmark process at a time.

The output records, per workload, every run's end-to-end metrics and
correctness, each side's median and quartiles per metric, how many pairs
the change won, and a verdict per metric:

- ``gain``: the change is better in at least 9 of 10 pairs (ties count
  for neither side) and the medians differ by more than the parent's
  interquartile range;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound in ``BENCHMARK.json``;
- ``unresolved``: neither, and the parent's interquartile range is wider
  than the bound, unless every change run beats every parent run;
- ``level``: otherwise.

It also records, per operation label (an op key without its leading
``NN.`` instance number), each side's median over runs of the per-run
median op time, so that a record shows which operations a change moved.
Each pass's op times are scaled to the reference speed, as
``perfbench/run.py`` scales ``wall_s``: by ``REFERENCE_S`` of the
checkout's ``perfbench/speed.py`` over the pass's reference kernel time.
Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def parse_seeds(text: str) -> list[int]:
    """``1701-1710`` or ``3,5,8`` (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def git(*args: str, cwd: Path = REPO) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def checkout(spec: str, workdir: Path, side: str) -> tuple[Path, dict]:
    """The directory to run in, and what it holds: a directory as it is,
    or a revision exported with ``git archive``."""
    path = Path(spec)
    if path.is_dir():
        try:
            sha = git("rev-parse", "HEAD", cwd=path)
            dirty = bool(git("status", "--porcelain", cwd=path))
        except (subprocess.CalledProcessError, FileNotFoundError):
            sha, dirty = "unknown (not a git checkout)", None
        return path.resolve(), {"spec": spec, "sha": sha, "uncommitted_changes": dirty}
    sha = git("rev-parse", "--verify", f"{spec}^{{commit}}")
    target = workdir / side
    target.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], cwd=REPO, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)
    return target, {"spec": spec, "sha": sha, "uncommitted_changes": False}


def reference_s(root: Path) -> float:
    """``REFERENCE_S`` of the checkout's ``perfbench/speed.py``, read
    from its source (importing it would import numpy)."""
    for node in ast.parse((root / "perfbench" / "speed.py").read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["REFERENCE_S"]:
            return float(ast.literal_eval(node.value))
    raise ValueError(f"no REFERENCE_S assignment in {root / 'perfbench' / 'speed.py'}")


def op_label_ms(record: dict, reference: float) -> dict[str, float]:
    """Per op label, the median over its ops of each op's median scaled
    time: pass i's time times ``reference / record["kernel_s"][i]``."""
    kernel_s = record["kernel_s"]
    labels: dict[str, list[float]] = {}
    for key, times in record["op_ms"].items():
        if len(times) != len(kernel_s):
            raise ValueError(f"op {key!r} has {len(times)} times for {len(kernel_s)} passes")
        head, _, tail = key.partition(".")
        scaled = [t * reference / k for t, k in zip(times, kernel_s)]
        labels.setdefault(tail if head.isdigit() and tail else key, []).append(statistics.median(scaled))
    return {label: statistics.median(values) for label, values in labels.items()}


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its last output line, plus the scaled
    op times and versions from the record it writes."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit": proc.returncode, "error": (proc.stderr or proc.stdout).strip()[-2000:]}
    result = json.loads(lines[-1])
    record = json.loads((root / ".perfbench_out" / f"BENCH_{workload}_seed{seed}_trace0.json").read_text())
    return {
        "exit": 0,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "op_label_ms": op_label_ms(record, reference_s(root)),
        "meta": record["meta"],
    }


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1.0 if better == "lower" else -1.0  # positive: the change is worse
    p, c = summary(parent), summary(change)
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    losses = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    worse_by = sign * (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
    if wins >= WIN_SHARE * len(parent) and sign * (c["median"] - p["median"]) < -p["iqr"]:
        call = "gain"
    elif worse_by > bound:
        call = "worse"
    elif p["iqr"] > bound * abs(p["median"]) and not all(sign * (b - a) < 0 for a in parent for b in change):
        call = "unresolved"
    else:
        call = "level"
    return {"parent": p, "change": c, "change_wins": wins, "change_losses": losses, "pairs": len(parent),
            "change_worse_by": worse_by, "bound": bound, "verdict": call}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout directory or git revision")
    parser.add_argument("--change", required=True, help="checkout directory or git revision")
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 1701-1710")
    parser.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--workloads", nargs="*", help="default: every workload in BENCHMARK.json")
    parser.add_argument("--workdir", type=Path,
                        help="where revisions are exported, made if missing (default: a temporary directory)")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    if args.workdir:
        args.workdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="paired_bench_", dir=args.workdir) as tmp:  # exported revisions
        workdir = Path(tmp)
        parent_dir, parent = checkout(args.parent, workdir, "parent")
        change_dir, change = checkout(args.change, workdir, "change")
        spec = json.loads((change_dir / "BENCHMARK.json").read_text())
        seconds = args.seconds or spec["run_seconds"]
        workloads = args.workloads or [w["name"] for w in spec["workloads"]]
        bounds = {m["name"]: m for m in spec["end_to_end"]}

        doc = {
            "command": ["tools/paired_bench.py", "--parent", args.parent, "--change", args.change,
                        "--seeds", ",".join(map(str, args.seeds)), "--seconds", str(seconds),
                        "--workloads", *workloads],
            "seconds": seconds,
            "seeds": args.seeds,
            "order": "parent first on the first seed, then alternating",
            "machine": {"machine": platform.machine(), "system": platform.system(), "release": platform.release()},
            "parent": parent,
            "change": change,
            "workloads": {},
        }
        for workload in workloads:
            pairs = []
            for i, seed in enumerate(args.seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                runs = {}
                for side in order:
                    runs[side] = run_once(parent_dir if side == "parent" else change_dir, workload, seed, seconds)
                    print(f"{workload} seed={seed} {side}: "
                          + json.dumps(runs[side].get("metrics") or runs[side].get("error")), flush=True)
                pairs.append({"seed": seed, "first": order[0], **runs})
            ok = [p for p in pairs if p["parent"]["exit"] == 0 and p["change"]["exit"] == 0]
            entry = {
                "pairs": pairs,
                "all_correct": all(p[s].get("correct") for p in pairs for s in ("parent", "change")),
                "failed": sum(p[s].get("failed", 0) for p in pairs for s in ("parent", "change")),
                "metrics": {},
                "op_label_ms": {},
            }
            for name, m in bounds.items():
                parent_values = [p["parent"]["metrics"][name] for p in ok]
                change_values = [p["change"]["metrics"][name] for p in ok]
                if parent_values:
                    entry["metrics"][name] = verdict(parent_values, change_values, m["better"], m["bound"])
            for label in (ok[0]["parent"]["op_label_ms"] if ok else {}):
                entry["op_label_ms"][label] = {
                    side: statistics.median(p[side]["op_label_ms"][label] for p in ok if label in p[side]["op_label_ms"])
                    for side in ("parent", "change")
                }
            doc["workloads"][workload] = entry
    for side in ("parent", "change"):
        metas = [p[side]["meta"] for w in doc["workloads"].values() for p in w["pairs"] if "meta" in p[side]]
        if metas:
            doc[side].update({k: metas[0][k] for k in ("python", "numpy")})
            doc["machine"].update({k: metas[0][k] for k in ("cpu", "nproc")})
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for workload, entry in doc["workloads"].items():
        for name, v in entry["metrics"].items():
            print(f"{workload:20s} {name:12s} parent {v['parent']['median']:.6g} [{v['parent']['q1']:.6g}, "
                  f"{v['parent']['q3']:.6g}]  change {v['change']['median']:.6g} [{v['change']['q1']:.6g}, "
                  f"{v['change']['q3']:.6g}]  wins {v['change_wins']}/{v['pairs']}  {v['verdict']}")
        print(f"{workload:20s} all correct: {entry['all_correct']}, failed ops: {entry['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
