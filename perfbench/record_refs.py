"""Record the reference outputs that run.py checks against.

    python3 perfbench/record_refs.py [workload ...]

Runs one pass of each workload for every input variant and writes the
observations to perfbench/refs/<workload>.json.  References pin the
outputs of the commit they were recorded at; re-record only when an
output is meant to change.
"""

import json
import sys

import run  # pins BLAS/OpenMP threads before numpy loads
from run import checks, inputs, workloads


def record(name: str) -> dict:
    dl = run.import_duralign()
    doc: dict = {"variants": {}}
    variants = range(inputs.VARIANTS)
    if name == "adversarial_compare":
        doc["fixture_sha256"] = inputs.fixture_sha256(run.ROOT)
        variants = [0]  # the frozen family is the same for every seed
    for v in variants:
        wl = workloads.WORKLOADS[name](run.ROOT, run.OUT_DIR / "work" / name, v, doc)
        wl.setup(dl)
        p = workloads.Pass()
        wl.run_pass(dl, p)
        observed = wl.check_pass(dl, p, None)
        bad = [f"{op.key}: {op.error}" for op in p.ops if op.error is not None]
        if bad:
            raise SystemExit(f"{name} variant {v}: {bad[:5]}")
        doc["variants"][str(v)] = observed
        print(f"{name} variant {v}: {len(observed)} ops, counts {p.counts}", flush=True)
    return doc


def main(names: list[str]) -> None:
    checks.REFS_DIR.mkdir(exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        doc = record(name)
        (checks.REFS_DIR / f"{name}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
