"""Run the pinned-digest tests under every SIMD dispatch setting numpy can select on this CPU.

    python3 tools/dispatch_pinned.py

numpy runs exp, log and tanh on the best SIMD target it was built for
and the CPU supports; ``NPY_DISABLE_CPU_FEATURES`` turns targets off,
and the targets may round the last bit differently.  This script asks
the numpy of the interpreter that runs it for the dispatch targets the
CPU supports (numpy lists them lowest first), then runs the pinned
tests once with none disabled and once with each target and every
target above it disabled, down to the baseline.  Each run is one ``pytest`` process in
the repository root with ``src/`` first on ``PYTHONPATH``.  The tests
look their digests up by the exp kernel's fingerprint
(``tests/pinned.py``), so a run fails if a kernel has no digest recorded
or gives another one.  Exits 1 if any run fails.  Standard library only:
numpy is imported by the child processes alone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PINNED_TESTS = [
    "tests/test_attention.py::TestExports::test_cli_csv_bytes_are_pinned",
    "tests/test_evaluate.py::TestAdversarialFamily::test_reports_are_pinned",
    "tests/test_tokens.py::TestTraining::test_trained_bits_are_pinned",
]
# numpy 2 moved numpy.core to numpy._core
SUPPORTED_TARGETS = """
try:
    import numpy._core._multiarray_umath as m
except ImportError:
    import numpy.core._multiarray_umath as m
import json
print(json.dumps([t for t in m.__cpu_dispatch__ if m.__cpu_features__.get(t)]))
"""


def settings(targets: list[str]) -> list[str]:
    """Values of ``NPY_DISABLE_CPU_FEATURES``: none, then each target with every one above it."""
    return [""] + [" ".join(targets[i:]) for i in reversed(range(len(targets)))]


def main() -> int:
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    found = subprocess.run([sys.executable, "-c", SUPPORTED_TARGETS], cwd=REPO, env=env, capture_output=True, text=True, check=True)
    failed = []
    for disabled in settings(json.loads(found.stdout)):
        label = disabled or "(none)"
        print(f"NPY_DISABLE_CPU_FEATURES={label}", flush=True)
        run_env = dict(env, NPY_DISABLE_CPU_FEATURES=disabled) if disabled else env
        pytest = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *PINNED_TESTS]
        if subprocess.run(pytest, cwd=REPO, env=run_env).returncode != 0:
            failed.append(label)
    print(f"failed under: {', '.join(failed)}" if failed else "every dispatch setting passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
