"""Pinned digests of outputs that go through numpy's SIMD exp, log and tanh.

numpy picks one of several SIMD kernels for these functions when it is
imported, by CPU and by ``NPY_DISABLE_CPU_FEATURES``, and the kernels
may round the last bit differently.  A pinned digest is therefore
recorded once per kernel, under the fingerprint ``kernel_fingerprint``
reads from the functions' outputs on fixed inputs.
``tools/dispatch_pinned.py`` runs the pinned tests under every dispatch
setting the CPU can select.
"""

import functools
import hashlib

import numpy as np
import pytest


@functools.cache
def kernel_fingerprint() -> str:
    x = np.linspace(-20.0, 20.0, 4001)
    h = hashlib.sha256()
    for y in (np.exp(x), np.log(np.abs(x) + 1e-3), np.tanh(x)):
        h.update(y.tobytes())
    return h.hexdigest()[:16]


# The kernels numpy 2.4 picks on an x86-64 CPU with AVX512 (SPR): by
# default, with X86_V4 and the targets above it disabled, and with
# X86_V3 and above disabled (the X86_V2 baseline).
X86_V4 = "f2878958a5204cb9"
X86_V3 = "9f3f11c19c1cbce6"
X86_V2 = "78c84a8e8127944b"


def assert_pinned(digests: dict[str, str], actual: str) -> None:
    """``actual`` equals the digest recorded for this process's kernel;
    an unrecorded kernel fails with the digest to record for it."""
    fingerprint = kernel_fingerprint()
    if fingerprint not in digests:
        pytest.fail(f"no digest recorded for the exp kernel {fingerprint!r}; this kernel gives {actual!r}")
    assert actual == digests[fingerprint]
