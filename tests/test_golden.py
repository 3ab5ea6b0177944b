"""Regression against the golden snapshot in ``tests/golden``.

The snapshot holds the matrices, loads, form actions, error norms and
inequality constants of the mixed disk at n = 16, and per-cell quadrature
measures at n = 64 (see ``golden/capture.py``).  Summation order may change
between implementations, so arrays are compared to 1e-12 relative to their
largest entry.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12

_spec = importlib.util.spec_from_file_location("golden_capture", GOLDEN / "capture.py")
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)


@pytest.fixture(scope="module", params=sorted(capture.CONFIGS))
def snapshot_pair(request):
    name = request.param
    with np.load(GOLDEN / f"mixed_n{capture.N}_{name}.npz") as data:
        want = dict(data)
    got = capture.outputs(capture.CONFIGS[name], u_singular=want["u_singular"])
    return want, got


def test_golden_snapshot_matches(snapshot_pair):
    want, got = snapshot_pair
    assert sorted(got) == sorted(want)
    for key, ref in want.items():
        value = got[key]
        assert value.shape == ref.shape, key
        scale = float(np.abs(ref).max())
        err = float(np.abs(value - ref).max())
        assert err <= RTOL * scale, f"{key}: max deviation {err:.3e} vs scale {scale:.3e}"


@pytest.mark.parametrize("name", sorted(capture.CELL_CONFIGS))
def test_golden_cell_measures_match(name):
    """Per-cell volume mass, first moments and D/N boundary lengths at n = 64."""
    with np.load(GOLDEN / f"cells_n{capture.CELL_N}_{name}.npz") as data:
        want = dict(data)
    got = capture.cell_measures(capture.CELL_CONFIGS[name])
    assert sorted(got) == sorted(want)
    for key, ref in want.items():
        assert got[key].shape == ref.shape, key
        err = float(np.abs(got[key] - ref).max())
        assert err <= RTOL * float(np.abs(ref).max()), f"{key}: max deviation {err:.3e}"
