"""The README's library examples, run as written on smaller meshes."""

import math
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_blocks():
    """The Python blocks of the README's "Library use" section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use") :]
    section = section[: section.index("\n## ", 1)]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def _smaller(code, old, new):
    assert code.count(old) == 1, old  # the example still reads as the test expects
    return code.replace(old, new)


def test_the_library_examples_run_as_written(capsys):
    convergence, level = _library_blocks()
    namespace = {}
    exec(_smaller(convergence, "levels=[8, 16, 32, 64]", "levels=[8, 16]"), namespace)
    assert len(namespace["report"].eoc_energy) == 1 and "[" in capsys.readouterr().out
    exec(_smaller(level, "discretize(domain, 64)", "discretize(domain, 16)"), namespace)
    dofmap, rules = namespace["dofmap"], namespace["rules"]
    assert rules is dofmap.rules and namespace["topology"] is rules.topology
    assert namespace["topology"].domain is namespace["domain"]
    assert math.isfinite(namespace["errors"].energy) and namespace["errors"].energy > 0.0
    assert namespace["gram"].shape == (dofmap.ndof, dofmap.ndof)
    u_h, u_eps = namespace["u_h"].coefficients, namespace["u_eps"].coefficients
    assert np.all(np.isfinite(u_eps)) and 0.0 < np.abs(u_eps - u_h).max() < 1e-2
