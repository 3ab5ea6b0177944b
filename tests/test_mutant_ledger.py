"""The mutants of ``tools/mutant_ledger.py`` still name code that exists.

The ledger applies each mutant by exact replacement, so a text that no longer occurs, or
occurs twice, would leave the mutant testing nothing or something else.  These checks read
files only and start no process; the ledger itself runs outside the suite.
"""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutant_ledger", ROOT / "tools" / "mutant_ledger.py")
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)


@pytest.mark.parametrize("mutant", ledger.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_text_occurs_once(mutant):
    assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", ledger.MUTANTS, ids=lambda m: m.name)
def test_each_expected_test_exists(mutant):
    for test in mutant.tests:
        path, _, name = test.partition("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        assert not name or re.search(rf"^def {re.escape(name)}\(", source, re.MULTILINE), test
