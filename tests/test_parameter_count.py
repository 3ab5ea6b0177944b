"""Ratchet on the parameters of the package's functions.

An AST count over the module-level functions and the class methods of
``src/cutpoisson``: every named parameter except ``self`` (``*args`` and
``**kwargs`` are not counted), and those of them that have a default.  A
default is a knob a caller may set, so a new one raises the count and fails
here: it has to be argued for, and the bound raised, in a change of its own.
Lower the bounds when a change removes parameters.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cutpoisson"
MAX_DEFAULTED = 53
MAX_PARAMETERS = 294


def parameter_counts(root=SRC):
    """(defaulted, all) parameters of the module-level functions and methods under ``root``."""
    defaulted = total = 0
    for path in sorted(root.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        classes = [node for node in module.body if isinstance(node, ast.ClassDef)]
        nodes = module.body + [node for c in classes for node in c.body]
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                total += sum(name != "self" for name in names)
                defaulted += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return defaulted, total


def test_no_new_parameters():
    defaulted, total = parameter_counts()
    assert defaulted <= MAX_DEFAULTED, f"{defaulted} defaulted parameters, at most {MAX_DEFAULTED}"
    assert total <= MAX_PARAMETERS, f"{total} parameters, at most {MAX_PARAMETERS}"


def test_the_count_sees_defaults_and_skips_self(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(a, b=1, *args, c, d=2, **kw):\n"
        "    def inner(x=0):\n"
        "        pass\n"
        "class C:\n"
        "    def g(self, e=3):\n"
        "        pass\n",
        encoding="utf-8",
    )
    assert parameter_counts(tmp_path) == (3, 5)
