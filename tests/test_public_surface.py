"""The package's public names, and the names the README says it has.

``wx.__all__`` lists exactly the public attributes of the package, and
every name the README's Python API section uses or lists resolves: a name
that leaves the code cannot stay behind in the documentation.  Every
public function, and every public method and property of a public class,
has a reader: the package's code, the benchmark, or the tests, as a
reference oracle.
"""
import ast
import dataclasses
import glob
import inspect
import os
import re
import types

import wiretap_exponent as wx

ROOT = os.path.join(os.path.dirname(__file__), "..")
README = os.path.join(ROOT, "README.md")


def _api_section():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return text.split("## Python API", 1)[1].split("\n## ", 1)[0]


def _api_block():
    return _api_section().split("```python", 1)[1].split("```", 1)[0]


def _entry_points():
    """The entry-point list: the top-level bullets, and the sub-list of
    ``ExponentSolver``'s methods."""
    text = _api_section().split("The main entry points:", 1)[1]
    head, rest = text.split("Its methods:", 1)
    methods, tail = rest.split("\n* ", 1)
    return head + "\n* " + tail, methods


def test_all_resolves_once():
    assert len(set(wx.__all__)) == len(wx.__all__)
    missing = [name for name in wx.__all__ if not hasattr(wx, name)]
    assert missing == []


def test_every_public_attribute_is_exported():
    public = {name for name, value in vars(wx).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public - set(wx.__all__) == set()


def test_readme_api_block_resolves():
    block = _api_block()
    names = set(re.findall(r"\bwx\.(\w+)", block))
    methods = set(re.findall(r"\bsolver\.(\w+)", block))
    assert names and methods
    assert sorted(n for n in names if n not in wx.__all__) == []
    assert sorted(m for m in methods
                  if not hasattr(wx.ExponentSolver, m)) == []


def test_readme_entry_points_resolve():
    top, methods = _entry_points()
    # each top-level call, as in `compute_qstar(solver)`, is a package name
    calls = set(re.findall(r"`(\w+)\(", top))
    assert "ExponentSolver" in calls
    assert sorted(c for c in calls if c not in wx.__all__) == []
    # the methods sub-list names solver methods and result fields only
    fields = {f.name for f in dataclasses.fields(wx.ExponentResult)}
    named = set(re.findall(r"`([a-z]\w*)[^`]*`", methods))
    assert {"solve", "phi"} <= named
    assert sorted(n for n in named
                  if not hasattr(wx.ExponentSolver, n) and n not in fields) \
        == []


#: reference oracles that tests compare the solver against; no printed
#: number reads them
ORACLES = {"mutual_information", "weighted_divergence", "entropy",
           "decoder_score", "type_enum_exponent", "gaussian_divergence_term"}


def _code_references(path):
    """Names that the code of one module reads, each outside any function
    of the same name: docstrings and comments do not count."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else None)
        if name is not None and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    with open(path, encoding="utf-8") as fh:
        visit(ast.parse(fh.read()), frozenset())
    return found


def _readers():
    """(names the package's code reads, the text of the benchmark's
    modules, ``bench/tracing.py``'s targets included)."""
    src = os.path.dirname(wx.__file__)
    used = set()
    for name in os.listdir(src):
        if name.endswith(".py") and name != "__init__.py":
            used |= _code_references(os.path.join(src, name))
    bench = ""
    for path in sorted(glob.glob(os.path.join(ROOT, "bench", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            bench += fh.read()
    return used, bench


def _unread(names):
    """The names, each a function or ``Class.member``, whose last part
    has no reader: not read by the package's code, not named in the
    benchmark and not a reference oracle."""
    used, bench = _readers()

    def read(attr):
        return (attr in used or attr in ORACLES
                or re.search(rf"\b{attr}\b", bench) is not None)

    return [name for name in names if not read(name.rsplit(".", 1)[-1])]


def test_every_public_function_has_a_reader():
    """Each function in ``__all__`` is read by the package's own code, by
    the benchmark (``bench/tracing.py``'s targets included), or is a
    reference oracle of the tests."""
    functions = [name for name in wx.__all__
                 if inspect.isfunction(getattr(wx, name))]
    assert "compute_qstar" in functions
    assert _unread(functions) == []


def test_every_public_method_has_a_reader():
    """The same rule for each public method and property that a class in
    ``__all__`` defines itself: a method no code reads is dead surface
    even when its class is read."""
    members = [f"{name}.{attr}" for name in wx.__all__
               if inspect.isclass(cls := getattr(wx, name))
               for attr, value in vars(cls).items()
               if not attr.startswith("_")
               and isinstance(value, (types.FunctionType, property,
                                      classmethod, staticmethod))]
    assert {"ExponentSolver.solve", "ExponentSolver.phi",
            "RatePair.r"} <= set(members)
    assert _unread(members) == []
