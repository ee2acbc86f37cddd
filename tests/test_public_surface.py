"""The package's public names, and the names the README says it has.

``wx.__all__`` lists exactly the public attributes of the package, and
every name the README's Python API section uses or lists resolves: a name
that leaves the code cannot stay behind in the documentation.  Every
public function, and every public method and property of a public class,
has a reader: the package's code, the benchmark, or the tests, as a
reference oracle.  The oracles live in ``wiretap_exponent.oracles``, which
takes only data types and one helper from the package, and which no other
module of the package imports.
"""
import ast
import dataclasses
import glob
import inspect
import os
import re
import types

import wiretap_exponent as wx
from wiretap_exponent import oracles

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


#: reference oracles that tests compare the solver against, the public
#: functions and classes of ``oracles``; no printed number reads them
ORACLES = {name for name, value in vars(oracles).items()
           if not name.startswith("_")
           and (inspect.isfunction(value) or inspect.isclass(value))
           and value.__module__ == oracles.__name__}

#: the only names ``oracles`` imports from the package: data types, the
#: budget error and the n-type of the input
ORACLE_IMPORTS = {
    ("channels", "ChannelSpec"), ("channels", "Distribution"),
    ("channels", "Dmc"), ("errors", "BudgetExceededError"),
    ("exponent", "RatePair"), ("gaussian", "GaussianSpec"),
    ("simulate", "quantize_composition"),
}


def _package_imports(path):
    """(module, name) of each import of the package in one module, the
    module relative to the package ("" for the package itself, and name
    None for a plain ``import``)."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "wiretap_exponent":
                    continue
                module = module.partition(".")[2]
            found |= {(module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {(alias.name.partition(".")[2], None)
                      for alias in node.names
                      if alias.name.split(".")[0] == "wiretap_exponent"}
    return found


def _product_modules():
    """The package's modules, its ``__init__`` and the oracles left out."""
    src = os.path.dirname(wx.__file__)
    return sorted(os.path.join(src, name) for name in os.listdir(src)
                  if name.endswith(".py")
                  and name not in ("__init__.py", "oracles.py"))


def test_oracles_are_the_oracle_module():
    assert {"bsc_exponent_closed_form", "type_enum_exponent",
            "ConditionalChannel", "gaussian_divergence_term"} <= ORACLES
    assert ORACLES <= set(wx.__all__)


def test_oracles_import_only_data_types():
    """An oracle shares no code with the solver: from the package it
    takes only the names in ORACLE_IMPORTS."""
    imported = _package_imports(oracles.__file__)
    assert imported - ORACLE_IMPORTS == set()


def test_no_product_module_imports_the_oracles():
    """Only the package's ``__init__`` re-exports the oracles; no product
    module may come to depend on one."""
    users = [os.path.basename(path) for path in _product_modules()
             if any(module == "oracles"
                    or (module == "" and name == "oracles")
                    for module, name in _package_imports(path))]
    assert users == []


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
    """(names the package's product code reads, the text of the
    benchmark's modules, ``bench/tracing.py``'s targets included)."""
    used = set()
    for path in _product_modules():
        used |= _code_references(path)
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
