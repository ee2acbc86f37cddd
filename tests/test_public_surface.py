"""The package's public names, and the names the README says it has.

``wx.__all__`` lists exactly the public attributes of the package, and
every name the README's Python API section uses or lists resolves: a name
that leaves the code cannot stay behind in the documentation.
"""
import dataclasses
import os
import re
import types

import wiretap_exponent as wx

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


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

