"""Every module-level import in ``homogkit`` is used by its module, every
module-level private name is referenced somewhere, every parameter is read
and every dataclass field is read.

No linter ships with the toolchain, so this stands in for four rules:

- unused imports: each source file fails on a module-level import whose bound
  name the module never references (``__all__`` entries count as references;
  ``from __future__`` imports are exempt);
- unreferenced private names: a module-level ``_name`` (function, class or
  assigned constant) fails when no code in ``src``, ``tests`` or
  ``perfbench`` reads it.  A read is a name load, an attribute, an imported
  name or a string equal to the name (``monkeypatch.setattr(mod, "_name")``);
- unused parameters: a parameter of a function (or lambda) whose body never
  reads it fails; ``self``, ``cls`` and ``_``-prefixed names are exempt;
- unread dataclass fields: a field of a ``@dataclass`` in ``src`` fails when
  no code in ``src``, ``tests`` or ``perfbench`` reads it.  A read is an
  attribute load of the field's name or the name as a string passed to
  ``getattr``, ``hasattr``, ``setattr`` or ``monkeypatch.setattr`` (a
  name passed as a variable may be any string of its module).  Reads
  are matched by name alone, so a name that several classes share
  (``values``, ``eps``) counts as read for all of them: the rule is
  conservative and misses such fields.

It also checks which scipy modules a CLI process loads.
"""

import ast
import functools
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "homogkit"


def _bound_names(node):
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    # ``import a.b`` binds ``a``
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = [name for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in _bound_names(node)]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in ast.walk(node.value)
                     if isinstance(elt, ast.Constant) and isinstance(elt.value, str)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nfrom dataclasses import dataclass, replace\n"
              "x = math.pi\n@dataclass\nclass C:\n    y: int = 0\n")
    assert unused_imports(source) == ["os", "replace"]


def private_definitions(tree: ast.Module) -> list[str]:
    """Module-level ``_name`` definitions (dunder names excluded)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def referenced_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def unreferenced_private_names(source: str, used: set[str]) -> list[str]:
    """Private names defined at the top of ``source`` that neither ``source``
    nor the names ``used`` elsewhere reference."""
    tree = ast.parse(source)
    used = used | referenced_names(tree)
    return [n for n in private_definitions(tree) if n not in used]


@functools.cache
def _project_references() -> set[str]:
    return set().union(*(referenced_names(ast.parse(p.read_text()))
                         for d in ("src", "tests", "perfbench")
                         for p in (ROOT / d).rglob("*.py")))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unreferenced_private_names(path):
    assert unreferenced_private_names(path.read_text(), _project_references()) == []


def test_detector_flags_an_unreferenced_private_name():
    source = ("_LIMIT = 4\n_SPARE: int = 5\n__all__ = []\n"
              "def _helper():\n    return _LIMIT\n"
              "def _patched():\n    pass\n"
              "def _dead():\n    pass\n"
              "class _Gone:\n    pass\n"
              "def public():\n    return _helper()\n")
    elsewhere = referenced_names(ast.parse(
        'import m\nmonkeypatch.setattr(m, "_patched", None)\n'))
    assert unreferenced_private_names(source, elsewhere) == ["_SPARE", "_dead", "_Gone"]


def unused_parameters(source: str) -> list[str]:
    """``function.parameter`` for each parameter that its function's body
    never reads (a name load anywhere below it, nested functions included)."""
    functions = [node for node in ast.walk(ast.parse(source))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    out = []
    for node in sorted(functions, key=lambda f: (f.lineno, f.col_offset)):
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg)
                  if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        out += [f"{name}.{p}" for p in params
                if p not in read and p not in ("self", "cls") and not p.startswith("_")]
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def test_detector_flags_an_unused_parameter():
    source = ("class C:\n"
              "    def method(self, x, _spare, *args, scale=1, **kw):\n"
              "        return x * scale\n"
              "    @classmethod\n"
              "    def make(cls, y):\n"
              "        def inner(z):\n"
              "            return y\n"
              "        return inner\n"
              "f = lambda u, v: u\n")
    assert unused_parameters(source) == ["method.args", "method.kw", "inner.z", "<lambda>.v"]


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (getattr(target, "id", None) == "dataclass"
            or getattr(target, "attr", None) == "dataclass")


def dataclass_fields(source: str) -> list[tuple[str, str]]:
    """(class, field) for each annotated field of each ``@dataclass``."""
    return [(node.name, stmt.target.id) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list))
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


def _is_string(node) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def attribute_reads(tree: ast.Module) -> set[str]:
    """Attribute names ``tree`` reads: attribute loads, and names passed as
    strings to ``getattr``, ``hasattr``, ``setattr`` or ``monkeypatch.setattr``.
    A name passed as a variable (``for name in FIELDS: getattr(x, name)``)
    may be any string of the module, so then each of them counts."""
    reads, dynamic = set(), False
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            f, name = node.func, node.args[1]
            if (isinstance(f, ast.Name) and f.id in ("getattr", "hasattr", "setattr")
                    or isinstance(f, ast.Attribute) and f.attr == "setattr"
                    and getattr(f.value, "id", None) == "monkeypatch"):
                if _is_string(name):
                    reads.add(name.value)
                else:
                    dynamic = True
    if dynamic:
        reads |= {node.value for node in ast.walk(tree) if _is_string(node)}
    return reads


def unread_dataclass_fields(source: str, reads: set[str]) -> list[str]:
    """``Class.field`` for each dataclass field of ``source`` that neither
    ``source`` nor the attribute names ``reads`` elsewhere read."""
    reads = reads | attribute_reads(ast.parse(source))
    return [f"{cls}.{name}" for cls, name in dataclass_fields(source) if name not in reads]


@functools.cache
def _project_attribute_reads() -> set[str]:
    return set().union(*(attribute_reads(ast.parse(p.read_text()))
                         for d in ("src", "tests", "perfbench")
                         for p in (ROOT / d).rglob("*.py")))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_dataclass_fields(path):
    assert unread_dataclass_fields(path.read_text(), _project_attribute_reads()) == []


def test_detector_flags_an_unread_dataclass_field():
    source = ("import dataclasses\nfrom dataclasses import dataclass\n"
              "@dataclass\nclass Result:\n"
              "    value: float\n    echo: str\n    spare: int = 0\n    written: int = 0\n"
              "    def total(self):\n        return self.value\n"
              "@dataclasses.dataclass(frozen=True)\nclass Key:\n"
              "    probed: int\n    patched: int\n    dropped: int\n"
              "class Plain:\n    ignored: int\n"
              "def fill(r):\n    r.written = 1\n    return hasattr(r, 'probed')\n")
    elsewhere = attribute_reads(ast.parse(
        'monkeypatch.setattr(key, "patched", 1)\nsetattr(key, "echo", "x")\n'
        'print("spare")\n'))
    assert unread_dataclass_fields(source, elsewhere) == [
        "Result.spare", "Result.written", "Key.dropped"]
    looped = attribute_reads(ast.parse('for name in ("spare", "dropped"):\n'
                                       '    getattr(r, name)\n'))
    assert unread_dataclass_fields(source, elsewhere | looped) == ["Result.written"]


_FOOTPRINT = """
import json, sys
import homogkit.cli as cli

names = ("scipy.sparse", "scipy.fft", "scipy.sparse.linalg", "scipy.linalg")
loaded = [[name for name in names if name in sys.modules]]
assert cli.main(["solve", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
loaded.append([name for name in names if name in sys.modules])
print(json.dumps(loaded))
"""


def test_cli_loads_no_scipy_linalg(tmp_path):
    """``import homogkit.cli`` loads ``scipy.sparse`` (the operator products)
    and ``scipy.fft`` (the preconditioners), but neither
    ``scipy.sparse.linalg`` nor ``scipy.linalg``, and a solve run leaves
    both unloaded: the Krylov loops are homogkit's own, and only the GMRES
    fallback imports scipy's."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, str(ROOT / "configs" / "solve_trig.yaml"),
         str(tmp_path / "out")], env=env, capture_output=True, text=True, check=True)
    before, after = json.loads(done.stdout.splitlines()[-1])
    assert before == after == ["scipy.sparse", "scipy.fft"]
