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

A fifth rule keeps three scipy modules off the import of ``homogkit``: no
source file imports ``scipy.fft``, ``scipy.sparse`` or ``scipy.sparse.linalg``
outside a function body (``solvers.gmres`` imports ``scipy.sparse.linalg``,
the one it uses, on its first call).

It also checks which modules a CLI process loads, and at which stage: no
stage of any run loads ``scipy.fft``, ``scipy.special`` or ``scipy.sparse``,
and no run loads any module at all.
"""

import ast
import functools
import json
from concurrent.futures import ThreadPoolExecutor
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


# Never imported with the package: ``solvers.gmres`` imports
# ``scipy.sparse.linalg`` on its first call, and no module imports the others.
LAZY_MODULES = ("scipy.fft", "scipy.sparse", "scipy.sparse.linalg")


def _loaded_modules(node) -> list[str]:
    """The modules an import statement may load: ``import a.b`` names
    ``a.b``; ``from a import b`` names ``a`` and ``a.b``, as b may be a
    module.  Relative imports (homogkit's own modules) name none."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level:
        return []
    return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]


def eager_lazy_imports(source: str) -> list[str]:
    """``line: module`` for each import statement outside every function
    body (so also inside a top-level ``if``, ``try`` or class body) that
    loads one of ``LAZY_MODULES`` or a submodule of one."""
    out = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                hits = {lazy for name in _loaded_modules(child) for lazy in LAZY_MODULES
                        if name == lazy or name.startswith(lazy + ".")}
                out.extend(f"{child.lineno}: {lazy}" for lazy in sorted(hits))
            visit(child)

    visit(ast.parse(source))
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_import_of_lazy_modules(path):
    assert eager_lazy_imports(path.read_text()) == []


def test_detector_flags_a_module_level_lazy_import():
    source = ("import numpy as np\nimport scipy.fft as fft\nfrom scipy import sparse\n"
              "from scipy.sparse import linalg\nfrom scipy.sparse.linalg import gmres\n"
              "from .solvers import cg\n"
              "try:\n    from scipy import fft\nexcept ImportError:\n    pass\n"
              "class C:\n    import scipy.fft._pocketfft\n"
              "    def lazy(self):\n        import scipy.fft\n"
              "def lazy():\n    from scipy.sparse.linalg import cg\n")
    assert eager_lazy_imports(source) == [
        "2: scipy.fft", "3: scipy.sparse", "4: scipy.sparse", "4: scipy.sparse.linalg",
        "5: scipy.sparse", "5: scipy.sparse.linalg", "8: scipy.fft", "12: scipy.fft"]


_FOOTPRINT = """
import json, sys
import homogkit.cli as cli

names = ("scipy.sparse", "scipy.fft", "scipy.sparse.linalg", "scipy.linalg")
loaded = [[name for name in names if name in sys.modules]]
assert cli.main(["solve", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
loaded.append([name for name in names if name in sys.modules])
print(json.dumps(loaded))
"""


def _subprocess_env() -> dict:
    """The environment of a CLI run: this tree's ``src`` first on the path,
    and BLAS on one thread, because the stage fixture runs two processes at
    a time; which modules a run loads does not depend on the thread count."""
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))


def test_cli_loads_no_scipy_linalg(tmp_path):
    """``import homogkit.cli`` loads none of these scipy modules, and a
    solve run on a box leaves them all unloaded: the box operator is
    applied with numpy, the Krylov loops are homogkit's own and only the
    GMRES fallback imports scipy's.  ``solve_trig``'s box (127 interior
    points per axis) takes the sine-matrix product, so the run loads no
    ``scipy.fft`` either."""
    done = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, str(ROOT / "configs" / "solve_trig.yaml"),
         str(tmp_path / "out")], env=_subprocess_env(), capture_output=True, text=True,
        check=True, timeout=120)
    before, after = json.loads(done.stdout.splitlines()[-1])
    assert before == after == []


_STAGES = """
import json, sys

names = ("scipy.fft", "scipy.special", "scipy.sparse")
stages = {}
import homogkit.cli as cli
stages["imported"] = [name for name in names if name in sys.modules]
with open(sys.argv[1]) as fh:
    cfg = cli.parse_config(fh.read())
stages["parsed"] = [name for name in names if name in sys.modules]
loaded = set(sys.modules)
stages["ok"] = cli.run(cfg, sys.argv[2])["ok"]
stages["ran"] = sorted(set(sys.modules) - loaded)
stages["scipy"] = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
print(json.dumps(stages))
"""

# Configs beside configs/*.yaml: the maximal battery on the 96^2 box of the
# benchmark's maximal workload; solves on the smallest box of the split
# DST-I (128 interior points per axis) and on a split box that took
# ``scipy.fft.dstn`` before every transform was numpy's (319);
# a rates sweep with the benchmark sweep's shapes (the 64^2 cell torus,
# boxes of 127^2 and 255^2 interior points); and the benchmark systems'
# pair (the 96^2 x 2 torus with flux correctors; the 64^2 x 2 torus and the
# 63^2 x 2 box).
_EXTRA_CONFIGS = {
    "battery_96": "subcommand: green\nfamily: trig\nparams: {d: 2}\nn: 96\n"
                  "eps: 0.25\nbattery: true\nprobes: [[0.5, 0.5]]\nseed: 0\n",
    "solve_129": "subcommand: solve\nfamily: constant\nparams: {d: 2}\nn: 129\n",
    "solve_320": "subcommand: solve\nfamily: constant\nparams: {d: 2}\nn: 320\n",
    "rates_255": "subcommand: rates\nfamily: trig\n"
                 "params: {d: 2, alpha: 2.0, beta: 0.5, lower: 0.5}\n"
                 "eps: [0.125, 0.0625]\ndivisor: 16\nn_cell: 64\ndata: bump\nseed: 5\n",
    "systems_homogenize": "subcommand: homogenize\nfamily: nonsymmetric-system\n"
                          "params: {d: 2, delta: 0.3}\nn: 96\nflux: true\nseed: 5\n",
    "systems_correctors": "subcommand: correctors\nfamily: nonsymmetric-system\n"
                          "params: {d: 2, delta: 0.3}\nn: 64\neps: 0.25\nn_cell: 64\n"
                          "seed: 5\n",
}
_STAGE_CASES = sorted(p.stem for p in (ROOT / "configs").glob("*.yaml")) + sorted(
    _EXTRA_CONFIGS)


@pytest.fixture(scope="module")
def import_stages(tmp_path_factory):
    """Per config: which of ``scipy.fft``, ``scipy.special`` and
    ``scipy.sparse`` are loaded after ``import homogkit.cli`` and after
    ``parse_config``, and every module ``run`` loads first, each config in a
    fresh process (two at a time), from the repository root so that
    ``validate_all``'s relative paths resolve."""
    tmp = tmp_path_factory.mktemp("stages")
    paths = {name: ROOT / "configs" / f"{name}.yaml" for name in _STAGE_CASES}
    for name, text in _EXTRA_CONFIGS.items():
        paths[name] = tmp / f"{name}.yaml"
        paths[name].write_text(text)

    def stages(name):
        done = subprocess.run(
            [sys.executable, "-c", _STAGES, str(paths[name]), str(tmp / name)],
            cwd=ROOT, env=_subprocess_env(), capture_output=True, text=True, check=True,
            timeout=120)
        return json.loads(done.stdout.splitlines()[-1])

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(_STAGE_CASES, pool.map(stages, _STAGE_CASES)))


@pytest.mark.parametrize("name", _STAGE_CASES)
def test_scipy_fft_is_loaded_at_parse_time_or_never(import_stages, name):
    """Neither ``import homogkit.cli`` nor the parse loads any of the three
    scipy modules, and ``test_run_loads_no_module`` checks that no run
    loads one later: every transform is ``numpy.fft``'s or a BLAS product.
    (The name is that of the rule this replaced, which loaded ``scipy.fft``
    at parse for the runs that transformed with it.)"""
    stages = import_stages[name]
    assert stages["ok"]
    assert stages["imported"] == stages["parsed"] == []


@pytest.mark.parametrize("name", _STAGE_CASES)
def test_scipy_sparse_is_loaded_at_parse_time_for_torus_runs(import_stages, name):
    """No config loads ``scipy.sparse`` at import, at parse or during the
    run: the torus and box operators are numpy arrays.  (The name is that
    of the rule this replaced, which loaded it at parse for the tori whose
    operator it stored; no torus needs it now.)"""
    assert not [m for m in import_stages[name]["scipy"] if m.startswith("scipy.sparse")]


@pytest.mark.parametrize("name", _STAGE_CASES)
def test_run_loads_no_module(import_stages, name):
    """Every module a run uses is loaded by the import of ``homogkit.cli``
    or by the parse, so no import lands in a stage time of the manifest.
    ``numpy.random`` is one: ``coefficients``, ``green`` and ``rates``
    import it themselves, as nothing else loads it on small boxes."""
    assert import_stages[name]["ran"] == []


@pytest.mark.parametrize("name", _STAGE_CASES)
def test_runs_without_scipy_kernels_load_no_scipy(import_stages, name):
    """Every run ends with no scipy module loaded at all, the 511^2 box of
    ``rates_trig2d`` and the 319^2 box of ``solve_320`` among them: no
    transform needs scipy, and the GMRES fallback fires in none of them."""
    assert import_stages[name]["scipy"] == []
