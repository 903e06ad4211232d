"""Every name a package module imports at top level is used in that module,
every function, class and method the package defines is referenced, every
parameter is read, only `codec.py` reads files or writes JSON, no
module imports numpy.random, whose import alone costs a build ~12 ms, and
`hinges.py` and `ordering.py` import no numpy at all.

`__init__.py` re-exports names on purpose and `from __future__` imports
are directives, so both are exempt from the import check.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sliceforge.mesh import save_obj
from sliceforge.synth import nested_spheres

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sliceforge"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_names():
    source = "from __future__ import annotations\nimport os\nimport json\nfrom x import a, b as c\nprint(json, c)\n"
    assert unused_imports(source) == ["os", "a"]


def unread_parameters(source: str) -> list[str]:
    """`function:parameter` for every parameter of a function, method or
    lambda that its body never reads; `self`, `cls` and names starting with
    `_` are exempt. A nested function or lambda that reads the name counts."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "lambda")
        unread += [
            f"{name}:{p.arg}"
            for p in params
            if p.arg not in read and p.arg not in ("self", "cls") and not p.arg.startswith("_")
        ]
    return unread


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_checker_flags_unread_parameters():
    source = (
        "def f(a, b, *args, c, _d, **kw):\n"
        "    b = 1\n"
        "    return a + c\n"
        "class C:\n"
        "    def m(self, x, y=2):\n"
        "        return lambda z, w: (lambda: x)() + z\n"
        "    @classmethod\n"
        "    def k(cls): pass\n"
    )
    # `b` is only written; a closure reading `x` counts as reading it
    assert unread_parameters(source) == ["f:b", "f:args", "f:kw", "m:y", "lambda:w"]


def calls_into(tree: ast.Module, module: str, functions: tuple[str, ...]) -> list[int]:
    """The lines that call one of `functions` of `module`, under whatever
    name the source imports the module or the function by."""
    modules = {
        a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names if a.name == module
    }
    names = {
        a.asname or a.name
        for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom) and n.module == module
        for a in n.names
        if a.name in functions
    }
    return [
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        and (isinstance(n.func, ast.Name) and n.func.id in names
             or isinstance(n.func, ast.Attribute) and n.func.attr in functions
             and isinstance(n.func.value, ast.Name) and n.func.value.id in modules)
    ]


def file_reads(source: str) -> list[int]:
    """The lines that call `open`, a method named `open`, `read_bytes`,
    `read_text` or `readinto`, or numpy's `fromfile`, `memmap` or `load`:
    the ways a module reads a file by itself."""
    tree = ast.parse(source)
    return sorted({
        *(n.lineno
          for n in ast.walk(tree)
          if isinstance(n, ast.Call)
          and (isinstance(n.func, ast.Name) and n.func.id == "open"
               or isinstance(n.func, ast.Attribute) and n.func.attr in ("open", "read_bytes", "read_text", "readinto"))),
        *calls_into(tree, "numpy", ("fromfile", "memmap", "load")),
    })


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "codec.py"], ids=lambda p: p.name)
def test_only_codec_reads_files(path):
    # codec's readers hold the one error policy for input files
    assert file_reads(path.read_text()) == []


def test_checker_flags_file_reads():
    source = (
        "open(p)\n"
        "Path(p).read_text()\n"
        "data = x.read_bytes()\n"
        "read_bytes(p, 'mesh file')\n"
        "with p.open() as f: pass\n"
        "Path(p).write_text(t); opener(p)\n"
        "import numpy as np, json\n"
        "from numpy import memmap as mm, load\n"
        "a = np.fromfile(f, np.uint8)\n"
        "a = mm(p)\n"
        "f.readinto(buf)\n"
        "a = load(p)\n"
        "json.load(f); np.frombuffer(b); read_array(p, 'volume', d, n); fromfile(f)\n"
    )
    # a bare read_bytes or read_array is codec's reader; writers are not
    # reads, nor are a json load and a fromfile not imported from numpy
    assert file_reads(source) == [1, 2, 3, 5, 9, 10, 11, 12]


def json_writes(source: str) -> list[int]:
    """The lines that call `json.dump` or `json.dumps`, under whatever name
    the module imports the module or the function by."""
    return sorted(calls_into(ast.parse(source), "json", ("dump", "dumps")))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "codec.py"], ids=lambda p: p.name)
def test_only_codec_writes_json(path):
    # codec.json_text is the one writer, so every JSON file has one layout
    assert json_writes(path.read_text()) == []


def test_checker_flags_json_writes():
    source = (
        "import json\n"
        "import json as j, pickle\n"
        "from json import dumps as d, loads\n"
        "json.dumps(x)\n"
        "j.dump(x, f)\n"
        "print(d(x)); json.loads(s); loads(s)\n"
        "pickle.dumps(x); dumps(x); json_text(x)\n"
        "json.dump(x, f)\n"
    )
    # pickle's dumps and a `dumps` not imported from json are not JSON writes
    assert json_writes(source) == [4, 5, 6, 8]


def stage_calls(sources: dict[str, str]) -> dict[str, list[str]]:
    """`file:line` of every call of a function named `stage_*`, by that
    name, whether called as an attribute (`pipeline.stage_pack(...)`) or as
    a bare name (after `from .pipeline import stage_pack`)."""
    calls = {}
    for f, src in sources.items():
        for n in ast.walk(ast.parse(src)):
            if isinstance(n, ast.Call):
                name = n.func.attr if isinstance(n.func, ast.Attribute) else getattr(n.func, "id", "")
                if name.startswith("stage_"):
                    calls.setdefault(name, []).append(f"{f}:{n.lineno}")
    return calls


def test_each_stage_is_called_from_one_place():
    # `build` and the staged commands share one call of each stage, so a
    # stage's argument list is written once
    stages = [n.name for n in ast.parse((PACKAGE / "pipeline.py").read_text()).body
              if isinstance(n, ast.FunctionDef) and n.name.startswith("stage_")]
    assert len(stages) == 5
    calls = stage_calls({p.name: p.read_text() for p in MODULES})
    assert {stage: len(calls.get(stage, [])) for stage in stages} == dict.fromkeys(stages, 1), calls


def test_checker_flags_stage_calls():
    sources = {
        "a.py": "from . import pipeline\npipeline.stage_pack(s)\nx.stage_pack(s); stage_export(s)\n",
        "b.py": "from .pipeline import stage_export\nstage_export(s); staged(s); stage_pack\n",
    }
    # a mention that is not a call does not count
    assert stage_calls(sources) == {"stage_pack": ["a.py:2", "a.py:3"], "stage_export": ["a.py:3", "b.py:2"]}


def _mentions(tree: ast.Module) -> list[tuple[str, int, bool]]:
    """(name, line, bare) of every name, attribute and string in a module;
    `bare` marks a plain name, which cannot reach a method. A string in
    `__all__` does not count, since listing a name there uses it nowhere,
    and neither does a string that is a dict key or a subscript index:
    `{"n": ...}` and `row["n"]` name data, not a definition. A name or
    attribute in those places (`row[C.n]`) still counts."""
    exported = {
        id(n)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for n in ast.walk(node)
    }
    keys = {
        id(k)
        for n in ast.walk(tree)
        for k in (n.keys if isinstance(n, ast.Dict) else [n.slice] if isinstance(n, ast.Subscript) else [])
        if isinstance(k, ast.Constant) and isinstance(k.value, str)
    }
    out = []
    for n in ast.walk(tree):
        if id(n) in exported or id(n) in keys:
            continue
        if isinstance(n, ast.Name):
            out.append((n.id, n.lineno, True))
        elif isinstance(n, ast.Attribute):
            out.append((n.attr, n.lineno, False))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):  # getattr-style lookups
            out.append((n.value, n.lineno, False))
    return out


def unreferenced_definitions(package: dict[str, str], others: dict[str, str]) -> list[str]:
    """The top-level functions and classes, and the non-dunder methods and
    properties, of the `package` sources (file -> source) that no source of
    `package` or `others` mentions outside their own definition."""
    mentions = {f: _mentions(ast.parse(src)) for f, src in {**package, **others}.items()}
    dead = []
    for f, src in package.items():
        for node in ast.parse(src).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node, False)]
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{node.name}.{m.name}", m, True)
                    for m in node.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (m.name.startswith("__") and m.name.endswith("__"))
                ]
            for qualified, d, method in defs:
                if not any(
                    name == d.name and not (method and bare) and (g != f or not d.lineno <= line <= d.end_lineno)
                    for g, found in mentions.items()
                    for name, line, bare in found
                ):
                    dead.append(f"{f}:{qualified}")
    return dead


def test_every_definition_is_referenced():
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    others = {
        str(p.relative_to(ROOT)): p.read_text()
        for folder in ("tests", "perfbench")
        for p in sorted((ROOT / folder).rglob("*.py"))
    }
    assert len(others) >= 10
    assert unreferenced_definitions(package, others) == []


def test_checker_flags_unreferenced_definitions():
    package = {
        "m.py": (
            "def used(): pass\n"
            "def recursive(): return recursive()\n"
            "def exported(): pass\n"
            "class C:\n"
            "    def __init__(self): pass\n"
            "    def called(self): return self.by_name\n"
            "    @property\n"
            "    def by_name(self): return 1\n"
            "    def dead(self): pass\n"
            "    def n(self): pass\n"
            "    def keyed(self): pass\n"
            "    def indexed(self): pass\n"
            "    def attr_keyed(self): pass\n"
            "    def attr_indexed(self): pass\n"
            "__all__ = ['exported']\n"
        )
    }
    # a plain name `n` is a variable: it cannot call the method `n`; a dict
    # key or a subscript index is data, so neither reaches a method either;
    # an attribute in those places does
    others = {
        "t.py": "import m\nm.used(); m.C().called(); getattr(m, 'C'); n = 1; print(n)\n"
        "row = {'keyed': n, m.C.attr_keyed: n}\nprint(row['indexed'], row[m.C.attr_indexed])\n"
    }
    assert unreferenced_definitions(package, others) == [
        "m.py:recursive", "m.py:exported", "m.py:C.dead", "m.py:C.n", "m.py:C.keyed", "m.py:C.indexed",
    ]


def numpy_random_uses(source: str) -> list[int]:
    """The lines that import numpy.random, name it as an attribute of numpy
    under whatever name the module imports numpy by, or name it in a string
    (as `importlib.import_module` takes it)."""
    tree = ast.parse(source)
    numpy = {"np", "numpy"} | {
        a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names if a.name == "numpy"
    }
    lines = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            hit = any(a.name.split(".")[:2] == ["numpy", "random"] for a in n.names)
        elif isinstance(n, ast.ImportFrom):
            module = (n.module or "").split(".")
            hit = module[:2] == ["numpy", "random"] or module == ["numpy"] and any(a.name == "random" for a in n.names)
        elif isinstance(n, ast.Attribute):
            hit = n.attr == "random" and isinstance(n.value, ast.Name) and n.value.id in numpy
        else:
            hit = isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.split(".")[:2] == ["numpy", "random"]
        if hit:
            lines.add(n.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES + [PACKAGE / "__init__.py"], ids=lambda p: p.name)
def test_no_module_uses_numpy_random(path):
    # layout._first_centre gives numpy's first draw from one constant word
    assert numpy_random_uses(path.read_text()) == []


def test_checker_flags_numpy_random():
    source = (
        "import numpy as xp\n"
        "import numpy.random\n"
        "from numpy.random import default_rng\n"
        "from numpy import random as r, float64\n"
        "xp.random.default_rng(0)\n"
        "np.random.seed(1)\n"
        "importlib.import_module('numpy.random')\n"
        '"""np.random.default_rng(seed).integers(n)"""\n'
        "import random; random.random(); rng.random(); xp.linalg.norm(v); from numpy import linalg\n"
    )
    # a docstring may name the numpy call; the random module and a
    # generator's method named `random` are no numpy.random
    assert numpy_random_uses(source) == [2, 3, 4, 5, 6, 7]


def numpy_imports(source: str) -> list[int]:
    """The lines that import numpy or one of its submodules: an import
    statement at any depth, or a call of `import_module` or `__import__` on
    the module's name."""
    lines = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Import):
            names = [a.name for a in n.names]
        elif isinstance(n, ast.ImportFrom):
            names = [n.module or ""] if n.level == 0 else []  # `from .numpy import x` is the package's own
        elif isinstance(n, ast.Call) and getattr(n.func, "attr", getattr(n.func, "id", "")) in ("import_module", "__import__"):
            names = [a.value for a in n.args if isinstance(a, ast.Constant) and isinstance(a.value, str)]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            lines.add(n.lineno)
    return sorted(lines)


@pytest.mark.parametrize("name", ["hinges.py", "ordering.py"])
def test_pure_python_stages_import_no_numpy(name):
    # the hinge and order stages run on lists of small records; keeping them
    # off numpy lets those commands load without it once their imports allow
    assert numpy_imports((PACKAGE / name).read_text()) == []


def test_checker_flags_numpy_imports():
    source = (
        "import numpy as np\n"
        "import os, numpy.linalg\n"
        "from numpy import float64\n"
        "from numpy.lib import stride_tricks\n"
        "def f():\n"
        "    import numpy\n"
        "importlib.import_module('numpy')\n"
        "__import__('numpy.fft')\n"
        "from . import numpy_free; from .numpy import x; import numpyro; print('numpy'); import_module(name)\n"
    )
    # a relative import, a module whose name only starts with numpy, and a
    # string that no import call takes are no numpy imports
    assert numpy_imports(source) == [1, 2, 3, 4, 6, 7, 8]


def test_build_does_not_load_numpy_random(tmp_path):
    # in a fresh interpreter, which no earlier test has made import it
    meshes = []
    for i, mesh in enumerate(nested_spheres(subdivisions=2).meshes):
        save_obj(mesh, tmp_path / f"sphere{i}.obj")
        meshes.append(str(tmp_path / f"sphere{i}.obj"))
    argv = ["build", "--meshes", *meshes, "--resolution", "32", "--level", "3", "--sheets", "2",
            "--out", str(tmp_path / "out")]
    script = (
        "import sys\n"
        "from sliceforge import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print('numpy.random' in sys.modules, 'numpy' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False True"
