"""Checks on the package source itself and on the README's example."""

import ast
import glob
import importlib.util
import os
import re
import shutil
import subprocess
from collections import Counter

import pytest

from helpers import run_python

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PACKAGE = os.path.join(ROOT, "src", "gitstab")


def test_package_has_no_runtime_assert():
    # `python -O` strips assert statements, so runtime validation in the
    # package must be an explicit `if ...: raise`.
    paths = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    assert paths, "package sources not found"
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [
            f"{os.path.basename(path)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_package_has_no_float():
    # Shipped code is exact: no float constants, no `float`, and none of the
    # floating-point `math` functions (integer helpers such as isqrt are fine).
    inexact = {"isclose", "sqrt", "log", "exp"}
    paths = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    assert paths, "package sources not found"
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        where = os.path.basename(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{where}:{node.lineno} {node.value!r}")
            elif isinstance(node, ast.Name) and node.id == "float":
                found.append(f"{where}:{node.lineno} float")
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in inexact
                and isinstance(node.value, ast.Name)
                and node.value.id == "math"
            ):
                found.append(f"{where}:{node.lineno} math.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [
                    f"{where}:{node.lineno} math.{a.name}" for a in node.names if a.name in inexact
                ]
    assert found == []


def _import_time_nodes(tree):
    """Statements run when the module is imported: everything outside a
    function body (class bodies run at import too)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [a.name.split(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module.split(".")[0]]
    return []


def test_package_start_up_imports_neither_dataclasses_nor_logging():
    # `dataclasses` (with the `inspect` machinery it loads) and `logging` cost
    # every CLI process milliseconds; value classes come from gitstab.record,
    # and `logging` is imported only where a record can be printed.
    paths = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    assert paths, "package sources not found"
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        where = os.path.basename(path)
        found += [
            f"{where}:{node.lineno} dataclasses"
            for node in ast.walk(tree)
            if "dataclasses" in _imported_modules(node)
        ]
        found += [
            f"{where}:{node.lineno} logging"
            for node in _import_time_nodes(tree)
            if "logging" in _imported_modules(node)
        ]
    assert found == []


def test_no_tracked_file_is_gitignored():
    # A tracked file that .gitignore lists (a generated source, a build
    # product) is stale the moment it is regenerated.
    if shutil.which("git") is None or not os.path.exists(os.path.join(ROOT, ".git")):
        pytest.skip("not a git work tree")
    out = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    assert out.stdout == ""


def _referenced_names(node):
    """Every name a syntax tree uses: variables, attributes, imported names
    and whole string constants (`__all__` entries, names looked up by
    string)."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names[sub.value] += 1
    return names


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _program_sources():
    """(path, syntax tree) of every Python file of the program: the package,
    the benchmark and the scripts."""
    paths = []
    for folder in ("src", "scripts", "perfbench"):
        paths += glob.glob(os.path.join(ROOT, folder, "**", "*.py"), recursive=True)
    for path in sorted(paths):
        with open(path, encoding="utf-8") as fh:
            yield path, ast.parse(fh.read(), filename=path)


def _in_package(path):
    return os.path.dirname(os.path.abspath(path)) == os.path.abspath(PACKAGE)


def test_every_package_function_is_referenced():
    # A module-level function, method or property that nothing in the
    # program calls, imports or names is dead code.  The package, the
    # benchmark and the scripts count as users, and so does a name listed in
    # `__all__`; a test alone does not keep code alive.
    used = Counter()
    functions = []
    for path, tree in _program_sources():
        used += _referenced_names(tree)
        if _in_package(path):
            where = os.path.basename(path)
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions.append((where, node))
                elif isinstance(node, ast.ClassDef):
                    functions += [
                        (f"{where}:{node.name}", sub)
                        for sub in node.body
                        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not _is_dunder(sub.name)
                    ]
    assert functions, "package sources not found"
    unused = [
        f"{where}:{node.name}"
        for where, node in functions
        if used[node.name] <= _referenced_names(node)[node.name]
    ]
    assert unused == []


def test_every_record_field_is_read():
    # A field of a package `@record` class that no program code reads as an
    # attribute is dead data; a value that follows from other fields is a
    # property, which cannot disagree with them.  `record` has no defaults, so
    # a field must not carry one.
    reads = set()
    fields = []
    for path, tree in _program_sources():
        reads |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
        if _in_package(path):
            fields += [
                (f"{os.path.basename(path)}:{cls.name}.{node.target.id}", node)
                for cls in tree.body
                if isinstance(cls, ast.ClassDef)
                and any(isinstance(d, ast.Name) and d.id == "record" for d in cls.decorator_list)
                for node in cls.body
                if isinstance(node, ast.AnnAssign)
            ]
    assert fields, "no record fields found"
    assert [where for where, node in fields if node.target.id not in reads] == []
    assert [where for where, node in fields if node.value is not None] == []


def test_benchmark_tracer_finds_every_name_it_wraps():
    # `perfbench/run.py --trace 1` wraps package functions by name from
    # outside; a missing name fails its install.
    script = (
        "import sys\n"
        f"sys.path.insert(0, {os.path.join(ROOT, 'perfbench')!r})\n"
        "import tracer\n"
        "t = tracer.Tracer(spans=False)\n"
        "t.install()\n"
        "t.uninstall()\n"
        "import gitstab.boxscan\n"
        "print(gitstab.boxscan.HAVE_COMPILED)\n"
    )
    proc = run_python("-c", script, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_benchmark_tracer_reaches_the_kernels_the_program_runs():
    # Each name the tracer wraps must be the one the program calls, or its
    # span reads 0 however much work the program does.  The Jordan field has
    # rational eigenvalues and a nilpotent part that fixes f, so it takes the
    # whole eigenbasis path; the cubic is unstable, so the LP runs.
    # vfield.substitute is not listed: that span wraps substitute_linear,
    # the entry point of outside bases, and this path calls
    # substitute_integer.
    script = (
        "import sys\n"
        f"sys.path.insert(0, {os.path.join(ROOT, 'perfbench')!r})\n"
        "import tracer\n"
        "t = tracer.Tracer(spans=False)\n"
        "t.install()\n"
        "from gitstab import degeneration, stability, vfield\n"
        "from gitstab.poly import parse_poly\n"
        "f = parse_poly('z1^3 + z2^3 + z3^3', 4)\n"
        "v = vfield.LinearVectorField([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, -2]])\n"
        "degeneration.build_degeneration(f, v)\n"
        "g = parse_poly('z0*z1^2 + z2^2*z3 - z2*z3^2 + z1*z2*z3', 4)\n"
        "print(stability.classify_torus(g).classification)\n"
        "t.uninstall()\n"
        "print(' '.join(sorted(t.calls)))\n"
    )
    proc = run_python("-c", script, timeout=60)
    assert proc.returncode == 0, proc.stderr
    verdict, names = proc.stdout.splitlines()
    assert verdict == "not_weakly_stable"
    called = set(names.split())
    wanted = {
        "linalg.charpoly",
        "linalg.nullspace",
        "vfield.chevalley",
        "vfield.diagonalize",
        "vfield.sympy_factor",
        "lp.kernel",
        "lp.solve",
    }
    assert wanted - called == set()


def test_readme_library_example_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)
    assert len(blocks) == 1, "README should have one python block"
    out = run_python("-c", blocks[0], timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["3", "z0*z1^2 + z2^2*z3 - z2*z3^2", "-8", "True"]


def test_every_mutant_snippet_occurs_once():
    # scripts/mutants.py, the mutation gate, runs as its own CI job; here its
    # table is only checked against the source, so a refactor that moves a
    # snippet must update the row instead of orphaning it.
    spec = importlib.util.spec_from_file_location("mutants", os.path.join(ROOT, "scripts", "mutants.py"))
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    rows = mutants.MUTANTS
    assert len({m.name for m in rows}) == len(rows) >= 7
    assert [m.name for m in rows if mutants.occurrences(m) != 1] == []
    selected = {m.tests[0].split("::")[0] for m in rows}
    assert [t for t in selected if not os.path.isfile(os.path.join(ROOT, t))] == []
