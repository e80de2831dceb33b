"""The installed surface: numpy-only imports, a resolvable public API,
module layers without cycles, source and test lines of at most 100
characters, the names the benchmark reads, README constants that exist
with the values it states, README dotted and class names that resolve,
README phase names, and a listed set of module-level constants."""

import ast
import builtins
import functools
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import lossjm
from lossjm import compat
from lossjm.measurements import FamilyParams

PROBE = """
import json, sys
before = set(sys.modules)
import lossjm
missing = [n for n in lossjm.__all__ if not hasattr(lossjm, n)]
loaded = sorted({m.split(".")[0] for m in set(sys.modules) - before})
print(json.dumps({"loaded": loaded, "missing": missing, "count": len(lossjm.__all__)}))
"""


def test_import_loads_numpy_only():
    src = str(Path(lossjm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    probe = json.loads(proc.stdout)
    third_party = [
        m for m in probe["loaded"] if m not in sys.stdlib_module_names and m != "lossjm"
    ]
    assert third_party == ["numpy"]
    assert not {"scipy", "mpmath", "hypothesis", "pytest"} & set(probe["loaded"])
    # the exact threshold test compares integers: no rational or decimal arithmetic
    assert not {"fractions", "decimal"} & set(probe["loaded"])
    assert probe["missing"] == []
    assert probe["count"] == len(set(lossjm.__all__)) == 28


def _relative_imports(path: Path) -> tuple[set[str], list[int]]:
    """(modules imported with ``from .x``, lines of imports inside a function)."""
    tree = ast.parse(path.read_text())
    imports, nested = set(), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested += [
                n.lineno for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))
            ]
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                imports.add(node.module)
            else:  # from . import a, b
                imports.update(alias.name for alias in node.names)
    return imports, nested


def test_module_layers():
    # the package facade __init__ imports every module and is left out
    package = Path(lossjm.__file__).resolve().parent
    graph, nested = {}, {}
    for path in sorted(package.glob("*.py")):
        if path.stem != "__init__":
            graph[path.stem], lines = _relative_imports(path)
            if lines:
                nested[path.name] = lines
    assert nested == {}
    assert graph["fock"] == set()
    assert graph["usd"] == set()
    assert graph["loss"] == {"fock"}
    assert graph["qubit"] == {"measurements"}
    assert graph["parent"] == {"fock", "loss", "measurements"}
    # the codec leaves every check to MeasurementSet and ParentPovm, none to the solver
    assert graph["serialize"] == {"measurements"}
    done, active = set(), []

    def visit(module):  # depth-first search for a back edge
        if module in active:
            raise AssertionError(f"import cycle: {' -> '.join(active + [module])}")
        if module not in done:
            active.append(module)
            for dep in graph[module] & graph.keys():
                visit(dep)
            active.pop()
            done.add(module)

    for module in graph:
        visit(module)


def test_source_lines_at_most_100_characters():
    package = Path(lossjm.__file__).resolve().parent
    tests = Path(__file__).resolve().parent
    scripts = tests.parent / "scripts"
    long_lines = [
        f"{path.parent.name}/{path.name}:{number}"
        for folder in (package, tests, scripts)
        for path in sorted(folder.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 100
    ]
    assert long_lines == []


def test_names_the_benchmark_reads_exist():
    # perfbench/workloads.py reaches the package as lj.<module>.<name>; a
    # deleted or renamed name fails here rather than in a benchmark run
    workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    chains = {
        (node.value.attr, node.attr)
        for node in ast.walk(ast.parse(workloads.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "lj"
    }
    assert {("parent", "MAX_GRID"), ("cli", "TABLE_POINTS")} <= chains
    missing = [
        f"{module}.{name}"
        for module, name in sorted(chains)
        if not hasattr(importlib.import_module(f"lossjm.{module}"), name)
    ]
    assert missing == []


# a backticked `NAME`, `module.NAME` or `module.NAME = value`, or a backticked
# `NAME` followed by ` = value` (a number, a power as 2^16)
README_CONSTANT = re.compile(
    r"`(?:([a-z_]+)\.)?([A-Z][A-Z0-9_]+)(?: = ([^`]+))?`"
    r"(?: = (\d+(?:\.\d+)?(?:e-?\d+)?(?:\^\d+)?))?"
)
VERDICTS = {"COMPATIBLE", "INCOMPATIBLE", "UNDECIDED"}


def _readme_value(text: str):
    base, _, power = text.partition("^")
    value = ast.literal_eval(base)
    return value ** int(power) if power else value


def test_readme_constants_match_the_code():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    modules = {
        m.name: importlib.import_module(f"lossjm.{m.name}")
        for m in pkgutil.iter_modules(lossjm.__path__)
    }
    named = [
        (module, name, inside or after)
        for module, name, inside, after in README_CONSTANT.findall(readme.read_text())
    ]
    assert ("fock", "TOL", "1e-8") in named
    assert ("", "TOL", "1e-8") in named and ("", "MAX_TUPLES", "2^16") in named
    stale = []
    for module, name, value in named:
        if name in VERDICTS:
            continue
        owners = [modules.get(module)] if module else modules.values()
        found = [getattr(m, name) for m in owners if hasattr(m, name)]
        if not found or (value and any(v != _readme_value(value) for v in found)):
            stale.append(f"{module}.{name} = {value}" if module else name)
    assert stale == []


def test_readme_dotted_names_resolve():
    # a backticked `a.b.c` whose first part is lossjm, one of its modules or a
    # public lossjm name must resolve; others (`math.fsum`, `pyproject.toml`) are skipped
    readme = Path(__file__).resolve().parents[1] / "README.md"
    modules = {m.name for m in pkgutil.iter_modules(lossjm.__path__)}
    names = {
        m.group()
        for span in re.findall(r"`([^`\n]+)`", readme.read_text())
        if (m := re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span))
    }
    checked, missing = [], []
    for name in sorted(names):
        first, *rest = name.split(".")
        if first == "lossjm":
            owner = lossjm
        elif first in modules:
            owner = importlib.import_module(f"lossjm.{first}")
        elif first in lossjm.__all__:
            owner = getattr(lossjm, first)
        else:
            continue
        checked.append(name)
        try:
            functools.reduce(getattr, rest, owner)
        except AttributeError:
            missing.append(name)
    assert {"lossjm.compat", "fock.TOL"} <= set(checked)
    assert missing == []


def test_readme_class_names_exist():
    # a backticked bare CamelCase name is a public lossjm name, a builtin
    # (`OverflowError`, `None`) or a JSON token, so a class that is gone from
    # the package cannot stay in README
    readme = Path(__file__).resolve().parents[1] / "README.md"
    names = {
        span
        for span in re.findall(r"`([^`\n]+)`", readme.read_text())
        if re.fullmatch(r"[A-Z]\w*[a-z]\w*", span)
    }
    assert {"MeasurementSet", "Verdict", "None"} <= names
    known = set(lossjm.__all__) | set(dir(builtins)) | {"NaN", "Infinity"}
    assert sorted(names - known) == []


def test_readme_names_every_phase():
    # a d=3 table row's phases on either path, so a renamed phase fails here, not in README
    readme = Path(__file__).resolve().parents[1] / "README.md"
    spans = set(re.findall(r"`([^`\n]+)`", readme.read_text()))
    rows = [
        compat.decide_table_row(FamilyParams(3, 0.005, tau, 3)) for tau in (0.5 + 5e-5, 1 / 3)
    ]
    assert [row.method for row in rows] == ["sdp-witness", "lon-parent"]
    assert sorted({k for row in rows for k in row.phases} - spans) == []


# Every module-level UPPER_CASE name of the package, private ones included.
# A new hand-set constant fails the test below until it is listed here.
CONSTANTS = {
    ("cli", "EXIT_ERROR"), ("cli", "EXIT_INCOMPATIBLE"), ("cli", "EXIT_OK"),
    ("cli", "EXIT_UNDECIDED"), ("cli", "RECORD"), ("cli", "TABLE_POINTS"),
    ("compat", "DEFAULT_MAX_ITER"), ("compat", "MAX_TUPLES"), ("compat", "_EPS"),
    ("compat", "_IPM_TOL"), ("fock", "TOL"), ("parent", "MAX_GRID"),
}


def test_module_constants_are_listed():
    package = Path(lossjm.__file__).resolve().parent
    found = set()
    for path in package.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found |= {
                    (path.stem, name.id)
                    for target in targets
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name) and name.id.lstrip("_").isupper()
                }
    assert found == CONSTANTS
