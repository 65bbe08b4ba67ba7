"""The README's table of tolerances and budgets matches the program.

Every name the table writes must exist, and every module-level tolerance or
budget constant (*_TOL, *_TOLS, MAX_*, DEFAULT_*) must have a row, so that
the table cannot drift from the code in either direction.  Those constants
are the only tolerances: no function or method takes one.  Every test the
README names, as `tests/<file>.py::<name>`, must exist, so that a guarantee
cannot keep the name of a test that was renamed or deleted.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import acmdp

ROOT = Path(__file__).resolve().parent.parent
# acmdp's modules, bar __main__, which runs the command line when imported
MODULES = {info.name for info in pkgutil.iter_modules(acmdp.__path__)} - {"__main__"}
DOCUMENTED = re.compile(r"^(?:\w+_TOLS?|MAX_\w+|DEFAULT_\w+)$")


def table_rows():
    """The cells of each row of the README's "Tolerances" table, header excluded."""
    section = ROOT.joinpath("README.md").read_text().split("\n## Tolerances\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    assert rows, "no table under ## Tolerances"
    return [[cell.strip() for cell in row.strip("|").split(" | ")] for row in rows]


def code_names(cell):
    """The backticked names in a cell: `name` or dotted `owner.name`."""
    return re.findall(r"`([A-Za-z_]\w*(?:\.\w+)*)`", cell)


def resolve(path):
    """The object a dotted path names: module.attr..., or attr... of some acmdp module."""
    first, *rest = path.split(".")
    if first in MODULES:
        owners = [importlib.import_module(f"acmdp.{first}")]
    else:
        owners = [importlib.import_module(f"acmdp.{name}") for name in sorted(MODULES)]
        rest = [first, *rest]
    for owner in owners:
        for attr in rest:
            owner = getattr(owner, attr, None)
        if owner is not None:
            return owner
    return None


def constants():
    """(module, name) of every DOCUMENTED constant assigned at the top level of src/acmdp."""
    found = []
    for name in sorted(MODULES):
        tree = ast.parse((ROOT / "src" / "acmdp" / f"{name}.py").read_text())
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            found += [
                (name, target.id)
                for target in targets
                if isinstance(target, ast.Name) and DOCUMENTED.match(target.id)
            ]
    return found


@pytest.mark.parametrize("row", table_rows(), ids=lambda row: row[0].strip("`"))
def test_every_name_in_a_row_exists(row):
    constant, _, what, used_by = row
    assert constant.count("`") == 2 and code_names(constant)[0].split(".")[0] in MODULES
    for path in code_names(constant) + code_names(what):
        if path.split(".")[0] in MODULES:
            assert resolve(path) is not None, f"{path} is not in acmdp"
    assert code_names(used_by), f"{constant} names no user"
    for path in code_names(used_by):
        assert resolve(path) is not None, f"{constant}: {path} is not in acmdp"


def test_every_tolerance_and_budget_has_a_row():
    listed = {code_names(row[0])[0] for row in table_rows()}
    missing = [f"{m}.{n}" for m, n in constants() if f"{m}.{n}" not in listed]
    assert constants() and not missing, f"README's Tolerances table lacks {missing}"


def test_no_function_takes_a_tolerance():
    # each solve reads its module's constant when it runs, so none has a per-call stop
    takers = set()
    for name in sorted(MODULES):
        module = importlib.import_module(f"acmdp.{name}")
        classes = [c for _, c in inspect.getmembers(module, inspect.isclass)]
        for owner in [module, *(c for c in classes if c.__module__ == module.__name__)]:
            for _, fn in inspect.getmembers(owner, inspect.isfunction):
                takers |= {
                    f"{fn.__module__}.{fn.__qualname__}({param})"
                    for param in inspect.signature(fn).parameters
                    if param == "tol" or param.endswith("_tol")
                }
    assert not takers, f"these take a tolerance: {sorted(takers)}"


def readme_test_names():
    """Every backticked tests/<file>.py::<name>[::<name>] in the README, once each."""
    text = ROOT.joinpath("README.md").read_text()
    return sorted(set(re.findall(r"`(tests/[\w/]+\.py(?:::\w+)+)`", text)))


def test_the_readme_names_tests():
    assert len(readme_test_names()) >= 20


@pytest.mark.parametrize("name", readme_test_names())
def test_every_test_the_readme_names_exists(name):
    # read with ast, not imported: each part after the file is a function or
    # class defined at the top of the file, or in the class before it
    path, *parts = name.split("::")
    assert ROOT.joinpath(path).is_file(), f"{path} does not exist"
    body = ast.parse(ROOT.joinpath(path).read_text()).body
    for part in parts:
        found = [
            node
            for node in body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == part
        ]
        assert found, f"{name}: {part} is not defined in {path}"
        body = found[0].body if isinstance(found[0], ast.ClassDef) else []
