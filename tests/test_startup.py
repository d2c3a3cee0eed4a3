"""Start-up contract: each subcommand loads only the modules it runs, and the
package re-exports its modules' names on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fanocount

SRC = str(Path(fanocount.__file__).resolve().parents[1])
MODULES = ("errors", "planes", "invariants", "classification", "conics", "polycore")
CORE = {"fanocount", "fanocount.cli", "fanocount.errors"}
# the coefficient fold; the fixed-point route, which re-exports the fold's names; and the
# conic module that builds on the fixed-point route
EXTRACTION = {"fanocount.extraction"}
PLANES = {"fanocount.planes", *EXTRACTION}
CONICS = {"fanocount.conics", *PLANES}
BATCH = {"fanocount.batch"}
CLASSIFICATION = {"fanocount.classification"}
# what only a rational value needs: fractions, and the decimal it imports
RATIONALS = {"fractions", "decimal"}

# runs main() as ``python -m fanocount`` does, then prints the exit code and
# the modules the run added to those the interpreter started with
PROBE = """
import contextlib, io, sys
before = set(sys.modules)
from fanocount.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(set(sys.modules) - before))
"""


def loaded_by(code: str, *argv: str) -> tuple[int, set[str]]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                         text=True, env=env, check=True).stdout.split()
    return int(out[0]), set(out[1:])


# one job per subcommand class: its exit code, the modules it adds to CORE, and the number
# of package modules it loaded while every process loaded the fold and the classifications
# sat in invariants, a number no job may exceed
JOBS = [
    (("fano-degree", "--d", "3", "--r", "4", "--k", "1"), 0, EXTRACTION, 4),
    (("ci-planes", "--d", "2,3", "--r", "4", "--k", "1"), 0, EXTRACTION, 4),
    (("planes", "--d", "4", "--r", "3", "--k", "1", "--method", "both"), 0, PLANES, 5),
    (("planes", "--method", "dm", "--d", "4", "--r", "3", "--k", "1"), 0, EXTRACTION, 4),
    (("sweep", "fano-degree", "--d", "3,2+2", "--r", "4..5", "--k", "1"), 0,
     {*BATCH, *EXTRACTION}, 5),
    (("sweep", "planes", "--d", "4,2+2", "--r", "3", "--k", "1"), 0, {*BATCH, *EXTRACTION}, 5),
    (("surface", "--d", "3", "--r", "4", "--k", "1"), 0,
     {"fanocount.invariants", *EXTRACTION}, 5),
    (("irregularity", "--d", "3", "--r", "4", "--k", "1"), 0, CLASSIFICATION, 5),
    (("picard", "--d", "2", "--r", "5", "--k", "1"), 0, CLASSIFICATION, 5),
    (("conics", "--d", "5", "--r", "3", "--method", "both"), 0, CONICS, 6),
    (("conics", "--format=json", "--d", "4", "--r", "3"), 0, CONICS, 6),
    (("conics", "--d", "3", "--r", "4"), 2, CONICS, 6),   # conics in moving families
    (("fano-degree", "--format=json", "--d", "3", "--r", "4", "--k", "1"), 0, EXTRACTION, 4),
    (("planes", "--format=json", "--d", "4,4", "--r", "3", "--k", "1"), 2, set(), 4),
    (("paper-check",), 0, {*BATCH, "fanocount.invariants", *CONICS}, 8),
]
# the jobs that build a Fraction: the closed form's comparison and the conic report
RATIONAL_JOBS = {("conics", "--d", "5", "--r", "3", "--method", "both"), ("paper-check",)}


# a job's id is its subcommand, joined to its next token when an earlier job has that id
IDS = [argv[0] if all(earlier[0] != argv[0] for earlier, *_ in JOBS[:i])
       else f"{argv[0]}-{argv[1].lstrip('-')}" for i, (argv, *_) in enumerate(JOBS)]


@pytest.mark.parametrize("argv,exit_code,extra,before", JOBS, ids=IDS)
def test_subcommand_loads_only_the_modules_it_runs(argv, exit_code, extra, before):
    code, loaded = loaded_by(PROBE, *argv)
    assert code == exit_code
    assert "dataclasses" not in loaded
    package = {m for m in loaded if m.startswith("fanocount")}
    assert package == CORE | extra
    assert len(package) <= before
    # irregularity and picard compile no coefficient fold and no surface assembly
    if argv[0] in ("irregularity", "picard"):
        assert package.isdisjoint({"fanocount.extraction", "fanocount.invariants"})
    # every value of planes and invariants is an int, and an integral conic sum or a
    # refusal builds no Fraction: only the closed form and the report need fractions
    if argv not in RATIONAL_JOBS:
        assert loaded.isdisjoint(RATIONALS)
    # the command line is split without argparse and what it loads for its messages
    assert loaded.isdisjoint({"argparse", "gettext", "locale"})
    # a JSON envelope, of a result or of a regime error, is written without json
    assert "json" not in loaded


def test_every_subcommand_has_a_job():
    # so that each envelope subcommand is shown to start without the batch module
    from fanocount.cli import _COMMANDS
    assert {argv[0] for argv, *_ in JOBS} == {*_COMMANDS, "paper-check", "sweep"}


def test_runtime_modules_do_not_load_the_symbolic_layer():
    # polycore is the reference layer: only the reference forms import it, when they run
    _, loaded = loaded_by("import sys; before = set(sys.modules); "
                          "import fanocount.extraction, fanocount.planes, fanocount.conics, "
                          "fanocount.invariants, fanocount.classification, fanocount.cli; "
                          "print(0, *sorted(set(sys.modules) - before))")
    assert "fanocount.polycore" not in loaded
    assert {"fanocount.extraction", "fanocount.planes", "fanocount.conics",
            "fanocount.invariants", "fanocount.classification"} <= loaded


def test_importing_the_package_loads_no_module():
    _, loaded = loaded_by("import sys; before = set(sys.modules); import fanocount; "
                          "print(0, *sorted(set(sys.modules) - before))")
    assert {m for m in loaded if m.startswith("fanocount")} == {"fanocount"}


# package module -> the package modules that importing it loads, itself and the package included
IMPORTS = {
    "cli": CORE,
    "batch": {*CORE, *BATCH},
    "errors": {"fanocount", "fanocount.errors"},
    "extraction": {"fanocount", "fanocount.errors", *EXTRACTION},
    "planes": {"fanocount", "fanocount.errors", *PLANES},
    "invariants": {"fanocount", "fanocount.errors", "fanocount.invariants", *EXTRACTION},
    "conics": {"fanocount", "fanocount.errors", *CONICS},
    "polycore": {"fanocount", "fanocount.errors", "fanocount.polycore"},
    "classification": {"fanocount", "fanocount.errors", *CLASSIFICATION},
}


@pytest.mark.parametrize("module,extra", IMPORTS.items())
def test_importing_a_cli_module_from_the_package_loads_only_what_it_imports(module, extra):
    # the package's lazy names must not load every module to look up a module's own name:
    # ``from fanocount import X`` loads what ``import fanocount.X`` loads, for every module
    first, second = (loaded_by(f"import sys; before = set(sys.modules); {statement}; "
                               "print(0, *sorted(set(sys.modules) - before))")[1]
                     for statement in (f"from fanocount import {module}", f"import fanocount.{module}"))
    assert first == second
    assert {m for m in first if m.startswith("fanocount")} == extra


def test_every_package_module_has_an_import_case():
    stems = {path.stem for path in Path(fanocount.__file__).parent.glob("*.py")}
    assert set(IMPORTS) == stems - {"__init__", "__main__"}


def test_package_reexports_every_public_name():
    names = []
    for name in MODULES:
        module = importlib.import_module(f"fanocount.{name}")
        for public in module.__all__:
            assert getattr(fanocount, public) is getattr(module, public)
        names += module.__all__
    assert fanocount.__all__ == names


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fanocount import *", namespace)
    for name in MODULES:
        module = importlib.import_module(f"fanocount.{name}")
        for public in module.__all__:
            assert namespace[public] is getattr(module, public)


def test_unknown_package_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(fanocount, "no_such_name")


def test_missing_dependency_of_a_submodule_is_not_an_attribute_error(monkeypatch):
    # a ModuleNotFoundError for another module than the one asked for is a broken
    # dependency inside it, re-raised as is and not read as a missing name
    asked = []

    def broken_import(name, package=None):
        asked.append((name, package))
        raise ModuleNotFoundError("No module named 'missing_dependency'",
                                  name="missing_dependency")

    monkeypatch.setattr(fanocount, "import_module", broken_import)
    with pytest.raises(ModuleNotFoundError) as err:
        getattr(fanocount, "broken_submodule")
    assert err.value.name == "missing_dependency"
    assert asked == [(".broken_submodule", "fanocount")]
    assert "broken_submodule" not in vars(fanocount)


def test_private_attribute_probe_loads_no_module():
    # no module's __all__ holds a _-prefixed name, so a probe such as inspect.unwrap's
    # hasattr(fanocount, "__wrapped__") is refused before any module is loaded
    found, loaded = loaded_by("import sys, fanocount; before = set(sys.modules); "
                              "found = hasattr(fanocount, '__wrapped__') + hasattr(fanocount, '_x'); "
                              "print(found, *sorted(set(sys.modules) - before))")
    assert found == 0
    assert not {m for m in loaded if m.startswith("fanocount.")}
