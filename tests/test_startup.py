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
MODULES = ("errors", "planes", "invariants", "conics", "polycore")
CORE = {"fanocount", "fanocount.cli", "fanocount.errors", "fanocount.extraction"}
# the fixed-point route, and the conic module that builds on it
PLANES = {"fanocount.planes"}
CONICS = {"fanocount.conics", *PLANES}

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


# one job per subcommand class, and the modules it adds to CORE
JOBS = [
    (("fano-degree", "--d", "3", "--r", "4", "--k", "1"), set()),
    (("ci-planes", "--d", "2,3", "--r", "4", "--k", "1"), set()),
    (("planes", "--d", "4", "--r", "3", "--k", "1", "--method", "both"), PLANES),
    (("planes", "--method", "dm", "--d", "4", "--r", "3", "--k", "1"), set()),
    (("sweep", "fano-degree", "--d", "3,2+2", "--r", "4..5", "--k", "1"), {"fanocount.batch"}),
    (("sweep", "planes", "--d", "4,2+2", "--r", "3", "--k", "1"), {"fanocount.batch"}),
    (("surface", "--d", "3", "--r", "4", "--k", "1"), {"fanocount.invariants"}),
    (("irregularity", "--d", "3", "--r", "4", "--k", "1"), {"fanocount.invariants"}),
    (("picard", "--d", "2", "--r", "5", "--k", "1"), {"fanocount.invariants"}),
    (("conics", "--d", "5", "--r", "3", "--method", "both"), CONICS),
    (("conics", "--format=json", "--d", "4", "--r", "3"), CONICS),
    (("fano-degree", "--format=json", "--d", "3", "--r", "4", "--k", "1"), set()),
    (("planes", "--format=json", "--d", "4,4", "--r", "3", "--k", "1"), set()),
    (("paper-check",), {"fanocount.batch", "fanocount.invariants", *CONICS}),
]


# a job's id is its subcommand, joined to its next token when an earlier job has that id
IDS = [argv[0] if all(earlier[0] != argv[0] for earlier, _ in JOBS[:i])
       else f"{argv[0]}-{argv[1].lstrip('-')}" for i, (argv, _) in enumerate(JOBS)]


@pytest.mark.parametrize("argv,extra", JOBS, ids=IDS)
def test_subcommand_loads_only_the_modules_it_runs(argv, extra):
    code, loaded = loaded_by(PROBE, *argv)
    assert code == (2 if "4,4" in argv else 0)   # planes of two degrees: a regime error
    assert "dataclasses" not in loaded
    assert {m for m in loaded if m.startswith("fanocount")} == CORE | extra
    # every value of planes and invariants is an int: only the conic jobs need Fraction
    if "fanocount.conics" not in extra:
        assert loaded.isdisjoint({"fractions", "decimal"})
    # the command line is split without argparse and what it loads for its messages
    assert loaded.isdisjoint({"argparse", "gettext", "locale"})
    # a JSON envelope, of a result or of a regime error, is written without json
    assert "json" not in loaded


def test_every_subcommand_has_a_job():
    # so that each envelope subcommand is shown to start without the batch module
    from fanocount.cli import _COMMANDS
    assert {argv[0] for argv, _ in JOBS} == {*_COMMANDS, "paper-check", "sweep"}


def test_runtime_modules_do_not_load_the_symbolic_layer():
    # polycore is the reference layer: only the reference forms import it, when they run
    _, loaded = loaded_by("import sys; before = set(sys.modules); "
                          "import fanocount.extraction, fanocount.planes, fanocount.conics, "
                          "fanocount.invariants, fanocount.cli; "
                          "print(0, *sorted(set(sys.modules) - before))")
    assert "fanocount.polycore" not in loaded
    assert {"fanocount.extraction", "fanocount.planes", "fanocount.conics",
            "fanocount.invariants"} <= loaded


def test_importing_the_package_loads_no_module():
    _, loaded = loaded_by("import sys; before = set(sys.modules); import fanocount; "
                          "print(0, *sorted(set(sys.modules) - before))")
    assert {m for m in loaded if m.startswith("fanocount")} == {"fanocount"}


# package module -> the package modules that importing it loads, itself and the package included
IMPORTS = {
    "cli": CORE,
    "batch": {*CORE, "fanocount.batch"},
    "errors": {"fanocount", "fanocount.errors"},
    "extraction": {"fanocount", "fanocount.errors", "fanocount.extraction"},
    "planes": {"fanocount", "fanocount.errors", "fanocount.extraction", *PLANES},
    "invariants": {"fanocount", "fanocount.errors", "fanocount.extraction",
                   "fanocount.invariants"},
    "conics": {"fanocount", "fanocount.errors", "fanocount.extraction", *CONICS},
    "polycore": {"fanocount", "fanocount.errors", "fanocount.extraction", "fanocount.polycore"},
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
