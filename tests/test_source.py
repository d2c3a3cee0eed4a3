"""Rules on the package source itself."""

import ast
import re
import sys
from pathlib import Path

import pytest

import fanocount
from fanocount.classification import irregularity_classify
from fanocount.cli import CommandRequest, run
from fanocount.conics import chern_Ed_series, deg_conics, deg_conics_closed
from fanocount.errors import ProblemSpec, RegimeError
from fanocount.invariants import combinatorial_identity, sym_power_coeffs_small
from fanocount.planes import c2_fano_integral, deg_ci_planes, deg_fano, deg_planes_bott, deg_planes_dm

PACKAGE = Path(fanocount.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# the symbolic forms the README names as the references the tests expand
REFERENCE_FORMS = {"tau_poly", "eta_form", "chern_Ed_series"}
# the members of the symbolic layer that only the unit tests of those forms use
REFERENCE_MEMBERS = {"MultiPoly.variable", "MultiPoly.coefficient", "MultiPoly.permute_variables",
                     "MultiPoly.terms"}


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a runtime check must raise instead
    offenders = []
    for path, tree in _modules():
        offenders += [f"{path.name}:{node.lineno}"
                      for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert offenders == []


def _imported(node) -> set[str]:
    """The absolute names an import statement imports: for ``from M import a`` both M and M.a.
    Every package module sits in fanocount itself, so level 1 is the package."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if isinstance(node, ast.ImportFrom):
        base = ".".join(filter(None, ("fanocount" if node.level else "", node.module)))
        return {base, *(f"{base}.{alias.name}" for alias in node.names)}
    return set()


def _importers_of(module: str, files=None) -> list[str]:
    """file:line of every import of ``module`` or of a name in it, at any depth, in the
    package's ``files`` (default: all)."""
    return [f"{path.name}:{node.lineno}" for path, tree in _modules()
            if files is None or path.name in files for node in ast.walk(tree)
            if any(name == module or name.startswith(f"{module}.") for name in _imported(node))]


def test_package_does_not_import_dataclasses():
    # importing dataclasses (with inspect, ast and dis) and running its
    # decorators cost a CLI process about as much as its own work
    assert _importers_of("dataclasses") == []


def test_package_does_not_import_json():
    # the CLI writes its JSON envelopes itself: importing json cost each such job about 2 ms
    assert _importers_of("json") == []


def route_modules(fixed_point: bool) -> set[str]:
    """The package modules of the CLI's routes, from its route table: of the fixed-point (bott)
    routes, or of the others.  An advisory entry is no route."""
    from fanocount.cli import _COMMANDS
    return {route.module for command in _COMMANDS.values() for route in command.routes
            if not route.advisory and (route.method == "bott") == fixed_point}


def test_extraction_route_imports_neither_fixed_point_module():
    # the module boundary keeps the routes independent: no function of a route that is not a
    # fixed-point sum can reach the fixed-point kernels, even through an import inside a function
    fixed_point, others = route_modules(True), route_modules(False)
    assert fixed_point == {"planes", "conics"}
    assert others == {"extraction", "invariants", "classification"}
    for module in fixed_point:
        assert _importers_of(f"fanocount.{module}", {f"{name}.py" for name in others}) == []


def test_shared_vocabulary_imports_no_route():
    # errors holds what every module shares, ProblemSpec and the regime checks among it,
    # and every CLI process loads it: it must load no route and no classification
    for module in ("extraction", "planes", "conics", "invariants", "classification"):
        assert _importers_of(f"fanocount.{module}", {"errors.py"}) == []


def test_classifications_import_no_route():
    # irregularity and picard read only the problem's numbers: neither the fold nor a
    # fixed-point kernel is reachable from them
    for module in ("extraction", "planes", "conics"):
        assert _importers_of(f"fanocount.{module}", {"classification.py"}) == []


def test_runtime_imports_only_the_standard_library():
    # the runtime keeps no dependencies: every absolute import is a stdlib module
    imported = set()
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported
    assert sorted(imported - sys.stdlib_module_names) == []


def test_package_imports_no_unused_name():
    # every name a module imports is used in it, or re-exported through its __all__;
    # a __future__ import is a compiler switch, not a name
    offenders = []
    for path, tree in _modules():
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        exported = {name for node in tree.body if _defines(node, "__all__")
                    for name in ast.literal_eval(node.value)}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported
        offenders += [f"{path.name}:{line}:{name}" for name, line in imported.items()
                      if name not in used]
    assert offenders == []


def documented_regime_codes() -> set[str]:
    """The codes in the first column of the README's regime-code table."""
    section = README.read_text().split("### Regime codes", 1)[1].split("\n#", 1)[0]
    return set(re.findall(r"^\| `([a-z0-9-]+)` \|", section, re.MULTILINE))


def _regime_code_arguments(tree):
    """The calls whose first argument is a regime code: RegimeError(...), and
    super().__init__(...) in a RegimeError subclass that fixes its own code."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "RegimeError":
            yield node
        if isinstance(node, ast.ClassDef) \
                and any(isinstance(b, ast.Name) and b.id == "RegimeError" for b in node.bases):
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) \
                        and call.func.attr == "__init__":
                    yield call


def test_regime_codes_are_documented():
    # the codes are a closed set: literal in the source, listed in the README
    codes, offenders = set(), []
    for path, tree in _modules():
        for call in _regime_code_arguments(tree):
            first = call.args[0] if call.args else None
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                codes.add(first.value)
            else:
                offenders.append(f"{path.name}:{call.lineno}")
    assert offenders == []
    assert codes == documented_regime_codes()


# one public call per regime code that raises it, with no stub: every code is reachable
REGIME_WITNESSES = {
    "not-an-integer": lambda: ProblemSpec((3,), 4.0, 1),
    "degrees-empty": lambda: ProblemSpec((), 4, 1),
    "degree-too-small": lambda: ProblemSpec((1,), 4, 1),
    "ambient-too-small": lambda: ProblemSpec((3,), 2, 1),
    "plane-dimension": lambda: ProblemSpec((3,), 4, 0),
    "hypersurface-only": lambda: run(CommandRequest("planes", (3, 3), 4, 1)),
    "gamma-not-positive": lambda: deg_planes_dm(3, 4, 1),
    "product-degree-too-small": lambda: deg_ci_planes(ProblemSpec((2,), 4, 1)),
    "ambient-fano-empty": lambda: deg_ci_planes(ProblemSpec((2, 2, 2, 2, 3), 5, 2)),
    "fano-dimension-negative": lambda: deg_ci_planes(ProblemSpec((4, 2), 3, 1)),
    "delta-negative": lambda: deg_fano(ProblemSpec((6,), 4, 1)),
    "delta-not-two": lambda: c2_fano_integral(ProblemSpec((3,), 5, 1)),
    "delta-too-small": lambda: irregularity_classify(ProblemSpec((5,), 4, 1)),
    "nonempty-regime": lambda: deg_fano(ProblemSpec((2,), 4, 2)),
    "reducible-fano": lambda: irregularity_classify(ProblemSpec((2,), 5, 2)),
    "series-bound-too-small": lambda: chern_Ed_series(3, 0),
    "conic-family": lambda: deg_conics(3, 4),
    "boundary-regime": lambda: deg_conics(5, 4),
    "halving-case": lambda: deg_conics_closed(4, 3),
    "singular-weights": lambda: deg_planes_bott(4, 3, 1, (1, 1, 2, 3)),
    "no-closed-form": lambda: sym_power_coeffs_small(3, 3),
    "identity-range": lambda: combinatorial_identity(1, 2, 0),
}


@pytest.mark.parametrize("code", sorted(REGIME_WITNESSES))
def test_every_regime_code_has_a_witness(code):
    assert set(REGIME_WITNESSES) == documented_regime_codes()
    with pytest.raises(RegimeError) as err:
        REGIME_WITNESSES[code]()
    assert err.value.code == code


def _import_time_statements(body):
    """The statements that run when a module is imported: function bodies and
    ``if TYPE_CHECKING:`` blocks excluded, class bodies and other blocks included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
                and node.test.id == "TYPE_CHECKING":
            yield from _import_time_statements(node.orelse)
            continue
        yield node
        for block in ("body", "orelse", "finalbody", "handlers"):
            yield from _import_time_statements(getattr(node, block, []))


# module, by its absolute name -> the package modules that may import it when they are
# imported; every other import of it sits in the function that runs it, so a CLI process
# that runs none of them does not compile it.  The symbolic layer is imported only inside
# the reference forms that expand it; the batch subcommands only by the CLI branches that
# run them; the fixed-point route only by the CLI branch of the Bott methods and by the
# conic route that builds on its kernel; the coefficient fold only by the fixed-point
# route, which re-exports its names, and by the surface assembly that runs it.
# fractions (with decimal) is for the symbolic layer; conics imports it only where it
# builds a rational value, and every value of planes and invariants is an int.
IMPORT_TIME_IMPORTERS = {
    "fanocount.polycore": set(),
    "fanocount.invariants": set(),
    "fanocount.classification": set(),
    "fanocount.conics": set(),
    "fanocount.batch": set(),
    "fanocount.cli": {"__main__", "batch"},
    "fanocount.planes": {"conics"},
    "fanocount.extraction": {"planes", "invariants"},
    "fractions": {"polycore"},
}


def test_leaf_modules_are_imported_at_import_time_only_by_their_listed_importers():
    offenders = []
    for path, tree in _modules():
        for node in _import_time_statements(tree.body):
            names = _imported(node)
            offenders += [f"{path.name}:{node.lineno}:{module}"
                          for module, importers in IMPORT_TIME_IMPORTERS.items()
                          if module in names and path.stem not in importers]
    assert offenders == []
    assert set(IMPORT_TIME_IMPORTERS) - sys.stdlib_module_names \
        <= {f"fanocount.{path.stem}" for path, _ in _modules()}


def test_package_parses_at_the_oldest_supported_python():
    # pyproject's requires-python floor: no module may use syntax newer than it
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                      (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    version = (int(floor.group(1)), int(floor.group(2)))
    for path in sorted(PACKAGE.rglob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=version)


def test_shared_scalar_names_have_one_definition():
    # defined once, not copied: every module imports the shared vocabulary from errors,
    # and the rational scalar type is the symbolic layer's own
    defined = {"weight_vectors": [], "ExactScalar": [], "ExponentVector": []}
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in defined:
                defined[node.name].append(path.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id in defined:
                        defined[target.id].append(path.name)
    assert defined == {"weight_vectors": ["errors.py"], "ExactScalar": ["polycore.py"],
                       "ExponentVector": ["errors.py"]}


def _defines(node, name):
    """Whether the module-level statement ``node`` defines ``name``."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == name for target in node.targets)


def _referenced(nodes):
    """The names the nodes use, bare or as an attribute.  A string is no use, so
    neither is an entry of ``__all__``."""
    used = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _attributes(nodes):
    """The names the nodes use as an attribute, the one way to reach a method or property."""
    return {node.attr for top in nodes for node in ast.walk(top) if isinstance(node, ast.Attribute)}


def test_every_public_name_has_a_user():
    # a public name, and each non-dunder method or property of a public class, is used by
    # the package outside its own definition, by an acceptance test or by the benchmark;
    # only the reference forms, and the symbolic layer's members, are kept for the unit tests
    users = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    user_trees = [ast.parse(path.read_text()) for path in users]
    outside = _referenced(user_trees) | REFERENCE_FORMS
    # (module, top-level statement, the names it uses)
    statements = [(path, node, _referenced([node]))
                  for path, tree in _modules() for node in tree.body]
    public, unused = set(), []
    for path, node, _ in statements:
        for name in ast.literal_eval(node.value) if _defines(node, "__all__") else []:
            public.add(name)
            if name not in outside and not any(name in used for other, stmt, used in statements
                                               if other != path or not _defines(stmt, name)):
                unused.append(f"{path.name}:{name}")
    # a method or property of a public class is used as an attribute outside its own body
    members = set()
    for path, cls, _ in statements:
        if not (isinstance(cls, ast.ClassDef) and cls.name in public):
            continue
        used = _attributes([*user_trees, *(stmt for _, stmt, _ in statements if stmt is not cls)])
        for member in cls.body:
            if isinstance(member, ast.FunctionDef) and not member.name.startswith("__"):
                name = f"{cls.name}.{member.name}"
                members.add(name)
                siblings = _attributes(other for other in cls.body if other is not member)
                if member.name not in used | siblings and name not in REFERENCE_MEMBERS:
                    unused.append(f"{path.name}:{name}")
    assert unused == []
    assert REFERENCE_FORMS <= public and REFERENCE_MEMBERS <= members


def test_readme_cli_block_runs(capsys):
    # every command of the CLI block exits 0; a comment "# <int> ..." is in its stdout
    from fanocount.cli import main
    block = README.read_text().split("## CLI\n", 1)[1].split("```bash\n", 1)[1]
    commands = re.findall(r"^fanocount (.*?)(?:\s+# (.*))?$", block.split("```", 1)[0],
                          re.MULTILINE)
    assert commands
    for argv, comment in commands:
        assert main(argv.split()) == 0, argv
        out = capsys.readouterr().out
        claim = re.match(r"-?\d+\b", comment)
        assert claim is None or claim.group() in out, argv


def test_readme_library_sketch_runs():
    # every line "expr  # <int> ..." of the sketch gives that int
    sketch = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(sketch, namespace)
    claims = re.findall(r"^(\S.*?)\s+# (-?\d+)\b", sketch, re.MULTILINE)
    assert claims
    assert [eval(expr, namespace) for expr, _ in claims] == [int(value) for _, value in claims]
