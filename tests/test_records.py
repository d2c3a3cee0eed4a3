"""Record contract: the value records compare and hash by their fields, print
as ``Name(field=value, ...)``, refuse assignment and validate their inputs."""

from fractions import Fraction

import pytest

from fanocount.cli import CommandRequest, ResultEnvelope
from fanocount.conics import ClosedFormComparison, ConicProblem
from fanocount.errors import RegimeError
from fanocount.invariants import (
    Classification,
    InvariantReport,
    IrregularityCase,
    PicardInfo,
    SymPowerCoeffs,
)
from fanocount.planes import ProblemSpec, TorusWeights
from fanocount.polycore import MultiPoly, TruncatedSeries

SPEC = "ProblemSpec(degrees=(3,), r=4, k=1)"
COEFFS = "SymPowerCoeffs(n=3, k=1, alpha=11, beta=10, gamma=6)"

# (make a record, its field to assign, its repr); each make() builds a fresh
# record from equal arguments.  A case is named by its record, so deleting a row
# renames no other case (pytest numbers the repeated names).
RECORDS = [
    (lambda: ProblemSpec((3,), 4, 1), "r", SPEC),
    (lambda: ProblemSpec(degrees=[2, 2], r=5, k=1), "degrees",
     "ProblemSpec(degrees=(2, 2), r=5, k=1)"),
    # a tuple of the weights has no fields; it refuses assigning a tuple method too
    (lambda: TorusWeights([5, -1, 3]), "index", "TorusWeights(t=(5, -1, 3))"),
    (lambda: ConicProblem(4, 3), "d", "ConicProblem(d=4, r=3)"),
    (lambda: ClosedFormComparison(Fraction(1, 2), Fraction(1), False, Fraction(1, 2)), "ratio",
     "ClosedFormComparison(value=Fraction(1, 2), fixed_point_value=Fraction(1, 1), "
     "consistent=False, ratio=Fraction(1, 2))"),
    (lambda: SymPowerCoeffs(3, 1, 11, 10, 6), "alpha", COEFFS),
    (lambda: InvariantReport(ProblemSpec((3,), 4, 1), 45, 27, (SymPowerCoeffs(3, 1, 11, 10, 6),),
                             6, -9, 1, 45, 27, 6, 5, -3, False), "chi_o",
     f"InvariantReport(spec={SPEC}, deg_f=45, c2_integral=27, per_degree=({COEFFS},), "
     "a_coeff=6, b_coeff=-9, c1_coeff=1, k_delta=45, euler=27, chi_o=6, p_a=5, "
     "signature=-3, smooth_fano=False)"),
    (lambda: Classification(IrregularityCase.REGULAR, None, "x"), "case",
     "Classification(case=<IrregularityCase.REGULAR: 'regular'>, k=None, note='x')"),
    (lambda: PicardInfo(1, 1, "n"), "rho", "PicardInfo(rho=1, components=1, note='n')"),
    (lambda: TruncatedSeries(MultiPoly(2, {(1, 0): 1, (2, 1): 3}), 2), "bound",
     "TruncatedSeries(poly=MultiPoly(2, x0), bound=2)"),
    (lambda: CommandRequest("planes", (4,), 3, 1), "method",
     "CommandRequest(subcommand='planes', degrees=(4,), r=3, k=1, method=None, "
     "format='table', seed=1729)"),
]


@pytest.mark.parametrize("make,field,text", RECORDS,
                         ids=[text.split("(")[0] for _, _, text in RECORDS])
def test_record_contract(make, field, text):
    a, b = make(), make()
    assert a == b and hash(a) == hash(b)
    assert repr(a) == text
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    assert a == b


def test_result_envelope_is_a_mutable_unhashable_record():
    a, b = ResultEnvelope({"d": "3"}), ResultEnvelope({"d": "3"})
    assert a == b
    assert repr(a) == "ResultEnvelope(inputs={'d': '3'}, results={}, status='ok')"
    a.status = "regime-error"
    a.put("deg", 45, "test")
    assert a != b and b.results == {}
    with pytest.raises(TypeError):
        hash(a)


def test_torus_weights_iterate_over_the_weights():
    weights = TorusWeights((4, 1, 7))
    assert list(weights) == [4, 1, 7] and len(weights) == 3 and weights[2] == 7


# the positional forms are in test_planes.py and test_conics.py
@pytest.mark.parametrize("make,code", [
    (lambda: ProblemSpec(degrees=[], r=4, k=1), "degrees-empty"),
    (lambda: ProblemSpec(degrees=[3, 1], r=4, k=1), "degree-too-small"),
    (lambda: ProblemSpec(degrees=iter([3]), r=2, k=1), "ambient-too-small"),
    (lambda: ProblemSpec(degrees=(3,), r=4, k=0), "plane-dimension"),
    (lambda: ConicProblem(d=1, r=3), "degree-too-small"),
    (lambda: ConicProblem(d=4, r=2), "ambient-too-small"),
])
def test_invalid_inputs_keep_their_regime_codes(make, code):
    with pytest.raises(RegimeError) as err:
        make()
    assert err.value.code == code


# (a record class, valid fields, a field, a value that field refuses)
REPLACEMENTS = [
    (ProblemSpec, ((3,), 4, 1), "degrees", (0,)),
    (ProblemSpec, ((3,), 4, 1), "r", 2),
    (ProblemSpec, ((3,), 4, 1), "k", 1.0),
    (ConicProblem, (4, 3), "d", -1),
    (ConicProblem, (4, 3), "r", 2),
]


@pytest.mark.parametrize("path", ["_make", "_replace"])
@pytest.mark.parametrize("cls,valid,field,value", REPLACEMENTS,
                         ids=[f"{cls.__name__}-{field}" for cls, _, field, _ in REPLACEMENTS])
def test_make_and_replace_validate_as_construction_does(path, cls, valid, field, value):
    fields = dict(zip(cls._fields, valid), **{field: value})
    with pytest.raises(RegimeError) as direct:
        cls(**fields)
    with pytest.raises(RegimeError) as err:
        cls._make(fields.values()) if path == "_make" else cls(*valid)._replace(**{field: value})
    assert err.value.code == direct.value.code
    assert cls._make(valid) == cls(*valid)._replace() == cls(*valid)


def test_truncated_series_rejects_a_negative_bound():
    with pytest.raises(ValueError, match="non-negative"):
        TruncatedSeries(MultiPoly.one(1), -1)
