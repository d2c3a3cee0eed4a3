import contextlib
import csv
import io
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import fanocount
from fanocount.batch import paper_check, sweep_rows
from fanocount.cli import (_COMMANDS, _SWEEP_TARGETS, CSV_HEADER, CommandRequest,
                           ResultEnvelope, _parse, main, run)
from fanocount.errors import RegimeError
from oracles import build_parser


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

# the whole --format json line of each subcommand and method, inputs echo included
ENVELOPES = {
    "planes-dm": ("planes --d 4 --r 3 --k 1",
        '{"inputs":{"d":"4","format":"json","k":"1","method":"dm","r":"3","seed":"1729",'
        '"subcommand":"planes"},'
        '"results":{"deg":{"provenance":"vandermonde-coefficient-extraction","value":"320"}},'
        '"status":"ok"}'),
    "planes-bott": ("planes --d 4 --r 3 --k 1 --method bott",
        '{"inputs":{"d":"4","format":"json","k":"1","method":"bott","r":"3","seed":"1729",'
        '"subcommand":"planes"},"results":{"deg":{"provenance":"fixed-point-residue-sum",'
        '"value":"320"}},"status":"ok"}'),
    "planes-both": ("planes --d 4 --r 3 --k 1 --method both",
        '{"inputs":{"d":"4","format":"json","k":"1","method":"both","r":"3","seed":"1729",'
        '"subcommand":"planes"},"results":{"deg_bott":{"provenance":"fixed-point-residue-sum",'
        '"value":"320"},"deg_dm":{"provenance":"vandermonde-coefficient-extraction",'
        '"value":"320"},"equal":{"provenance":"cross-method-comparison","value":"true"}},'
        '"status":"ok"}'),
    "ci-planes": ("ci-planes --d 2,3 --r 4 --k 1",
        '{"inputs":{"d":"2,3","format":"json","k":"1","r":"4","seed":"1729",'
        '"subcommand":"ci-planes"},"results":{"deg":{"provenance":"ci-coefficient-extraction",'
        '"value":"168"},"gamma":{"provenance":"codimension-arithmetic","value":"1"}},'
        '"status":"ok"}'),
    "fano-degree": ("fano-degree --d 3 --r 4 --k 1",
        '{"inputs":{"d":"3","format":"json","k":"1","r":"4","seed":"1729",'
        '"subcommand":"fano-degree"},'
        '"results":{"deg":{"provenance":"plucker-coefficient-extraction","value":"45"},'
        '"delta":{"provenance":"codimension-arithmetic","value":"2"},'
        '"gamma":{"provenance":"codimension-arithmetic","value":"-2"}},"status":"ok"}'),
    "surface": ("surface --d 3 --r 4 --k 1",
        '{"inputs":{"d":"3","format":"json","k":"1","r":"4","seed":"1729",'
        '"subcommand":"surface"},"results":{"A":{"provenance":"tangent-chern-combination",'
        '"value":"6"},"B":{"provenance":"tangent-chern-combination","value":"-9"},'
        '"K2":{"provenance":"canonical-self-intersection","value":"45"},'
        '"alpha_1":{"provenance":"sym-power-chern-coeffs","value":"11"},'
        '"beta_1":{"provenance":"sym-power-chern-coeffs","value":"10"},'
        '"c1_coeff":{"provenance":"canonical-class-multiple","value":"1"},'
        '"c2":{"provenance":"schubert-c2-extraction","value":"27"},'
        '"chi":{"provenance":"noether-quotient","value":"6"},'
        '"deg":{"provenance":"plucker-coefficient-extraction","value":"45"},'
        '"e":{"provenance":"chern-number-combination","value":"27"},'
        '"gamma_1":{"provenance":"sym-power-chern-coeffs","value":"6"},'
        '"p_a":{"provenance":"noether-quotient","value":"5"},'
        '"signature":{"provenance":"signature-formula","value":"-3"}},"status":"ok"}'),
    "irregularity": ("irregularity --d 2,2 --r 7 --k 2",
        '{"inputs":{"d":"2,2","format":"json","k":"2","r":"7","seed":"1729",'
        '"subcommand":"irregularity"},'
        '"results":{"case":{"provenance":"irregularity-classification",'
        '"value":"irregular-two-quadrics"},"k":{"provenance":"irregularity-classification",'
        '"value":"2"},"note":{"provenance":"irregularity-classification",'
        '"value":"(k+1)-dimensional Fano scheme of k-planes on two general quadrics, k=2"}},'
        '"status":"ok"}'),
    "picard": ("picard --d 2,2 --r 6 --k 1",
        '{"inputs":{"d":"2,2","format":"json","k":"1","r":"6","seed":"1729",'
        '"subcommand":"picard"},"results":{"components":{"provenance":"picard-classification",'
        '"value":"1"},"note":{"provenance":"picard-classification",'
        '"value":"Picard numbers refer to the very general complete intersection; '
        "'general' is not enough here.\"},"
        '"rho":{"provenance":"picard-classification","value":"8"}},"status":"ok"}'),
    "conics-bott": ("conics --d 4 --r 3",
        '{"inputs":{"d":"4","format":"json","method":"bott","r":"3","seed":"1729",'
        '"subcommand":"conics"},"results":{"deg":{"provenance":"twisted-fixed-point-sum",'
        '"value":"2508"},"halved":{"provenance":"two-conics-on-general-quartic",'
        '"value":"true"}},"status":"ok"}'),
    "conics-closed": ("conics --d 5 --r 3 --method closed",
        '{"inputs":{"d":"5","format":"json","method":"closed","r":"3","seed":"1729",'
        '"subcommand":"conics"},'
        '"results":{"closed_form":{"provenance":"closed-form-eta(1,1,1)",'
        '"value":"-6873514425/8"},'
        '"closed_matches_fixed_point":{"provenance":"cross-method-comparison","value":"false"},'
        '"closed_to_fixed_point_ratio":{"provenance":"cross-method-comparison",'
        '"value":"-1374702885/452608"}},"status":"ok"}'),
    "conics-both": ("conics --d 5 --r 3 --method both",
        '{"inputs":{"d":"5","format":"json","method":"both","r":"3","seed":"1729",'
        '"subcommand":"conics"},'
        '"results":{"closed_form":{"provenance":"closed-form-eta(1,1,1)",'
        '"value":"-6873514425/8"},'
        '"closed_matches_fixed_point":{"provenance":"cross-method-comparison","value":"false"},'
        '"closed_to_fixed_point_ratio":{"provenance":"cross-method-comparison",'
        '"value":"-1374702885/452608"},"deg":{"provenance":"twisted-fixed-point-sum",'
        '"value":"282880"}},"status":"ok"}'),
}


@pytest.mark.parametrize("argv,line", ENVELOPES.values(), ids=ENVELOPES)
def test_json_envelope_bytes(capsys, argv, line):
    code, out, _ = invoke(capsys, *argv.split(), "--format", "json")
    assert code == 0 and out == line + "\n"


def test_surface_json_fields(capsys):
    code, out, _ = invoke(capsys, "surface", "--d", "3", "--r", "4", "--k", "1",
                          "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    values = {name: entry["value"] for name, entry in payload["results"].items()}
    assert values["deg"] == "45" and values["c2"] == "27"
    assert values["A"] == "6" and values["B"] == "-9"
    assert values["e"] == "27" and values["K2"] == "45" and values["chi"] == "6"
    for entry in payload["results"].values():
        assert entry["provenance"]


def test_json_round_trips_byte_identical(capsys):
    code, out, _ = invoke(capsys, "surface", "--d", "3", "--r", "4", "--k", "1",
                          "--format", "json")
    assert code == 0
    line = out.strip()
    assert json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) == line


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# a character of each class the JSON encoder escapes differently: the controls, the short
# escapes, printable ASCII, DEL and Latin-1, the BMP (lone surrogates included) and the
# astral planes, which json writes as surrogate pairs
JSON_TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x7f'),
    *(st.integers(lo, hi).map(chr) for lo, hi in [(0, 0x1F), (0x20, 0x7E), (0x7F, 0xFF),
                                                  (0x100, 0xFFFF), (0x10000, 0x10FFFF)])),
    max_size=6)


@given(st.dictionaries(JSON_TEXT, JSON_TEXT, max_size=4),
       st.dictionaries(JSON_TEXT, st.dictionaries(JSON_TEXT, JSON_TEXT, max_size=3), max_size=4),
       JSON_TEXT)
@example({"d": "\x00\x1f\x7f\x80\xff\u0100\ud7ff\ud800\udfff\uffff"},
         {"\U00010000": {"\U0010ffff": '"\\'}}, "\b\f\n\r\t")
def test_json_envelope_matches_json_dumps(inputs, results, status):
    # the envelope is written without the json package, byte for byte as json.dumps writes it
    envelope = ResultEnvelope(inputs, status=status)
    envelope.results = results
    assert envelope.to_json() == dumps({"inputs": inputs, "results": results, "status": status})


def test_json_envelopes_of_the_benchmark_match_json_dumps(capsys):
    # every envelope and regime error of the benchmark's CLI jobs, as json.dumps writes it
    reference = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" /
                                   "reference.py"))
    jobs = [*reference["ENVELOPES"], *reference["REGIME_ERRORS"]]
    for argv, expected in jobs:
        code, out, _ = invoke(capsys, *argv, "--format", "json")
        payload = json.loads(out)
        if isinstance(expected, dict):
            assert code == 0 and {n: e["value"] for n, e in payload["results"].items()} == expected
        else:
            assert code == 2 and payload["status"] == "regime-error"
        assert out == dumps(payload) + "\n"


def test_planes_both_methods_agree(capsys):
    code, out, _ = invoke(capsys, "planes", "--d", "4", "--r", "3", "--k", "1",
                          "--method", "both", "--format", "json")
    assert code == 0
    values = {n: e["value"] for n, e in json.loads(out)["results"].items()}
    assert values["deg_dm"] == values["deg_bott"] == "320"
    assert values["equal"] == "true"


def test_planes_both_disagreement_is_an_inconsistency(capsys, monkeypatch):
    import fanocount.planes as planes_module
    monkeypatch.setattr(planes_module, "deg_planes_bott",
                        lambda d, r, k, seed: planes_module.deg_planes_dm(d, r, k) + 1)
    code, out, err = invoke(capsys, "planes", "--d", "4", "--r", "3", "--k", "1",
                            "--method", "both", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "inconsistency" and payload["results"] == {}
    assert err == ("internal inconsistency: planes routes disagree at d=4 r=3 k=1: "
                   "dm gives 320, bott gives 321\n")


def _refuse(code):
    def refusing(*args, **kwargs):
        raise RegimeError(code, "refused by the test")
    return refusing


@pytest.mark.parametrize("d,bott,verdicts", [
    (4, _refuse("singular-weights"), "dm gives 320, bott refuses (singular-weights)"),
    (2, lambda d, r, k, seed: 320, "dm refuses (degree-too-small), bott gives 320"),
    (2, _refuse("plane-dimension"),
     "dm refuses (degree-too-small), bott refuses (plane-dimension)"),
], ids=["bott-refuses", "dm-refuses", "different-codes"])
def test_planes_both_routes_must_agree_on_refusing(capsys, monkeypatch, d, bott, verdicts):
    # one route answering where another refuses, or two routes refusing with different
    # codes, is an internal inconsistency, like two different values
    import fanocount.planes as planes_module
    monkeypatch.setattr(planes_module, "deg_planes_bott", bott)
    code, out, err = invoke(capsys, "planes", "--d", str(d), "--r", "3", "--k", "1",
                            "--method", "both")
    assert code == 1 and out == "status: inconsistency\n"
    assert err == f"internal inconsistency: planes routes disagree at d={d} r=3 k=1: {verdicts}\n"


@pytest.mark.parametrize("d", range(5))
def test_planes_routes_refuse_alike(capsys, d):
    # every route checks the regime before it computes anything (bott before it draws its
    # weights), so dm, bott and both refuse each out-of-regime input with one code and exit 2
    refused = 0
    for r in range(-1, 5):
        for k in range(-1, 4):
            outcomes = set()
            for method in ("dm", "bott", "both"):
                code, _, err = invoke(capsys, "planes", "--d", str(d), "--r", str(r),
                                      "--k", str(k), "--method", method)
                outcomes.add((code, err.split(": ")[1] if code else None))
            assert len(outcomes) == 1, (d, r, k, outcomes)
            (code, _), = outcomes
            assert code in (0, 2), (d, r, k, outcomes)
            refused += code == 2
    assert refused == 30 - (d == 4)   # (4, 3, 1) is the grid's one cell in regime


def test_only_these_subcommands_have_fewer_than_two_routes():
    # the ratchet of the two-route contract, read from the route table: the set only shrinks,
    # and a new subcommand lands with two routes.  The closed conic form is advisory, no route.
    single = {name for name, command in _COMMANDS.items()
              if sum(not route.advisory for route in command.routes) < 2}
    assert single == {"ci-planes", "fano-degree", "surface", "irregularity", "picard", "conics"}
    assert [route.method for route in _COMMANDS["conics"].routes if route.advisory] == ["closed"]


def test_bott_runs_are_seed_reproducible(capsys):
    results = []
    for _ in range(2):
        code, out, _ = invoke(capsys, "planes", "--d", "4", "--r", "3", "--k", "1",
                              "--method", "bott", "--seed", "7", "--format", "json")
        assert code == 0
        results.append(out)
    assert results[0] == results[1]


def test_conics_anchor(capsys):
    code, out, _ = invoke(capsys, "conics", "--d", "4", "--r", "3", "--format", "json")
    assert code == 0
    values = {n: e["value"] for n, e in json.loads(out)["results"].items()}
    assert values["deg"] == "2508" and values["halved"] == "true"


def test_conics_both_reports_closed_form(capsys):
    code, out, _ = invoke(capsys, "conics", "--d", "5", "--r", "3",
                          "--method", "both", "--format", "json")
    assert code == 0
    values = {n: e["value"] for n, e in json.loads(out)["results"].items()}
    assert values["deg"] == "282880"
    assert values["closed_matches_fixed_point"] == "false"
    assert values["closed_form"] == "-6873514425/8"


def test_conics_both_runs_the_fixed_point_sum_twice(monkeypatch):
    # the two seeded sums of one validated degree; the deg row reuses them
    import fanocount.conics as conics_module
    original = conics_module.deg_conics_bott
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(conics_module, "deg_conics_bott", counted)
    envelope = run(CommandRequest("conics", (5,), 3, method="both"))
    assert len(calls) == 2
    assert list(envelope.results) == ["deg", "closed_form", "closed_matches_fixed_point",
                                      "closed_to_fixed_point_ratio"]
    assert envelope.results["deg"]["value"] == "282880"


def test_conics_both_keeps_the_halving_case_a_regime_error(capsys):
    code, out, err = invoke(capsys, "conics", "--d", "4", "--r", "3", "--method", "both")
    assert code == 2
    assert out == "status: regime-error\n"
    assert err.startswith("regime error: halving-case:")


def test_ci_planes_envelope(capsys):
    code, out, _ = invoke(capsys, "ci-planes", "--d", "2,3", "--r", "4", "--k", "1",
                          "--format", "json")
    assert code == 0
    values = {n: e["value"] for n, e in json.loads(out)["results"].items()}
    assert values["deg"] == "168" and values["gamma"] == "1"


def test_irregularity_and_picard(capsys):
    code, out, _ = invoke(capsys, "irregularity", "--d", "2,2", "--r", "7", "--k", "2",
                          "--format", "json")
    assert code == 0
    values = {n: e["value"] for n, e in json.loads(out)["results"].items()}
    assert values["case"] == "irregular-two-quadrics" and values["k"] == "2"

    code, out, _ = invoke(capsys, "picard", "--d", "2,2", "--r", "6", "--k", "1",
                          "--format", "json")
    assert code == 0
    values = {n: e["value"] for n, e in json.loads(out)["results"].items()}
    assert values["rho"] == "8"


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_regime_violation_exits_two(capsys):
    code, out, err = invoke(capsys, "planes", "--d", "2", "--r", "3", "--k", "1")
    assert code == 2
    assert "degree-too-small" in err
    assert "regime-error" in out


def test_regime_violation_json_envelope(capsys):
    code, out, _ = invoke(capsys, "fano-degree", "--d", "6", "--r", "4", "--k", "1",
                          "--format", "json")
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "regime-error" and payload["results"] == {}


@pytest.mark.parametrize("spec", [("2", "6", "3"), ("2", "8", "4")])
def test_picard_of_an_empty_fano_scheme_exits_two(capsys, spec):
    d, r, k = spec
    code, out, err = invoke(capsys, "picard", "--d", d, "--r", r, "--k", k)
    assert code == 2
    assert "regime error: nonempty-regime:" in err
    assert "status: regime-error" in out


@pytest.mark.parametrize("method", ["bott", "both"])
def test_large_ambient_dimension_is_a_coded_regime_error(capsys, method):
    # r = 101 used to exhaust the default weight range before the regime check
    code, _, err = invoke(capsys, "planes", "--d", "3", "--r", "101", "--k", "1",
                          "--method", method)
    assert code == 2
    assert err.startswith("regime error: gamma-not-positive:")


def test_surface_rows_keep_their_order(capsys):
    code, out, _ = invoke(capsys, "surface", "--d", "3", "--r", "4", "--k", "1",
                          "--format", "csv")
    assert code == 0
    names = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert names == ["deg", "c2", "A", "B", "e", "K2", "chi", "p_a", "signature",
                     "c1_coeff", "alpha_1", "beta_1", "gamma_1"]


@pytest.mark.parametrize("argv", [("irregularity", "--d", "2,2", "--r", "5", "--k", "1"),
                                  ("picard", "--d", "2", "--r", "7", "--k", "3"),
                                  ("conics", "--d", "5", "--r", "3", "--method", "both"),
                                  ("surface", "--d", "3", "--r", "4", "--k", "1")])
def test_csv_rows_parse_to_three_fields(capsys, argv):
    # a note or a provenance holding commas is one quoted field, and every row reads back
    # as the JSON envelope's entry
    code, out, _ = invoke(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "value", "provenance"]
    assert all(len(row) == 3 for row in rows)
    _, out, _ = invoke(capsys, *argv, "--format", "json")
    results = json.loads(out)["results"]
    assert {name: [value, provenance] for name, value, provenance in rows[1:]} \
        == {name: [entry["value"], entry["provenance"]] for name, entry in results.items()}


def test_parameter_garbage_exits_two(capsys):
    code, _, err = invoke(capsys, "planes", "--d", "x", "--r", "3", "--k", "1")
    assert code == 2 and "parameter error" in err


# ---------------------------------------------------------------------------
# paper-check
# ---------------------------------------------------------------------------

def test_paper_check_all_pass(capsys):
    code, out, _ = invoke(capsys, "paper-check")
    assert code == 0
    lines = out.splitlines()
    passes = [ln for ln in lines if ln.startswith("PASS")]
    fails = [ln for ln in lines if ln.startswith("FAIL")]
    assert len(passes) == 31 and not fails
    assert "31 passed, 0 failed" in out
    assert "2508" in out and "reconciliation report" in out


def test_paper_check_is_identical_under_python_o():
    # python -O strips assert statements: every runtime check must still run
    src = str(Path(fanocount.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    runs = [subprocess.run([sys.executable, *flags, "-m", "fanocount", "paper-check"],
                           capture_output=True, env=env)
            for flags in ((), ("-O",))]
    assert [run.returncode for run in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert b"31 passed, 0 failed" in runs[0].stdout


def test_paper_check_detects_perturbation(capsys, monkeypatch):
    # sanity of the harness itself: a wrong anchor must produce a FAIL line
    import fanocount.batch as batch_module
    original = batch_module._anchor_checks

    def broken():
        checks = original()
        label, compute, expected = checks[0]
        checks[0] = (label, compute, expected + 1)
        return checks

    monkeypatch.setattr(batch_module, "_anchor_checks", broken)
    assert paper_check() is False
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_paper_check_runs_four_conic_sums(capsys, monkeypatch):
    # two seeded sums validate the (4, 3) anchor, which the reconciliation
    # report reuses; two more validate its (5, 3) row
    import fanocount.conics as conics_module
    original = conics_module.deg_conics_bott
    calls = []

    def counted(*args):
        calls.append(args[:2])
        return original(*args)

    monkeypatch.setattr(conics_module, "deg_conics_bott", counted)
    assert paper_check() is True
    assert calls == [(4, 3), (4, 3), (5, 3), (5, 3)]
    assert "twisted fixed-point sum (constant in t)     : 5016" in capsys.readouterr().out


def test_paper_check_computes_invariants_once_per_family(capsys, monkeypatch):
    import fanocount.invariants as invariants_module
    original = invariants_module.surface_invariants
    calls = []

    def counted(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(invariants_module, "surface_invariants", counted)
    assert paper_check() is True
    assert len(calls) == 4


def test_paper_check_reports_a_crashing_conic_report_as_a_failure(capsys, monkeypatch):
    # a failed conic anchor leaves the reconciliation report to recompute it: the
    # report's crash is one more FAIL line and exit 1, not a traceback out of main
    import fanocount.conics as conics_module
    from fanocount.errors import InconsistencyError

    def crashing(*args, **kwargs):
        raise InconsistencyError("boom")

    monkeypatch.setattr(conics_module, "deg_conics", crashing)
    code, out, _ = invoke(capsys, "paper-check")
    assert code == 1
    assert "30 passed, 1 failed (of 31 anchor checks)" in out
    assert "FAIL  quartic surfaces with a conic: deg: raised InconsistencyError: boom" in out
    assert out.splitlines()[-1] == \
        "FAIL  conic reconciliation report: raised InconsistencyError: boom"


def test_paper_check_reports_a_crashing_family_once_per_anchor(capsys, monkeypatch):
    import fanocount.invariants as invariants_module
    original = invariants_module.surface_invariants

    def crashing(spec):
        if spec.degrees == (2, 2):
            raise RuntimeError("boom")
        return original(spec)

    monkeypatch.setattr(invariants_module, "surface_invariants", crashing)
    assert paper_check() is False
    out = capsys.readouterr().out
    assert out.count("FAIL  lines on two quadrics in P^5: ") == 7
    assert "raised RuntimeError: boom" in out
    assert "24 passed, 7 failed (of 31 anchor checks)" in out


@pytest.mark.parametrize("argv", [("planes", "--d", "4,5", "--r", "3", "--k", "1"),
                                  ("conics", "--d", "4,5", "--r", "3")])
def test_multi_degree_hypersurface_command_is_regime_error(capsys, argv):
    # only a single degree is meaningful; the rest used to be dropped silently
    code, out, err = invoke(capsys, *argv, "--format", "json")
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "regime-error" and payload["results"] == {}
    assert "regime error: hypersurface-only:" in err


@pytest.mark.parametrize("argv,echo", [(("planes", "--d", "4", "--r", "3", "--k", "0"),
                                        {"r": "3", "k": "0"}),
                                       (("fano-degree", "--d", "3", "--r", "0", "--k", "1"),
                                        {"r": "0", "k": "1"}),
                                       (("conics", "--d", "4", "--r", "0"), {"r": "0"})],
                         ids=["planes-k0", "fano-degree-r0", "conics-r0"])
def test_regime_error_envelope_echoes_a_zero_r_and_k(capsys, argv, echo):
    # a sweep reads the failing inputs back from the echo, zeros included; conics has no --k
    code, out, _ = invoke(capsys, *argv, "--format", "json")
    inputs = json.loads(out)["inputs"]
    assert code == 2 and {name: inputs[name] for name in ("r", "k") if name in inputs} == echo


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_planes_regime_filter(capsys):
    code, out, err = invoke(capsys, "sweep", "planes",
                            "--d", "3..5", "--r", "3..5", "--k", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER == "d,r,k,gamma,delta,value,method"
    assert lines[1:] == ["4,3,1,1,-1,320,dm", "5,3,1,2,-2,1990,dm"]
    assert "skip d=3 r=3 k=1" in err     # gamma = 0 cell is skipped with a reason


def test_sweep_fano_degree_covers_worked_examples(capsys):
    code, out, _ = invoke(capsys, "sweep", "fano-degree",
                          "--d", "3,5,2+2", "--r", "4,5,6", "--k", "1..2")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert "3,4,1,-2,2,45,extraction" in rows
    assert "5,5,1,-2,2,6125,extraction" in rows
    assert "2+2,5,1,-2,2,32,extraction" in rows
    assert "3,6,2,-2,2,2835,extraction" in rows


def test_sweep_planes_skips_a_multidegree_cell(capsys):
    # a sweep cell runs the planes subcommand, so it gets that subcommand's regime check
    code, out, err = invoke(capsys, "sweep", "planes", "--d", "4,2+2", "--r", "3", "--k", "1")
    assert code == 0
    assert out.splitlines() == [CSV_HEADER, "4,3,1,1,-1,320,dm"]
    assert err == "skip d=2+2 r=3 k=1: hypersurface-only: planes takes a single degree, " \
                  "got (2, 2)\n"


def test_sweep_rows_are_lexicographic():
    rows = list(sweep_rows("planes", [(4,), (5,)], [3], [1]))
    assert rows == ["4,3,1,1,-1,320,dm", "5,3,1,2,-2,1990,dm"]


def test_sweep_rejects_an_unknown_target_before_any_cell(monkeypatch):
    import fanocount.extraction as extraction_module
    monkeypatch.setattr(extraction_module, "deg_fano", lambda spec: pytest.fail("cell computed"))
    with pytest.raises(ValueError, match="unknown sweep target"):
        next(sweep_rows("nope", [(3,)], [4], [1]))


def test_sweep_skips_only_regime_errors(monkeypatch):
    # an internal ValueError is a failure, not an out-of-regime cell
    import fanocount.extraction as extraction_module

    def broken(spec):
        raise ValueError("internal")

    monkeypatch.setattr(extraction_module, "deg_fano", broken)
    with pytest.raises(ValueError, match="internal"):
        list(sweep_rows("fano-degree", [(3,)], [4], [1], skip_log=lambda msg: None))


def test_sweep_maps_a_cell_inconsistency_like_every_subcommand(capsys, monkeypatch):
    # an InconsistencyError in a cell prints the rows before it and exits 1, not a traceback
    import fanocount.extraction as extraction_module
    from fanocount.errors import InconsistencyError
    dm = extraction_module.deg_planes_dm

    def broken(d, r, k):
        if d == 5:
            raise InconsistencyError("cell broke")
        return dm(d, r, k)

    monkeypatch.setattr(extraction_module, "deg_planes_dm", broken)
    code, out, err = invoke(capsys, "sweep", "planes", "--d", "4..5", "--r", "3", "--k", "1")
    assert code == 1
    assert out.splitlines() == [CSV_HEADER, "4,3,1,1,-1,320,dm"]
    assert err == "internal inconsistency: cell broke\n"


def test_sweep_skips_cells_that_spec_validation_rejects():
    skipped = []
    rows = list(sweep_rows("fano-degree", [(1,), (3,)], [2, 4], [1], skip_log=skipped.append))
    assert rows == ["3,4,1,-2,2,45,extraction"]
    assert [msg.split(": ", 1)[1].split(":")[0] for msg in skipped] == \
        ["degree-too-small", "degree-too-small", "ambient-too-small"]


def test_sweep_empty_range_is_parameter_error(capsys):
    code, _, err = invoke(capsys, "sweep", "planes", "--d", "", "--r", "3", "--k", "1")
    assert code == 2 and "parameter error" in err
    assert err == "parameter error: cannot parse degrees '': " \
                  "invalid literal for int() with base 10: ''\n"


@pytest.mark.parametrize("flags,column,text,part", [
    (("--d", "3,,", "--r", "4", "--k", "1"), "degrees", "3,,", ""),
    (("--d", "3", "--r", "4..x", "--k", "1"), "r values", "4..x", "x"),
    (("--d", "3", "--r", "4", "--k", "x..2"), "k values", "x..2", "x"),
    (("--d", "3+y", "--r", "4", "--k", "1"), "degrees", "3+y", "y"),
])
def test_sweep_parse_error_names_its_column_and_text(capsys, flags, column, text, part):
    # as the envelope subcommands name the degrees they cannot parse
    code, out, err = invoke(capsys, "sweep", "fano-degree", *flags)
    assert code == 2 and out == ""
    assert err == f"parameter error: cannot parse {column} {text!r}: " \
                  f"invalid literal for int() with base 10: {part!r}\n"


@pytest.mark.parametrize("r", ["6..5", "4,6..5"])
def test_sweep_reversed_range_is_parameter_error(capsys, r):
    # a reversed range is refused even beside a valid item, before any row is printed
    code, out, err = invoke(capsys, "sweep", "fano-degree", "--d", "3", "--r", r, "--k", "1")
    assert code == 2 and out == "" and err.startswith("parameter error:")


@pytest.mark.parametrize("r,k", [("4+5", "1"), ("4", "1+1")])
def test_sweep_r_and_k_take_no_multidegrees(capsys, r, k):
    code, out, err = invoke(capsys, "sweep", "fano-degree", "--d", "3", "--r", r, "--k", k)
    assert code == 2 and out == "" and err.startswith("parameter error:")
    column, text = ("r", r) if "+" in r else ("k", k)
    assert err.startswith(f"parameter error: cannot parse {column} values {text!r}: ")


# ---------------------------------------------------------------------------
# envelope unit behavior
# ---------------------------------------------------------------------------

def test_envelope_formats():
    request = CommandRequest(subcommand="fano-degree", degrees=(3,), r=4, k=1,
                             format="csv")
    envelope = run(request)
    rendered = envelope.render("csv")
    assert rendered.splitlines()[0] == "name,value,provenance"
    assert any(line.startswith("deg,45,") for line in rendered.splitlines())
    table = envelope.render("table")
    assert "status: ok" in table


@pytest.mark.parametrize("subcommand,degrees,r,k,method,value",
                         [("planes", (4,), 3, 1, "dm", "320"),
                          ("conics", (4,), 3, 0, "bott", "2508")])
def test_default_method_is_echoed_as_the_one_that_ran(subcommand, degrees, r, k, method, value):
    envelope = run(CommandRequest(subcommand, degrees, r, k))
    assert envelope.inputs["method"] == method
    assert envelope.results["deg"]["value"] == value


@pytest.mark.parametrize("subcommand,method", [("planes", "closed"), ("conics", "dm"),
                                               ("fano-degree", "bott")])
def test_method_outside_the_subcommand_choices_is_rejected(subcommand, method):
    with pytest.raises(ValueError, match="method"):
        run(CommandRequest(subcommand, (4,), 3, 1, method=method))


def test_parser_offers_each_subcommand_its_own_methods():
    assert _parse(["conics", "--d", "4", "--r", "3"])[1]["method"] == "bott"
    assert _parse(["planes", "--d", "4", "--r", "3", "--k", "1"])[1]["method"] == "dm"
    with pytest.raises(SystemExit):
        _parse(["planes", "--d", "4", "--r", "3", "--k", "1", "--method", "closed"])


def test_run_rejects_unknown_subcommand():
    with pytest.raises(ValueError):
        run(CommandRequest(subcommand="nope"))


def test_cli_keeps_the_batch_entry_points_as_attributes():
    # paper_check and sweep_rows live in batch; cli still offers them, loading batch on use
    import fanocount.batch as batch_module
    import fanocount.cli as cli_module
    assert cli_module.paper_check is batch_module.paper_check
    assert cli_module.sweep_rows is batch_module.sweep_rows
    assert all(hasattr(cli_module, name) for name in cli_module.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(cli_module, "no_such_name")


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv,error", [
    ((), "required: subcommand"),
    (("nope",), "argument subcommand: invalid choice: 'nope'"),
    (("planes", "--d", "4", "--k", "1"), "required: --r"),
    (("planes", "--d", "4", "--r", "x", "--k", "1"), "argument --r: invalid int value: 'x'"),
    (("fano-degree", "--d", "3", "--r", "4", "--k", "1", "--format", "xml"),
     "argument --format: invalid choice: 'xml'"),
    (("planes", "--d", "4", "--r", "3", "--k", "1", "--method", "closed"),
     "argument --method: invalid choice: 'closed'"),
    (("conics", "--d", "4", "--r", "3", "--k", "1"), "unrecognized arguments: --k 1"),
    (("sweep", "conics", "--d", "4", "--r", "3", "--k", "1"), "argument target: invalid choice"),
    (("planes", "--d", "4", "--r", "3", "--k"), "argument --k: expected one argument"),
], ids=["no-argv", "unknown-subcommand", "missing-r", "r-not-int", "format-xml",
        "method-closed-on-planes", "unknown-flag", "bad-sweep-target", "missing-value"])
def test_usage_error_exits_two_with_usage_on_stderr(capsys, argv, error):
    with pytest.raises(SystemExit) as stop:
        main(list(argv))
    captured = capsys.readouterr()
    assert stop.value.code == 2 and captured.out == ""
    usage, message = captured.err.splitlines()
    assert usage.startswith("usage: fanocount")
    assert message.startswith("fanocount: error: ") and error in message


@pytest.mark.parametrize("argv,names", [
    (("--help",), [*_COMMANDS, "paper-check", "sweep"]),
    (("planes", "-h"), ["--d", "--r", "--k", "--method", "--format", "--seed", "--help"]),
    (("conics", "--he"), ["--d", "--r", "--method", "--format", "--seed", "--help"]),
    (("sweep", "-h"), [*_SWEEP_TARGETS, "--d", "--r", "--k", "--help"]),
    (("paper-check", "-h"), ["--help"]),
], ids=["top", "planes", "conics", "sweep", "paper-check"])
def test_help_exits_zero_and_names_every_subcommand_or_flag(capsys, argv, names):
    with pytest.raises(SystemExit) as stop:
        main(list(argv))
    captured = capsys.readouterr()
    assert stop.value.code == 0 and captured.err == ""
    assert all(name in captured.out for name in names)


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    # the [project.scripts] entry point calls main() with no argument
    monkeypatch.setattr(sys, "argv", ["fanocount", "fano-degree", "--d", "3", "--r", "4",
                                      "--k", "1", "--format", "csv"])
    assert main() == 0
    assert "deg,45,plucker-coefficient-extraction" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("argv,values", [
    (("planes", "--k=1", "--d=4", "--r=3", "--form=json", "--meth", "both", "--s", "5"),
     {"d": "4", "r": 3, "k": 1, "method": "both", "format": "json", "seed": 5}),
    (("sweep", "--d", "3", "--r", "4..5", "fano-degree", "--k", "1"),
     {"target": "fano-degree", "d": "3", "r": "4..5", "k": "1"}),
    (("conics", "--d", "4", "--r", "3", "--r", "5", "--format", "csv", "--format", "json"),
     {"d": "4", "r": 5, "method": "bott", "format": "json", "seed": 1729}),
], ids=["equals-and-prefixes", "target-among-flags", "last-repeat-wins"])
def test_parser_accepts_what_argparse_accepts(argv, values):
    assert _parse(list(argv)) == (argv[0], values)


# the values of each flag for generated command lines, a valid one first
FLAG_VALUES = {"d": ["3", "2,3", "-4", "", "x"], "r": ["4", "-1", "4..5", "x"],
               "k": ["1", "0", "1..2", "y"], "method": ["dm", "bott", "both", "closed"],
               "format": ["json", "table", "csv", "xml"], "seed": ["7", "-3", "1.5"], "x": ["1"]}


def rarely(*tokens):
    """No token five times in six, else one of ``tokens``."""
    return st.sampled_from([[]] * 5 * len(tokens) + [[token] for token in tokens])


@st.composite
def command_lines(draw):
    """argv over every subcommand: its flags in any order, abbreviated and in ``=`` form,
    with valid and invalid values, foreign and repeated flags, a target anywhere, help."""
    subcommands = [[sub] for sub in [*_COMMANDS, "paper-check", "sweep"] * 3]
    argv = draw(rarely("-h", "--x")) + draw(st.sampled_from([*subcommands, ["nope"], []]))
    names = [name for name in draw(st.permutations("drk")) if draw(st.integers(0, 5))]
    names += draw(st.lists(st.sampled_from(list(FLAG_VALUES)), max_size=2))
    pieces = []
    for name in names:
        flag = "--" + name[:draw(st.integers(1, len(name)))]
        value = draw(st.sampled_from(FLAG_VALUES[name][:1] * 3 + FLAG_VALUES[name]))
        pieces.append([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
    if argv[-1:] == ["sweep"] or not draw(st.integers(0, 5)):
        target = draw(st.sampled_from([*_SWEEP_TARGETS, *_SWEEP_TARGETS, "conics", "-1"]))
        pieces.insert(draw(st.integers(0, len(pieces))), [target])
    argv += [token for piece in pieces for token in piece]
    return argv + draw(rarely("-h", "--help", "--he", "--help=1", "--r", "extra"))


def parse_outcome(parse, argv):
    """What a parser makes of argv: its request, or the code it exits with."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return parse(argv)
        except SystemExit as stop:
            assert stop.code == 0 or out.getvalue() == ""
            return stop.code


def argparse_request(argv):
    values = vars(build_parser().parse_args(argv))
    return values.pop("subcommand"), values


@given(command_lines())
@example(["sweep", "--d", "3", "--r", "4", "planes", "--k", "1"])
@example(["planes", "--d=4", "--r", "3", "--k", "1", "--meth=both", "--f", "json"])
@example(["planes", "--d", "4", "--r", "3", "--k", "1", "extra", "-h"])
@example(["ci-planes", "--m", "dm", "--d", "2,3", "--r", "4", "--k", "1"])
@example(["conics", "--d", "4", "--r", "3", "--form", "csv", "--r=5", "--format=json"])
def test_parser_agrees_with_argparse(argv):
    # the same request, or exit 2 from both; help exits 0 from both
    assert parse_outcome(_parse, argv) == parse_outcome(argparse_request, argv)


@pytest.mark.parametrize("argv,name,value", [
    (("sweep", "planes", "--d", "4", "--r", "-1..3", "--k", "1"), "r", "-1..3"),
    (("ci-planes", "--d", "-4,5", "--r", "4", "--k", "1"), "d", "-4,5"),
    (("fano-degree", "--d", "--format", "--r", "4", "--k", "1"), "d", "--format"),
])
def test_the_token_after_a_flag_is_its_value(argv, name, value):
    # where argparse reads a value that starts with '-' as a flag and fails with
    # "expected one argument", this parser takes it as the value
    assert _parse(list(argv))[1][name] == value
    assert parse_outcome(argparse_request, list(argv)) == 2


# ---------------------------------------------------------------------------
# closed stdout
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("buffering", [(), ("-u",)], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [("fano-degree", "--d", "3", "--r", "4", "--k", "1"),
                                  ("sweep", "fano-degree", "--d", "2..12", "--r", "4..12",
                                   "--k", "1..3"),
                                  ("paper-check",)],
                         ids=["fano-degree", "sweep", "paper-check"])
def test_closed_stdout_exits_141_without_a_traceback(argv, buffering):
    # the reader went away first, as in `fanocount sweep ... | head -2`: the process
    # ends with the shell's SIGPIPE status, not with a traceback and the code of a bug
    src = str(Path(fanocount.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("PYTHONUNBUFFERED", None)
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run([sys.executable, *buffering, "-m", "fanocount", *argv],
                             stdout=write, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write)
    assert run.returncode == 141
    assert b"Traceback" not in run.stderr and b"BrokenPipeError" not in run.stderr
