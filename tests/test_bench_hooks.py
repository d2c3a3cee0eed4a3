"""The benchmark's tracer still finds every name it wraps.

``perfbench/spans.py`` wraps library functions from outside ``src/`` (among
them ``planes.tau_poly`` with its ``cache_info``, ``conics.eta_form`` and
``polycore.MultiPoly.mul``), so moving or renaming one of them breaks only a
traced benchmark run.  This test runs the tracer the way the benchmark's
worker does, in a fresh interpreter, and reads what it writes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import fanocount

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(fanocount.__file__).resolve().parents[1])

PROBE = """
import contextlib, io, sys
import fanocount.cli
from fanocount import conics, planes
from spans import Tracer

tracer = Tracer()
tracer.install()
planes.deg_planes_bott(4, 3, 1, planes.TorusWeights.random(3, 1))
conics.deg_conics(5, 3)
conics.generic_conic_weights(3, 1)   # deg_conics draws through _sidon_draw, not this
with contextlib.redirect_stdout(io.StringIO()):
    code = fanocount.cli.main(["paper-check"])
tracer.dump(sys.argv[1])
print(code)
"""


def test_tracer_wraps_and_counts_through_a_traced_run(tmp_path):
    out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", PROBE, str(out)], capture_output=True,
                         text=True, env=env, check=True)
    assert run.stdout.split() == ["0"]
    record = json.loads(out.read_text())
    names = {span[0] for span in record["spans"]}
    assert {"planes.deg_planes_bott", "conics.deg_conics", "conics.deg_conics_bott",
            "conics.generic_conic_weights", "planes.extraction",
            "invariants.surface_invariants", "cli.paper_check"} <= names
    assert set(record["tau_poly"]) == {"hits", "misses"}
    counts = record["counts"]
    assert counts["polycore.mul.pair_products"] == 0
    assert "polycore.mul" not in names
    assert counts["planes.bott.fixed_points"] == 6        # C(4, 2) planes of P^3
    assert counts["conics.fixed_points"] > 0
