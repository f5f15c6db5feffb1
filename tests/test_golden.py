"""Golden CLI reports: every command on the shipped data, compared field by field.

Each report under ``tests/golden`` is the standard output of one CLI
invocation below. A rerun must give the same keys, strings, integers,
booleans and list lengths; floats must agree to a relative 1e-9 or an
absolute 1e-12, so a refactor that keeps the results passes while one that
changes them does not. When a report changes on purpose, rewrite all the
files with ``PYTHONPATH=src python tests/test_golden.py --rewrite``; run as a
script with any other arguments, or none, it exits non-zero and writes
nothing.
"""

import contextlib
import io
import json
import math
import pathlib
import sys

import pytest

from qgscatter.cli import run_command

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
DATA_DIR = GOLDEN_DIR.parent.parent / "data"

MM1 = str(DATA_DIR / "mcdonald_meyers_1.json")
MM2 = str(DATA_DIR / "mcdonald_meyers_2.json")
STAR = str(DATA_DIR / "s3_star.json")
SYM = str(DATA_DIR / "s3_sym.json")
WINDOW = ["--re-min", "0", "--re-max", "8", "--im-min", "-3", "--im-max", "0"]

INVOCATIONS = {
    "poles_mm1.json": ["poles", "--graph", MM1] + WINDOW,
    "poles_mm1.csv": ["poles", "--graph", MM1] + WINDOW + ["--emit", "csv"],
    "poles_mm2.json": ["poles", "--graph", MM2] + WINDOW,
    "poles_mm2.csv": ["poles", "--graph", MM2] + WINDOW + ["--emit", "csv"],
    "eigenvalues_mm1.json": ["eigenvalues", "--graph", MM1, "--kmin", "0.5", "--kmax", "30"],
    "eigenvalues_mm2.json": ["eigenvalues", "--graph", MM2, "--kmin", "0.5", "--kmax", "20"],
    "eigenvalues_s3_star.json": ["eigenvalues", "--graph", STAR, "--kmin", "0.5",
                                 "--kmax", "20"],
    "isoscattering_default.json": ["check-isoscattering", "--graph1", MM1, "--graph2", MM2],
    "isoscattering_samples6.json": ["check-isoscattering", "--graph1", MM1, "--graph2", MM2,
                                    "--samples", "6"],
    "compute_s_real.json": ["compute-s", "--graph", MM1, "--k", "2.5"],
    "compute_s_complex.json": ["compute-s", "--graph", MM1, "--k", "2.5,-0.3"],
    "quotient_r2d.json": ["quotient", "--graph", STAR, "--symmetry", SYM, "--rep", "R_2d",
                          "--k", "2.0"],
    "quotient_sum.json": ["quotient", "--graph", STAR, "--symmetry", SYM, "--rep", "1_G,R_2d",
                          "--k", "2.0"],
    "induced.json": ["check-induced", "--symmetry", SYM, "--sub1", "H", "--rep1", "1_H",
                     "--sub2", "H2", "--rep2", "1_H2"],
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _, code = run_command(argv)
    assert code == 0
    return out.getvalue()


def _parse(name, text):
    if name.endswith(".json"):
        return json.loads(text)
    rows = [line.split(",") for line in text.strip().splitlines()]
    return [rows[0]] + [[json.loads(field) for field in row] for row in rows[1:]]


def _assert_same(got, want, path="$"):
    numbers = (int, float)
    if (isinstance(want, numbers) and not isinstance(want, bool)
            and isinstance(got, numbers) and not isinstance(got, bool)):
        if isinstance(want, int) and isinstance(got, int):
            assert got == want, path
        else:
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), \
                f"{path}: {got!r} != {want!r}"
        return
    assert type(got) is type(want), f"{path}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{path}[{i}]")
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_cli_report_matches_golden(name):
    want = _parse(name, (GOLDEN_DIR / name).read_text())
    _assert_same(_parse(name, _run(INVOCATIONS[name])), want)


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit(f"usage: {sys.argv[0]} --rewrite  (overwrites every report in {GOLDEN_DIR})")
    for name, argv in INVOCATIONS.items():
        (GOLDEN_DIR / name).write_text(_run(argv))
