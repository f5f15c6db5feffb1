"""File parsing, report serialization, and the command-line surface."""

import json

import numpy as np
import pytest

from qgscatter.cli import (
    dumps_deterministic,
    parse_graph_document,
    parse_graph_file,
    run_command,
)
from qgscatter.contours import Rect
from qgscatter.errors import NotUnitary, ParseError
from qgscatter.graph_core import DFT, FixedUnitary, LinearAB, MetricGraph, OpenGraph
from qgscatter.isoscattering import transplantability_verdict

from conftest import DATA_DIR


def serialize_condition(c) -> dict:
    """A vertex condition as the graph-file object it was parsed from."""
    out = {"type": c.type_name}
    if isinstance(c, DFT) and c.degree is not None:
        out["degree"] = c.degree
    if isinstance(c, LinearAB):
        out.update(a=_plain(c.a), b=_plain(c.b))
    if isinstance(c, FixedUnitary):
        out["matrix"] = _plain(c.matrix)
    return out


def _plain(matrix):
    """A complex matrix as the nested [re, im] lists of a graph file."""
    return json.loads(dumps_deterministic(matrix))


def serialize_graph(g) -> dict:
    """A metric or open graph as a graph-file document."""
    graph, leads = (g.graph, g.leads) if isinstance(g, OpenGraph) else (g, ())
    doc = {
        "vertices": [{"id": v.id, "condition": serialize_condition(v.condition)}
                     for v in graph.vertices],
        "edges": [{"id": e.id, "from": e.from_vertex, "to": e.to_vertex, "length": e.length}
                  for e in graph.edges],
    }
    if leads:
        doc["leads"] = [{"id": l.id, "at": l.at} for l in leads]
    return doc


def matrix_from_payload(payload):
    return np.array([[complex(re, im) for re, im in row] for row in payload])


def run_json(capsys, argv):
    report, code = run_command(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out), out


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


INTERVAL_DOC = {
    "vertices": [
        {"id": "a", "condition": {"type": "neumann"}},
        {"id": "b", "condition": {"type": "neumann"}},
    ],
    "edges": [{"id": "e", "from": "a", "to": "b", "length": 1.0}],
}

RESONATOR_DOC = {
    "vertices": [
        {"id": "c", "condition": {"type": "neumann"}},
        {"id": "w1", "condition": {"type": "dirichlet"}},
        {"id": "w2", "condition": {"type": "dirichlet"}},
    ],
    "edges": [
        {"id": "e1", "from": "c", "to": "w1", "length": 1.0},
        {"id": "e2", "from": "c", "to": "w2", "length": 1.0},
    ],
    "leads": [{"id": "l0", "at": "c"}],
}


def test_parse_shipped_star():
    og = parse_graph_file(DATA_DIR / "s3_star.json")
    assert isinstance(og, OpenGraph)
    assert og.n_leads == 6
    assert [l.id for l in og.leads] == ["e", "(1,2)", "(1,3)", "(2,3)", "(1,2,3)", "(1,3,2)"]


def test_parse_shipped_negative_pair():
    for name in ("mcdonald_meyers_1.json", "mcdonald_meyers_2.json"):
        og = parse_graph_file(DATA_DIR / name)
        assert isinstance(og, OpenGraph)
        assert og.n_leads == 2


def test_parse_rejects_unknown_keys():
    doc = {"vertices": [{"id": "a", "condition": {"type": "neumann"}, "colour": "red"}]}
    with pytest.raises(ParseError):
        parse_graph_document(doc)
    with pytest.raises(ParseError):
        parse_graph_document({"vertices": [], "metadata": {}})


def test_parse_syntax_error_carries_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": [,]}')
    with pytest.raises(ParseError) as err:
        parse_graph_file(path)
    assert "bad.json:1:" in str(err.value)


def test_compact_file_gives_metric_graph(tmp_path):
    path = write(tmp_path, "interval.json", INTERVAL_DOC)
    g = parse_graph_file(path)
    assert isinstance(g, MetricGraph)


def test_round_trip(tmp_path):
    path = write(tmp_path, "res.json", RESONATOR_DOC)
    og = parse_graph_file(path)
    doc = serialize_graph(og)
    again = parse_graph_document(doc)
    assert serialize_graph(again) == doc


def _one_vertex_doc(condition):
    """A lead and an edge at a vertex with the given condition."""
    return {
        "vertices": [{"id": "v", "condition": condition},
                     {"id": "w", "condition": {"type": "neumann"}}],
        "edges": [{"id": "e", "from": "v", "to": "w", "length": 1.5}],
        "leads": [{"id": "l", "at": "v"}],
    }


CONDITION_DOCS = {
    "neumann": {"type": "neumann"},
    "dirichlet": {"type": "dirichlet"},
    "dft": {"type": "dft", "degree": 2},
    "dft-any-degree": {"type": "dft"},
    # continuity and Kirchhoff: f1 - f2 = 0, f1' + f2' = 0
    "linear_ab": {"type": "linear_ab",
                  "a": [[[1.0, 0.0], [-1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                  "b": [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]]},
    "fixed_unitary": {"type": "fixed_unitary",
                      "matrix": [[[0.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.0]]]},
}


@pytest.mark.parametrize("name", sorted(CONDITION_DOCS))
def test_condition_round_trip(name):
    doc = _one_vertex_doc(CONDITION_DOCS[name])
    og = parse_graph_document(doc)
    assert og.graph.vertex("v").condition.type_name == CONDITION_DOCS[name]["type"]
    assert serialize_graph(og) == doc


@pytest.mark.parametrize("condition, error, message", [
    ({"type": "dft", "degree": 0}, ParseError, "positive integer"),
    ({"type": "fixed_unitary", "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]},
     ParseError, "unequal lengths"),
    ({"type": "linear_ab", "a": [[1.0, 0.0], [0.0]], "b": [[0.0, 0.0], [1.0, 1.0]]},
     ParseError, "unequal lengths"),
    ({"type": "fixed_unitary", "matrix": [[2.0, 0.0], [0.0, 1.0]]}, NotUnitary, "not unitary"),
    ({"type": "robin"}, ParseError, "unknown condition type"),
])
def test_condition_errors(condition, error, message):
    with pytest.raises(error, match=message):
        parse_graph_document(_one_vertex_doc(condition))


def test_deterministic_serializer():
    text = dumps_deterministic({"b": 1.0 / 3.0, "a": [1, True, None, "x"]})
    assert text == '{"a":[1,true,null,"x"],"b":0.33333333333333331}'
    with pytest.raises(TypeError):
        dumps_deterministic({"x": object()})
    with pytest.raises(TypeError):  # no layout option that it would ignore
        dumps_deterministic({}, indent=2)


def test_serializer_writes_numpy_and_complex_values():
    # the text that converting numpy and complex values to plain JSON types
    # first, and writing those, produced
    doc = {"f": np.float64(0.1), "i": np.int64(-7), "c": np.complex128(1.5 - 2j), "z": 2j,
           "m": np.array([[1 + 2j, 3.0], [0.25j, -1]]),
           "t": (1, np.float32(0.5), (None, True)), "b": [True, None, False]}
    assert dumps_deterministic(doc) == (
        '{"b":[true,null,false],"c":[1.5,-2],"f":0.10000000000000001,"i":-7,'
        '"m":[[[1,2],[3,0]],[[0,0.25],[-1,0]]],"t":[1,0.5,[null,true]],"z":[0,2]}')
    for value in (np.bool_(True), object(), {1, 2}):
        with pytest.raises(TypeError):
            dumps_deterministic({"x": value})


def test_compute_s_star_golden(capsys):
    doc, _ = run_json(capsys, ["compute-s", "--graph", str(DATA_DIR / "s3_star.json"),
                               "--k", "1.0"])
    s = matrix_from_payload(doc["results"]["s"])
    np.testing.assert_allclose(s, np.full((6, 6), 1 / 3) - np.eye(6), atol=1e-13)
    assert doc["results"]["unitarity_defect"] <= 1e-12
    assert doc["command"] == "compute-s"


def test_compute_s_complex_k(capsys, tmp_path):
    path = write(tmp_path, "res.json", RESONATOR_DOC)
    doc, _ = run_json(capsys, ["compute-s", "--graph", path, "--k", "1.0,-0.2"])
    assert doc["results"]["k"] == [1.0, -0.2]


def test_quotient_golden(capsys):
    doc, _ = run_json(capsys, [
        "quotient", "--graph", str(DATA_DIR / "s3_star.json"),
        "--symmetry", str(DATA_DIR / "s3_sym.json"), "--rep", "1_H", "--k", "1.0",
    ])
    q = matrix_from_payload(doc["results"]["matrix"])
    np.testing.assert_allclose(q, np.array([[-1, 2, 2], [2, -1, 2], [2, 2, -1]]) / 3,
                               atol=1e-12)


def test_quotient_direct_sum(capsys):
    doc, _ = run_json(capsys, [
        "quotient", "--graph", str(DATA_DIR / "s3_star.json"),
        "--symmetry", str(DATA_DIR / "s3_sym.json"), "--rep", "1_G,R_2d", "--k", "2.0",
    ])
    q = matrix_from_payload(doc["results"]["matrix"])
    np.testing.assert_allclose(q, np.diag([1.0, -1.0, -1.0]), atol=1e-12)


def test_eigenvalues_json_and_csv(capsys, tmp_path):
    path = write(tmp_path, "interval.json", INTERVAL_DOC)
    doc, _ = run_json(capsys, ["eigenvalues", "--graph", path,
                               "--kmin", "0.5", "--kmax", "7.0"])
    ks = [ev["k"] for ev in doc["results"]["eigenvalues"]]
    np.testing.assert_allclose(ks, [np.pi, 2 * np.pi], atol=1e-9)

    report, code = run_command(["eigenvalues", "--graph", path,
                                "--kmin", "0.5", "--kmax", "7.0", "--emit", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,multiplicity,residual"
    assert len(lines) == 3


def test_poles_csv(capsys, tmp_path):
    path = write(tmp_path, "res.json", RESONATOR_DOC)
    report, code = run_command(["poles", "--graph", path,
                                "--re-min", "0", "--re-max", "6",
                                "--im-min", "-2", "--im-max", "0", "--emit", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "re,im,multiplicity,residual"
    assert len(lines) == 3  # two poles below the axis in this window
    first = lines[1].split(",")
    assert abs(float(first[0]) - np.pi / 2) < 1e-8
    assert abs(float(first[1]) + 0.5 * np.log(3)) < 1e-8


def test_check_induced_cli(capsys):
    doc, _ = run_json(capsys, [
        "check-induced", "--symmetry", str(DATA_DIR / "s3_sym.json"),
        "--sub1", "H", "--rep1", "1_H", "--sub2", "H2", "--rep2", "1_H2",
    ])
    assert doc["results"]["equal"] is True
    assert doc["results"]["induced_1"] == [[3.0, 0.0], [1.0, 0.0], [1.0, 0.0],
                                           [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]


def test_check_isoscattering_cli(capsys):
    doc, _ = run_json(capsys, [
        "check-isoscattering",
        "--graph1", str(DATA_DIR / "mcdonald_meyers_1.json"),
        "--graph2", str(DATA_DIR / "mcdonald_meyers_2.json"),
    ])
    assert doc["results"]["verdict"] == "no transplantation on these lead sets"
    assert doc["results"]["isopolar"] is False
    assert doc["results"]["label"] == "numerical evidence"
    assert "pole_pairing" in doc["results"]


STAR3_DOC = {
    "vertices": [{"id": "c", "condition": {"type": "neumann"}}],
    "leads": [{"id": f"l{i}", "at": "c"} for i in range(3)],
}

SPLIT_DOC = {
    "vertices": [
        {"id": "n", "condition": {"type": "neumann"}},
        {"id": "d1", "condition": {"type": "dirichlet"}},
        {"id": "d2", "condition": {"type": "dirichlet"}},
    ],
    "leads": [{"id": "l0", "at": "n"}, {"id": "l1", "at": "d1"},
              {"id": "l2", "at": "d2"}],
}


def test_check_isoscattering_cli_positive(capsys, tmp_path):
    p1 = write(tmp_path, "a.json", STAR3_DOC)
    p2 = write(tmp_path, "b.json", SPLIT_DOC)
    doc, _ = run_json(capsys, [
        "check-isoscattering", "--graph1", p1, "--graph2", p2,
        "--window", "0", "4", "-2", "0",
    ])
    assert doc["results"]["verdict"] == "transplantable (numerical evidence)"
    assert doc["results"]["isophasal"] is True
    assert "pi" in doc["results"]


def test_check_isoscattering_samples_is_training_count(capsys, tmp_path):
    p1 = write(tmp_path, "a.json", STAR3_DOC)
    p2 = write(tmp_path, "b.json", SPLIT_DOC)
    doc, _ = run_json(capsys, [
        "check-isoscattering", "--graph1", p1, "--graph2", p2,
        "--window", "0", "4", "-2", "0", "--samples", "8",
    ])
    report = transplantability_verdict(parse_graph_file(p1), parse_graph_file(p2),
                                       Rect(0.0, 4.0, -2.0, 0.0), n_training=8)
    conj = report.conjugacy
    assert len(conj.training_ks) == 8
    results = doc["results"]
    assert results["conjugacy_status"] == conj.status == "found"
    assert results["solution_dimension"] == conj.solution_dim
    assert results["conjugacy_residual"] == conj.residual
    assert np.array_equal(matrix_from_payload(results["pi"]), conj.pi)


@pytest.mark.parametrize("argv, message", [
    (["check-isoscattering", "--graph1", str(DATA_DIR / "mcdonald_meyers_1.json"),
      "--graph2", str(DATA_DIR / "mcdonald_meyers_2.json"), "--samples", "2"],
     "at least 3 training samples"),
    (["poles", "--graph", str(DATA_DIR / "mcdonald_meyers_1.json"), "--re-min", "1",
      "--re-max", "0", "--im-min", "-3", "--im-max", "0"],
     "degenerate rectangle"),
    (["quotient", "--graph", str(DATA_DIR / "s3_star.json"),
      "--symmetry", str(DATA_DIR / "s3_sym.json"), "--rep", "R_2d", "--v", "5",
      "--k", "1.0"],
     "v runs from 0 to 1"),
    (["compute-s", "--graph", str(DATA_DIR / "s3_star.json"), "--k", "inf"],
     "is not finite"),
    (["quotient", "--graph", str(DATA_DIR / "s3_star.json"),
      "--symmetry", str(DATA_DIR / "s3_sym.json"), "--rep", "R_2d", "--k", "nan"],
     "is not finite"),
    # S is finite here (max |S| = 2) but D(k) overflows to -inf + inf j
    (["compute-s", "--graph", str(DATA_DIR / "mcdonald_meyers_1.json"), "--k", "1,-40"],
     "D(k) = (-inf+infj) is not finite"),
    (["eigenvalues", "--graph", str(DATA_DIR / "s3_star.json"), "--kmin", "1",
      "--kmax", "inf"],
     "k_max = inf is not finite"),
    (["poles", "--graph", str(DATA_DIR / "mcdonald_meyers_1.json"), "--re-min", "0",
      "--re-max", "inf", "--im-min", "-1", "--im-max", "0"],
     "has a bound that is not finite"),
])
def test_bad_parameters_exit_1_with_error_line(capsys, argv, message):
    report, code = run_command(argv)
    captured = capsys.readouterr()
    assert report is None and code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err


_Z2_GROUP = {"elements": ["e", "s"], "table": [[0, 1], [1, 0]]}
_Z2_ACTION = {"e": [0, 1], "s": [1, 0]}


@pytest.mark.parametrize("graph, symmetry, where", [
    ({"vertices": 5}, None, "$.vertices"),
    ({**INTERVAL_DOC, "edges": {"e": 1}}, None, "$.edges"),
    ({**INTERVAL_DOC, "leads": "a"}, None, "$.leads"),
    ({**INTERVAL_DOC, "edges": [{"id": "e", "from": ["a"], "to": "b", "length": 1.0}]},
     None, "$.edges[0]"),
    ({**INTERVAL_DOC, "leads": [{"id": "l", "at": {}}]}, None, "$.leads[0]"),
    # true and false are not numbers: a length of true built an edge of length 1.0
    ({**INTERVAL_DOC, "edges": [{"id": "e", "from": "a", "to": "b", "length": True}]},
     None, "$.edges[0]"),
    ({"vertices": [{"id": "a", "condition": {"type": "dft", "degree": True}}]},
     None, "$.vertices[0].condition"),
    ({"vertices": [{"id": "a", "condition": {"type": "fixed_unitary", "matrix": [[False]]}}]},
     None, "$.vertices[0].condition.matrix[0][0]"),
    ({"vertices": [{"id": "a", "condition": {"type": "fixed_unitary",
                                             "matrix": [[[True, 0]]]}}]},
     None, "$.vertices[0].condition.matrix[0][0]"),
    (None, {"group": 3, "lead_action": {}}, "$.group"),
    (None, {"group": {"elements": 2, "table": [[0]]}, "lead_action": {}}, "$.group.elements"),
    (None, {"group": {"elements": ["e", "s"], "table": [[0, 1], [1]]}, "lead_action": {}},
     "$.group.table"),
    (None, {"group": {"elements": ["e", "s"], "table": [[0, True], [1, 0]]},
            "lead_action": {}}, "$.group.table"),
    (None, {"group": _Z2_GROUP, "lead_action": {"e": [0, 1], "s": [1]}}, "$.lead_action"),
    (None, {"group": _Z2_GROUP, "lead_action": _Z2_ACTION, "representations": [1]},
     "$.representations"),
    (None, {"group": _Z2_GROUP, "lead_action": _Z2_ACTION, "subgroups": {"H": 4}},
     "$.subgroups.H"),
    (None, {"group": _Z2_GROUP, "lead_action": _Z2_ACTION,
            "subgroups": {"H": {"elements": "e"}}}, "$.subgroups.H.elements"),
])
def test_malformed_file_shapes_exit_1_with_error_line(capsys, tmp_path, graph, symmetry, where):
    # a value of the wrong JSON type is a ParseError at its path, never a traceback
    if symmetry is None:
        argv = ["eigenvalues", "--graph", write(tmp_path, "g.json", graph),
                "--kmin", "0.5", "--kmax", "4"]
    else:
        argv = ["quotient", "--graph", str(DATA_DIR / "s3_star.json"), "--symmetry",
                write(tmp_path, "s.json", symmetry), "--rep", "R_2d", "--k", "1.0"]
    report, code = run_command(argv)
    captured = capsys.readouterr()
    assert report is None and code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and f"(at {where})" in captured.err
    assert "Traceback" not in captured.err


def test_python_dash_m_runs_the_cli(capsys):
    import os
    import subprocess
    import sys

    argv = ["compute-s", "--graph", str(DATA_DIR / "s3_star.json"), "--k", "1.0"]
    env = dict(os.environ, PYTHONPATH=str(DATA_DIR.parent / "src"))
    done = subprocess.run([sys.executable, "-m", "qgscatter", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    _, out = run_json(capsys, argv)
    assert done.stdout == out


def test_usage_errors():
    _, code = run_command([])
    assert code == 2
    _, code = run_command(["no-such-command"])
    assert code == 2
    _, code = run_command(["compute-s"])  # missing required flags
    assert code == 2


def test_domain_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"vertices": [], "colour": 1})
    _, code = run_command(["compute-s", "--graph", path, "--k", "1.0"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_missing_file_exit_code(capsys):
    _, code = run_command(["compute-s", "--graph", "/nonexistent.json", "--k", "1.0"])
    assert code == 1


def test_byte_determinism(capsys):
    argv = ["compute-s", "--graph", str(DATA_DIR / "s3_star.json"), "--k", "7.3"]
    run_command(argv)
    first = capsys.readouterr().out
    run_command(argv)
    second = capsys.readouterr().out
    assert first == second
    assert "wall_time" not in first


def test_timing_flag_adds_wall_time(capsys):
    argv = ["--timing", "compute-s", "--graph", str(DATA_DIR / "s3_star.json"),
            "--k", "1.0"]
    doc, out = run_json(capsys, argv)
    assert "wall_time_s" in doc
