"""File formats, deterministic reports, and the command-line surface.

Graphs and symmetries are described by strict JSON documents (unknown keys
are rejected so typos fail loudly); complex numbers are [re, im] pairs.
Reports are serialized with sorted keys and 17-significant-digit floats, so
identical inputs and flags produce byte-identical output. Wall times are
only included under --timing to keep the default output reproducible.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .contours import Rect
from .errors import DeterminantOverflow, ParseError, QGError
from .global_scattering import eigenvalues_compact, scattering_matrix
from .graph_core import (
    DFT,
    Dirichlet,
    Edge,
    FixedUnitary,
    Lead,
    LinearAB,
    MetricGraph,
    Neumann,
    OpenGraph,
    Vertex,
    build_graph,
    open_graph,
)
from .isoscattering import transplantability_verdict
from .resonances import find_poles
from .symmetry_rep import (
    FiniteGroup,
    GraphAction,
    MatrixRep,
    SubgroupEmbedding,
    characters_equal,
    induced_character,
    quotient_scattering_sum,
    subgroup,
)


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------

def dumps_deterministic(obj) -> str:
    """JSON text with sorted keys and %.17g floats, newline-free.

    numpy arrays are written as nested lists, complex numbers (Python or
    numpy) as [re, im], and numpy floats and integers as numbers.
    """
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float {obj} cannot be serialized")
        return f"{float(obj):.17g}"
    if isinstance(obj, (complex, np.complexfloating)):
        return dumps_deterministic([float(obj.real), float(obj.imag)])
    if isinstance(obj, dict):
        items = sorted(obj.items())
        inner = ",".join(f"{json.dumps(str(k))}:{dumps_deterministic(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_deterministic(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# graph files
# ---------------------------------------------------------------------------

def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError("expected an object", where)
    return value


def _list(value, where: str, item=object, what="a list") -> list:
    """value, when it is a list whose entries are all ``item`` instances."""
    if not (isinstance(value, list) and all(isinstance(x, item) for x in value)):
        raise ParseError(f"expected {what}", where)
    return value


def _is_number(value) -> bool:
    """Whether value is a JSON number; true and false are not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _index_rows(rows, where: str) -> np.ndarray:
    """Equal-length lists of integer indices, as an array."""
    if not all(isinstance(r, list) and all(_is_number(x) and isinstance(x, int) for x in r)
               for r in _list(rows, where)):
        raise ParseError("expected lists of integers", where)
    if len({len(r) for r in rows}) > 1:
        raise ParseError("rows have unequal lengths", where)
    return np.asarray(rows, dtype=int)


def _require_keys(d: Mapping, allowed, required, where: str):
    unknown = set(_object(d, where)) - set(allowed)
    if unknown:
        raise ParseError(f"unknown keys {sorted(unknown)}", where)
    missing = set(required) - set(d)
    if missing:
        raise ParseError(f"missing keys {sorted(missing)}", where)


def _parse_complex(value, where: str) -> complex:
    if _is_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(map(_is_number, value)):
        return complex(value[0], value[1])
    raise ParseError("complex numbers are written as [re, im]", where)


def _parse_complex_matrix(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ParseError("expected a nonempty matrix", where)
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise ParseError("matrix rows must be lists", f"{where}[{i}]")
        rows.append([_parse_complex(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)])
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ParseError("matrix rows have unequal lengths", where)
    return np.array(rows, dtype=complex)


def _parse_dft(d, where: str) -> DFT:
    deg = d.get("degree")
    if deg is not None and not (_is_number(deg) and isinstance(deg, int) and deg >= 1):
        raise ParseError("dft degree must be a positive integer", where)
    return DFT(degree=deg)


# condition type -> (allowed keys, required keys, builder(d, where))
_CONDITIONS = {
    "neumann": ({"type"}, {"type"}, lambda d, where: Neumann()),
    "dirichlet": ({"type"}, {"type"}, lambda d, where: Dirichlet()),
    "dft": ({"type", "degree"}, {"type"}, _parse_dft),
    "linear_ab": ({"type", "a", "b"}, {"type", "a", "b"}, lambda d, where: LinearAB(
        _parse_complex_matrix(d["a"], f"{where}.a"), _parse_complex_matrix(d["b"], f"{where}.b"))),
    "fixed_unitary": ({"type", "matrix"}, {"type", "matrix"}, lambda d, where: FixedUnitary(
        _parse_complex_matrix(d["matrix"], f"{where}.matrix"))),
}


def _parse_condition(d, where: str):
    if "type" not in _object(d, where):
        raise ParseError("condition needs a type", where)
    t = d["type"]
    if not (isinstance(t, str) and t in _CONDITIONS):
        raise ParseError(f"unknown condition type {t!r}", where)
    allowed, required, build = _CONDITIONS[t]
    _require_keys(d, allowed, required, where)
    return build(d, where)


def parse_graph_document(doc) -> Union[MetricGraph, OpenGraph]:
    """Validate a parsed JSON document into a graph object."""
    _require_keys(doc, {"vertices", "edges", "leads"}, {"vertices"}, "$")
    vertices = []
    for i, v in enumerate(_list(doc["vertices"], "$.vertices")):
        where = f"$.vertices[{i}]"
        _require_keys(v, {"id", "condition"}, {"id", "condition"}, where)
        if not isinstance(v["id"], str):
            raise ParseError("vertex id must be a string", where)
        vertices.append(Vertex(v["id"], _parse_condition(v["condition"], f"{where}.condition")))
    edges = []
    for i, e in enumerate(_list(doc.get("edges", []), "$.edges")):
        where = f"$.edges[{i}]"
        _require_keys(e, {"id", "from", "to", "length"}, {"id", "from", "to", "length"}, where)
        if not all(isinstance(e[key], str) for key in ("id", "from", "to")):
            raise ParseError("edge id, from and to must be strings", where)
        if not _is_number(e["length"]):
            raise ParseError("edge length must be a number", where)
        edges.append(Edge(e["id"], e["from"], e["to"], float(e["length"])))
    leads = []
    for i, l in enumerate(_list(doc.get("leads", []), "$.leads")):
        where = f"$.leads[{i}]"
        _require_keys(l, {"id", "at"}, {"id", "at"}, where)
        if not (isinstance(l["id"], str) and isinstance(l["at"], str)):
            raise ParseError("lead id and at must be strings", where)
        leads.append(Lead(l["id"], l["at"]))
    if leads:
        return open_graph(vertices, edges, leads)
    return build_graph(vertices, edges)


def _load_json(path):
    """The JSON document in a file; a syntax error raises ParseError at path:line:col."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), f"{path}:{exc.lineno}:{exc.colno}") from exc


def parse_graph_file(path) -> Union[MetricGraph, OpenGraph]:
    """Parse and validate a graph description file.

    Syntax errors carry line/column positions; semantic errors carry a JSON
    path. Validation errors from the graph model propagate unchanged.
    """
    return parse_graph_document(_load_json(path))


# ---------------------------------------------------------------------------
# symmetry files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetrySpec:
    """Parsed symmetry file: group, lead action, named representations."""

    group: FiniteGroup
    action: GraphAction
    representations: Mapping[str, MatrixRep]
    subgroups: Mapping[str, Tuple[SubgroupEmbedding, Mapping[str, MatrixRep]]]

    def resolve(self, name: str) -> Tuple[GraphAction, MatrixRep]:
        """Find a representation by name; subgroup reps come with the
        action restricted to that subgroup."""
        if name in self.representations:
            return self.action, self.representations[name]
        for emb, reps in self.subgroups.values():
            if name in reps:
                return self.action.restricted(emb), reps[name]
        raise ParseError(f"no representation named {name!r} in symmetry file")


def _per_element(group: FiniteGroup, d, where: str) -> list:
    """The values of the object d, which maps every element name of group, in
    the group's order."""
    _require_keys(d, group.elements, group.elements, where)
    return [d[name] for name in group.elements]


def _parse_reps(group: FiniteGroup, doc, where: str) -> dict:
    """The named representations of group in the optional "representations"
    object of doc, which sits at ``where``."""
    where = f"{where}.representations"
    reps = {}
    for rname, rd in _object(doc.get("representations") or {}, where).items():
        reps[rname] = MatrixRep.from_mapping(group, {
            name: _parse_complex_matrix(m, f"{where}.{rname}.{name}")
            for name, m in zip(group.elements, _per_element(group, rd, f"{where}.{rname}"))})
    return reps


def parse_symmetry_document(doc) -> SymmetrySpec:
    _require_keys(doc, {"group", "lead_action", "representations", "subgroups"},
                  {"group", "lead_action"}, "$")
    gd = doc["group"]
    _require_keys(gd, {"elements", "table"}, {"elements", "table"}, "$.group")
    group = FiniteGroup(tuple(_list(gd["elements"], "$.group.elements", str, "a list of strings")),
                        _index_rows(gd["table"], "$.group.table"))

    rows = _per_element(group, doc["lead_action"], "$.lead_action")
    action = GraphAction(group, _index_rows(rows, "$.lead_action"))
    reps = _parse_reps(group, doc, "$")

    subs = {}
    for sname, sd in _object(doc.get("subgroups") or {}, "$.subgroups").items():
        where = f"$.subgroups.{sname}"
        _require_keys(sd, {"elements", "representations"}, {"elements"}, where)
        emb = subgroup(group, _list(sd["elements"], f"{where}.elements", str, "a list of strings"))
        subs[sname] = (emb, _parse_reps(emb.group, sd, where))

    return SymmetrySpec(group=group, action=action, representations=reps, subgroups=subs)


def parse_symmetry_file(path) -> SymmetrySpec:
    return parse_symmetry_document(_load_json(path))


# ---------------------------------------------------------------------------
# reports and commands
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    command: str
    inputs: dict = field(default_factory=dict)
    parameters: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    wall_time_s: Optional[float] = None

    def to_json(self, *, include_timing: bool = False) -> str:
        payload = dict(vars(self))
        if not (include_timing and self.wall_time_s is not None):
            del payload["wall_time_s"]
        return dumps_deterministic(payload)


# the arguments that name input files; a report's inputs are their sha256 digests
_INPUT_FILES = ("graph", "graph1", "graph2", "symmetry")


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _parse_k(text: str) -> complex:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) not in (1, 2):
        raise ParseError(f"cannot parse k value {text!r}; use RE or RE,IM")
    if not np.isfinite(parts).all():
        raise ParseError(f"k value {text!r} is not finite")
    return complex(*parts)


def _open_graph_file(path) -> OpenGraph:
    g = parse_graph_file(path)
    if not isinstance(g, OpenGraph):
        raise ParseError(f"graph file {path} has no leads; this command needs an open graph")
    return g


def _rows(records, *fields) -> list:
    """One dict per record, holding the named attributes."""
    return [{f: getattr(r, f) for f in fields} for r in records]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgscatter",
        description="Scattering matrices, spectra, poles and symmetry quotients "
                    "of metric graphs with leads.",
    )
    parser.add_argument("--timing", action="store_true",
                        help="include wall time in the report (breaks byte determinism)")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("compute-s", help="evaluate the scattering matrix at one k")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", required=True, help="RE or RE,IM")

    p = sub.add_parser("eigenvalues", help="eigenvalues of a compact graph in a window")
    p.add_argument("--graph", required=True)
    p.add_argument("--kmin", type=float, required=True)
    p.add_argument("--kmax", type=float, required=True)
    p.add_argument("--emit", choices=["json", "csv"], default="json")

    p = sub.add_parser("poles", help="resonance poles in a complex window")
    p.add_argument("--graph", required=True)
    p.add_argument("--re-min", type=float, required=True)
    p.add_argument("--re-max", type=float, required=True)
    p.add_argument("--im-min", type=float, required=True)
    p.add_argument("--im-max", type=float, required=True)
    p.add_argument("--emit", choices=["json", "csv"], default="json")

    p = sub.add_parser("quotient", help="scattering matrix of a symmetry quotient")
    p.add_argument("--graph", required=True)
    p.add_argument("--symmetry", required=True)
    p.add_argument("--rep", required=True,
                   help="representation name, or comma-separated names for a direct sum")
    p.add_argument("--v", type=int, default=None, help="carrier basis vector index")
    p.add_argument("--k", required=True)

    p = sub.add_parser("check-isoscattering", help="conjugacy/phase/pole comparison")
    p.add_argument("--graph1", required=True)
    p.add_argument("--graph2", required=True)
    p.add_argument("--window", type=float, nargs=4, default=[0.0, 8.0, -3.0, 0.0],
                   metavar=("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX"))
    p.add_argument("--samples", type=int, default=6)

    p = sub.add_parser("check-induced", help="compare induced characters of two subgroup reps")
    p.add_argument("--symmetry", required=True)
    p.add_argument("--sub1", required=True)
    p.add_argument("--rep1", required=True)
    p.add_argument("--sub2", required=True)
    p.add_argument("--rep2", required=True)

    return parser


def _cmd_compute_s(args) -> RunReport:
    og = _open_graph_file(args.graph)
    k = _parse_k(args.k)
    with np.errstate(over="ignore", invalid="ignore"):
        ev = scattering_matrix(og, k)
        det = ev.interior_det  # taken here at complex k, where it may overflow
    if not np.isfinite(det):  # S can stay finite where D(k) overflows
        raise DeterminantOverflow(f"interior determinant D(k) = {det} "
                                  f"is not finite at k = {k}")
    return RunReport(
        command="compute-s",
        parameters={"k": k},
        results={
            "k": k,
            "s": ev.s,
            "lead_order": [l.id for l in og.leads],
            "interior_determinant": det,
            "unitarity_defect": ev.unitarity_defect,
        },
    )


def _cmd_eigenvalues(args) -> RunReport:
    g = parse_graph_file(args.graph)
    if isinstance(g, OpenGraph):
        g = g.graph
    window = eigenvalues_compact(g, (args.kmin, args.kmax))
    return RunReport(
        command="eigenvalues",
        parameters={"kmin": args.kmin, "kmax": args.kmax},
        results={"eigenvalues": _rows(window.eigenvalues, "k", "multiplicity", "residual")},
        warnings=list(window.warnings),
    )


def _cmd_poles(args) -> RunReport:
    og = _open_graph_file(args.graph)
    window = Rect(args.re_min, args.re_max, args.im_min, args.im_max)
    ps = find_poles(og, window)
    return RunReport(
        command="poles",
        parameters={"re_min": args.re_min, "re_max": args.re_max,
                    "im_min": args.im_min, "im_max": args.im_max},
        results={
            "poles": _rows(ps.poles, "k", "multiplicity", "residual"),
            "real_axis_zeros": _rows(ps.real_axis_zeros, "k", "multiplicity", "residual"),
        },
        warnings=list(ps.warnings),
    )


def _csv(report: RunReport) -> str:
    """The eigenvalues or poles of a report, one CSV line each after the
    header; a pole's complex k takes two columns, re and im."""
    split = report.command == "poles"
    lines = ["re,im,multiplicity,residual" if split else "k,multiplicity,residual"]
    for r in report.results[report.command]:
        k = (r["k"].real, r["k"].imag) if split else (r["k"],)
        lines.append(",".join(dumps_deterministic(x)
                              for x in (*k, r["multiplicity"], r["residual"])))
    return "\n".join(lines)


def _cmd_quotient(args) -> RunReport:
    og = _open_graph_file(args.graph)
    spec = parse_symmetry_file(args.symmetry)
    k = _parse_k(args.k)
    names = [n.strip() for n in args.rep.split(",") if n.strip()]
    if not names:
        raise ParseError("no representation names given")

    def carrier(rho):
        if args.v is None:
            return None
        if not 0 <= args.v < rho.dim:
            raise ParseError(f"--v {args.v} is out of range: the representation has "
                             f"dimension {rho.dim}, so v runs from 0 to {rho.dim - 1}")
        v = np.zeros(rho.dim, dtype=complex)
        v[args.v] = 1.0
        return v

    resolved = [spec.resolve(n) for n in names]
    if len({tuple(a.group.elements) for a, _ in resolved}) != 1:
        raise ParseError("direct sums must combine representations of one group")
    matrix = quotient_scattering_sum(
        og, resolved[0][0], [(rho, 1, carrier(rho)) for _, rho in resolved], k=k
    )
    return RunReport(
        command="quotient",
        parameters={"rep": args.rep, "v": args.v, "k": k},
        results={"matrix": matrix, "dimension": matrix.shape[0]},
    )


def _cmd_check_isoscattering(args) -> RunReport:
    g1 = _open_graph_file(args.graph1)
    g2 = _open_graph_file(args.graph2)
    window = Rect(*args.window)
    report = transplantability_verdict(g1, g2, window, n_training=args.samples)
    results = {
        "verdict": report.verdict,
        "conjugacy_status": report.conjugacy.status,
        "solution_dimension": report.conjugacy.solution_dim,
        "isophasal": report.isophasal,
        "isophasal_deviation": report.isophasal_deviation,
        "isopolar": report.isopolar,
        "poles_1": _rows(report.poles_1.poles, "k", "multiplicity"),
        "poles_2": _rows(report.poles_2.poles, "k", "multiplicity"),
        "pole_pairing": {
            "matched": [{"k1": a, "k2": b, "distance": d}
                        for a, b, d in report.pairing.matched],
            "unmatched_1": list(report.pairing.unmatched_1),
            "unmatched_2": list(report.pairing.unmatched_2),
            "max_distance": report.pairing.max_distance,
        },
        "label": report.label,
    }
    if report.conjugacy.pi is not None:
        results["pi"] = report.conjugacy.pi
        results["conjugacy_residual"] = report.conjugacy.residual
    return RunReport(
        command="check-isoscattering",
        parameters={"window": list(args.window), "samples": args.samples},
        results=results,
        warnings=list(report.warnings),
    )


def _cmd_check_induced(args) -> RunReport:
    spec = parse_symmetry_file(args.symmetry)

    def induced(sub_name, rep_name):
        if sub_name not in spec.subgroups:
            raise ParseError(f"no subgroup named {sub_name!r}")
        emb, reps = spec.subgroups[sub_name]
        if rep_name not in reps:
            raise ParseError(f"subgroup {sub_name!r} has no representation {rep_name!r}")
        return induced_character(spec.group, emb, reps[rep_name].character())

    chi1 = induced(args.sub1, args.rep1)
    chi2 = induced(args.sub2, args.rep2)
    equal, dev = characters_equal(chi1, chi2)
    return RunReport(
        command="check-induced",
        parameters={"sub1": args.sub1, "rep1": args.rep1,
                    "sub2": args.sub2, "rep2": args.rep2},
        results={
            "equal": equal,
            "max_deviation": dev,
            "induced_1": list(chi1.values),
            "induced_2": list(chi2.values),
            "elements": list(spec.group.elements),
        },
    )


_HANDLERS = {
    "compute-s": _cmd_compute_s,
    "eigenvalues": _cmd_eigenvalues,
    "poles": _cmd_poles,
    "quotient": _cmd_quotient,
    "check-isoscattering": _cmd_check_isoscattering,
    "check-induced": _cmd_check_induced,
}


def run_command(argv: Sequence[str]) -> Tuple[Optional[RunReport], int]:
    """Run one CLI command; returns (report, exit code).

    Exit codes: 0 success, 1 domain error, 2 usage error. The report (JSON
    or CSV) goes to standard output, diagnostics to standard error.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return None, int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return None, 2

    started = time.perf_counter()
    try:
        report = _HANDLERS[args.command](args)
        report.inputs = {name: _digest(path) for name, path in vars(args).items()
                         if name in _INPUT_FILES}
    except (QGError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 1
    report.wall_time_s = time.perf_counter() - started

    if getattr(args, "emit", "json") == "csv":
        print(_csv(report))
    else:
        print(report.to_json(include_timing=args.timing))
    return report, 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:])[1])


if __name__ == "__main__":
    main()
