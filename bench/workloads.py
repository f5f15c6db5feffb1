"""The four benchmark workloads: seeded job lists, and the checks on them.

A job is one call into the library's public functions, the ones the CLI
commands use; the benchmark times ``Job.run`` and nothing else. Every
output is checked against the oracles of ``reference.py``. A check that has
passed once records the output, and a later round whose output is equal
counts as checked; any other output is checked against the oracles again.

Library functions are always looked up through their module at call time
(``resonances.find_poles``, not a name bound at import), so that the traced
run sees every call.
"""

from __future__ import annotations

import math
import os

import numpy as np

from qgscatter import cli, global_scattering, isoscattering, resonances, symmetry_rep
from qgscatter.contours import Rect
from qgscatter.graph_core import Dirichlet, Neumann, Vertex, attach_leads, build_graph

import inputs
import reference as ref

WORKLOADS = ("poles", "spectrum", "scatter", "isoscatter")

# The shipped graphs. The McDonald-Meyers pair carries placeholder geometry.
MM1 = os.path.join("data", "mcdonald_meyers_1.json")
MM2 = os.path.join("data", "mcdonald_meyers_2.json")
STAR = os.path.join("data", "s3_star.json")
STAR_SYMMETRY = os.path.join("data", "s3_sym.json")

# Fixed, seed-independent inputs of the counted failures.
POLES_DEEP = Rect(0.0, 4.0, -40.0, 0.0)
POLES_CLOSE_PAIR = Rect(4.0, 7.0, -0.6, 0.0)  # for inputs.weakly_coupled_pair()
K4 = (4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
SPECTRUM_CLOSE_PAIR = (17, 20, 15.0, (5.75, 6.2))  # generator seed, edges, length, window

# Pole searches: windows of width 0.7 and depth 0.6 laid along Re k >= 1;
# of each graph the first POLES_WINDOWS that hold exactly one zero (by the
# reference count) are kept, so every window costs one isolation and one
# refinement whatever the seed, and then the first window of twice the
# width that holds two zeros at least 2 POLES_PAIR_GAP apart in Re k, so
# that the subdivision of a cell winding twice is measured too. The number
# of zeros in a fixed window scatters by about one from graph to graph,
# which made the work of a round depend on the seed. Windows whose zeros
# come closer are left out: find_poles can lose one zero of a close pair
# (see CHANGES.md), on some seeds only; the fixed pair of
# inputs.weakly_coupled_pair() is kept as a counted failure instead.
# All graphs have total length 5, so the bulk rotation rate of D is the same.
POLES_EDGES = (6, 8, 11, 14, 17, 21, 25) * 2
POLES_WINDOWS = 6
POLES_CANDIDATES = 40
POLES_WIDTH = 0.7
POLES_DEPTH = 0.6
POLES_PAIR_GAP = 0.1
POLES_TOTAL_LENGTH = 5.0

# Compact spectra: (edges, total length, window width), windows laid along
# k >= 1, the first SPECTRUM_WINDOWS of each graph kept whose eigenvalues are
# all simple and a scan step apart (see _separated). The widths even out the
# cost: the eigenvalue count of a window follows the Weyl law L W / pi.
SPECTRUM_GRAPHS = ((10, 10.0, 7.5), (20, 15.0, 2.6), (30, 20.0, 1.2), (40, 25.0, 0.7),
                   (50, 30.0, 0.4)) * 2
SPECTRUM_WINDOWS = 8
SPECTRUM_CANDIDATES = 25
# Equilateral all-Neumann graphs with exact spectra: (name, vertices, edges, window).
EQUILATERAL = (
    ("path5", 5, [(i, i + 1) for i in range(4)], (0.5, 20.0)),
    ("k23", 5, [(a, b) for a in range(2) for b in range(2, 5)], (0.5, 20.0)),
    ("cube", 8, [(a, b) for a in range(8) for b in range(a + 1, 8)
                 if bin(a ^ b).count("1") == 1], (0.5, 10.0)),
)

# S(k) sweeps: (kind, edges, leads, k values per job). Larger systems get
# fewer k values so that the jobs cost about the same.
SCATTER_SLOTS = (("unitary", 10, 3, 120), ("unitary", 30, 4, 36), ("unitary", 100, 6, 4),
                 ("robin", 10, 3, 64), ("robin", 40, 4, 16), ("robin", 100, 6, 4))
SCATTER_REPEATS = 8
# Quotients: pinwheels of (arms, edges per arm, ring) and k values per job.
PINWHEEL_SLOTS = ((3, 2, True, 40), (4, 3, True, 30), (6, 2, False, 25), (5, 4, True, 20))
# k values per quotient job on the shipped S3 star, per representation
STAR_SWEEPS = (("1_G", 40), ("R_2d", 40), ("1_H", 70), ("1_H2", 70))

# Transplantability: commensurate lengths (whole multiples of a quantum),
# total length equal to the number of edges. Each graph is compared with a
# relabelled copy and with a perturbed copy over ISO_WINDOWS windows that
# hold exactly one zero of either graph's D, chosen as for the poles
# workload: the verdict runs one pole search on each graph, and a perturbed
# copy with zero or two zeros in the window made the jobs uneven. The zero
# must also lie deeper than ISO_AXIS_CLEARANCE: commensurate graphs have
# trapped states on the real axis, whose windows cost a third more, and how
# many of them a seed's windows met moved the 90th percentile of the job
# times by a tenth from seed to seed.
ISO_QUANTUM = 0.25
ISO_GRAPHS = ((5, 2), (6, 2), (7, 3), (5, 2), (6, 3), (7, 2)) * 4  # (edges, leads)
ISO_WINDOWS = 3
ISO_CANDIDATES = 80
ISO_TILE_WIDTH = 0.5
ISO_DEPTH = 1.0
ISO_AXIS_CLEARANCE = 0.02
ISO_FIXED_WINDOW = Rect(0.5, 2.0, -0.5, 0.0)  # for the S3 and McDonald-Meyers pairs
# k values for checking a conjugator, none of them a training, holdout or
# isophasal sample of the library
FRESH_KS = (1.2345, 4.321, 9.87654)
TRANSPLANTABLE = "transplantable (numerical evidence)"
NOT_TRANSPLANTABLE = "no transplantation on these lead sets"

# Each seeded open graph of a window group has a spare of the same kind after
# it, whose windows fill the group when the first graph has too few usable
# ones (a strongly coupled graph can have few one-zero windows).
SPARE_GRAPHS = 1

# Tolerances of the checks.
RESIDUAL_TOL = 1e-6      # |D(k)| relative to its size on a 1e-4 circle
COUNT_MARGIN = 1e-3      # inner/outer boxes around a pole window
SPECTRUM_HEIGHT = 0.1    # half height of the box around a spectrum window
EIGEN_TOL = 1e-6         # multiple eigenvalues are found to about eps^(1/m)
MATRIX_TOL = 1e-8


class Job:
    """One timed library call with the oracle that checks it.

    ``reference()`` is computed by ``prepare``, before any job is timed.
    ``check(output, reference)`` returns a list of problems. A job with
    ``known_failure`` set is a counted failure: its failing counts in
    ``failed`` and does not make the run incorrect. A job with a ``group``
    (name, wanted) is one of several candidates of which ``prepare`` keeps
    the first ``wanted`` that ``usable(reference)`` accepts.
    """

    def __init__(self, name, run, reference, check, fingerprint, known_failure=None,
                 group=None, usable=None):
        self.name = name
        self.run = run
        self._reference = reference
        self._check = check
        self._fingerprint = fingerprint
        self.known_failure = known_failure
        self.group = group
        self._usable = usable
        self.ref = None
        self._verified = []

    def prepare(self):
        self.ref = self._reference()
        return self._usable is None or self._usable(self.ref)

    def verify(self, output):
        """Problems with ``output``; an empty list means it is right."""
        if isinstance(output, Exception):
            return [f"{type(output).__name__}: {output}"]
        print_ = self._fingerprint(output)
        if print_ in self._verified:
            return []
        problems = self._check(output, self.ref)
        if not problems:
            self._verified.append(print_)
        return problems


def prepare(jobs):
    """Compute the references and settle the candidate groups: of each
    group, the first ``wanted`` usable candidates are kept and the rest are
    dropped (their references are not computed)."""
    kept, taken, wanted = [], {}, {}
    for job in jobs:
        if job.group is None:
            job.prepare()
            kept.append(job)
            continue
        name, count = job.group
        wanted[name] = count
        if taken.get(name, 0) < count and job.prepare():
            kept.append(job)
            taken[name] = taken.get(name, 0) + 1
    short = [name for name, count in wanted.items() if taken.get(name, 0) < count]
    if short:
        raise RuntimeError(f"too few usable candidates in {short}")
    return kept


def _pole_key(poles):
    return tuple((p.k, p.multiplicity) for p in poles)


# ---------------------------------------------------------------------------
# poles
# ---------------------------------------------------------------------------

def _zeros_in(pole_set):
    """Zeros the search reports in its window: poles and real-axis zeros."""
    w = pole_set.window
    real = [p for p in pole_set.real_axis_zeros if w.re_min <= p.k.real <= w.re_max]
    return list(pole_set.poles) + real


def _check_pole_set(pole_set, expected):
    system, lo, hi = expected[:3]
    w = pole_set.window
    problems = []
    for p in pole_set.poles:
        if not (p.k.imag < 0 and w.contains(p.k)):
            problems.append(f"pole {p.k} is not inside the window below the axis")
    for p in _zeros_in(pole_set):
        r = ref.relative_residual(system, p.k)
        if r > RESIDUAL_TOL:
            problems.append(f"{p.k} is not a zero of D (relative residual {r:.1e})")
    total = sum(p.multiplicity for p in _zeros_in(pole_set))
    if not lo <= total <= hi:
        problems.append(f"{total} zeros found, the reference counts {lo}..{hi}")
    return problems


def _pole_reference(og, window):
    """Reference zero count of a pole window; the top side is lifted above
    the axis so that real-axis zeros count as inside."""
    system = ref.BondSystem.of(og)
    lo, hi = ref.count_between(system, window.re_min, window.re_max, window.im_min,
                               window.im_max + 0.2, COUNT_MARGIN)
    return system, lo, hi


def _one_zero(expected):
    _, lo, hi = expected
    return lo == hi == 1


def _pair_reference(og, window):
    """As _pole_reference, plus the zero counts of the window's left and
    right parts without a gap of 2 POLES_PAIR_GAP around its centre."""
    system, lo, hi = _pole_reference(og, window)
    mid = (window.re_min + window.re_max) / 2
    try:
        parts = [ref.zero_count(system, a, b, window.im_min, window.im_max + 0.2)
                 for a, b in ((window.re_min, mid - POLES_PAIR_GAP),
                              (mid + POLES_PAIR_GAP, window.re_max))]
    except ref.Unresolved:  # a zero on a cut: not a usable window
        parts = None
    return system, lo, hi, parts


def _separated_pair(expected):
    _, lo, hi, parts = expected
    return lo == hi == 2 and parts == [1, 1]


def _poles_job(name, og, window, reference=_pole_reference, **kw):
    return Job(
        name,
        run=lambda: resonances.find_poles(og, window),
        reference=lambda: reference(og, window),
        check=_check_pole_set,
        fingerprint=lambda ps: (_pole_key(ps.poles), _pole_key(ps.real_axis_zeros)),
        **kw,
    )


def _tiles(start, width, n):
    return [(start + j * width, start + (j + 1) * width) for j in range(n)]


def poles_jobs(rng):
    mm1 = cli.parse_graph_file(MM1)
    jobs = [
        _poles_job("mm1", mm1, Rect(0.0, 8.0, -3.0, 0.0)),
        _poles_job("mm1-deep", mm1, POLES_DEEP,
                   known_failure="determinant overflow raised as BoundaryZero"),
        _poles_job("close-pair", inputs.weakly_coupled_pair(), POLES_CLOSE_PAIR,
                   known_failure="one zero of a close pair lost"),
    ]
    for g, edges in enumerate(POLES_EDGES):
        name = f"open{edges}.{g}"
        for spare in range(SPARE_GRAPHS + 1):
            og = inputs.unitary_open_graph(rng, edges, 1 + g % 3, POLES_TOTAL_LENGTH)
            for j, (a, b) in enumerate(_tiles(1.0, POLES_WIDTH, POLES_CANDIDATES)):
                jobs.append(_poles_job(f"{name}.{spare}-{j}", og, Rect(a, b, -POLES_DEPTH, 0.0),
                                       group=(name, POLES_WINDOWS), usable=_one_zero))
            for j, (a, b) in enumerate(_tiles(1.0, 2 * POLES_WIDTH, POLES_CANDIDATES // 2)):
                jobs.append(_poles_job(f"{name}.{spare}-pair{j}", og,
                                       Rect(a, b, -POLES_DEPTH, 0.0), _pair_reference,
                                       group=(f"{name}-pair", 1), usable=_separated_pair))
    return jobs


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def _check_exact_spectrum(window, exact):
    problems = []
    got = [(ev.k, ev.multiplicity) for ev in window.eigenvalues]
    for k, m in exact:
        if not any(abs(k - g) <= EIGEN_TOL * max(1.0, k) and m == gm for g, gm in got):
            problems.append(f"missing eigenvalue {k:.12g} of multiplicity {m}")
    if len(got) != len(exact):
        problems.append(f"{len(got)} eigenvalues found, {len(exact)} exist")
    return problems


def _check_counted_spectrum(window, expected):
    system, count, _ = expected
    problems = []
    for ev in window.eigenvalues:
        if not window.k_min <= ev.k <= window.k_max:
            problems.append(f"eigenvalue {ev.k} lies outside the window")
        r = ref.relative_residual(system, ev.k)
        if r > RESIDUAL_TOL:
            problems.append(f"{ev.k} is not a zero of D (relative residual {r:.1e})")
    total = sum(ev.multiplicity for ev in window.eigenvalues)
    if total != count:
        problems.append(f"{total} eigenvalues found, the reference counts {count}")
    return problems


def _scan_step(graph):
    # the scan step eigenvalues_compact documents: min(0.01, pi / (4 L_total))
    return min(0.01, math.pi / (4.0 * graph.total_length))


def _counted_reference(graph, k_min, k_max):
    """Zeros in a box around the window (all zeros of a compact graph are
    real) and the simple zeros located on a grid of half a scan step."""
    system = ref.BondSystem.of(graph)
    count = ref.zero_count(system, k_min, k_max, -SPECTRUM_HEIGHT, SPECTRUM_HEIGHT)
    return system, count, ref.real_zeros(system, k_min, k_max, _scan_step(graph) / 2)


def _separated(graph, k_min, k_max):
    """Whether every eigenvalue in the window is simple, at least a scan step
    from the next and clear of the window's ends. eigenvalues_compact misses
    both eigenvalues of a pair within one scan step (see CHANGES.md); that
    fault shows on some seeds and not on others, so such windows are left
    out, and one fixed pair (SPECTRUM_CLOSE_PAIR) is kept as a counted
    failure. Zeros are located to a quarter of a step, hence the margins."""
    step = _scan_step(graph)

    def usable(expected):
        _, count, zeros = expected
        return (count == len(zeros)
                and bool(np.all(np.diff(zeros) >= 1.5 * step))
                and all(k_min + step / 2 <= z <= k_max - step / 2 for z in zeros))
    return usable


def _spectrum_job(name, graph, window, reference, check, **kw):
    return Job(
        name,
        run=lambda: global_scattering.eigenvalues_compact(graph, window),
        reference=reference,
        check=check,
        fingerprint=lambda sw: tuple((ev.k, ev.multiplicity) for ev in sw.eigenvalues),
        **kw,
    )


def spectrum_jobs(rng):
    jobs = []
    for name, n_v, pairs, window in EQUILATERAL + (("k4", K4[0], K4[1], (0.5, 10.0)),):
        graph = inputs.equilateral_graph(n_v, pairs)
        jobs.append(_spectrum_job(
            name, graph, window,
            reference=lambda g=graph, w=window: ref.equilateral_spectrum(g, *w),
            check=_check_exact_spectrum,
            known_failure="double eigenvalue 3 pi missed" if name == "k4" else None,
        ))
    seed, edges, total, window = SPECTRUM_CLOSE_PAIR
    graph = inputs.compact_graph(np.random.default_rng(seed), edges, total)
    jobs.append(_spectrum_job(
        "close-pair", graph, window,
        reference=lambda g=graph, w=window: _counted_reference(g, *w),
        check=_check_counted_spectrum,
        known_failure="both eigenvalues of a close pair missed",
    ))
    for g, (edges, total, width) in enumerate(SPECTRUM_GRAPHS):
        graph = inputs.compact_graph(rng, edges, total)
        for j, window in enumerate(_tiles(1.0, width, SPECTRUM_CANDIDATES)):
            jobs.append(_spectrum_job(
                f"compact{edges}.{g}-{j}", graph, window,
                reference=lambda g=graph, w=window: _counted_reference(g, *w),
                check=_check_counted_spectrum,
                group=(f"compact{edges}.{g}", SPECTRUM_WINDOWS),
                usable=_separated(graph, *window),
            ))
    return jobs


# ---------------------------------------------------------------------------
# scatter
# ---------------------------------------------------------------------------

def _sweep(rng, n):
    """Real k values and conjugate pairs off the axis, so S(k) S(conj k)^+ = I
    can be checked within one sweep."""
    real = list(rng.uniform(0.5, 12.0, size=n - 2 * (n // 4)))
    off = [complex(x, -y) for x, y in zip(rng.uniform(0.5, 12.0, size=n // 4),
                                          rng.uniform(0.05, 0.5, size=n // 4))]
    return real + off + [z.conjugate() for z in off]


def _check_sweep(mats, expected):
    ks, system, reordered, perm = expected
    problems = []
    by_k = dict(zip(ks, mats))
    for k, s in by_k.items():
        s_ref = system.s_matrix(k)
        scale = max(1.0, float(np.linalg.norm(s_ref)))
        if np.linalg.norm(s - s_ref) > MATRIX_TOL * scale:
            problems.append(f"S({k}) differs from the reference S")
        if k.imag == 0 and np.linalg.norm(s @ s.conj().T - np.eye(len(s))) > MATRIX_TOL:
            problems.append(f"S({k}) is not unitary")
        if k.imag < 0:
            partner = by_k[k.conjugate()]
            defect = np.linalg.norm(s @ partner.conj().T - np.eye(len(s)))
            if defect > MATRIX_TOL * scale * max(1.0, float(np.linalg.norm(partner))):
                problems.append(f"S({k}) S(conj k)^+ is not I (defect {defect:.1e})")
    # relabelling the leads conjugates S by the permutation
    p = np.eye(len(perm))[perm]
    for k in ks[:2]:
        s_perm = global_scattering.scattering_matrix(reordered, k).s
        if np.linalg.norm(s_perm - p @ by_k[k] @ p.T) > MATRIX_TOL:
            problems.append(f"reordering the leads does not give P S P^T at {k}")
    return problems


def _scatter_job(name, og, ks, rng):
    perm = [int(x) for x in rng.permutation(og.n_leads)]
    reordered = og.with_lead_order(perm)
    return Job(
        name,
        run=lambda: [global_scattering.scattering_matrix(og, k).s for k in ks],
        reference=lambda: (ks, ref.BondSystem.of(og), reordered, perm),
        check=_check_sweep,
        fingerprint=lambda mats: tuple(m.tobytes() for m in mats),
    )


def _check_quotients(mats, expected):
    ks, system = expected
    problems = []
    for k, q in zip(ks, mats):
        if q.shape[0] == 0:
            problems.append(f"empty quotient at {k}")
            continue
        if np.linalg.norm(q @ q.conj().T - np.eye(len(q))) > MATRIX_TOL:
            problems.append(f"quotient at {k} is not unitary")
        eig_s = np.linalg.eigvals(system.s_matrix(k))
        for z in np.linalg.eigvals(q):
            if np.min(np.abs(eig_s - z)) > MATRIX_TOL:
                problems.append(f"quotient eigenvalue {z} at {k} is not one of S")
    return problems


def _quotient_job(name, og, action, rep, ks):
    return Job(
        name,
        run=lambda: [symmetry_rep.quotient_scattering(og, action, rep, None, k=k) for k in ks],
        reference=lambda: (ks, ref.BondSystem.of(og)),
        check=_check_quotients,
        fingerprint=lambda mats: tuple(m.tobytes() for m in mats),
    )


def scatter_jobs(rng):
    star = cli.parse_graph_file(STAR)
    spec = cli.parse_symmetry_file(STAR_SYMMETRY)
    jobs = []
    for rep_name, n_k in STAR_SWEEPS:
        action, rep = spec.resolve(rep_name)
        ks = list(rng.uniform(0.5, 12.0, size=n_k))
        jobs.append(_quotient_job(f"s3-star-{rep_name}", star, action, rep, ks))
    for r in range(SCATTER_REPEATS):
        for kind, edges, leads, n_k in SCATTER_SLOTS:
            total = edges * 1.0
            if kind == "unitary":
                og = inputs.unitary_open_graph(rng, edges, leads, total)
            else:
                og = inputs.robin_open_graph(rng, edges, leads, total, n_robin=edges // 6 + 1)
            jobs.append(_scatter_job(f"{kind}{edges}.{r}", og, _sweep(rng, n_k), rng))
        for arms, spokes, ring, n_k in PINWHEEL_SLOTS:
            og, action = inputs.pinwheel(rng, arms, spokes, ring)
            rep = inputs.cyclic_irrep(action.group, int(rng.integers(0, arms)))
            ks = list(rng.uniform(0.5, 12.0, size=n_k))
            jobs.append(_quotient_job(f"pinwheel{arms}x{spokes}.{r}", og, action, rep, ks))
    return jobs


# ---------------------------------------------------------------------------
# isoscatter
# ---------------------------------------------------------------------------

def _check_verdict(report, expected):
    verdict, sys1, sys2, poles1_expected, poles2_expected, _ = expected
    if report.verdict != verdict:
        return [f"verdict {report.verdict!r}, expected {verdict!r}"]
    problems = (_check_pole_set(report.poles_1, poles1_expected)
                + _check_pole_set(report.poles_2, poles2_expected))
    if verdict != TRANSPLANTABLE:
        return problems
    pi = report.conjugacy.pi
    for k in FRESH_KS:
        s1, s2 = sys1.s_matrix(k), sys2.s_matrix(k)
        if np.linalg.norm(pi @ s1 - s2 @ pi) > MATRIX_TOL:
            problems.append(f"Pi S1 != S2 Pi at fresh k = {k}")
    if abs(np.linalg.det(pi)) < 1e-8:
        problems.append("the conjugator is singular")
    ks1 = sorted((p.k for p in report.poles_1.poles), key=lambda z: (z.real, z.imag))
    ks2 = sorted((p.k for p in report.poles_2.poles), key=lambda z: (z.real, z.imag))
    if not report.isopolar or len(ks1) != len(ks2) or any(
            abs(a - b) > 1e-6 for a, b in zip(ks1, ks2)):
        problems.append("pole sets of a conjugate pair differ")
    return problems


def _axis_zeros(system, window):
    """Zeros of D on the real axis or within ISO_AXIS_CLEARANCE below it, in
    the window's span of Re k; None when a zero lies on the box."""
    try:
        return ref.zero_count(system, window.re_min, window.re_max,
                              -ISO_AXIS_CLEARANCE, window.im_max + 0.2)
    except ref.Unresolved:
        return None


def _iso_reference(og1, og2, verdict, window):
    poles = [_pole_reference(og, window) for og in (og1, og2)]
    return (verdict, ref.BondSystem.of(og1), ref.BondSystem.of(og2), *poles,
            [_axis_zeros(p[0], window) for p in poles])


def _clear_single_zeros(expected):
    """One zero of either graph's D in the window, and none near the axis."""
    return _one_zero(expected[3]) and _one_zero(expected[4]) and expected[5] == [0, 0]


def _iso_job(name, og1, og2, verdict, window, **kw):
    return Job(
        name,
        run=lambda: isoscattering.transplantability_verdict(og1, og2, window),
        reference=lambda: _iso_reference(og1, og2, verdict, window),
        usable=_clear_single_zeros,
        check=_check_verdict,
        fingerprint=lambda rep: (rep.verdict, None if rep.conjugacy.pi is None
                                 else rep.conjugacy.pi.tobytes(),
                                 _pole_key(rep.poles_1.poles), _pole_key(rep.poles_2.poles)),
        **kw,
    )


def _quotient_pair():
    """The paper's S3 example: the three-lead Neumann star against one free
    lead beside two hard walls."""
    star = build_graph([Vertex("c", Neumann())], [], pending_leads={"c": 3})
    walls = build_graph([Vertex("n", Neumann()), Vertex("d1", Dirichlet()),
                         Vertex("d2", Dirichlet())], [],
                        pending_leads={"n": 1, "d1": 1, "d2": 1})
    return attach_leads(star, ["c"] * 3), attach_leads(walls, ["n", "d1", "d2"])


def _perturbed(og, rng):
    """Copy of ``og`` with one edge made one length quantum longer."""
    edges = list(og.graph.edges)
    j = int(rng.integers(0, len(edges)))
    e = edges[j]
    edges[j] = type(e)(e.id, e.from_vertex, e.to_vertex, e.length + ISO_QUANTUM)
    graph = build_graph(og.graph.vertices, edges,
                        pending_leads={l.at: og.lead_count_at(l.at) for l in og.leads})
    return attach_leads(graph, [l.at for l in og.leads], lead_ids=[l.id for l in og.leads])


def isoscatter_jobs(rng):
    mm1, mm2 = cli.parse_graph_file(MM1), cli.parse_graph_file(MM2)
    star, walls = _quotient_pair()
    jobs = [
        _iso_job("s3-quotient-pair", star, walls, TRANSPLANTABLE, ISO_FIXED_WINDOW),
        _iso_job("mcdonald-meyers", mm1, mm2, NOT_TRANSPLANTABLE, ISO_FIXED_WINDOW),
    ]
    for g, (edges, leads) in enumerate(ISO_GRAPHS):
        for spare in range(SPARE_GRAPHS + 1):
            og = inputs.commensurate_open_graph(rng, edges, leads, float(edges), ISO_QUANTUM)
            order = [int(x) for x in rng.permutation(leads)]
            if order == sorted(order):
                order = order[1:] + order[:1]
            relabelled, perturbed = og.with_lead_order(order), _perturbed(og, rng)
            # both comparisons test the same candidates
            for j, (a, b) in enumerate(_tiles(0.5, ISO_TILE_WIDTH, ISO_CANDIDATES)):
                window = Rect(a, b, -ISO_DEPTH, 0.0)
                jobs.append(_iso_job(f"relabelled{edges}.{g}.{spare}-{j}", og, relabelled,
                                     TRANSPLANTABLE, window,
                                     group=(f"relabelled{edges}.{g}", ISO_WINDOWS)))
                jobs.append(_iso_job(f"perturbed{edges}.{g}.{spare}-{j}", og, perturbed,
                                     NOT_TRANSPLANTABLE, window,
                                     group=(f"perturbed{edges}.{g}", ISO_WINDOWS)))
    return jobs


JOB_LISTS = {
    "poles": poles_jobs,
    "spectrum": spectrum_jobs,
    "scatter": scatter_jobs,
    "isoscatter": isoscatter_jobs,
}


def build(workload, seed):
    """The job list of one round of ``workload`` for ``seed``."""
    return JOB_LISTS[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]))
