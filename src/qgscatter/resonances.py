"""Resonance poles: zeros of the interior determinant in a complex window.

Two routes find them, chosen by the graph, not by an option. When every
length is a multiple of one power of two l0, the conditions do not depend
on k and the degree sum_b L_b / l0 is at most
``global_scattering._MAX_DEGREE``, D(k) is a polynomial in exp(ik l0),
and the Assembly keeps the roots of its certified coefficients, clustered
by multiplicity, for every window (:attr:`Assembly._root_set`). A window
then takes the clusters whose periodic copies it holds and polishes each
with one Newton run for a zero of the cluster's size
(:func:`_root_zeros`); a cluster of two or more roots must also wind its
size on a circle that holds no other root. A window where a check fails,
and every other graph, goes to the contour search below
(:func:`_contour_poles`).

The contour search subdivides the window into quadrants, level by level,
counting zeros per cell with the argument principle. The samples that
resolve the contour of a cell of winding w >= 1 also give, at no further
determinant, the power sums s_p of the zeros inside, p = 1 .. w (Delves
and Lyness, Math. Comp. 21 (1967) 543;
:meth:`~qgscatter.contours.QuadLevel.power_sums`),
and Newton's identities turn them into a polynomial whose w roots start w
Newton runs, at any cell size. The cell's zeros are taken when every run
ends inside the contour that was wound, farther than ``_REAL_AXIS_TOL``
from it, and, for w >= 2, when small circles around the distinct points
found wind w times in all; otherwise the cell is split. The roots of w >=
2 power sums are ill-conditioned in w, and a cell of winding w >= 2 whose
roots do not all lie inside its contour is split with no Newton run; a
cell that winds once runs from its root, moved onto the contour if it
lies outside. Two zeros on a contour, or a hair inside it, within half a
sample segment of each other turn the phase of D by a whole turn that
the samples do not see, and the cell winds one fewer; a run ending next
to a contour that did not meet a zero, or a zero the cell did not find
in a circle of one sample spacing around a zero found on the contour of
a cell wound inflated, shows such a pair, and the cell is split to part
it. After merging, a circle gives the multiplicity of every zero that
its cell's check did not count: a cell that winds once holds a simple
zero, or half of a zero of even multiplicity on its contour, along which
the phase of D does not jump.

The cells of a level are wound together (:class:`~qgscatter.contours.QuadLevel`):
a child cell inherits the two resolved half-sides of its parent that it
lies on, and the four siblings share the four new half-edges from the
parent's centre to its side midpoints, so a split resolves 4 new half-edges
instead of 16 sides, and the new half-edges of a whole level cost one batch
of determinants per bisection depth. A half-edge that passes too close to a
zero fails only the cells that share it. The level then winds every failed
cell again, inflated slightly, all of them in one retry round per
inflation, and gives the power sums of the inflated contour
(:meth:`~qgscatter.contours.QuadLevel.contour`), so zeros sitting exactly
on the requested window edge (commonly on the real axis) are still
captured by the cells they border.

The circles of all polished zeros are wound together in the same way by
the one circle entry the spectrum uses too, from 8 points each
(:func:`~qgscatter.contours.first_circle_windings`); a circle that meets
a zero is retried with a radius 1.4 times larger, and round i winds the
i-th radius of every zero still unresolved, in one pass.
The Newton runs from the moment starts of a level's cells, and then the
circles inside those of winding w >= 2, are likewise one pass per level.

Real-axis zeros of the determinant are not scattering poles; they mark
states decoupled from the leads and are reported separately. Any other
zero within ``_REAL_AXIS_TOL`` of a side of the window is an edge zero,
dropped with a warning, so that rounding decides nothing.

Both routes, and :func:`refine_pole`, polish their starts with one Newton
pass (:func:`_polish`), and both build their :class:`PoleSet` with
:func:`_pole_set`.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from .contours import _CONTOURS_TRIED, QuadLevel, Rect, first_circle_windings, rect_winding
from .errors import BoundaryZero, Diverged, NonHolomorphic
from .global_scattering import (_CLUSTER_RADIUS, _DEDUPE_RADIUS, _REAL_AXIS_TOL, Assembly,
                                _assembly)
from .graph_core import LinearAB, OpenGraph

_MIN_CELL = 1e-6  # cells this small are not split further
_RESIDUAL_TOL = 1e-8  # largest |D| at an accepted Newton point
_BOUNDARY_SAMPLES = 64  # initial samples of a cell side
_NEWTON_MAX_ITER = 80  # Newton steps from a moment start or a conjugate graph's zero
_NEWTON_STEP_TOL = 1e-12  # Newton stops once a step is this small


def _grown(radius):
    """Radii of the circles around a point, tried in turn while a circle
    meets a zero: ``radius``, then each 1.4 times the last."""
    return tuple(itertools.accumulate(itertools.repeat(1.4, _CONTOURS_TRIED - 1), operator.mul,
                                      initial=radius))


_CIRCLE_RADII = _grown(max(10 * _DEDUPE_RADIUS, 1e-6))  # multiplicity circles


@dataclass(frozen=True)
class Pole:
    k: complex
    multiplicity: int
    residual: float
    iterations: int


@dataclass(frozen=True)
class PoleSet:
    """Located poles, sorted by (Re k, Im k).

    ``real_axis_zeros`` lists determinant zeros on the real axis (decoupled
    bound states), which are excluded from ``poles``. ``edge_zeros`` lists the
    zeros off the real axis within ``_REAL_AXIS_TOL`` of a side of the
    window, which are dropped, each with one warning. ``evaluations`` counts
    the determinants D(k) the search computed: the samples of the root set
    when this search built it, contour samples, multiplicity circles and
    residuals (Newton's steps solve with the matrix instead), as the
    increase of :attr:`Assembly.evaluations` over the search. A zero read
    from the root set costs one residual, and a circle when its cluster
    holds two or more roots; a zero found in a cell that winds once costs
    one residual and its circle.
    """

    poles: Tuple[Pole, ...]
    window: Rect
    real_axis_zeros: Tuple[Pole, ...] = ()
    warnings: Tuple[str, ...] = ()
    evaluations: int = field(default=0, compare=False)
    edge_zeros: Tuple[Pole, ...] = ()

    def ks(self) -> np.ndarray:
        return np.array([p.k for p in self.poles])


def winding_number(f: Callable[[complex], complex], rect: Rect, samples: int = 64) -> int:
    """Zeros-minus-poles count of f inside the rectangle (argument principle).

    ``f`` takes and returns one complex number. Boundary sampling refines
    adaptively until consecutive phase steps stay below pi/2; raises
    :class:`BoundaryZero` if f vanishes on the contour.
    """
    return rect_winding(lambda zs: np.array([f(complex(z)) for z in zs], dtype=complex),
                        rect, samples)


def refine_pole(og: OpenGraph, k0, *,
                trust_radius: Optional[float] = None) -> Tuple[complex, float, int]:
    """Newton-refine a pole candidate with the pole search's Newton
    (:func:`_polish`); returns (k*, |D(k*)|, iterations).

    Raises :class:`Diverged` when the iterates leave a ball of radius
    10 x trust_radius around the start (trust_radius defaults to 1).
    """
    _require_holomorphic(og)
    limit = 10.0 * (trust_radius if trust_radius is not None else 1.0)
    ((k, residual, iterations),) = _polish(_assembly(og), [k0], [limit])
    if residual == np.inf:
        raise Diverged(
            f"Newton left the trust region (|k - k0| = {abs(k - k0):.3e} > {limit:.3e})"
        )
    return k, residual, iterations


def _require_holomorphic(og: OpenGraph):
    for v in og.graph.vertices:
        if isinstance(v.condition, LinearAB):
            raise NonHolomorphic(
                f"vertex {v.id!r} carries k-dependent linear A/B conditions; "
                "pole searches and verdicts require k-independent conditions"
            )


def _rate(asm: Assembly) -> float:
    """Bulk rotation rate of D along a contour: the total directed-bond
    length, plus 1."""
    return asm.total_bond_length + 1.0


def _circle_windings(asm: Assembly, circles) -> List[Optional[int]]:
    """:func:`~qgscatter.contours.first_circle_windings` of D on each
    (centre, radii), at the bulk rate of D alone."""
    return first_circle_windings(asm.interior_det_many, circles, rate_hint=_rate(asm))


def _polish(asm: Assembly, starts, trusts,
            multiplicities=None) -> List[Tuple[complex, float, int]]:
    """Newton on D from each start, within its own trust radius and for a
    zero of its own multiplicity (1 for every start by default; at most
    ``_NEWTON_MAX_ITER`` steps, step tolerance ``_NEWTON_STEP_TOL``), then
    |D| at every run that stayed inside, in one batched call.

    Returns (k, residual, iterations) per start; a run that left its trust
    radius has residual inf and k the iterate that left.
    """
    runs = [asm.newton(k0, max_iter=_NEWTON_MAX_ITER, tol=_NEWTON_STEP_TOL, trust=trust,
                       multiplicity=m)
            for k0, trust, m in zip(starts, trusts, multiplicities or itertools.repeat(1))]
    inside = [k for k, _, ok in runs if ok]
    residuals = iter(asm.interior_det_many(inside) if inside else ())
    return [(k, abs(complex(next(residuals))) if ok else np.inf, iterations)
            for k, iterations, ok in runs]


def _place(window: Rect, k: complex) -> str:
    """Where :func:`_pole_set` files a zero at k: "real" when |Im k| <=
    ``_REAL_AXIS_TOL``, else "pole" inside the window farther than
    ``_REAL_AXIS_TOL`` from every side, "edge" within that distance of a
    side, inside or out, and "outside" beyond."""
    if abs(k.imag) <= _REAL_AXIS_TOL:
        return "real"
    if window.contains(k, _REAL_AXIS_TOL):
        return "pole"
    return "edge" if window.inflated(_REAL_AXIS_TOL).contains(k) else "outside"


def _pole_set(window: Rect, zeros, warnings: list, evaluations: int) -> PoleSet:
    """The :class:`PoleSet` of ``zeros`` (:class:`Pole` records) in ``window``.

    Each zero is filed by :func:`_place`. A real-axis zero is snapped to the
    axis. An edge zero is dropped with one warning that names the side and
    prints k snapped onto it to 12 digits, so that which side of the line
    rounding put it on decides nothing; a zero outside is dropped with a
    warning. Warnings are appended to ``warnings``.
    """
    poles, real_axis, edge = [], [], []
    for record in zeros:
        k = record.k
        place = _place(window, k)
        if place == "real":
            real_axis.append(replace(record, k=complex(k.real, 0.0)))
        elif place == "pole":
            poles.append(record)
        elif place == "edge":
            edge.append(record)
            # the nearest side, as (distance, name, k snapped onto it)
            _, side, on = min((k.imag - window.im_min, "bottom", complex(k.real, window.im_min)),
                              (window.re_max - k.real, "right", complex(window.re_max, k.imag)),
                              (window.im_max - k.imag, "top", complex(k.real, window.im_max)),
                              (k.real - window.re_min, "left", complex(window.re_min, k.imag)))
            warnings.append(f"zero {on:.12g} lies on the {side} side of the window; dropped")
        else:
            warnings.append(f"refined pole {k} lies outside the window; dropped")
    poles.sort(key=lambda p: (p.k.real, p.k.imag))
    real_axis.sort(key=lambda p: p.k.real)
    return PoleSet(
        poles=tuple(poles),
        window=window,
        real_axis_zeros=tuple(real_axis),
        warnings=tuple(warnings),
        evaluations=evaluations,
        edge_zeros=tuple(edge),
    )


def find_poles(og: OpenGraph, window: Rect) -> PoleSet:
    """Locate all zeros of the interior determinant inside the window.

    A zero with |Im k| <= ``_REAL_AXIS_TOL`` is a real-axis zero
    (``real_axis_zeros``). Any other zero within ``_REAL_AXIS_TOL`` of a side
    of the window, inside or out, is dropped to ``edge_zeros`` with one
    warning naming the side and k snapped onto it to 12 significant digits
    (k = 0-0.203258178195j on the left side of [0, 8] x [-3, 0]), whichever
    side of the line rounding put it on.

    A graph whose lengths are multiples of one power of two l0, with
    k-independent conditions and degree sum_b L_b / l0 at most
    ``global_scattering._MAX_DEGREE``, has a root set: the first search of
    its Assembly takes D at the least power of two >= degree + 2 points,
    counted in ``evaluations``, and every window reads its zeros from the
    roots (see the module docstring), at any depth. A window where a check
    of that route fails, and every other graph, takes the contour search,
    counted on top of what the root route spent.

    The contour search is fixed by the module constants ``_MIN_CELL``,
    ``_DEDUPE_RADIUS``, ``_RESIDUAL_TOL``, ``_BOUNDARY_SAMPLES``,
    ``_REAL_AXIS_TOL``, ``_NEWTON_MAX_ITER`` and ``_NEWTON_STEP_TOL``, and
    by ``contours._CONTOURS_TRIED`` and ``contours._JITTER``, which set the
    retries of cells and circles that meet a zero. Every cell that winds w
    >= 1 times starts w Newton runs from the roots of the power sums of its
    zeros (see the module docstring), whatever its size and w; a run may go
    10 cell diameters from its start. The root route adds
    ``global_scattering._ALIAS_TOL`` and ``_CLUSTER_RADIUS``.

    The graph's :class:`Assembly` comes from the memo of the last four
    graphs of :func:`~qgscatter.global_scattering.scattering_matrix`, so
    windows of one graph object in a row set it up once, root set included.

    Raises :class:`~qgscatter.errors.DeterminantOverflow` when the contour
    search finds D(k) not finite on a contour (windows reaching far below
    the real axis).
    """
    return _find_poles(_assembly(og), window)


def _find_poles(asm: Assembly, window: Rect) -> PoleSet:
    """:func:`find_poles` on a graph's Assembly: the zeros of its root set
    (:func:`_root_zeros`), or, where there is none or a check fails, the
    contour search (:func:`_contour_poles`)."""
    _require_holomorphic(asm.og)
    start = asm.evaluations
    zeros = _root_zeros(asm, window)
    if zeros is None:
        return replace(_contour_poles(asm, window), evaluations=asm.evaluations - start)
    return _pole_set(window, zeros, [], asm.evaluations - start)


def _root_zeros(asm: Assembly, window: Rect) -> Optional[List[Pole]]:
    """The zeros of D in the window, and within ``_REAL_AXIS_TOL`` of it,
    from :attr:`Assembly._root_set`; None when the Assembly has no root set
    or a check fails.

    Every cluster of roots is shifted by whole periods to cover the window
    inflated by ``_CLUSTER_RADIUS``, and each copy inside starts one Newton
    run (:func:`_polish`) from its centroid, for a zero of the cluster's
    size, with the cluster radius as trust radius. The checks: every run
    stays inside with a residual of at most ``_RESIDUAL_TOL``, no two end
    within ``_DEDUPE_RADIUS`` of each other, and a circle around each zero
    of a cluster of two or more roots, of half the distance from its start
    to the nearest other copy or 1 / sum_b L_b if that is less, winds its
    size.
    """
    roots = asm._root_set
    if roots is None:
        return None
    period, _, centres, sizes = roots
    near = window.inflated(_CLUSTER_RADIUS)
    shifts = period * np.arange(np.floor(near.re_min / period) - 1,
                                np.ceil(near.re_max / period) + 2)
    ks = (centres[:, None] + shifts).ravel()
    inside = ((near.re_min < ks.real) & (ks.real < near.re_max)
              & (near.im_min < ks.imag) & (ks.imag < near.im_max))
    starts, sizes = ks[inside], np.repeat(sizes, len(shifts))[inside]
    runs = _polish(asm, starts, [_CLUSTER_RADIUS] * len(starts), sizes.tolist())
    found = np.array([k for k, _, _ in runs], dtype=complex)
    a, b = np.triu_indices(len(found), 1)
    multiple = np.flatnonzero(sizes > 1)
    # half the distance from each multiple start to the nearest other copy,
    # at most 1 / sum_b L_b, over which |D| changes by a factor of about e
    apart, cap = np.abs(starts[multiple, None] - ks) / 2, 1 / asm.total_bond_length
    radii = np.where(apart > 0, apart, cap).min(axis=1, initial=cap)
    if (any(residual > _RESIDUAL_TOL for _, residual, _ in runs)
            or (np.abs(found[a] - found[b]) <= _DEDUPE_RADIUS).any()
            or _circle_windings(asm, [(found[i], (r,)) for i, r in zip(multiple, radii)])
            != sizes[multiple].tolist()):
        return None
    near = window.inflated(_REAL_AXIS_TOL)
    return [Pole(k=k, multiplicity=m, residual=residual, iterations=iterations)
            for (k, residual, iterations), m in zip(runs, sizes.tolist()) if near.contains(k)]


def _contour_poles(asm: Assembly, window: Rect) -> PoleSet:
    """The contour search of :func:`find_poles` on a graph's Assembly (see
    the module docstring), whatever the graph's lengths."""
    warnings: list = []
    start = asm.evaluations
    rate = _rate(asm)
    polished = []
    level = QuadLevel(window)
    while level.cells:
        # a cell whose contour met a zero is wound inflated (level.contour)
        windings = level.wind(asm.interior_det_many, _BOUNDARY_SAMPLES, rate_hint=rate)
        # cells to run Newton in as (index, winding, cell, contour, starts),
        # and cells refused as (index, winding, cell, residual); the level's
        # warnings by cell, given in cell order
        newton, refused, notes = [], [], {}
        for i, (original, w) in enumerate(zip(level.cells, windings)):
            if isinstance(w, str):
                raise BoundaryZero(w)
            if w < 0:
                notes[i] = f"negative winding {w} over {original}; non-holomorphic input?"
            elif w > 0:
                cell = level.contour(i)
                starts = _moment_starts(cell, level.power_sums(i, w))
                # The roots of w >= 2 power sums are ill-conditioned in w; one
                # moved onto the contour shows that they missed the zeros.
                if starts is not None and (w == 1 or all(map(cell.contains, starts))):
                    newton.append((i, w, original, cell, starts))
                else:
                    refused.append((i, w, original, np.inf))
        if newton:
            # Newton from every start, then the circles of the cells
            # checked below, each in one pass
            runs = iter(_polish(asm, [k for *_, starts in newton for k in starts],
                                [10.0 * max(original.diameter, 10 * _MIN_CELL)
                                 for _, w, original, _, _ in newton for _ in range(w)]))
            found = [[(k, residual, iterations, None) for k, residual, iterations
                      in itertools.islice(runs, w)] for _, w, *_ in newton]
            # The runs found the cell's zeros when each ends inside the
            # contour that was wound, farther than _REAL_AXIS_TOL from it: a
            # zero on the contour fails it, so one next to it is one of a
            # close pair on it whose phase jumps of pi the samples took for
            # a whole turn, and the cell is split to part them.
            ok = [all(residual <= _RESIDUAL_TOL and cell.contains(k, _REAL_AXIS_TOL)
                      for k, residual, _, _ in zeros)
                  for (_, _, _, cell, _), zeros in zip(newton, found)]
            # A cell wound inflated, after its contour met a zero, holds the
            # zeros on that contour a hair inside the inflated one, where a
            # close pair still looks like one zero. A circle around each
            # point found on the cell's own contour, as wide as an initial
            # sample segment can be (a sixteenth of the diameter), must hold
            # the zeros found near it and no other. The distinct points of
            # w >= 2 runs must hold w zeros by their multiplicity circles,
            # else the runs missed one; the run of a cell that winds once
            # may end at a double zero on the cell's own contour, whose
            # second turn the inflated contour misses too.
            check = {}
            for j, (_, w, original, _, _) in enumerate(newton):
                if ok[j] and original.diameter > _MIN_CELL:
                    points = _merge(found[j])
                    edge = [k for k, *_ in points if not original.contains(k, _REAL_AXIS_TOL)]
                    if w > 1 or edge:
                        check[j] = points, edge
            near = {j: newton[j][3].diameter / (_BOUNDARY_SAMPLES // 4) for j in check}
            counts = iter(_circle_windings(
                asm, [(k, _CIRCLE_RADII) for points, _ in check.values() for k, *_ in points]
                + [(k, _grown(near[j])) for j, (_, edge) in check.items() for k in edge]))
            counted = {j: [next(counts) for _ in points] for j, (points, _) in check.items()}
            for j, (points, edge) in check.items():
                inside = [sum(m for (q, *_), m in zip(points, counted[j]) if abs(q - k) <= near[j])
                          for k in edge]
                ok[j] = (None not in counted[j]
                         and (newton[j][1] == 1 or sum(counted[j]) == newton[j][1])
                         and [next(counts) for _ in edge] == inside)
                found[j] = [(*record[:3], m) for record, m in zip(points, counted[j])]
            for (i, w, original, _, _), good, zeros in zip(newton, ok, found):
                if good:
                    polished += zeros
                else:
                    refused.append((i, w, original, max(r for _, r, _, _ in zeros)))
        # a refused cell is split, so that its zeros are separated
        split = []
        for i, w, original, residual in refused:
            if original.diameter > _MIN_CELL:
                split.append(i)
            else:
                notes[i] = (f"cell at {original.center} (winding {w}) could not be "
                            f"refined; residual {residual:.3e}")
        warnings += [notes[i] for i in sorted(notes)]
        level = level.split(sorted(split))

    # The multiplicity of every zero whose cell's check did not count it,
    # its circles wound together. A cell that winds once may have found
    # half of a zero of even multiplicity on its contour, whose phase jump
    # the contour does not see.
    merged = _merge(polished)
    unknown = [k for k, _, _, mult in merged if mult is None]
    wound = dict(zip(unknown, _circle_windings(asm, [(k, _CIRCLE_RADII) for k in unknown])))
    zeros = []
    for k_star, residual, iterations, mult in merged:
        if mult is None:
            mult = wound[k_star]
        if mult is None:
            mult = 1
            warnings.append(f"multiplicity circle at {k_star} kept hitting zeros; assumed 1")
        if mult < 1:
            warnings.append(f"refined point {k_star} shows no enclosed zero; dropped")
            continue
        zeros.append(Pole(k=k_star, multiplicity=mult, residual=residual, iterations=iterations))
    return _pole_set(window, zeros, warnings, asm.evaluations - start)


def _moment_starts(cell: Rect, sums) -> Optional[np.ndarray]:
    """The zeros whose power sums, in the units of
    :meth:`~qgscatter.contours.QuadLevel.power_sums` on ``cell``, are
    ``sums``: the roots of the monic polynomial whose coefficients Newton's
    identities give, c_p = -(s_1 c_(p-1) + ... + s_p c_0) / p. A root
    outside the cell is moved onto its contour: the midpoint rule sees a
    zero close to the contour from a distance of about the spacing of the
    samples there. None when a coefficient overflows (thousands of zeros).
    """
    c = [1.0 + 0.0j]
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(1, len(sums) + 1):
            c.append(-sum(c[p - q] * sums[q - 1] for q in range(1, p + 1)) / p)
    if not np.isfinite(c).all():
        return None
    ks = cell.center + cell.diameter / 2 * np.roots(c)
    return (np.clip(ks.real, cell.re_min, cell.re_max)
            + 1j * np.clip(ks.imag, cell.im_min, cell.im_max))


def _merge(zeros):
    """(k, residual, iterations, multiplicity) records sorted by (Re k, Im
    k), those within ``_DEDUPE_RADIUS`` of one kept merged into the one of
    least residual; a merged multiplicity is None unless all agree."""
    merged = []
    for record in sorted(zeros, key=lambda t: (t[0].real, t[0].imag)):
        for i, kept in enumerate(merged):
            if abs(record[0] - kept[0]) <= _DEDUPE_RADIUS:
                best = record if record[1] < kept[1] else kept
                merged[i] = (*best[:3], kept[3] if kept[3] == record[3] else None)
                break
        else:
            merged.append(record)
    return merged
