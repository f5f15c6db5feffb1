"""Resonance poles: zeros of the interior determinant in a complex window.

The search subdivides the window into quadrants, level by level, counting
zeros per cell with the argument principle. A cell that winds once holds
one zero, at any size: Newton runs from its centre, and the zero is taken
when it lies inside the contour that was wound; otherwise the cell is
split. A cell that winds w >= 2 times is split down to the refinement
size, then Newton runs from its centre and a small circle winds around the
zero it finds; the cell is split further when that multiplicity is below
w, since it then holds distinct zeros. After merging, a circle gives the
multiplicity of every zero: a cell that winds once holds a simple zero, or
half of a zero of even multiplicity on its contour, along which the phase
of D does not jump.

The cells of a level are wound together (:class:`~qgscatter.contours.QuadLevel`):
a child cell inherits the two resolved half-sides of its parent that it
lies on, and the four siblings share the four new half-edges from the
parent's centre to its side midpoints, so a split resolves 4 new half-edges
instead of 16 sides, and the new half-edges of a whole level cost one batch
of determinants per bisection depth. A half-edge that passes too close to a
zero fails only the cells that share it. Every failed cell of the level is
then inflated slightly and wound again, all of them in one retry round per
inflation (:func:`~qgscatter.contours.first_windings` over
:func:`~qgscatter.contours.rect_windings`), so zeros sitting exactly on the
requested window edge (commonly on the real axis) are still captured by the
cells they border.

The circles of all polished zeros are wound together in the same way
(:func:`~qgscatter.contours.first_circle_windings`), from 8 points each; a
circle that meets a zero is retried with a radius 1.4 times larger, and
round i winds the i-th radius of every zero still unresolved, in one pass.
The Newton runs from the centres of a level's cells, and then the checks
inside those of winding w >= 2, are likewise one pass per level.

Real-axis zeros of the determinant are not scattering poles; they mark
states decoupled from the leads and are reported separately. Any other
zero within ``_REAL_AXIS_TOL`` of a side of the window is an edge zero,
dropped with a warning, so that rounding decides nothing.

A graph whose S(k) is conjugate to that of a graph already searched has
the same poles; :func:`_confirm_poles` checks them on its determinant (one
winding around the window, one Newton run per zero) instead of searching
again.

Both paths, and :func:`refine_pole`, polish their starts with one Newton
pass (:func:`_polish`), and both build their :class:`PoleSet` with
:func:`_pole_set`.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from .contours import (ZERO_TOL, QuadLevel, Rect, first_circle_windings, first_windings,
                       rect_winding, rect_windings)
from .errors import BoundaryZero, Diverged, NonHolomorphic
from .global_scattering import _DEDUPE_RADIUS, _REAL_AXIS_TOL, Assembly
from .graph_core import LinearAB, OpenGraph

_MIN_CELL = 1e-6  # cells this small are not split further
_REFINE_CELL = 0.1  # cells of winding w >= 2 this small go to Newton
_RESIDUAL_TOL = 1e-8  # largest |D| at an accepted Newton point
_BOUNDARY_SAMPLES = 64  # initial samples of a cell side
_MAX_RETRIES = 5  # contours tried per cell that meets a zero, see _inflations()
_JITTER = 1e-6  # relative inflation per retry
_NEWTON_MAX_ITER = 80  # Newton steps from a cell centre or a conjugate graph's zero
_NEWTON_STEP_TOL = 1e-12  # Newton stops once a step is this small
# Radii of the multiplicity circles around a zero, tried in turn while a
# circle meets a zero: each 1.4 times the last.
_CIRCLE_RADII = tuple(itertools.accumulate(itertools.repeat(1.4, _MAX_RETRIES - 1),
                                           operator.mul,
                                           initial=max(10 * _DEDUPE_RADIUS, 1e-6)))


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
    bound states), which are excluded from ``poles``. Zeros refined into the
    upper half plane are kept but flagged, since for k-independent vertex
    conditions physical resonances lie in Im k < 0. ``edge_zeros`` lists the
    zeros off the real axis within ``_REAL_AXIS_TOL`` of a side of the
    window, which are dropped, each with one warning. ``evaluations`` counts
    the determinants D(k) the search computed: contour samples, multiplicity
    circles and residuals (Newton's steps solve with the matrix instead),
    as the increase of :attr:`Assembly.evaluations` over the search. A zero
    found in a cell that winds once costs one residual and its circle. For a
    set confirmed from a conjugate graph's, it counts the determinants of
    the confirmation on both graphs' Assemblies, and every zero, edge zeros
    included, is this graph's own: the point, ``residual`` and
    ``iterations`` of a Newton run on its determinant started at the
    conjugate graph's zero.
    """

    poles: Tuple[Pole, ...]
    window: Rect
    real_axis_zeros: Tuple[Pole, ...] = ()
    upper_half_flagged: Tuple[complex, ...] = ()
    warnings: Tuple[str, ...] = ()
    evaluations: int = field(default=0, compare=False)
    edge_zeros: Tuple[Pole, ...] = ()

    def ks(self) -> np.ndarray:
        return np.array([p.k for p in self.poles])

    @property
    def only_edge_warnings(self) -> bool:
        """True when every warning is the one :func:`_pole_set` gives each
        edge zero."""
        return len(self.warnings) == len(self.edge_zeros)


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
    ((k, residual, iterations),) = _polish(Assembly(og), [k0], [limit])
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
                "window scans require k-independent conditions"
            )


def _inflations(rect):
    """The contour, then inflated by _JITTER x attempt x max(diameter, 1) per
    retry. Inflation only grows cells, so a zero near a shared edge may be
    counted by two sibling cells but never lost; deduplication collapses
    doubles."""
    for attempt in range(1, _MAX_RETRIES + 1):
        yield rect
        rect = rect.inflated(_JITTER * max(rect.diameter, 1.0) * attempt)


def _rate(*asms: Assembly) -> float:
    """Bulk rotation rate of the determinants of ``asms`` along a contour:
    the largest total directed-bond length, plus 1."""
    return max(a.total_bond_length for a in asms) + 1.0


def _multiplicities(asm: Assembly, ks) -> List[Optional[int]]:
    """Winding of D on a small circle around each k, all wound together;
    a circle that meets a zero is grown by 1.4 on each retry (round i
    winds the i-th radius of every k still unresolved, in one pass).
    None where every circle meets a zero."""
    return [None if isinstance(w, str) else w
            for w in first_circle_windings(asm.interior_det_many, ks,
                                           [_CIRCLE_RADII] * len(ks), rate_hint=_rate(asm))]


def _polish(asm: Assembly, starts, trusts) -> List[Tuple[complex, float, int]]:
    """Newton on D from each start, within its own trust radius (at most
    ``_NEWTON_MAX_ITER`` steps, step tolerance ``_NEWTON_STEP_TOL``), then
    |D| at every run that stayed inside, in one batched call.

    Returns (k, residual, iterations) per start; a run that left its trust
    radius has residual inf and k the iterate that left.
    """
    runs = [asm.newton(k0, max_iter=_NEWTON_MAX_ITER, tol=_NEWTON_STEP_TOL, trust=trust)
            for k0, trust in zip(starts, trusts)]
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
    warning. Warnings are appended to ``warnings``. Poles in the upper half
    plane are flagged.
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
        upper_half_flagged=tuple(p.k for p in poles if p.k.imag > 0),
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

    The search is fixed by the module constants ``_MIN_CELL``,
    ``_REFINE_CELL``, ``_DEDUPE_RADIUS``, ``_RESIDUAL_TOL``,
    ``_BOUNDARY_SAMPLES``, ``_MAX_RETRIES``, ``_JITTER``, ``_REAL_AXIS_TOL``,
    ``_NEWTON_MAX_ITER`` and ``_NEWTON_STEP_TOL``.

    Raises :class:`~qgscatter.errors.DeterminantOverflow` when D(k) is not
    finite on a contour (windows reaching far below the real axis).
    """
    return _find_poles(Assembly(og), window)


def _find_poles(asm: Assembly, window: Rect) -> PoleSet:
    """:func:`find_poles` on a graph's Assembly."""
    _require_holomorphic(asm.og)
    warnings: list = []
    start = asm.evaluations
    rate = _rate(asm)
    polished = []
    level = QuadLevel(window)
    while level.cells:
        windings = level.wind(asm.interior_det_many, _BOUNDARY_SAMPLES, rate_hint=rate)
        # A cell whose contour met a zero takes the first of its inflations
        # that does not; the failed cells of the level retry together, one
        # call of rect_windings per round (an inflated contour shares no side
        # with another cell).
        failed = [i for i, w in enumerate(windings) if isinstance(w, str)]
        retried = dict(zip(failed, first_windings(
            lambda rects: rect_windings(asm.interior_det_many, rects, _BOUNDARY_SAMPLES,
                                        rate_hint=rate),
            [_inflations(level.cells[i]) for i in failed], [windings[i] for i in failed])))
        # cells to split, and cells to run Newton in as (index, winding, cell,
        # contour): every cell of winding 1, and those of winding w >= 2 at
        # refinement size; the level's warnings by cell, given in cell order
        split, newton, notes = [], [], {}
        for i, (original, w) in enumerate(zip(level.cells, windings)):
            cell = original
            if i in retried:
                if isinstance(retried[i], str):
                    raise BoundaryZero(retried[i])
                w, cell = retried[i]
            if w < 0:
                notes[i] = f"negative winding {w} over {original}; non-holomorphic input?"
            elif w > 1 and original.diameter > _REFINE_CELL:
                split.append(i)
            elif w > 0:
                newton.append((i, w, original, cell))
        if newton:
            # Newton from the centre of every such cell, then the circle
            # checks of all cells of winding w >= 2, each in one pass
            found = _polish(asm, [cell.center for *_, cell in newton],
                            [10.0 * max(original.diameter, 10 * _MIN_CELL)
                             for _, _, original, _ in newton])
            # Newton's point is the cell's zero when it lies inside the
            # contour that was wound; a contour that winds once holds one.
            ok = [residual <= _RESIDUAL_TOL and cell.contains(k_star)
                  for (*_, cell), (k_star, residual, _) in zip(newton, found)]
            # Newton finds one zero; if it is not of multiplicity w, the
            # cell holds distinct zeros that subdivision must separate.
            check = [j for j, (_, w, original, _) in enumerate(newton)
                     if ok[j] and w > 1 and original.diameter > _MIN_CELL]
            for j, mult in zip(check, _multiplicities(asm, [found[j][0] for j in check])):
                ok[j] = mult is None or mult >= newton[j][1]
            for (i, w, original, _), good, zero in zip(newton, ok, found):
                if good:
                    polished.append(zero)
                elif original.diameter > _MIN_CELL:
                    # Newton missed or left the cell; localize harder.
                    split.append(i)
                else:
                    notes[i] = (f"cell at {original.center} (winding {w}) could not be "
                                f"refined; residual {zero[1]:.3e}")
        warnings += [notes[i] for i in sorted(notes)]
        level = level.split(sorted(split))

    # Deduplicate within _DEDUPE_RADIUS.
    merged = []
    for k_star, residual, iterations in sorted(polished, key=lambda t: (t[0].real, t[0].imag)):
        for i, (km, rm, im_) in enumerate(merged):
            if abs(k_star - km) <= _DEDUPE_RADIUS:
                if residual < rm:
                    merged[i] = (k_star, residual, iterations)
                break
        else:
            merged.append((k_star, residual, iterations))

    # The multiplicity of every zero, its circles wound together. A cell
    # that winds once may have found half of a zero of even multiplicity
    # on its contour, whose phase jump the contour does not see.
    zeros = []
    for (k_star, residual, iterations), mult in zip(
            merged, _multiplicities(asm, [k for k, _, _ in merged])):
        if mult is None:
            mult = 1
            warnings.append(f"multiplicity circle at {k_star} kept hitting zeros; assumed 1")
        if mult < 1:
            warnings.append(f"refined point {k_star} shows no enclosed zero; dropped")
            continue
        zeros.append(Pole(k=k_star, multiplicity=mult, residual=residual, iterations=iterations))
    return _pole_set(window, zeros, warnings, asm.evaluations - start)


def _confirm_poles(asm: Assembly, window: Rect, reference_asm: Assembly,
                   reference: PoleSet) -> Optional[PoleSet]:
    """The zeros of D in the window, confirmed from ``reference``, the
    :class:`PoleSet` that :func:`find_poles` gave for the graph of
    ``reference_asm``, whose S(k) is conjugate to this one's; None when a
    check fails, and the caller must search afresh.

    Conjugate scattering matrices have the same poles, so D should vanish
    at every zero of ``reference`` with the same multiplicity, and nowhere
    else in the window. The ratio D / D_ref is wound once around the window
    (with the inflated retries of :func:`find_poles`); Newton runs on D
    once from each pole, real-axis zero and edge zero of ``reference``, and
    the residuals |D| come from one batched call; circles are wound only
    around zeros of multiplicity above 1. The set is returned when the ratio
    winds 0 times, every Newton run ends within ``_DEDUPE_RADIUS`` of its
    start with a residual of at most ``_RESIDUAL_TOL``, the refined points
    stay distinct and each is filed by :func:`_place` with the zeros of
    ``reference`` it started from (so an edge zero is dropped again, with
    its own warning), and every circle winds the multiplicity of
    ``reference``. Together these leave D no zero beyond those of
    ``reference``: each is there, at least simple, exactly as multiple
    where a circle was wound, and the totals are equal.

    Real-axis zeros of D are trapped states, not poles of S, so conjugacy
    does not make them equal; the winding is what sees an extra one. It is
    the ratio that is wound, not D: the zeros the two determinants share
    cancel in it, and a shared zero of even multiplicity next to the
    contour, such as a double trapped state on a window edge at Im k = 0,
    can otherwise lose a whole turn between two samples of D and hide an
    extra zero elsewhere.

    Once the Newton runs and circles have passed, every zero of D_ref in
    the window is one of D at least as multiple, so the ratio has no pole
    there and winds at least once for each extra zero of D, also one on
    the contour: at an extra zero of odd multiplicity the phase of the
    ratio jumps by an odd multiple of pi, the contour is bisected down to
    it and retried inflated, which encloses it; along an edge through an
    extra zero of even multiplicity m, where a trapped state on the top
    edge lies, the phase is the same on both sides, and the rest of the
    contour turns it by m pi, so the ratio winds m / 2 times.
    """
    _require_holomorphic(asm.og)
    both = {asm, reference_asm}  # one Assembly when the graphs are the same
    start = sum(a.evaluations for a in both)

    def ratio(ks):
        # a point where |D_ref| is at most ZERO_TOL counts as a zero on the
        # contour, which is then retried inflated
        d, d_ref = asm.interior_det_many(ks), reference_asm.interior_det_many(ks)
        clear = np.abs(d_ref) > ZERO_TOL
        return np.where(clear, d / np.where(clear, d_ref, 1.0), 0.0)

    starts = reference.poles + reference.real_axis_zeros + reference.edge_zeros
    places = (["pole"] * len(reference.poles) + ["real"] * len(reference.real_axis_zeros)
              + ["edge"] * len(reference.edge_zeros))
    (wound,) = first_windings(
        lambda rects: rect_windings(ratio, rects, _BOUNDARY_SAMPLES,
                                    rate_hint=_rate(asm, reference_asm)),
        [_inflations(window)])
    if isinstance(wound, str) or wound[0] != 0:
        return None
    refined = _polish(asm, [p.k for p in starts], [_DEDUPE_RADIUS] * len(starts))
    ks = np.array([k for k, _, _ in refined], dtype=complex)
    a, b = np.triu_indices(len(ks), 1)
    if (any(residual > _RESIDUAL_TOL for _, residual, _ in refined)
            or (np.abs(ks[a] - ks[b]) <= _DEDUPE_RADIUS).any()
            or [_place(window, k) for k in ks] != places):
        return None
    multiple = [i for i, p in enumerate(starts) if p.multiplicity > 1]
    if _multiplicities(asm, ks[multiple]) != [starts[i].multiplicity for i in multiple]:
        return None
    zeros = [Pole(k=k_star, multiplicity=p.multiplicity, residual=residual,
                  iterations=iterations)
             for p, (k_star, residual, iterations) in zip(starts, refined)]
    return _pole_set(window, zeros, [], sum(a.evaluations for a in both) - start)
