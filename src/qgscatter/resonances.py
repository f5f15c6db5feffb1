"""Resonance poles: zeros of the interior determinant in a complex window.

The search subdivides the window into quadrants, level by level, counting
zeros per cell with the argument principle, until each cell with zeros is
small; candidates are then polished by Newton iteration and their
multiplicities confirmed by a small winding circle. A small cell that winds
w >= 2 times is subdivided further when the zero Newton finds in it has
multiplicity below w, since it then holds distinct zeros.

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
The check inside a cell of winding w >= 2 is the same pass with one centre.

Real-axis zeros of the determinant are not scattering poles; they mark
states decoupled from the leads and are reported separately.

A graph whose S(k) is conjugate to that of a graph already searched has
the same poles; :func:`_confirm_poles` checks them on its determinant (one
winding around the window, one Newton run per zero) instead of searching
again.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Tuple

import numpy as np

from .contours import (ZERO_TOL, QuadLevel, Rect, first_circle_windings, first_windings,
                       rect_winding, rect_windings)
from .errors import BoundaryZero, Diverged, NonHolomorphic
from .global_scattering import Assembly
from .graph_core import LinearAB, OpenGraph

_MIN_CELL = 1e-6  # cells this small are not split further
_REFINE_CELL = 0.1  # cells this small go to Newton
_DEDUPE_RADIUS = 1e-7  # zeros closer than this merge
_RESIDUAL_TOL = 1e-8  # largest |D| at an accepted Newton point
_BOUNDARY_SAMPLES = 64  # initial samples of a cell side
_MAX_RETRIES = 5  # contours tried per cell that meets a zero, see _inflations()
_JITTER = 1e-6  # relative inflation per retry
_REAL_AXIS_TOL = 1e-9  # largest |Im k| of a zero reported on the real axis
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
    conditions physical resonances lie in Im k < 0. ``evaluations`` counts
    the determinants D(k) the search computed: contour samples, multiplicity
    circles and residuals (Newton's steps solve with the matrix instead).
    A multiplicity circle around a simple zero costs 16 of them. For a set
    confirmed from a conjugate graph's, it counts the determinants of the
    confirmation, and ``residual`` and ``iterations`` are those of the
    Newton runs started at that graph's zeros.
    """

    poles: Tuple[Pole, ...]
    window: Rect
    real_axis_zeros: Tuple[Pole, ...] = ()
    upper_half_flagged: Tuple[complex, ...] = ()
    warnings: Tuple[str, ...] = ()
    evaluations: int = field(default=0, compare=False)

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


def refine_pole(og: OpenGraph, k0, *, max_iter: int = 50, step_tol: float = 1e-12,
                trust_radius: Optional[float] = None) -> Tuple[complex, float, int]:
    """Newton-refine a pole candidate; returns (k*, |D(k*)|, iterations).

    Raises :class:`Diverged` when the iterates leave a ball of radius
    10 x trust_radius around the start (trust_radius defaults to 1).
    """
    _require_holomorphic(og)
    asm = Assembly(og)
    limit = 10.0 * (trust_radius if trust_radius is not None else 1.0)
    k, iterations, inside = asm.newton(k0, max_iter=max_iter, tol=step_tol, trust=limit)
    if not inside:
        raise Diverged(
            f"Newton left the trust region (|k - k0| = {abs(k - k0):.3e} > {limit:.3e})"
        )
    return k, abs(asm.interior_det(k)), iterations


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


class _CountedDet:
    """D(k) of one Assembly in batches, counting the determinants, and the
    winding of D around contours and circles as the pole search takes them."""

    def __init__(self, asm: Assembly):
        self.asm = asm
        self.evaluations = 0
        # Bulk rotation rate of the determinant: the total directed-bond length.
        self.rate = asm.total_bond_length + 1.0

    def __call__(self, ks):
        self.evaluations += len(ks)
        return self.asm.interior_det_many(ks)

    def rect_windings(self, rects):
        return rect_windings(self, rects, _BOUNDARY_SAMPLES, rate_hint=self.rate)

    def multiplicities(self, ks):
        """Winding of D on a small circle around each k, all wound together;
        a circle that meets a zero is grown by 1.4 on each retry (round i
        winds the i-th radius of every k still unresolved, in one pass).
        None where every circle meets a zero."""
        return [None if isinstance(w, str) else w
                for w in first_circle_windings(self, ks, [_CIRCLE_RADII] * len(ks),
                                               rate_hint=self.rate)]


def find_poles(og: OpenGraph, window: Rect) -> PoleSet:
    """Locate all zeros of the interior determinant inside the window.

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

    if asm.table.n_bonds == 0:
        return PoleSet(poles=(), window=window, warnings=())

    det = _CountedDet(asm)

    polished = []
    level = QuadLevel(window)
    while level.cells:
        windings = level.wind(det, _BOUNDARY_SAMPLES, rate_hint=det.rate)
        # A cell whose contour met a zero takes the first of its inflations
        # that does not; the failed cells of the level retry together, one
        # call of rect_windings per round (an inflated contour shares no side
        # with another cell).
        failed = [i for i, w in enumerate(windings) if isinstance(w, str)]
        retried = dict(zip(failed, first_windings(
            det.rect_windings, [_inflations(level.cells[i]) for i in failed],
            [windings[i] for i in failed])))
        split = []
        for i, (original, w) in enumerate(zip(level.cells, windings)):
            cell = original
            if i in retried:
                if isinstance(retried[i], str):
                    raise BoundaryZero(retried[i])
                w, cell = retried[i]
            if w == 0:
                continue
            if w < 0:
                warnings.append(f"negative winding {w} over {original}; non-holomorphic input?")
                continue
            small = original.diameter <= _REFINE_CELL
            at_floor = original.diameter <= _MIN_CELL
            if not (small or at_floor):
                split.append(i)
                continue
            k_star, iterations, inside = asm.newton(
                cell.center, max_iter=_NEWTON_MAX_ITER, tol=_NEWTON_STEP_TOL,
                trust=10.0 * max(original.diameter, 10 * _MIN_CELL),
            )
            residual = np.inf
            if inside:
                residual = abs(asm.interior_det(k_star))
                det.evaluations += 1
            ok = (
                inside
                and residual <= _RESIDUAL_TOL
                and cell.inflated(original.diameter).contains(k_star)
            )
            if ok and w > 1 and not at_floor:
                # Newton finds one zero; if it is not of multiplicity w, the
                # cell holds distinct zeros that subdivision must separate.
                (mult,) = det.multiplicities([k_star])
                ok = mult is None or mult >= w
            if ok:
                polished.append((k_star, residual, iterations))
            elif not at_floor:
                # Newton missed or left the cell; localize harder.
                split.append(i)
            else:
                warnings.append(
                    f"cell at {original.center} (winding {w}) could not be refined; "
                    f"residual {residual:.3e}"
                )
        level = level.split(split)

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

    poles = []
    real_axis = []
    upper = []
    for (k_star, residual, iterations), mult in zip(
            merged, det.multiplicities([k for k, _, _ in merged])):
        if mult is None:
            mult = 1
            warnings.append(f"multiplicity circle at {k_star} kept hitting zeros; assumed 1")
        if mult < 1:
            warnings.append(f"refined point {k_star} shows no enclosed zero; dropped")
            continue
        record = Pole(k=k_star, multiplicity=mult, residual=residual, iterations=iterations)
        if abs(k_star.imag) <= _REAL_AXIS_TOL:
            real_axis.append(replace(record, k=complex(k_star.real, 0.0)))
            continue
        if not window.contains(k_star):
            warnings.append(f"refined pole {k_star} lies outside the window; dropped")
            continue
        if k_star.imag > 0:
            upper.append(k_star)
        poles.append(record)

    poles.sort(key=lambda p: (p.k.real, p.k.imag))
    real_axis.sort(key=lambda p: p.k.real)
    return PoleSet(
        poles=tuple(poles),
        window=window,
        real_axis_zeros=tuple(real_axis),
        upper_half_flagged=tuple(upper),
        warnings=tuple(warnings),
        evaluations=det.evaluations,
    )


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
    once from each pole and real-axis zero of ``reference``, and the
    residuals |D| come from one batched call; circles are wound only around
    zeros of multiplicity above 1. The set is returned when the ratio winds
    0 times, every Newton run ends within ``_DEDUPE_RADIUS`` of its start
    with a residual of at most ``_RESIDUAL_TOL``, the refined points stay
    distinct and inside the window (or on the real axis), and every circle
    winds the multiplicity of ``reference``. Together these leave D no zero
    beyond those of ``reference``: each is there, at least simple, exactly
    as multiple where a circle was wound, and the totals are equal.

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
    det = _CountedDet(asm)
    rate = max(det.rate, reference_asm.total_bond_length + 1.0)

    def ratio(ks):
        # a point where |D_ref| is at most ZERO_TOL counts as a zero on the
        # contour, which is then retried inflated
        d, d_ref = det(ks), reference_asm.interior_det_many(ks)
        det.evaluations += len(ks)
        clear = np.abs(d_ref) > ZERO_TOL
        return np.where(clear, d / np.where(clear, d_ref, 1.0), 0.0)

    starts = reference.poles + reference.real_axis_zeros
    (wound,) = first_windings(
        lambda rects: rect_windings(ratio, rects, _BOUNDARY_SAMPLES, rate_hint=rate),
        [_inflations(window)])
    if isinstance(wound, str) or wound[0] != 0:
        return None
    refined = []
    for p in starts:
        k_star, iterations, inside = asm.newton(p.k, max_iter=_NEWTON_MAX_ITER,
                                                tol=_NEWTON_STEP_TOL, trust=_DEDUPE_RADIUS)
        if not inside:
            return None
        refined.append((k_star, iterations))
    ks = np.array([k for k, _ in refined], dtype=complex)
    residuals = np.abs(det(ks))
    a, b = np.triu_indices(len(ks), 1)
    if (residuals > _RESIDUAL_TOL).any() or (np.abs(ks[a] - ks[b]) <= _DEDUPE_RADIUS).any():
        return None
    multiple = [i for i, p in enumerate(starts) if p.multiplicity > 1]
    if det.multiplicities(ks[multiple]) != [starts[i].multiplicity for i in multiple]:
        return None

    poles, real_axis = [], []
    for p, (k_star, iterations), residual in zip(starts, refined, residuals):
        record = Pole(k=k_star, multiplicity=p.multiplicity, residual=float(residual),
                      iterations=iterations)
        if abs(k_star.imag) <= _REAL_AXIS_TOL:
            real_axis.append(replace(record, k=complex(k_star.real, 0.0)))
        elif window.contains(k_star):
            poles.append(record)
        else:
            return None
    poles.sort(key=lambda p: (p.k.real, p.k.imag))
    real_axis.sort(key=lambda p: p.k.real)
    return PoleSet(
        poles=tuple(poles),
        window=window,
        real_axis_zeros=tuple(real_axis),
        upper_half_flagged=tuple(p.k for p in poles if p.k.imag > 0),
        evaluations=det.evaluations,
    )
