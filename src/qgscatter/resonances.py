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
zero fails only the cells that share it; each such cell is inflated
slightly and wound again on its own, so zeros sitting exactly on the
requested window edge (commonly on the real axis) are still captured by the
cells they border. The other cells of the level are not held back.

Real-axis zeros of the determinant are not scattering poles; they mark
states decoupled from the leads and are reported separately.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Tuple

import numpy as np

from .contours import QuadLevel, Rect, circle_winding, first_winding, rect_winding
from .errors import BoundaryZero, Diverged, NonHolomorphic
from .global_scattering import Assembly
from .graph_core import LinearAB, OpenGraph


@dataclass(frozen=True)
class Pole:
    k: complex
    multiplicity: int
    residual: float
    iterations: int


@dataclass(frozen=True)
class PoleSearchOptions:
    min_cell: float = 1e-6
    refine_cell: float = 0.1
    dedupe_radius: float = 1e-7
    residual_tol: float = 1e-8
    boundary_samples: int = 64
    max_retries: int = 5
    jitter: float = 1e-6
    real_axis_tol: float = 1e-9


@dataclass(frozen=True)
class PoleSet:
    """Located poles, sorted by (Re k, Im k).

    ``real_axis_zeros`` lists determinant zeros on the real axis (decoupled
    bound states), which are excluded from ``poles``. Zeros refined into the
    upper half plane are kept but flagged, since for k-independent vertex
    conditions physical resonances lie in Im k < 0. ``evaluations`` counts
    the determinants D(k) the search computed: contour samples, multiplicity
    circles and residuals (Newton's steps solve with the matrix instead).
    """

    poles: Tuple[Pole, ...]
    window: Rect
    options: PoleSearchOptions
    real_axis_zeros: Tuple[Pole, ...] = ()
    upper_half_flagged: Tuple[complex, ...] = ()
    warnings: Tuple[str, ...] = ()
    evaluations: int = field(default=0, compare=False)

    def ks(self) -> np.ndarray:
        return np.array([p.k for p in self.poles])

    def total_count(self) -> int:
        return sum(p.multiplicity for p in self.poles)


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


def find_poles(og: OpenGraph, window: Rect, opts: Optional[PoleSearchOptions] = None) -> PoleSet:
    """Locate all zeros of the interior determinant inside the window.

    Raises :class:`~qgscatter.errors.DeterminantOverflow` when D(k) is not
    finite on a contour (windows reaching far below the real axis).
    """
    if opts is None:
        opts = PoleSearchOptions()
    _require_holomorphic(og)
    asm = Assembly(og)
    warnings: list = []

    if asm.table.n_bonds == 0:
        return PoleSet(poles=(), window=window, options=opts, warnings=())

    evaluations = 0

    def det(ks):
        nonlocal evaluations
        evaluations += len(ks)
        return asm.interior_det_many(ks)

    # Bulk rotation rate of the determinant: the total directed-bond length.
    rate = float(np.sum(asm.table.bond_lengths)) + 1.0

    def multiplicity(k):
        """Winding of D on a small circle around k, grown by 1.4 on each retry;
        None if it keeps hitting zeros."""
        radii = itertools.accumulate(itertools.repeat(1.4, opts.max_retries - 1), operator.mul,
                                     initial=max(10 * opts.dedupe_radius, 1e-6))
        try:
            return first_winding(
                lambda r: circle_winding(det, k, r, samples=48, rate_hint=rate), radii)[0]
        except BoundaryZero:
            return None

    def inflations(rect):
        """The cell, then inflated by jitter x attempt x max(diameter, 1) per
        retry. Inflation only grows cells, so a zero near a shared edge may be
        counted by two sibling cells but never lost; deduplication collapses
        doubles."""
        for attempt in range(1, opts.max_retries + 1):
            yield rect
            rect = rect.inflated(opts.jitter * max(rect.diameter, 1.0) * attempt)

    def retry(original, failure):
        """(winding, contour) of a cell whose own contour met a zero: the
        first of its inflations that does not, each wound on its own (an
        inflated contour shares no side with another cell)."""
        def wind(rect):
            if rect is original:
                raise BoundaryZero(failure)
            return rect_winding(det, rect, opts.boundary_samples, rate_hint=rate)
        return first_winding(wind, inflations(original))

    polished = []
    level = QuadLevel(window)
    while level.cells:
        windings = level.wind(det, opts.boundary_samples, rate_hint=rate)
        split = []
        for i, (original, w) in enumerate(zip(level.cells, windings)):
            cell = original
            if isinstance(w, str):
                w, cell = retry(original, w)
            if w == 0:
                continue
            if w < 0:
                warnings.append(f"negative winding {w} over {original}; non-holomorphic input?")
                continue
            small = original.diameter <= opts.refine_cell
            at_floor = original.diameter <= opts.min_cell
            if not (small or at_floor):
                split.append(i)
                continue
            k_star, iterations, inside = asm.newton(
                cell.center, max_iter=80, tol=1e-12,
                trust=10.0 * max(original.diameter, 10 * opts.min_cell),
            )
            residual = np.inf
            if inside:
                residual = abs(asm.interior_det(k_star))
                evaluations += 1
            ok = (
                inside
                and residual <= opts.residual_tol
                and cell.inflated(original.diameter).contains(k_star)
            )
            if ok and w > 1 and not at_floor:
                # Newton finds one zero; if it is not of multiplicity w, the
                # cell holds distinct zeros that subdivision must separate.
                mult = multiplicity(k_star)
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

    # Deduplicate within the configured radius.
    merged = []
    for k_star, residual, iterations in sorted(polished, key=lambda t: (t[0].real, t[0].imag)):
        for i, (km, rm, im_) in enumerate(merged):
            if abs(k_star - km) <= opts.dedupe_radius:
                if residual < rm:
                    merged[i] = (k_star, residual, iterations)
                break
        else:
            merged.append((k_star, residual, iterations))

    poles = []
    real_axis = []
    upper = []
    for k_star, residual, iterations in merged:
        mult = multiplicity(k_star)
        if mult is None:
            mult = 1
            warnings.append(f"multiplicity circle at {k_star} kept hitting zeros; assumed 1")
        if mult < 1:
            warnings.append(f"refined point {k_star} shows no enclosed zero; dropped")
            continue
        record = Pole(k=k_star, multiplicity=mult, residual=residual, iterations=iterations)
        if abs(k_star.imag) <= opts.real_axis_tol:
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
        options=opts,
        real_axis_zeros=tuple(real_axis),
        upper_half_flagged=tuple(upper),
        warnings=tuple(warnings),
        evaluations=evaluations,
    )
