"""Resonance poles: zeros of the interior determinant in a complex window.

Every zero the search reports is read from the roots of a polynomial that
interpolates D, clustered by multiplicity
(:func:`~qgscatter.global_scattering._clusters`): each cluster near the
window is polished with one Newton run for a zero of the cluster's size,
which must settle within ``_NEWTON_MAX_ITER`` steps (:func:`_root_zeros`),
and a cluster of two or more roots must also wind its size on a circle
that holds no other root. The polynomial is window-free or local:

- When every length is a multiple of one power of two l0, the conditions
  do not depend on k and the degree sum_b L_b / l0 is at most
  ``global_scattering._MAX_DEGREE``, D(k) is a polynomial in exp(ik l0),
  and the Assembly keeps the clusters of its certified roots for every
  window, at any depth (:attr:`Assembly._root_set`); a window takes the
  clusters whose periodic copies it holds.
- Every other graph with edges takes, per window, the Taylor polynomial of
  f(k) = D(k) exp(-i tau (k - c) / 2) about the window's centre c, tau =
  sum_b L_b (:func:`_disc_roots`). D is entire, and f has exponential
  type tau / 2 in every direction, so its Taylor coefficients in
  (k - c) / R fall off fast beyond e R tau / 2. One batch of D at M points
  of the circle |k - c| = R, R being ``_DISC_RATIO`` (1.5) times the
  window's half-diagonal and M the least power of two >= 2 (e R tau / 2 +
  ``_DISC_MARGIN``), twice the Cauchy estimate of the degree with a margin
  of 16 terms, and one FFT give the coefficients. They serve when the top
  half of them lie below ``_ALIAS_TOL`` relative to the largest, the root
  set's certificate. A circle that would take more than
  ``_DISC_MAX_SAMPLES`` (128) points is not sampled. The FFT interpolates
  D itself, which has no singularity, so a zero near the circle does it no
  harm, where a quadrature of D'/D or of a resolvent on the circle
  (Beyn's method) fails. On a circle of radius R below 0.1 the cluster
  radius, the margin around the window of the clusters polished and the
  Newton trust radius are R / 100 rather than ``_CLUSTER_RADIUS``, so that
  they stay well inside a small circle.

A window where the route does not serve or a check fails (D overflowing on
the circle among them), and a graph without edges, go to the contour search
(:func:`_contour_poles`), which only counts zeros and leaves finding them to
the circles.

The contour search subdivides the window into quadrants, level by level,
counting zeros per cell with the argument principle. A cell of winding w
>= 1 reads its zeros from the circle around the contour it was wound on,
by the reader above, and keeps those inside that contour or within
``_REAL_AXIS_TOL`` of it when their multiplicities sum to at least w; any
other cell is split. The sum may exceed w: two zeros on a contour, or a
hair inside it, within half a sample segment of each other turn the phase
of D by a whole turn that the samples do not see, and the cell winds one
fewer, and a cell with a zero of even multiplicity on its contour, along
which the phase of D does not jump, winds half of it. A zero read by two
neighbouring cells is kept once, the first read, within
``_DEDUPE_RADIUS``. The winding is the one count that does not come from
the interpolant, and it drops zero-free cells unread.

A cell that cannot be read, because its circle would take too many points
or fails its certificate (near a close pair, on a circle a few 1e-4
across, the rounding error of D passes 1e-12 of |D|), takes the clusters
of the nearest ancestor that was read which lie in it or within
``_REAL_AXIS_TOL`` of it, each whole: its centroid, with the winding of
its circle as multiplicity, and a warning (:func:`_whole_clusters`). Zeros
too close for any circle that can be read are so reported as one cluster,
not lost; a cell is split when these do not make up its winding.

The cells of a level are wound together (:class:`~qgscatter.contours.QuadLevel`):
a child cell inherits the two resolved half-sides of its parent that it
lies on, and the four siblings share the four new half-edges from the
parent's centre to its side midpoints, so a split resolves 4 new half-edges
instead of 16 sides, and the new half-edges of a whole level cost one batch
of determinants per bisection depth. A half-edge that passes too close to a
zero fails only the cells that share it. The level then winds every failed
cell again, inflated slightly, all of them in one retry round per
inflation (:meth:`~qgscatter.contours.QuadLevel.contour` names the
rectangle wound), so zeros sitting exactly on the requested window edge
(commonly on the real axis) are still captured by the cells they border.

The circles of multiple zeros are wound by the one circle entry the
spectrum uses too (:func:`~qgscatter.contours.first_circle_windings`).

Real-axis zeros of the determinant are not scattering poles; they mark
states decoupled from the leads and are reported separately. Any other
zero within ``_REAL_AXIS_TOL`` of a side of the window is an edge zero,
dropped with a warning, so that rounding decides nothing.

The reader and :func:`refine_pole` polish their starts with one Newton pass
(:func:`_polish`), and both searches build their :class:`PoleSet` with
:func:`_pole_set`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from .contours import QuadLevel, Rect, first_circle_windings, rect_winding
from .errors import BoundaryZero, DeterminantOverflow, Diverged, NonHolomorphic
from .global_scattering import (_ALIAS_TOL, _CLUSTER_RADIUS, _DEDUPE_RADIUS, _REAL_AXIS_TOL,
                                Assembly, _assembly, _clusters)
from .graph_core import LinearAB, OpenGraph

_MIN_CELL = 1e-6  # cells this small are not split further
_RESIDUAL_TOL = 1e-8  # largest |D| at an accepted Newton point
_BOUNDARY_SAMPLES = 64  # initial samples of a cell side
_NEWTON_MAX_ITER = 80  # Newton steps from a cluster of roots or refine_pole's start
_NEWTON_STEP_TOL = 1e-12  # Newton stops once a step is this small
_DISC_RATIO = 1.5  # radius of a window's circle, in half-diagonals of the window
_DISC_MARGIN = 16  # terms added to the Cauchy estimate of the degree on a circle
_DISC_MAX_SAMPLES = 128  # most samples of a window's circle


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
    when this search built it or of the window's circle, contour samples,
    the samples of the circles of the contour search's cells, circles
    around multiple zeros and residuals (Newton's steps solve with the
    matrix instead), as the increase of :attr:`Assembly.evaluations` over
    the search. A zero read from a polynomial costs one residual, and a
    circle when its cluster holds two or more roots; a cell of the contour
    search that winds at all costs the samples of its circle as well.
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

    The zeros are read from the roots of a polynomial (see the module
    docstring). A graph whose lengths are multiples of one power of two l0,
    with k-independent conditions and degree sum_b L_b / l0 at most
    ``global_scattering._MAX_DEGREE``, has a root set: the first search of
    its Assembly takes D at the least power of two >= degree + 2 points,
    and every window reads its zeros from the roots, at any depth. Every
    other graph with edges takes D at M points of a circle around each
    window, M being a power of two of at most ``_DISC_MAX_SAMPLES``, and
    reads the window's zeros from the roots of their interpolant (64
    samples and one residual for a window of one zero, 0.7 x 0.6, on a
    graph of total length 5). Either set of samples is counted in
    ``evaluations``. A window whose circle would take more samples, or
    where a check of the route fails, takes the contour search, which
    counts zeros cell by cell and reads them from the cells' own circles,
    counted on top of what the polynomial route spent.

    The polynomial route is fixed by the module constants
    ``global_scattering._ALIAS_TOL`` and ``_CLUSTER_RADIUS``,
    ``_RESIDUAL_TOL``, ``_DEDUPE_RADIUS``, ``_NEWTON_MAX_ITER`` and
    ``_NEWTON_STEP_TOL``, and the circle's ``_DISC_RATIO``,
    ``_DISC_MARGIN`` and ``_DISC_MAX_SAMPLES``. The contour search adds
    ``_MIN_CELL``, ``_BOUNDARY_SAMPLES`` and ``_REAL_AXIS_TOL``, and
    ``contours._CONTOURS_TRIED`` and ``contours._JITTER``, which set the
    retries of cells and circles that meet a zero. Every cell that winds w
    >= 1 times reads its zeros from its own circle by the same route (see
    the module docstring), and is split while the circle would take more
    than ``_DISC_MAX_SAMPLES`` points or the zeros it reads make up less
    than w.

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
    or of the window's circle (:func:`_root_zeros`), or, where neither
    serves or a check fails, the contour search (:func:`_contour_poles`)."""
    _require_holomorphic(asm.og)
    start = asm.evaluations
    zeros = _root_zeros(asm, window)
    if zeros is None:
        return replace(_contour_poles(asm, window), evaluations=asm.evaluations - start)
    return _pole_set(window, zeros, [], asm.evaluations - start)


def _disc_roots(asm: Assembly, window: Rect):
    """The roots of the Taylor polynomial of D(k) exp(-i tau (k - c) / 2)
    about the window's centre c, tau = sum_b L_b, in the form of
    :attr:`Assembly._root_set` with no period: (None, coefficients,
    centres, sizes), the roots clustered by
    :func:`~qgscatter.global_scattering._clusters` within
    :func:`_cluster_radius`. None for a graph without edges, a circle of
    more than ``_DISC_MAX_SAMPLES`` points, a D that overflows on it or a
    failed certificate (see the module docstring).

    One :meth:`Assembly.interior_det_many` call takes D at the M points c +
    R u_j, u_j = exp(2 pi i j / M), and one FFT gives the coefficients of
    the polynomial in (k - c) / R. Those of the top half must lie below
    ``_ALIAS_TOL`` relative to the largest; the polynomial keeps the
    coefficients up to the last above that.
    """
    tau, radius = asm.total_bond_length, _DISC_RATIO * math.hypot(window.width, window.height) / 2
    m = 1 << (math.ceil(2 * (math.e * radius * tau / 2 + _DISC_MARGIN)) - 1).bit_length()
    if not asm.table.n_bonds or m > _DISC_MAX_SAMPLES:
        return None
    u = np.exp(2j * np.pi / m * np.arange(m))
    try:
        dets = asm.interior_det_many(window.center + radius * u)
    except DeterminantOverflow:
        return None
    c = np.fft.fft(dets * np.exp(-0.5j * tau * radius * u)) / m
    kept = np.abs(c) > _ALIAS_TOL * np.abs(c).max()
    if kept[m // 2:].any():
        return None
    c = c[:np.flatnonzero(kept).max() + 1]
    return (None, c, *_clusters(window.center + radius * np.roots(c[::-1]),
                                radius=_cluster_radius(window)))


def _cluster_radius(window: Rect) -> float:
    """The cluster radius, near margin and Newton trust radius of a
    window's circle: ``_CLUSTER_RADIUS``, or a hundredth of the circle's
    radius where that is less, so that the margins of a small cell of the
    contour search stay inside its circle."""
    return min(_CLUSTER_RADIUS, 1e-2 * _DISC_RATIO * math.hypot(window.width, window.height) / 2)


def _root_zeros(asm: Assembly, window: Rect, roots=None) -> Optional[List[Pole]]:
    """The zeros of D in the window, and within ``_REAL_AXIS_TOL`` of it,
    from the clusters of the roots of a polynomial: ``roots``, by default
    those of :attr:`Assembly._root_set`, which repeat with its period in Re
    k, or, for a graph without one, of the window's circle
    (:func:`_disc_roots`); None when neither serves or a check fails.

    Every cluster, shifted by whole periods when there is a period, that
    lies in the window inflated by the cluster radius (``_CLUSTER_RADIUS``
    for the root set, :func:`_cluster_radius` for a circle) starts one
    Newton run (:func:`_polish`) from its centroid, for a zero of the
    cluster's size, with the cluster radius as trust radius. The checks:
    every run stays inside and settles within ``_NEWTON_MAX_ITER`` steps
    with a residual of at most ``_RESIDUAL_TOL`` (a run for a double zero
    that is a close pair swings between its two zeros instead), no two end
    within ``_DEDUPE_RADIUS`` of each other, and a circle around each zero
    of a cluster of two or more roots (:func:`_circle_radii`) winds its
    size.
    """
    roots = roots or asm._root_set or _disc_roots(asm, window)
    if roots is None:
        return None
    period, _, centres, sizes = roots
    spread = _CLUSTER_RADIUS if period is not None else _cluster_radius(window)
    near = window.inflated(spread)
    shifts = np.zeros(1) if period is None else period * np.arange(
        np.floor(near.re_min / period) - 1, np.ceil(near.re_max / period) + 2)
    ks = (centres[:, None] + shifts).ravel()
    inside = ((near.re_min < ks.real) & (ks.real < near.re_max)
              & (near.im_min < ks.imag) & (ks.imag < near.im_max))
    starts, sizes = ks[inside], np.repeat(sizes, len(shifts))[inside]
    runs = _polish(asm, starts, [spread] * len(starts), sizes.tolist())
    found = np.array([k for k, _, _ in runs], dtype=complex)
    a, b = np.triu_indices(len(found), 1)
    multiple = np.flatnonzero(sizes > 1)
    radii = _circle_radii(asm, starts[multiple], ks)
    if (any(residual > _RESIDUAL_TOL or iterations == _NEWTON_MAX_ITER
            for _, residual, iterations in runs)
            or (np.abs(found[a] - found[b]) <= _DEDUPE_RADIUS).any()
            or _circle_windings(asm, [(found[i], (r,)) for i, r in zip(multiple, radii)])
            != sizes[multiple].tolist()):
        return None
    near = window.inflated(_REAL_AXIS_TOL)
    return [Pole(k=k, multiplicity=m, residual=residual, iterations=iterations)
            for (k, residual, iterations), m in zip(runs, sizes.tolist()) if near.contains(k)]


def _circle_radii(asm: Assembly, starts, ks) -> np.ndarray:
    """The radius of the circle around each of ``starts``: half the
    distance to the nearest other point of ``ks``, at most 1 / sum_b L_b,
    over which |D| changes by a factor of about e."""
    apart, cap = np.abs(starts[:, None] - ks) / 2, 1 / asm.total_bond_length
    return np.where(apart > 0, apart, cap).min(axis=1, initial=cap)


def _whole_clusters(asm: Assembly, window: Rect, roots) -> Optional[List[Pole]]:
    """The clusters of ``roots``, an ancestor cell's, that lie in the window
    or within ``_REAL_AXIS_TOL`` of it, each taken whole: its centroid, with
    the winding of its circle (:func:`_circle_radii`) as its multiplicity
    and no Newton step. None without roots or when a circle meets a zero."""
    if roots is None:
        return None
    centres = roots[2]
    near = window.inflated(_REAL_AXIS_TOL)
    ks = np.array([k for k in centres if near.contains(k)], dtype=complex)
    counts = _circle_windings(asm, list(zip(ks, _circle_radii(asm, ks, centres)[:, None])))
    if None in counts:
        return None
    residuals = np.abs(asm.interior_det_many(ks)) if len(ks) else ()
    return [Pole(k=complex(k), multiplicity=m, residual=float(residual), iterations=0)
            for k, m, residual in zip(ks, counts, residuals) if m > 0]


def _contour_poles(asm: Assembly, window: Rect) -> PoleSet:
    """The contour search of :func:`find_poles` on a graph's Assembly (see
    the module docstring), whatever the graph's lengths."""
    warnings: list = []
    start = asm.evaluations
    rate = _rate(asm)
    zeros: List[Pole] = []
    # per cell, the roots of the nearest ancestor whose circle was read
    level, held = QuadLevel(window), [None]
    while level.cells:
        # a cell whose contour met a zero is wound inflated (level.contour)
        windings = level.wind(asm.interior_det_many, _BOUNDARY_SAMPLES, rate_hint=rate)
        split = []
        for i, (cell, w) in enumerate(zip(level.cells, windings)):
            if isinstance(w, str):
                raise BoundaryZero(w)
            if w < 0:
                warnings.append(f"negative winding {w} over {cell}; non-holomorphic input?")
            if w <= 0:
                continue
            contour = level.contour(i)
            roots = _disc_roots(asm, contour)
            found = (_root_zeros(asm, contour, roots) if roots
                     else _whole_clusters(asm, contour, held[i]))
            # a close pair on the contour makes the winding one short
            if found is not None and sum(p.multiplicity for p in found) >= w:
                new = [p for p in found if all(abs(p.k - q.k) > _DEDUPE_RADIUS for q in zeros)]
                zeros += new
                warnings += [f"cluster at {p.k} of multiplicity {p.multiplicity} taken whole"
                             for p in new if not roots]
            elif cell.diameter > _MIN_CELL:
                split.append((i, roots or held[i]))
            else:
                warnings.append(f"cell at {cell.center} (winding {w}) could not be refined")
        level = level.split([i for i, _ in split])
        held = [roots for _, roots in split for _ in range(4)]
    return _pole_set(window, zeros, warnings, asm.evaluations - start)
