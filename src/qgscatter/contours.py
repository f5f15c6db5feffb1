"""Argument-principle plumbing: winding numbers along closed contours.

The phase change of a holomorphic function along a contour is the sum of
its phase changes along straight segments, and one resolver computes them
all. A segment is accepted once a probe at its midpoint confirms that both
halves advance by less than pi/2; otherwise it is bisected. The resolver
works breadth first over any number of segments at once: each level probes
the midpoints of every pending segment in one call of the function. What
it leaves of a segment is its samples (the two ends and every probe), and
the phase change along it is the sum of the steps between consecutive
samples, each below pi/2. :func:`phase_changes` is that sum over the
segments of each of any number of closed polylines, all resolved in one
pass in which every polyline is one side, so a polyline that meets a zero
fails alone. :func:`windings` and :func:`circle_windings` give their
winding numbers; :func:`phase_change`, :func:`rect_winding` and
:func:`circle_winding` are the one-contour cases, which raise on failure.
A circle starts from 8 points: a zero of multiplicity m at its centre
advances the phase by m pi/4 per segment, so m < 4 costs 16 values and a
higher m splits the segments until each half-step is below pi/2.

Phase tracking by sampling cannot see rotations faster than the sampling
resolves (a whole turn between samples aliases to zero), so callers that
know a bound on the rotation rate of their function pass it as
``rate_hint`` (radians per unit arc length) and the initial sampling is
densified to stay below the aliasing limit. For the interior determinants
built in this package the bulk rate is exactly the total directed-bond
length.

:class:`QuadLevel` winds the cells of one level of the quadrant
subdivision of a rectangle. A side there starts from a power of two of
equal segments, so its midpoint is one of its samples. A child cell
inherits the two resolved half-sides of its parent that it lies on, and
the four siblings share the four new half-edges from the parent's centre
to its side midpoints, so a split resolves 4 new half-edges where winding
each child afresh would resolve 16 sides. The new half-edges of a whole
level are resolved in one breadth-first pass. A half-side whose split
point is not a sample of its parent side is resolved afresh: a phase is
never interpolated. Of a parent side that met a zero, the half holding
that zero fails at once and the other half is resolved afresh.

A function value close to zero on the contour makes the winding number
ill-defined. It fails the contour (in :class:`QuadLevel`, only the cells
whose sides pass through it), and callers jitter their contour and retry
through :func:`first_winding`, or through :func:`first_windings` for many
contours at once, round by round: round i winds the i-th contour of every
schedule still unresolved, in one pass (:func:`first_circle_windings` for
circles). A value that is not finite aborts
the computation with :class:`DeterminantOverflow`, which a retry cannot
cure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryZero, DeterminantOverflow, ValidationError

# |f| at or below this is treated as "the contour hit a zero".
ZERO_TOL = 1e-12
_MAX_DEPTH = 48


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in the complex plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValidationError(f"degenerate rectangle {self}")

    @property
    def width(self):
        return self.re_max - self.re_min

    @property
    def height(self):
        return self.im_max - self.im_min

    @property
    def center(self):
        return complex((self.re_min + self.re_max) / 2, (self.im_min + self.im_max) / 2)

    @property
    def diameter(self):
        return max(self.width, self.height)

    def corners(self):
        return (
            complex(self.re_min, self.im_min),
            complex(self.re_max, self.im_min),
            complex(self.re_max, self.im_max),
            complex(self.re_min, self.im_max),
        )

    def contains(self, z, margin=0.0):
        return (
            self.re_min + margin < z.real < self.re_max - margin
            and self.im_min + margin < z.imag < self.im_max - margin
        )

    def inflated(self, amount):
        return Rect(
            self.re_min - amount,
            self.re_max + amount,
            self.im_min - amount,
            self.im_max + amount,
        )

    def quadrants(self):
        cm = self.center
        return (
            Rect(self.re_min, cm.real, self.im_min, cm.imag),
            Rect(cm.real, self.re_max, self.im_min, cm.imag),
            Rect(self.re_min, cm.real, cm.imag, self.im_max),
            Rect(cm.real, self.re_max, cm.imag, self.im_max),
        )


_HALF_PI = 0.5 * np.pi


def _finite_values(f, zs):
    v = np.asarray(f(zs), dtype=complex)
    finite = np.isfinite(v)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DeterminantOverflow(f"f({complex(zs[i])}) = {complex(v[i])} is not finite")
    return v


def _zero_message(z, v):
    return f"|f({complex(z)})| = {abs(v):.3e} on the contour"


def _resolve(f, side, t0, t1, z0, z1, v0, v1, failed, zero_tol):
    """Resolve straight segments breadth first: the one contour driver.

    Segment i runs from z0[i] to z1[i], over the parameters t0[i] to t1[i]
    of side ``side[i]``, and f is known (finite, nonzero) at both ends.
    Each level probes the midpoints of all pending segments in one call of
    f. A segment is accepted once both half-steps of the phase are below
    pi/2, and bisected otherwise. A side fails as a whole, and its pending
    segments are dropped, when a probe on it has |f| <= zero_tol or it is
    not resolved after ``_MAX_DEPTH`` levels: ``failed`` maps each failed
    side to its message and the parameter of the zero it met (None when
    the bisection ran out of levels).

    Returns the probes as (side, t, v) and the accepted segments as (side,
    phase change), each a tuple of arrays.
    """
    seg = (side, t0, t1, z0, z1, v0, v1)
    probes, steps = [(side[:0], t0[:0], v0[:0])], [(side[:0], t0[:0])]
    depth = 0
    while len(seg[0]):
        side, t0, t1, z0, z1, v0, v1 = seg
        if depth >= _MAX_DEPTH:
            for s, z, v in zip(side.tolist(), z0, v0):
                failed.setdefault(s, (f"phase step cannot be resolved near {complex(z)} "
                                      f"(|f| ~ {abs(v):.3e})", None))
            break
        tm, zm = 0.5 * (t0 + t1), (z0 + z1) / 2
        vm = _finite_values(f, zm)
        small = np.abs(vm) <= zero_tol
        if small.any():
            for i in np.flatnonzero(small):
                failed.setdefault(int(side[i]), (_zero_message(zm[i], vm[i]), tm[i]))
            live = ~np.isin(side, list(failed))
            side, t0, t1, tm, z0, z1, zm, v0, v1, vm = (
                a[live] for a in (side, t0, t1, tm, z0, z1, zm, v0, v1, vm))
        s1 = np.angle(vm / v0)
        s2 = np.angle(v1 / vm)
        ok = (np.abs(s1) < _HALF_PI) & (np.abs(s2) < _HALF_PI)
        probes.append((side, tm, vm))
        steps.append((side[ok], s1[ok] + s2[ok]))
        split = ~ok
        seg = (np.concatenate([side[split], side[split]]),
               np.concatenate([t0[split], tm[split]]), np.concatenate([tm[split], t1[split]]),
               np.concatenate([z0[split], zm[split]]), np.concatenate([zm[split], z1[split]]),
               np.concatenate([v0[split], vm[split]]), np.concatenate([vm[split], v1[split]]))
        depth += 1
    return tuple(map(np.concatenate, zip(*probes))), tuple(map(np.concatenate, zip(*steps)))


def phase_changes(f, polylines, *, zero_tol=ZERO_TOL):
    """Total continuous phase change of f along each closed polyline, all in
    one breadth-first pass; for a polyline that met a zero, the message of
    its failure (a str).

    Each polyline is its vertices in order; the path closes from the last
    point back to the first. ``f`` maps a 1-D complex array to the array of
    its values. The vertices of every polyline are evaluated in one call,
    then all their segments go through the resolver at once, each polyline
    as one side, so a polyline that meets a zero fails alone and the others
    are still resolved.
    """
    zs = [np.asarray(p, dtype=complex) for p in polylines]
    if not zs:
        return []
    if any(len(z) < 3 for z in zs):
        raise ValueError("need at least 3 points for a closed contour")
    sizes = np.array([len(z) for z in zs])
    side = np.repeat(np.arange(len(zs)), sizes)
    z0 = np.concatenate(zs)
    # the index of each vertex's successor, wrapping within its polyline
    nxt = np.arange(1, len(z0) + 1)
    nxt[np.cumsum(sizes) - 1] = np.cumsum(sizes) - sizes
    v0 = _finite_values(f, z0)
    failed = {}
    for i in np.flatnonzero(np.abs(v0) <= zero_tol):
        failed.setdefault(int(side[i]), (_zero_message(z0[i], v0[i]), None))
    live = ~np.isin(side, list(failed))
    n = int(live.sum())
    _, (s, steps) = _resolve(f, side[live], np.zeros(n), np.ones(n), z0[live], z0[nxt[live]],
                             v0[live], v0[nxt[live]], failed, zero_tol)
    total = np.bincount(s, weights=steps, minlength=len(zs))
    return [failed[j][0] if j in failed else float(total[j]) for j in range(len(zs))]


def _winding(total):
    """The winding number of a total phase change, or the message (a str)
    when it is not close to an integer."""
    w = total / (2 * cmath.pi)
    n = round(w)
    if abs(w - n) > 0.2:
        return f"winding {w:.4f} is not close to an integer"
    return int(n)


def windings(f, polylines, *, zero_tol=ZERO_TOL):
    """Winding number of f around each closed polyline, as
    :func:`phase_changes` resolves them: in one pass, each failing alone
    (for a polyline that met a zero, the message, a str)."""
    return [p if isinstance(p, str) else _winding(p)
            for p in phase_changes(f, polylines, zero_tol=zero_tol)]


def _one(result):
    """The result for a single contour; a failure raises :class:`BoundaryZero`."""
    if isinstance(result, str):
        raise BoundaryZero(result)
    return result


def phase_change(f, points, *, zero_tol=ZERO_TOL):
    """Total continuous phase change of f along one closed polyline, as
    :func:`phase_changes` gives it; raises :class:`BoundaryZero` when the
    polyline meets a zero."""
    return _one(phase_changes(f, [points], zero_tol=zero_tol)[0])


def _samples_for(length: float, base: int, rate_hint) -> int:
    if rate_hint is None:
        return base
    # Keep the expected phase change per initial segment near 1 radian.
    return max(base, int(math.ceil(length * rate_hint)) + 1)


def _side_segments(length: float, samples: int, rate_hint) -> int:
    """Initial segments of a side of a :class:`QuadLevel` cell: as many as
    :func:`rect_winding` takes, rounded up to a power of two, so that the
    side's midpoint is a sample."""
    n = _samples_for(length, max(2, samples // 4), rate_hint)
    return 1 << (n - 1).bit_length()


def rect_winding(f, rect: Rect, samples: int = 64, *, zero_tol=ZERO_TOL,
                 rate_hint=None) -> int:
    """Winding number of f around the rectangle boundary (counterclockwise).

    ``f`` maps a 1-D complex array to the array of its values. Raises
    :class:`BoundaryZero` when the boundary meets a zero.
    """
    base = max(2, samples // 4)
    pts = []
    c = rect.corners()
    for i in range(4):
        z0, z1 = c[i], c[(i + 1) % 4]
        n = _samples_for(abs(z1 - z0), base, rate_hint)
        for j in range(n):
            pts.append(z0 + (z1 - z0) * j / n)
    return _one(windings(f, [pts], zero_tol=zero_tol)[0])


def circle_windings(f, centers, radii, samples: int = 8, *, zero_tol=ZERO_TOL,
                    rate_hint=None):
    """Winding number of f around each circle (centers[i], radii[i]), all in
    one pass of :func:`windings`; for a circle that met a zero, the message
    (a str).

    A circle starts from ``samples`` equally spaced points, more where
    ``rate_hint`` asks for them. Eight suffice: the resolver bisects every
    segment whose half-steps of phase are not both below pi/2, so a zero of
    multiplicity m costs 16 values when m < 4 and splits further otherwise.
    """
    polylines = []
    for center, radius in zip(centers, radii):
        n = _samples_for(2 * math.pi * radius, samples, rate_hint)
        polylines.append(center + radius * np.exp(2j * np.pi * np.arange(n) / n))
    return windings(f, polylines, zero_tol=zero_tol)


def circle_winding(f, center, radius, samples: int = 8, *, zero_tol=ZERO_TOL,
                   rate_hint=None) -> int:
    """Winding number of f around one circle, as :func:`circle_windings`
    gives it; raises :class:`BoundaryZero` when the circle meets a zero."""
    return _one(circle_windings(f, [center], [radius], samples, zero_tol=zero_tol,
                                rate_hint=rate_hint)[0])


class _Side:
    """A straight side from ``a`` to ``b``. It is pending until
    :meth:`settle` gives it ``t`` (the sorted parameters in [0, 1] of its
    samples) and ``v`` (f there), or failed with the message ``failure``,
    having met a zero at the parameter ``zero_at`` (None when its bisection
    ran out of levels)."""

    __slots__ = ("a", "b", "t", "v", "phase", "failure", "zero_at")

    def __init__(self, a, b):
        self.a, self.b = a, b
        self.t = self.v = self.phase = self.failure = self.zero_at = None

    def settle(self, t, v):
        self.t, self.v = t, v
        self.phase = float(np.sum(np.angle(v[1:] / v[:-1])))

    def half(self, k):
        """The lower (k = 0) or upper (k = 1) half: resolved when this side
        has a sample at its midpoint, failed when the zero this side met lies
        on it, pending otherwise."""
        m = complex((self.a.real + self.b.real) / 2, (self.a.imag + self.b.imag) / 2)
        h = _Side(*((self.a, m) if k == 0 else (m, self.b)))
        if self.v is not None:
            j = int(np.searchsorted(self.t, 0.5))
            if self.t[j] == 0.5:
                part = slice(None, j + 1) if k == 0 else slice(j, None)
                h.settle(2 * self.t[part] - k, self.v[part].copy())
        elif self.zero_at is not None and (self.zero_at <= 0.5 if k == 0 else self.zero_at >= 0.5):
            h.failure, h.zero_at = self.failure, 2 * self.zero_at - k
        return h


class QuadLevel:
    """The cells of one level of the quadrant subdivision of a rectangle.

    Every side is held once, however many cells share it, and runs left to
    right or bottom to top; a cell lists its bottom, right, top and left
    side and winds counterclockwise by bottom + right - top - left.
    :meth:`wind` resolves the sides that are still pending, all in one
    breadth-first pass, and :meth:`split` makes the next level, whose cells
    inherit the resolved half-sides of their parents.
    """

    def __init__(self, window: Rect):
        ll, lr, ur, ul = window.corners()
        self.cells = [window]
        self._sides = [_Side(ll, lr), _Side(lr, ur), _Side(ul, ur), _Side(ll, ul)]
        self._refs = [(0, 1, 2, 3)]
        # f at vertices of the pending sides, where the parent level has it
        self._known = {}

    def wind(self, f, samples: int = 64, *, zero_tol=ZERO_TOL, rate_hint=None):
        """Winding number of every cell, in order; for a cell whose contour
        failed (it met a zero), the message of the failure (a str).

        ``samples`` and ``rate_hint`` set the initial sampling of a pending
        side as in :func:`rect_winding`.
        """
        self._resolve_pending(f, samples, zero_tol, rate_hint)
        out = []
        for refs in self._refs:
            b, r, t, l = (self._sides[i] for i in refs)
            failure = next((s.failure for s in (b, r, t, l) if s.failure), None)
            out.append(failure or _winding(b.phase + r.phase - t.phase - l.phase))
        return out

    def _resolve_pending(self, f, samples, zero_tol, rate_hint):
        """f at the new ends and initial samples of every pending side in one
        call, then all their segments in one breadth-first pass."""
        pending = [s for s in self._sides if s.v is None and s.failure is None]
        if not pending:
            return
        ends = {}  # ends not known from the parent level
        for s in pending:
            for z in (s.a, s.b):
                if z not in self._known:
                    ends.setdefault(z, len(ends))
        ts = [np.arange(n + 1) / n
              for n in (_side_segments(abs(s.b - s.a), samples, rate_hint) for s in pending)]
        zs = [s.a + (s.b - s.a) * t for s, t in zip(pending, ts)]
        for s, z in zip(pending, zs):
            z[0], z[-1] = s.a, s.b
        vs = _finite_values(f, np.concatenate([list(ends)] + [z[1:-1] for z in zs]))
        known = dict(self._known)
        known.update(zip(ends, vs))
        failed, sides, values = {}, [], []
        start = len(ends)
        for j, (s, z) in enumerate(zip(pending, zs)):
            v = np.concatenate([[known[s.a]], vs[start:start + len(z) - 2], [known[s.b]]])
            start += len(z) - 2
            small = np.flatnonzero(np.abs(v) <= zero_tol)
            if len(small):
                failed[j] = (_zero_message(z[small[0]], v[small[0]]), ts[j][small[0]])
            sides.append(np.full(len(z), j))
            values.append(v)
        side, t, z, v = map(np.concatenate, (sides, ts, zs, values))
        # consecutive samples of one side that has not failed: its segments
        a = np.flatnonzero((side[1:] == side[:-1]) & ~np.isin(side[1:], list(failed)))
        probes, _ = _resolve(f, side[a], t[a], t[a + 1], z[a], z[a + 1], v[a], v[a + 1],
                             failed, zero_tol)
        side, t, v = (np.concatenate(pair) for pair in zip((side, t, v), probes))
        order = np.lexsort((t, side))
        side, t, v = side[order], t[order], v[order]
        bounds = np.searchsorted(side, np.arange(len(pending) + 1))
        for j, s in enumerate(pending):
            if j in failed:
                s.failure, s.zero_at = failed[j]
            else:
                s.settle(t[bounds[j]:bounds[j + 1]], v[bounds[j]:bounds[j + 1]])

    def split(self, indices) -> "QuadLevel":
        """The next level: the quadrants (as :meth:`Rect.quadrants` orders
        them) of the cells at ``indices``, in that order."""
        nxt = QuadLevel.__new__(QuadLevel)
        nxt.cells, nxt._refs, nxt._sides, nxt._known = [], [], [], {}
        halves = {}

        def add(side):
            nxt._sides.append(side)
            return len(nxt._sides) - 1

        def half(i, k):
            if (i, k) not in halves:
                s = self._sides[i]
                h = s.half(k)
                for side in (s, h):
                    if side.v is not None:
                        nxt._known[side.a], nxt._known[side.b] = side.v[0], side.v[-1]
                halves[i, k] = add(h)
            return halves[i, k]

        for i in indices:
            cell = self.cells[i]
            b, r, t, l = self._refs[i]
            c = cell.center
            hl = add(_Side(complex(cell.re_min, c.imag), c))
            hr = add(_Side(c, complex(cell.re_max, c.imag)))
            vb = add(_Side(complex(c.real, cell.im_min), c))
            vt = add(_Side(c, complex(c.real, cell.im_max)))
            nxt.cells.extend(cell.quadrants())
            nxt._refs.extend([(half(b, 0), vb, hl, half(l, 0)),
                              (half(b, 1), half(r, 0), hr, vb),
                              (hl, vt, half(t, 0), half(l, 1)),
                              (hr, half(r, 1), half(t, 1), vt)])
        return nxt


def first_windings(wind_many, schedules):
    """For each schedule of contours, the winding of its first contour that
    does not hit a zero, as (winding, contour).

    The schedules are tried round by round: round i winds the i-th contour of
    every schedule still unresolved, all in one call of ``wind_many``, which
    maps a list of contours to their windings (for a contour that hit a zero,
    the message, a str). A schedule whose every contour hits a zero gives a
    message (a str) naming its first contour.
    """
    schedules = [iter(s) for s in schedules]
    out = [None] * len(schedules)
    tried = [[] for _ in schedules]
    pending = range(len(schedules))
    while pending:
        batch = []
        for i in pending:
            contour = next(schedules[i], None)
            if contour is not None:
                batch.append((i, contour))
            else:
                out[i] = (f"contour through {tried[i][0]} still hits zeros after "
                          f"{len(tried[i])} retries: {out[i]}")
        pending = []
        for (i, contour), w in zip(batch, wind_many([c for _, c in batch]) if batch else ()):
            if isinstance(w, str):
                tried[i].append(contour)
                out[i] = w
                pending.append(i)
            else:
                out[i] = (w, contour)
    return out


def first_circle_windings(f, centers, radii, *, zero_tol=ZERO_TOL, rate_hint=None):
    """For each centre, the winding number of f around the first circle of
    its radii (one sequence per centre) that does not meet a zero, the
    circles tried round by round as in :func:`first_windings` and wound as
    in :func:`circle_windings`; where every circle meets a zero, the message
    (a str)."""
    out = first_windings(
        lambda circles: circle_windings(f, [c for c, _ in circles], [r for _, r in circles],
                                        zero_tol=zero_tol, rate_hint=rate_hint),
        [[(c, r) for r in rs] for c, rs in zip(centers, radii)])
    return [w if isinstance(w, str) else w[0] for w in out]


def first_winding(wind, contours):
    """Winding of the first contour in ``contours`` that does not hit a zero.

    ``wind`` maps one contour to its winding number and raises
    :class:`BoundaryZero` when the contour hits a zero. Returns
    (winding, contour); raises :class:`BoundaryZero` naming the first contour
    when every one hits a zero.
    """
    def wind_one(batch):
        try:
            return [wind(batch[0])]
        except BoundaryZero as exc:
            # keep the message only: the exception's traceback holds the
            # contour's sample arrays
            return [str(exc)]

    return _one(first_windings(wind_one, [contours])[0])
