"""Argument-principle plumbing: winding numbers along closed contours.

The phase change of a holomorphic function along a path is the sum of the
steps of its phase between consecutive samples, each kept below pi/2. One
front end, :func:`_settle`, gives those samples for any number of paths at
once. A path is given by its initial samples. f is computed in one call at
every end whose value is not known already and at every inner sample; a
path with a sample at a zero fails, and the segments between consecutive
samples of all the others go to one breadth-first resolver. A segment is
accepted once a probe at its midpoint confirms that both halves advance by
less than pi/2, and is bisected otherwise; each level probes the midpoints
of every pending segment in one call of f. A path that meets a zero fails
alone, and the others are still resolved.

:class:`QuadLevel` winds every rectangle, and
:func:`first_circle_windings` every multiplicity circle: a circle starts
from 8 points, one closed path. A zero of multiplicity m at its centre
advances the phase by m pi/4 per segment, so m < 4 costs 16 values and a
higher m splits the segments until each half-step is below pi/2. With
``upper_half``, a circle centred on the real axis is wound from its upper
half alone, one open path, for an f with f(conj z) = c conj(f(z)) and
|c| = 1, whose lower half turns by as much as its upper half: from 5
points, with the segments of the whole circle, so m < 4 costs 9 values and
the aliasing limit is the same. :func:`rect_winding` and
:func:`circle_winding` are the one-contour cases, which raise on failure.

Phase tracking by sampling cannot see rotations faster than the sampling
resolves (a whole turn between samples aliases to zero), so callers that
know a bound on the rotation rate of their function pass it as
``rate_hint`` (radians per unit arc length) and the initial sampling is
densified to stay below the aliasing limit. For the interior determinants
built in this package the bulk rate is exactly the total directed-bond
length.

:class:`QuadLevel` winds the cells of one level of the quadrant
subdivision of a rectangle. Its pending sides are the paths of one
:func:`_settle` pass, with f known at the ends that the parent level
sampled. A side starts from a power of two of equal segments, so its
midpoint is one of its samples. A child cell inherits the two resolved
half-sides of its parent that it lies on, and the four siblings share the
four new half-edges from the parent's centre to its side midpoints, so a
split resolves 4 new half-edges where winding each child afresh would
resolve 16 sides. A half-side whose split point is not a sample of its
parent side is resolved afresh: a phase is never interpolated. Of a parent
side that met a zero, the half holding that zero fails at once and the
other half is resolved afresh.

A cell gets its winding number only. The pole search reads the zeros it
counts from an interpolant of f on a circle around the cell.

A function value close to zero on the contour makes the winding number
ill-defined. It fails the contour (in :class:`QuadLevel`, only the cells
whose sides pass through it), which is retried through
:func:`first_windings`, round by round: :meth:`QuadLevel.wind` winds every
failed cell of the level again, slightly inflated, all in one pass per
round (:meth:`QuadLevel.contour` names the rectangle wound), and
:func:`first_circle_windings` does the same with the caller's radii. A
value that is not finite aborts the computation with
:class:`DeterminantOverflow`, which a retry cannot cure.
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
_CONTOURS_TRIED = 5  # contours tried per cell that meets a zero: the cell, then 4 inflations
_JITTER = 1e-6  # relative inflation per retry of a cell, see _inflations()


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in the complex plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.re_min, self.re_max, self.im_min, self.im_max))):
            raise ValidationError(f"rectangle {self} has a bound that is not finite")
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
_CIRCLE_POINTS = 8


def _finite_values(f, zs):
    v = np.asarray(f(zs), dtype=complex)
    finite = np.isfinite(v)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DeterminantOverflow(f"f({complex(zs[i])}) = {complex(v[i])} is not finite")
    return v


def _zero_message(z, v):
    return f"|f({complex(z)})| = {abs(v):.3e} on the contour"


def _phase(v):
    """Phase change along the samples v: the sum of the steps between
    consecutive ones."""
    return float(np.sum(np.angle(v[1:] / v[:-1])))


def _resolve(f, side, t0, t1, z0, z1, v0, v1, failed):
    """Resolve straight segments breadth first.

    Segment i runs from z0[i] to z1[i], over the parameters t0[i] to t1[i]
    of side ``side[i]``, and f is known (finite, nonzero) at both ends.
    Each level probes the midpoints of all pending segments in one call of
    f. A segment is accepted once both half-steps of the phase are below
    pi/2, and bisected otherwise. A side fails as a whole, and its pending
    segments are dropped, when a probe on it has |f| <= ZERO_TOL or it is
    not resolved after ``_MAX_DEPTH`` levels: ``failed`` maps each failed
    side to its message and the parameter of the zero it met (None when
    the bisection ran out of levels).

    Returns the probes as (side, t, v), a tuple of arrays.
    """
    probes = [(side[:0], t0[:0], v0[:0])]
    depth = 0
    while len(side):
        if depth >= _MAX_DEPTH:
            for s, z, v in zip(side.tolist(), z0, v0):
                failed.setdefault(s, (f"phase step cannot be resolved near {complex(z)} "
                                      f"(|f| ~ {abs(v):.3e})", None))
            break
        tm, zm = 0.5 * (t0 + t1), (z0 + z1) / 2
        vm = _finite_values(f, zm)
        small = np.abs(vm) <= ZERO_TOL
        if small.any():
            for i in np.flatnonzero(small):
                failed.setdefault(int(side[i]), (_zero_message(zm[i], vm[i]), tm[i]))
            live = ~np.isin(side, list(failed))
            side, t0, t1, tm, z0, z1, zm, v0, v1, vm = (
                a[live] for a in (side, t0, t1, tm, z0, z1, zm, v0, v1, vm))
        ok = (np.abs(np.angle(vm / v0)) < _HALF_PI) & (np.abs(np.angle(v1 / vm)) < _HALF_PI)
        probes.append((side, tm, vm))
        split = ~ok
        lower = (side, t0, tm, z0, zm, v0, vm)
        upper = (side, tm, t1, zm, z1, vm, v1)
        side, t0, t1, z0, z1, v0, v1 = (
            np.concatenate([lo[split], hi[split]]) for lo, hi in zip(lower, upper))
        depth += 1
    return tuple(map(np.concatenate, zip(*probes)))


def _settle(f, paths, known):
    """The samples of every path, all resolved in one pass.

    A path is its initial samples (t, z): increasing parameters and the
    points there, from its first end z[0] to its last end z[-1]. ``known``
    maps ends where f is known already to its value there. f is computed in
    one call at every other end and at every inner sample; then the
    segments between consecutive samples of every path that has no sample
    at a zero go through :func:`_resolve` at once.

    Returns, for each path, its sorted samples (t, v), v being f there, or
    its failure (message, zero_at): the parameter of the zero it met, None
    when its bisection ran out of levels.
    """
    if not paths:
        return []
    ends = {}
    for _, z in paths:
        for end in (complex(z[0]), complex(z[-1])):
            if end not in known:
                ends.setdefault(end, len(ends))
    vs = _finite_values(f, np.concatenate([np.array(list(ends), dtype=complex)]
                                          + [z[1:-1] for _, z in paths]))
    known = {**known, **dict(zip(ends, vs))}
    failed, values = {}, []
    start = len(ends)
    for j, (t, z) in enumerate(paths):
        inner = len(z) - 2
        v = np.concatenate([[known[complex(z[0])]], vs[start:start + inner],
                            [known[complex(z[-1])]]])
        start += inner
        small = np.flatnonzero(np.abs(v) <= ZERO_TOL)
        if len(small):
            failed[j] = (_zero_message(z[small[0]], v[small[0]]), t[small[0]])
        values.append(v)
    side = np.repeat(np.arange(len(paths)), [len(z) for _, z in paths])
    t = np.concatenate([t for t, _ in paths])
    z = np.concatenate([z for _, z in paths])
    v = np.concatenate(values)
    # consecutive samples of one path that has not failed: its segments
    a = np.flatnonzero((side[1:] == side[:-1]) & ~np.isin(side[1:], list(failed)))
    probes = _resolve(f, side[a], t[a], t[a + 1], z[a], z[a + 1], v[a], v[a + 1], failed)
    side, t, v = (np.concatenate(pair) for pair in zip((side, t, v), probes))
    order = np.lexsort((t, side))
    side, t, v = side[order], t[order], v[order]
    bounds = np.searchsorted(side, np.arange(len(paths) + 1))
    return [failed.get(j) or (t[bounds[j]:bounds[j + 1]], v[bounds[j]:bounds[j + 1]])
            for j in range(len(paths))]


def _failed(result):
    """Whether a result of :func:`_settle` is a failure."""
    return isinstance(result[0], str)


def _winding(total):
    """The winding number of a total phase change, or the message (a str)
    when it is not close to an integer."""
    w = total / (2 * cmath.pi)
    n = round(w)
    if abs(w - n) > 0.2:
        return f"winding {w:.4f} is not close to an integer"
    return int(n)


def _one(result):
    """The result for a single contour; a failure raises :class:`BoundaryZero`."""
    if isinstance(result, str):
        raise BoundaryZero(result)
    return result


def _samples_for(length: float, base: int, rate_hint) -> int:
    if rate_hint is None:
        return base
    # Keep the expected phase change per initial segment near 1 radian.
    return max(base, int(math.ceil(length * rate_hint)) + 1)


def rect_winding(f, rect: Rect, samples: int = 64, *, rate_hint=None) -> int:
    """Winding number of f around one rectangle boundary, counterclockwise,
    a side starting from ``samples // 4`` equal segments, more where
    ``rate_hint`` asks for them; raises :class:`BoundaryZero` when the
    boundary meets a zero."""
    return _one(QuadLevel._ring([rect])._wind_sides(f, samples, rate_hint)[0])


def _circle_windings(f, centers, radii, rate_hint, upper_half):
    """Winding number of f around each circle (centers[i], radii[i]), all
    settled in one pass; for a circle that met a zero, the message (a str).

    Each circle is one path of one :func:`_settle` pass, from 8 points or
    more where ``rate_hint`` asks for them: the whole circle from
    center + radius round to itself, or with ``upper_half`` its upper half,
    counted twice, from center + radius to center - radius with half as
    many segments. The upper half is valid for an f with
    f(conj z) = c conj(f(z)), |c| = 1, such as g(k) = D(k) exp(-ik sum L_b / 2)
    for the interior determinant D of a graph whose vertex conditions are
    k-independent (not D itself: its factor exp(ik sum L_b / 2) turns the
    two halves by opposite amounts).
    """
    turns = 2 if upper_half else 1  # the path is 1 / turns of the circle
    paths = []
    for center, radius in zip(centers, radii):
        n = math.ceil(_samples_for(2 * math.pi * radius, _CIRCLE_POINTS, rate_hint) / turns)
        t = np.arange(n + 1.0) / n
        z = center + radius * np.exp(2j * np.pi / turns * t)
        z[0], z[-1] = center + radius, (center - radius if upper_half else center + radius)
        paths.append((t, z))
    return [r[0] if _failed(r) else _winding(turns * _phase(r[1])) for r in _settle(f, paths, {})]


def circle_winding(f, center, radius, *, rate_hint=None) -> int:
    """Winding number of f around one whole circle, as
    :func:`_circle_windings` gives it; raises :class:`BoundaryZero` when the
    circle meets a zero."""
    return _one(_circle_windings(f, [center], [radius], rate_hint, False)[0])


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
        self.phase = _phase(v)

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
    :meth:`wind` settles the sides that are still pending, all in one
    :func:`_settle` pass, retries the cells that failed, and :meth:`split`
    makes the next level, whose cells inherit the resolved half-sides of
    their parents.

    A ring (:meth:`_ring`) holds rectangles that share no side, each on four
    sides of its own, such as the inflated retries of :meth:`wind`. It is
    never split, so its sides start from :func:`_samples_for` segments, not
    rounded to a power of two.
    """

    def __init__(self, window: Rect):
        self._own_sides([window], splits=True)

    @classmethod
    def _ring(cls, rects):
        ring = cls.__new__(cls)
        ring._own_sides(rects, splits=False)
        return ring

    def _own_sides(self, rects, splits):
        """Cells ``rects``, each on four pending sides of its own."""
        self._splits = splits
        self.cells, self._sides, self._refs = list(rects), [], []
        for rect in self.cells:
            ll, lr, ur, ul = rect.corners()
            n = len(self._sides)
            self._sides += [_Side(ll, lr), _Side(lr, ur), _Side(ul, ur), _Side(ll, ul)]
            self._refs.append((n, n + 1, n + 2, n + 3))
        # f at vertices of the pending sides, where the parent level has it
        self._known = {}
        # cell index: (ring, index there) of a cell wound inflated
        self._retried = {}

    def wind(self, f, samples: int = 64, *, rate_hint=None):
        """Winding number of every cell, in order, around :meth:`contour`;
        for a cell whose every contour failed (met a zero), the message (a
        str).

        ``samples`` and ``rate_hint`` set the initial sampling of a pending
        side as in :func:`rect_winding`. A cell whose contour fails is
        wound again inflated, with every other failed cell of the level:
        :func:`first_windings` over the :func:`_inflations` of the failed
        cells, each round one ring.
        """
        out = self._wind_sides(f, samples, rate_hint)
        failed = [i for i, w in enumerate(out) if isinstance(w, str)]

        def wind_ring(rects):
            ring = QuadLevel._ring(rects)
            return [w if isinstance(w, str) else (w, ring, j)
                    for j, w in enumerate(ring._wind_sides(f, samples, rate_hint))]

        retried = first_windings(wind_ring, [_inflations(self.cells[i]) for i in failed],
                                 [out[i] for i in failed])
        for i, r in zip(failed, retried):
            if isinstance(r, str):
                out[i] = r
            else:
                (out[i], ring, j), _ = r
                self._retried[i] = ring, j
        return out

    def _wind_sides(self, f, samples, rate_hint):
        """Winding number of every cell, or the message of its failure, from
        the sides settled in one pass, with no retry."""
        pending = [s for s in self._sides if s.v is None and s.failure is None]
        paths = []
        for s in pending:
            n = _samples_for(abs(s.b - s.a), max(2, samples // 4), rate_hint)
            if self._splits:
                # a power of two, so that the side's midpoint is a sample
                n = 1 << (n - 1).bit_length()
            t = np.arange(n + 1) / n
            z = s.a + (s.b - s.a) * t
            z[0], z[-1] = s.a, s.b
            paths.append((t, z))
        for s, result in zip(pending, _settle(f, paths, self._known)):
            if _failed(result):
                s.failure, s.zero_at = result
            else:
                s.settle(*result)
        out = []
        for refs in self._refs:
            b, r, t, l = (self._sides[i] for i in refs)
            failure = next((s.failure for s in (b, r, t, l) if s.failure), None)
            out.append(failure or _winding(b.phase + r.phase - t.phase - l.phase))
        return out

    def contour(self, i) -> Rect:
        """The rectangle around which :meth:`wind` wound cell i: the cell,
        or the inflation of it that met no zero."""
        if i in self._retried:
            ring, j = self._retried[i]
            return ring.cells[j]
        return self.cells[i]

    def split(self, indices) -> "QuadLevel":
        """The next level: the quadrants (as :meth:`Rect.quadrants` orders
        them) of the cells at ``indices``, in that order."""
        nxt = QuadLevel.__new__(QuadLevel)
        nxt._own_sides((), splits=True)
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


def _inflations(rect):
    """The contours tried for a cell of :class:`QuadLevel`: the cell, then
    each inflated by _JITTER x attempt x max(diameter, 1) from the last,
    ``_CONTOURS_TRIED`` in all. Inflation only grows cells, so a zero near a
    shared edge may be counted by two sibling cells but never lost; the
    pole search merges the doubles."""
    for attempt in range(1, _CONTOURS_TRIED + 1):
        yield rect
        rect = rect.inflated(_JITTER * max(rect.diameter, 1.0) * attempt)


def first_windings(wind_many, schedules, failures=None):
    """For each schedule of contours, the winding of its first contour that
    does not hit a zero, as (winding, contour).

    The schedules are tried round by round: round i winds the i-th contour of
    every schedule still unresolved, all in one call of ``wind_many``, which
    maps a list of contours to their windings (for a contour that hit a zero,
    the message, a str). With ``failures`` (one message per schedule), the
    first contour of every schedule has been wound already and hit a zero
    with that message, and the rounds start at the second. A schedule whose
    every contour hits a zero gives a message (a str) naming its first
    contour and how many contours were tried, the first included.
    """
    schedules = [iter(s) for s in schedules]
    out = [None] * len(schedules) if failures is None else list(failures)
    tried = [[] if failures is None else [next(s)] for s in schedules]
    pending = range(len(schedules))
    while pending:
        batch = []
        for i in pending:
            contour = next(schedules[i], None)
            if contour is not None:
                batch.append((i, contour))
            else:
                out[i] = (f"all {len(tried[i])} contours tried for {tried[i][0]} "
                          f"hit zeros: {out[i]}")
        pending = []
        for (i, contour), w in zip(batch, wind_many([c for _, c in batch]) if batch else ()):
            if isinstance(w, str):
                tried[i].append(contour)
                out[i] = w
                pending.append(i)
            else:
                out[i] = (w, contour)
    return out


def first_circle_windings(f, circles, *, rate_hint=None, upper_half=False):
    """For each (centre, radii) of ``circles``, the winding number of f
    around the first circle of those radii that does not meet a zero, the
    circles tried round by round as in :func:`first_windings` and wound as
    in :func:`_circle_windings`; None where every circle meets a zero."""

    def wind(batch):
        return _circle_windings(f, [c for c, _ in batch], [r for _, r in batch],
                                rate_hint, upper_half)

    out = first_windings(wind, [[(c, r) for r in radii] for c, radii in circles])
    return [None if isinstance(w, str) else w[0] for w in out]
