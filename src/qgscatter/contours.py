"""Argument-principle plumbing: winding numbers along closed contours.

The phase change of a holomorphic function along a closed polyline is
accumulated segment by segment. A segment is only accepted once a midpoint
probe confirms both halves advance by less than pi/2; otherwise it is
bisected. Phase tracking by sampling cannot see rotations faster than the
sampling resolves (a whole turn between samples aliases to zero), so
callers that know a bound on the rotation rate of their function pass it
as ``rate_hint`` (radians per unit arc length) and the initial sampling is
densified to stay below the aliasing limit. For the interior determinants
built in this package the bulk rate is exactly the total directed-bond
length.

A function value close to zero on the contour aborts the computation,
since the winding number is then ill-defined; callers jitter their contour
and retry through :func:`first_winding`. A value that is not finite aborts
it too, with :class:`DeterminantOverflow`, which a retry cannot cure.
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


def _checked_values(f, zs, zero_tol):
    v = np.asarray(f(zs), dtype=complex)
    finite = np.isfinite(v)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DeterminantOverflow(f"f({complex(zs[i])}) = {complex(v[i])} is not finite")
    small = np.abs(v) <= zero_tol
    if small.any():
        i = int(np.argmax(small))
        raise BoundaryZero(f"|f({complex(zs[i])})| = {abs(v[i]):.3e} on the contour")
    return v


def phase_change(f, points, *, zero_tol=ZERO_TOL):
    """Total continuous phase change of f along the closed polyline.

    ``points`` are the vertices in order; the path closes from the last
    point back to the first. ``f`` maps a 1-D complex array to the array
    of its values. The segments are resolved breadth first: all vertices
    are evaluated in one call, then on each level the midpoints of every
    segment not yet accepted.
    """
    z0 = np.array(points, dtype=complex)
    if len(z0) < 3:
        raise ValueError("need at least 3 points for a closed contour")
    v0 = _checked_values(f, z0, zero_tol)
    z1, v1 = np.roll(z0, -1), np.roll(v0, -1)
    total = 0.0
    depth = 0
    while len(z0):
        if depth >= _MAX_DEPTH:
            raise BoundaryZero(
                f"phase step cannot be resolved near {complex(z0[0])} (|f| ~ {abs(v0[0]):.3e})")
        zm = (z0 + z1) / 2
        vm = _checked_values(f, zm, zero_tol)
        s1 = np.angle(vm / v0)
        s2 = np.angle(v1 / vm)
        # accept a segment once both half-steps are below pi/2; bisect the rest
        ok = (np.abs(s1) < 0.5 * np.pi) & (np.abs(s2) < 0.5 * np.pi)
        total += float(np.sum(s1[ok] + s2[ok]))
        split = ~ok
        z0, v0, z1, v1 = (np.concatenate([z0[split], zm[split]]),
                          np.concatenate([v0[split], vm[split]]),
                          np.concatenate([zm[split], z1[split]]),
                          np.concatenate([vm[split], v1[split]]))
        depth += 1
    return total


def _winding_from_phase(total):
    w = total / (2 * cmath.pi)
    n = round(w)
    if abs(w - n) > 0.2:
        raise BoundaryZero(f"winding {w:.4f} is not close to an integer")
    return int(n)


def _samples_for(length: float, base: int, rate_hint) -> int:
    if rate_hint is None:
        return base
    # Keep the expected phase change per initial segment near 1 radian.
    return max(base, int(math.ceil(length * rate_hint)) + 1)


def rect_winding(f, rect: Rect, samples: int = 64, *, zero_tol=ZERO_TOL,
                 rate_hint=None) -> int:
    """Winding number of f around the rectangle boundary (counterclockwise).

    ``f`` maps a 1-D complex array to the array of its values.
    """
    base = max(2, samples // 4)
    pts = []
    c = rect.corners()
    for i in range(4):
        z0, z1 = c[i], c[(i + 1) % 4]
        n = _samples_for(abs(z1 - z0), base, rate_hint)
        for j in range(n):
            pts.append(z0 + (z1 - z0) * j / n)
    return _winding_from_phase(phase_change(f, pts, zero_tol=zero_tol))


def circle_winding(f, center, radius, samples: int = 32, *, zero_tol=ZERO_TOL,
                   rate_hint=None) -> int:
    """Winding number of f around a circle; ``f`` as for :func:`rect_winding`."""
    n = _samples_for(2 * math.pi * radius, samples, rate_hint)
    pts = [center + radius * cmath.exp(2j * cmath.pi * j / n) for j in range(n)]
    return _winding_from_phase(phase_change(f, pts, zero_tol=zero_tol))


def first_winding(wind, contours):
    """Winding of the first contour in ``contours`` that does not hit a zero.

    ``wind`` maps one contour to its winding number and raises
    :class:`BoundaryZero` when the contour hits a zero. Returns
    (winding, contour); raises :class:`BoundaryZero` naming the first contour
    when every one hits a zero.
    """
    tried, last = [], ""
    for contour in contours:
        try:
            return wind(contour), contour
        except BoundaryZero as exc:
            # keep the message only: the exception's traceback holds the
            # contour's sample arrays
            tried.append(contour)
            last = str(exc)
    raise BoundaryZero(f"contour through {tried[0]} still hits zeros after {len(tried)} "
                       f"retries: {last}")
