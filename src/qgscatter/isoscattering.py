"""Deciding isophasal, isopolar and conjugacy relations between systems.

Two scattering systems whose matrices are conjugate by one k-independent
invertible matrix share their total phase (det S) and their pole sets; a
conjugator restricted from an eigenspace isomorphism is exactly what makes
two systems "the same seen from outside". The solver looks for such a
conjugator by sampling S at several real k, solving the joint Sylvester-type
system Pi S1(k_j) = S2(k_j) Pi for its null space, and validating any
invertible null vector on held-out samples. Sampling can only ever provide
numerical evidence, never proof, and results are labeled accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    SampleAtSingularity,
    SingularInterior,
    ValidationError,
    WindowMismatch,
)
from .contours import Rect
from .global_scattering import Assembly
from .graph_core import OpenGraph
from .linalg import null_space
from .resonances import PoleSet, _confirm_poles, _find_poles

EVIDENCE_LABEL = "numerical evidence"

# Golden-ratio low-discrepancy sequence over (0.5, 15]; deterministic.
_SAMPLE_LO = 0.5
_SAMPLE_HI = 15.0
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

_COMBINATION_SEED = 20101007
_N_RANDOM_COMBINATIONS = 20
_N_HOLDOUT = 5
_RESIDUAL_TOL = 1e-8  # largest holdout residual of a found conjugator
_NULL_RTOL = 1e-10  # singular-value cut of the conjugator system, relative
_PHASE_KS = tuple(0.1 + (20.0 - 0.1) * (j + 1) / 64 for j in range(64))
_PHASE_TOL = 1e-9  # largest |det S1 - det S2| of isophasal systems
_MATCH_TOL = 1e-6  # largest distance of two paired poles


def default_samples(count: int, skip: int = 0) -> List[float]:
    """The fixed low-discrepancy training/holdout points in (0.5, 15]."""
    out = []
    j = skip
    while len(out) < count:
        frac = ((j + 1) * _GOLDEN) % 1.0
        out.append(_SAMPLE_LO + (_SAMPLE_HI - _SAMPLE_LO) * frac)
        j += 1
    return out


@dataclass(frozen=True)
class ConjugacyResult:
    """Outcome of the conjugator search.

    status is "found", "not_found" or "inconclusive"; when found, ``pi`` is
    a unit-Frobenius-norm invertible matrix with
    max_k ||Pi S1(k) - S2(k) Pi||_F <= tolerance over the holdout samples.
    """

    status: str
    pi: Optional[np.ndarray]
    residual: Optional[float]
    solution_dim: int
    training_ks: Tuple[float, ...]
    holdout_ks: Tuple[float, ...]
    label: str = EVIDENCE_LABEL

    @property
    def found(self) -> bool:
        return self.status == "found"


def _collect_samples(s1, s2, count: int, skip: int):
    """Evaluate both matrix functions at the first ``count`` points of
    ``default_samples`` from index ``skip`` on that are not singular.

    Returns (pairs, used k values, index of the next unused default sample).
    """
    pairs = []
    used = []
    j = skip
    while len(pairs) < count:
        k = default_samples(1, j)[0]
        j += 1
        try:
            a = np.asarray(s1(k), dtype=complex)
            b = np.asarray(s2(k), dtype=complex)
        except SingularInterior:
            continue
        pairs.append((a, b))
        used.append(k)
    return pairs, used, j


def find_conjugator(s1: Callable[[float], np.ndarray], s2: Callable[[float], np.ndarray],
                    *, n_training: int = 6) -> ConjugacyResult:
    """Search for one invertible k-independent Pi with Pi S1(k) = S2(k) Pi.

    Training uses the first ``n_training`` (at least 3) non-singular points
    of ``default_samples``, holdout the next ``_N_HOLDOUT``. The joint
    homogeneous system over the training samples is solved by a
    singular-value cut at ``_NULL_RTOL`` relative to the largest value; the
    null space is then probed for an invertible element (each basis vector,
    then 20 seeded random unit combinations) and the first hit is validated
    on holdout samples. Verdicts: "found" when the holdout residual is at
    most ``_RESIDUAL_TOL``, "inconclusive" when training succeeds but
    holdout does not, "not_found" when the null space is trivial or contains
    no invertible element.
    """
    if n_training < 3:
        raise ValidationError(f"need at least 3 training samples, got {n_training}")
    pairs, used, consumed = _collect_samples(s1, s2, n_training, 0)
    hold_pairs, hold_used, _ = _collect_samples(s1, s2, _N_HOLDOUT, consumed)

    n = pairs[0][0].shape[0]
    for a, b in pairs:
        if a.shape != (n, n) or b.shape != (n, n):
            raise DimensionMismatch(
                f"matrix functions must agree in dimension, got {a.shape} vs {b.shape}"
            )

    eye = np.eye(n)
    rows = []
    for a, b in pairs:
        # vec(Pi A - B Pi) = (kron(I, A^T) - kron(B, I)) vec(Pi), row-major vec.
        rows.append(np.kron(eye, a.T) - np.kron(b, eye))
    basis = null_space(np.vstack(rows), rtol=_NULL_RTOL).T
    null_dim = len(basis)
    if null_dim == 0:
        return ConjugacyResult("not_found", None, None, 0,
                               tuple(used), tuple(hold_used))

    candidates = [basis[i] for i in range(null_dim)]
    rng = np.random.default_rng(_COMBINATION_SEED)
    for _ in range(_N_RANDOM_COMBINATIONS):
        coeff = rng.standard_normal(null_dim) + 1j * rng.standard_normal(null_dim)
        candidates.append(coeff @ basis)

    pi = None
    for vec in candidates:
        nrm = np.linalg.norm(vec)
        if nrm == 0:
            continue
        cand = (vec / nrm).reshape(n, n)
        if abs(np.linalg.det(cand)) > 1e-8:
            pi = cand
            break
    if pi is None:
        return ConjugacyResult("not_found", None, None, null_dim,
                               tuple(used), tuple(hold_used))

    residual = 0.0
    for (a, b), k in zip(hold_pairs, hold_used):
        residual = max(residual, float(np.linalg.norm(pi @ a - b @ pi)))
    status = "found" if residual <= _RESIDUAL_TOL else "inconclusive"
    return ConjugacyResult(status, pi, residual, null_dim, tuple(used), tuple(hold_used))


def conjugation_residual(pi, s1, s2, ks) -> float:
    """max_k ||Pi S1(k) - S2(k) Pi||_F over the given samples."""
    pi = np.asarray(pi, dtype=complex)
    out = 0.0
    for k in ks:
        a = np.asarray(s1(k), dtype=complex)
        b = np.asarray(s2(k), dtype=complex)
        out = max(out, float(np.linalg.norm(pi @ a - b @ pi)))
    return out


def isophasal_check(s1, s2) -> Tuple[bool, float]:
    """Equality of det S1(k) and det S2(k), to ``_PHASE_TOL``, at the 64
    evenly spaced real points ``_PHASE_KS`` in (0.1, 20].

    Both determinants lie on the unit circle for unitary S, so comparing the
    values directly is equivalent to comparing total phases modulo 2 pi and
    avoids branch tracking. A sample where ``s1`` or ``s2`` raises
    :class:`SingularInterior` raises :class:`SampleAtSingularity` naming
    the first such k.
    """
    def stacked(s):
        def many(ks):
            out = []
            for k in ks:
                try:
                    out.append(np.asarray(s(k), dtype=complex))
                except SingularInterior as exc:
                    # name the sample, whatever k the caller's error carries
                    raise SingularInterior(str(exc), k=k, determinant=exc.determinant) from exc
            return np.stack(out)
        return many

    return _isophasal(stacked(s1), stacked(s2))


def _isophasal(many1, many2) -> Tuple[bool, float]:
    """:func:`isophasal_check` of two functions that map an array of k to
    the stacked matrices S(k), such as ``Assembly.scattering_many``, and
    raise :class:`SingularInterior` at the first singular k. A sample where
    either is singular raises :class:`SampleAtSingularity` naming the
    first such k, graph 1's on a tie."""
    ks = np.array(_PHASE_KS)
    dets, singular = [], []
    for many in (many1, many2):
        try:
            dets.append(np.linalg.det(many(ks)))
        except SingularInterior as exc:
            singular.append(exc)
    if singular:
        exc = min(singular, key=lambda e: complex(e.k).real)
        raise SampleAtSingularity(
            f"sample k = {complex(exc.k).real} hits a singular point") from exc
    dev = float(np.max(np.abs(dets[0] - dets[1])))
    return dev <= _PHASE_TOL, dev


@dataclass(frozen=True)
class PolePairing:
    matched: Tuple[Tuple[complex, complex, float], ...]
    unmatched_1: Tuple[complex, ...]
    unmatched_2: Tuple[complex, ...]
    max_distance: float


def isopolar_check(p1: PoleSet, p2: PoleSet) -> Tuple[bool, PolePairing]:
    """Greedy nearest pairing, within ``_MATCH_TOL``, of two pole sets over one window."""
    if p1.window != p2.window:
        raise WindowMismatch("pole sets come from different windows")

    ks1 = [p.k for p in p1.poles for _ in range(p.multiplicity)]
    ks2 = [p.k for p in p2.poles for _ in range(p.multiplicity)]
    matched = []
    max_d = 0.0
    remaining1, remaining2 = list(ks1), list(ks2)
    while remaining1 and remaining2:
        best = None
        for i, a in enumerate(remaining1):
            for j, b in enumerate(remaining2):
                d = abs(a - b)
                if best is None or d < best[0]:
                    best = (d, i, j)
        d, i, j = best
        if d > _MATCH_TOL:
            break
        matched.append((remaining1[i], remaining2[j], d))
        max_d = max(max_d, d)
        remaining1.pop(i)
        remaining2.pop(j)
    ok = not remaining1 and not remaining2 and len(ks1) == len(ks2)
    return ok, PolePairing(tuple(matched), tuple(remaining1), tuple(remaining2), max_d)


@dataclass(frozen=True)
class TransplantabilityReport:
    verdict: str
    conjugacy: ConjugacyResult
    isophasal: bool
    isophasal_deviation: float
    isopolar: bool
    pairing: PolePairing
    poles_1: PoleSet
    poles_2: PoleSet
    warnings: Tuple[str, ...] = ()
    label: str = EVIDENCE_LABEL


def transplantability_verdict(og1: OpenGraph, og2: OpenGraph, window: Rect,
                              n_training: int = 6) -> TransplantabilityReport:
    """Full pipeline: conjugator search, phase comparison, pole comparison.

    The verdict is "transplantable (numerical evidence)" when a conjugator
    is found, and "no transplantation on these lead sets" when the search
    fails or the pole sets differ. ``n_training`` is the number of
    training samples of the conjugator search. The rest is fixed: the
    constants ``_N_HOLDOUT``, ``_NULL_RTOL``, ``_RESIDUAL_TOL``, ``_PHASE_KS``,
    ``_PHASE_TOL`` and ``_MATCH_TOL`` here, those of ``resonances`` for poles.

    Each graph gets one :class:`Assembly`. The phase samples are one
    stacked S(k) solve per graph. Graph 1's poles are searched for; when a
    conjugator is found and that search gave no warning but those of edge
    zeros, graph 2's are confirmed from them (conjugate S have the same
    poles), and searched for afresh when the confirmation fails. The
    report's warnings are those of both pole searches, prefixed "graph 1: "
    and "graph 2: ", then the verdict's own.
    """
    if og1.n_leads != og2.n_leads:
        raise DimensionMismatch(
            f"lead counts differ ({og1.n_leads} vs {og2.n_leads}); "
            "conjugacy needs equal dimensions"
        )
    asm1, asm2 = Assembly(og1), Assembly(og2)
    conj = find_conjugator(lambda k: asm1.scattering(k).s, lambda k: asm2.scattering(k).s,
                           n_training=n_training)
    phases_ok, dev = _isophasal(asm1.scattering_many, asm2.scattering_many)
    poles1 = _find_poles(asm1, window)
    # conjugate S share their poles: confirm graph 2's from graph 1's, and
    # search afresh when that fails; of graph 1's warnings only those of its
    # edge zeros allow the confirmation
    poles2 = None
    if conj.found and poles1.only_edge_warnings:
        poles2 = _confirm_poles(asm2, window, asm1, poles1)
    if poles2 is None:
        poles2 = _find_poles(asm2, window)
    polar_ok, pairing = isopolar_check(poles1, poles2)

    warnings = ([f"graph 1: {w}" for w in poles1.warnings]
                + [f"graph 2: {w}" for w in poles2.warnings])
    if conj.found and not polar_ok:
        warnings.append(
            "conjugator found but pole sets disagree; check scan residuals"
        )
    if not conj.found and phases_ok:
        warnings.append(
            "systems are isophasal yet no conjugator was found on these samples"
        )
    if conj.found:
        verdict = f"transplantable ({EVIDENCE_LABEL})"
    elif conj.status == "not_found" or not polar_ok:
        verdict = "no transplantation on these lead sets"
    else:
        verdict = "inconclusive"
    return TransplantabilityReport(
        verdict=verdict,
        conjugacy=conj,
        isophasal=phases_ok,
        isophasal_deviation=dev,
        isopolar=polar_ok,
        pairing=pairing,
        poles_1=poles1,
        poles_2=poles2,
        warnings=tuple(warnings),
    )
