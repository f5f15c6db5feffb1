"""Deciding isophasal, isopolar and conjugacy relations between systems.

Two scattering systems whose matrices are conjugate by one k-independent
invertible matrix share their total phase (det S) and their pole sets; a
conjugator restricted from an eigenspace isomorphism is exactly what makes
two systems "the same seen from outside". The solver samples each S at
several real k in one stacked call, solves the joint Sylvester-type system
Pi S1(k_j) = S2(k_j) Pi for its null space, and validates any invertible
null vector on held-out samples. The verdict takes total phases from the
interior determinants (``Assembly.scattering_det_many``). Neither the
conjugator nor the phases depend on the pole window, so a verdict judges
them once per ordered pair of graphs and keeps them with graph 1's
Assembly, beside each graph's samples, in the one per-graph store
(``Assembly._kept``) that also holds the quotient set-ups of
:mod:`~qgscatter.symmetry_rep`; all of it leaves with the Assembly when
the graph leaves the memo of the last four graphs. Sampling can only ever
provide numerical evidence, never proof, and results are labeled
accordingly.
"""

from __future__ import annotations

import copy
import math
import weakref
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    SampleAtSingularity,
    SingularAtK,
    SingularInterior,
    ValidationError,
    WindowMismatch,
)
from .contours import Rect
from .global_scattering import Assembly, _assembly
from .graph_core import OpenGraph
from .linalg import null_space
from .resonances import PoleSet, _find_poles, _require_holomorphic

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


def _stacked(s):
    """The function of a list of k that stacks the matrices ``s(k)``, and
    names the sample in a :class:`SingularInterior` or :class:`SingularAtK`
    that ``s`` raises."""
    def many(ks):
        out = []
        for k in ks:
            try:
                out.append(np.asarray(s(k), dtype=complex))
            except SingularInterior as exc:
                raise SingularInterior(str(exc), k=k, determinant=exc.determinant) from exc
            except SingularAtK as exc:
                raise SingularAtK(str(exc), k=k) from exc
        return np.stack(out)
    return many


def _collect_samples(many1, many2, count: int):
    """The first ``count`` points of ``default_samples`` at which neither
    ``many1`` nor ``many2`` raises :class:`SingularInterior` or
    :class:`SingularAtK`, and the stacked matrices of both there."""
    ks, skip = default_samples(count), count
    while True:
        try:
            return ks, np.asarray(many1(ks)), np.asarray(many2(ks))
        except (SingularInterior, SingularAtK) as exc:
            ks.remove(exc.k)
            ks += default_samples(1, skip)
            skip += 1


def _kept(asm: Assembly, name: str):
    """The method ``name`` of ``asm`` (``scattering_many`` or
    ``scattering_det_many``) on lists of k, computing each k once per
    Assembly: its value, or the :class:`SingularInterior` raised there, is
    kept in ``asm._kept``. The first kept error among ``ks`` is
    raised as a new exception, and kept values are handed out in a new
    array."""
    solve, kept = getattr(asm, name), asm._kept.setdefault(name, {})

    def many(ks):
        ks = np.asarray(ks).tolist()  # keys hash fast as Python floats
        missing = [k for k in ks if k not in kept]
        if missing:
            try:
                kept.update(zip(missing, solve(np.array(missing))))
            except SingularInterior as exc:
                kept[exc.k] = copy.copy(exc)
        failed = [kept[k] for k in ks if isinstance(kept.get(k), SingularInterior)]
        if failed:
            raise copy.copy(failed[0])
        return np.array([kept[k] for k in ks])
    return many


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
    return _find_conjugator(_stacked(s1), _stacked(s2), n_training)


def _find_conjugator(many1, many2, n_training: int) -> ConjugacyResult:
    """:func:`find_conjugator` of two functions that map a list of k to the
    stacked matrices, such as ``Assembly.scattering_many``, and raise
    :class:`SingularInterior` or :class:`SingularAtK` naming a singular k,
    whose sample is skipped."""
    if n_training < 3:
        raise ValidationError(f"need at least 3 training samples, got {n_training}")
    ks, s1s, s2s = _collect_samples(many1, many2, n_training + _N_HOLDOUT)
    used, hold_used = tuple(ks[:n_training]), tuple(ks[n_training:])

    n = s1s.shape[-1]
    if s1s.shape[1:] != (n, n) or s2s.shape != s1s.shape:
        raise DimensionMismatch("matrix functions must agree in dimension, "
                                f"got {s1s.shape[1:]} vs {s2s.shape[1:]}")

    # vec(Pi A - B Pi) = (kron(I, A^T) - kron(B, I)) vec(Pi), row-major vec,
    # for every training pair (A, B) at once
    eye = np.eye(n)
    a, b = s1s[:n_training], s2s[:n_training]
    rows = np.einsum("pr,jsq->jpqrs", eye, a) - np.einsum("jpr,qs->jpqrs", b, eye)
    basis = null_space(rows.reshape(-1, n * n), rtol=_NULL_RTOL).T
    null_dim = len(basis)
    if null_dim == 0:
        return ConjugacyResult("not_found", None, None, 0, used, hold_used)

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
        return ConjugacyResult("not_found", None, None, null_dim, used, hold_used)

    residual = 0.0
    for a, b in zip(s1s[n_training:], s2s[n_training:]):
        residual = max(residual, float(np.linalg.norm(pi @ a - b @ pi)))
    status = "found" if residual <= _RESIDUAL_TOL else "inconclusive"
    return ConjugacyResult(status, pi, residual, null_dim, used, hold_used)


def isophasal_check(s1, s2) -> Tuple[bool, float]:
    """Equality of det S1(k) and det S2(k), to ``_PHASE_TOL``, at the 64
    evenly spaced real points ``_PHASE_KS`` in (0.1, 20].

    Both determinants lie on the unit circle for unitary S, so comparing the
    values directly is equivalent to comparing total phases modulo 2 pi and
    avoids branch tracking. A sample where ``s1`` or ``s2`` raises
    :class:`SingularInterior` (a bound state) or :class:`SingularAtK` (a
    singular A + ikB) raises :class:`SampleAtSingularity` naming the first
    such k.
    """
    many1, many2 = _stacked(s1), _stacked(s2)
    return _isophasal(lambda ks: np.linalg.det(many1(ks)), lambda ks: np.linalg.det(many2(ks)))


def _isophasal(dets1, dets2) -> Tuple[bool, float]:
    """:func:`isophasal_check` of two functions that map an array of k to
    det S(k), such as ``Assembly.scattering_det_many``, and raise
    :class:`SingularInterior` or :class:`SingularAtK` at the first singular
    k. A sample where either is singular raises
    :class:`SampleAtSingularity` naming the first such k, graph 1's on a
    tie."""
    ks = np.array(_PHASE_KS)
    dets, singular = [], []
    for det_many in (dets1, dets2):
        try:
            dets.append(det_many(ks))
        except (SingularInterior, SingularAtK) as exc:
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
    # each step pairs the nearest free pair within _MATCH_TOL, the first in
    # row-major order on a tie: the pairs within it, in stable order of
    # distance, whose row and column are both still free. np.hypot gives
    # the bits of Python's abs(a - b); numpy's complex abs does not.
    diff = np.array(ks1, dtype=complex)[:, None] - np.array(ks2, dtype=complex)
    dist = np.hypot(diff.real, diff.imag)
    near = np.flatnonzero(dist <= _MATCH_TOL)
    free1, free2 = [True] * len(ks1), [True] * len(ks2)
    matched = []
    for flat in near[np.argsort(dist.flat[near], kind="stable")].tolist():
        i, j = divmod(flat, len(ks2))
        if free1[i] and free2[j]:
            free1[i] = free2[j] = False
            matched.append((ks1[i], ks2[j], float(dist[i, j])))
    remaining1 = tuple(k for k, free in zip(ks1, free1) if free)
    remaining2 = tuple(k for k, free in zip(ks2, free2) if free)
    ok = not remaining1 and not remaining2 and len(ks1) == len(ks2)
    max_d = max((d for _, _, d in matched), default=0.0)
    return ok, PolePairing(tuple(matched), remaining1, remaining2, max_d)


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
    Both graphs must have k-independent vertex conditions, which the pole
    search and the phase identity need: a ``linear_ab`` vertex raises
    :class:`~qgscatter.errors.NonHolomorphic` before anything is solved.

    Both graphs take their :class:`Assembly` from the memo of the last four
    graphs that :func:`~qgscatter.resonances.find_poles` and
    :func:`~qgscatter.global_scattering.scattering_matrix` share (one
    Assembly when ``og1 is og2``), so that verdicts of one graph against
    others in a row set it up once. The window-free half is computed once
    per ordered pair and ``n_training``: the conjugator result and the
    phase comparison are kept with graph 1's Assembly, keyed weakly by
    graph 2's, so that they go when either graph leaves the memo. Each
    report gets its own copy of Pi. A search or comparison that raises
    keeps nothing. Their inputs are kept once per graph, with its Assembly
    and per k: S(k) at the conjugator samples, from one stacked solve per
    graph (again after a singular sample, which is skipped and kept as
    singular), and det S at the phase samples, from D(k) alone, or the
    sample where it is singular, which a later verdict raises anew. A
    verdict of a new pair solves only the samples its graphs lack, with the
    same bits, and a later verdict of the same pair solves none. Only the
    pole searches depend on the window: each graph's poles come from
    :func:`~qgscatter.resonances.find_poles` on its own Assembly, so that
    the isopolar check compares two independent searches. For graphs with
    a root set (see ``find_poles``) both read their zeros from the roots,
    which the first search of each Assembly builds and later verdicts
    reuse; other graphs with edges read them from a circle around the
    window, in every verdict. The report's warnings are those of both pole searches, prefixed
    "graph 1: " and "graph 2: ", then the verdict's own.
    """
    if og1.n_leads != og2.n_leads:
        raise DimensionMismatch(
            f"lead counts differ ({og1.n_leads} vs {og2.n_leads}); "
            "conjugacy needs equal dimensions"
        )
    _require_holomorphic(og1)
    _require_holomorphic(og2)
    asm1, asm2 = _assembly(og1), _assembly(og2)
    pairs = asm1._kept.setdefault("pairs", weakref.WeakKeyDictionary())
    judged = pairs.get(asm2, {}).get(n_training)
    if judged is None:
        conj = _find_conjugator(_kept(asm1, "scattering_many"), _kept(asm2, "scattering_many"),
                                n_training)
        judged = conj, _isophasal(_kept(asm1, "scattering_det_many"),
                                  _kept(asm2, "scattering_det_many"))
        pairs.setdefault(asm2, {})[n_training] = judged
    conj, (phases_ok, dev) = judged
    if conj.pi is not None:  # each report gets its own copy
        conj = replace(conj, pi=conj.pi.copy())
    poles1, poles2 = _find_poles(asm1, window), _find_poles(asm2, window)
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
