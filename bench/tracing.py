"""Outside-in tracing of the library's layers.

The tracer wraps, from outside the library, the functions through which
each layer is reached, and records one span per call: its name, the span
that was open when it started (its parent), start and end times, and
whether it raised. A module-level function is replaced under every name it
is bound to in the package (``contours.rect_winding`` and the
``rect_winding`` that ``resonances`` imported are one target); methods are
replaced on their class. ``uninstall`` puts the originals back.

Spans are kept in flat arrays in memory and reduced to the per-layer table
when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np

from qgscatter import (cli, contours, global_scattering, graph_core, isoscattering, linalg,
                       resonances, symmetry_rep, vertex_scattering)

# (span name, owner, attribute). The span name is "<module>.<function>".
TARGETS = (
    ("global_scattering.Assembly", global_scattering.Assembly, "__init__"),
    ("global_scattering.interior_det", global_scattering.Assembly, "interior_det"),
    ("global_scattering.interior_log_derivative", global_scattering.Assembly,
     "interior_log_derivative"),
    ("global_scattering.scattering", global_scattering.Assembly, "scattering"),
    ("global_scattering.scattering_matrix", global_scattering, "scattering_matrix"),
    ("global_scattering.eigenvalues_compact", global_scattering, "eigenvalues_compact"),
    ("contours.rect_winding", contours, "rect_winding"),
    ("contours.circle_winding", contours, "circle_winding"),
    ("resonances.find_poles", resonances, "find_poles"),
    ("vertex_scattering.condition_sigma", vertex_scattering, "condition_sigma"),
    ("vertex_scattering.ab_to_sigma", vertex_scattering, "ab_to_sigma"),
    ("symmetry_rep.quotient_scattering", symmetry_rep, "quotient_scattering"),
    ("symmetry_rep.validate_action", symmetry_rep, "validate_action"),
    ("symmetry_rep.intertwiner_basis", symmetry_rep, "intertwiner_basis"),
    ("isoscattering.transplantability_verdict", isoscattering, "transplantability_verdict"),
    ("isoscattering.find_conjugator", isoscattering, "find_conjugator"),
    ("isoscattering.isophasal_check", isoscattering, "isophasal_check"),
    ("isoscattering.isopolar_check", isoscattering, "isopolar_check"),
    ("linalg.lu_det", linalg, "lu_det"),
    ("graph_core.bond_table", graph_core, "bond_table"),
    ("cli.parse_graph_file", cli, "parse_graph_file"),
)

# Zeros a call returns, counting multiplicity: the bases of the ratios.
RESULT_COUNTS = {
    "resonances.find_poles": lambda ps: sum(
        p.multiplicity for p in tuple(ps.poles) + tuple(ps.real_axis_zeros)),
    "global_scattering.eigenvalues_compact": lambda sw: sum(
        ev.multiplicity for ev in sw.eigenvalues),
}

def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qgscatter" or name.startswith("qgscatter."))]


class Tracer:
    """Span recorder; ``install`` patches the targets, ``uninstall`` restores them."""

    def __init__(self):
        names = [t[0] for t in TARGETS] + ["job", "setup"]
        self._name_id = {n: i for i, n in enumerate(names)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.result_counts = {n: 0 for n in RESULT_COUNTS}
        self._stack = [-1]
        self._patches = []

    # -- recording --------------------------------------------------------

    def _open(self, name_id):
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, span, fn):
        name_id = self._name_id[span]
        counter = RESULT_COUNTS.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                self._close(idx)
            if counter is not None:
                self.result_counts[span] += counter(result)
            return result

        return traced

    @contextlib.contextmanager
    def recording(self, root="job"):
        """Patch the targets and record spans under a root span of the
        benchmark's own (``job`` or ``setup``) until the block ends."""
        self.install()
        idx = self._open(self._name_id[root])
        try:
            yield
        finally:
            self._close(idx)
            self.uninstall()

    # -- patching ---------------------------------------------------------

    def install(self):
        modules = _package_modules()
        for span, owner, attr in TARGETS:
            original = owner.__dict__[attr]
            wrapped = self._wrap(span, original)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [m for m in modules if m.__dict__.get(attr) is original]
            for holder in holders:
                setattr(holder, attr, wrapped)
                self._patches.append((holder, attr, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches = []

    # -- reduction --------------------------------------------------------

    def table(self):
        """Calls, self time and raises of every target, plus the
        determinant evaluations per zero found; ``run.py`` reports the
        ones BENCHMARK.json names."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        raised = np.frombuffer(self.raised, dtype=np.int8)
        has_parent = parent >= 0
        child_time = np.zeros(len(name))
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        self_time = dur - child_time

        # the nearest enclosing pole search or spectrum call of every span
        fp, ec = self._name_id["resonances.find_poles"], \
            self._name_id["global_scattering.eigenvalues_compact"]
        inside = np.full(len(name), -1, dtype=np.int32)
        for i in range(len(name)):
            p = parent[i]
            if p >= 0:
                inside[i] = name[p] if name[p] in (fp, ec) else inside[p]
        det = name == self._name_id["global_scattering.interior_det"]

        out = {}
        for span, _, _ in TARGETS:
            sel = name == self._name_id[span]
            out[f"{span}.calls"] = (int(np.sum(sel)), "count")
            out[f"{span}.self_s"] = (float(np.sum(self_time[sel])), "s")
            out[f"{span}.raised"] = (int(np.sum(raised[sel])), "count")
        zeros = self.result_counts["resonances.find_poles"]
        eigen = self.result_counts["global_scattering.eigenvalues_compact"]
        out["resonances.zeros_found"] = (zeros, "count")
        out["resonances.det_evals_per_zero"] = (
            float(np.sum(det & (inside == fp))) / zeros if zeros else 0.0, "ratio")
        out["global_scattering.eigenvalues_found"] = (eigen, "count")
        out["global_scattering.det_evals_per_eigenvalue"] = (
            float(np.sum(det & (inside == ec))) / eigen if eigen else 0.0, "ratio")
        return out
