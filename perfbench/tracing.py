"""Span recording around the public functions of each gaussito layer.

A ``Tracer`` keeps spans in memory as parallel arrays (name, start, end,
parent span, scenario) and derives per-layer self times from them: a span's
length minus the time its direct child spans cover.  ``Tracer.install``
wraps every traced function at every place it is bound (modules import
their callees by name, so wrapping only the defining module would
undercount), wraps the ``RegulatedFunction`` evaluation methods on the class,
and wraps ``cov`` on each spec that ``catalog`` returns.  ``uninstall``
restores the originals, so untraced passes in the same process run the
unmodified code.

Spans are recorded on one stack, so a traced pass must run on one thread
(``--jobs 1``).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# metric prefix -> (module, attribute) of each function recorded under it
FUNCTIONS = {
    "heatkernel.psi": [("gaussito.heatkernel", "psi")],
    "stieltjes.integrate_ys": [("gaussito.stieltjes", "integrate_ys")],
    "stieltjes.integrate_ls": [("gaussito.stieltjes", "integrate_ls")],
    "gaussproc.simulate_paths": [("gaussito.gaussproc", "simulate_paths")],
    "gaussproc.path_qv_mc": [("gaussito.gaussproc", "path_qv_mc")],
    "gaussproc.catalog": [("gaussito.gaussproc", "catalog")],
    "gaussproc.cm_element": [("gaussito.gaussproc", "cm_element")],
    "itoverify.ito_stransform_residual": [("gaussito.itoverify", "ito_stransform_residual")],
    "itoverify.ito_rcll_residual": [("gaussito.itoverify", "ito_rcll_residual")],
    "itoverify.martingale_ito_mc": [("gaussito.itoverify", "martingale_ito_mc")],
    "itoverify.mc_pairing": [
        ("gaussito.itoverify", "mc_s_transform"),
        ("gaussito.itoverify", "hermite_p2_identity_mc"),
        ("gaussito.itoverify", "simple_skorokhod_mc"),
    ],
    "cli.run_scenario": [("gaussito.cli", "run_scenario")],
}
REGULATED_METHODS = ("values", "left_values", "right_values", "base_values")

SPAN_NAMES = tuple(FUNCTIONS) + ("regulated.eval", "gaussproc.cov")
CALL_COUNTED = (
    "heatkernel.psi",
    "stieltjes.integrate_ys",
    "stieltjes.integrate_ls",
    "regulated.eval",
    "gaussproc.cov",
    "gaussproc.simulate_paths",
    "itoverify.ito_stransform_residual",
    "itoverify.ito_rcll_residual",
    "itoverify.martingale_ito_mc",
)
COUNTERS = (
    "heatkernel.psi.points",
    "regulated.eval.points",
    "gaussproc.simulate_paths.path_points",
    "stieltjes.cells",
    "stieltjes.not_converged",
)


def _psi_points(args, kwargs, result):
    t = kwargs["t"] if "t" in kwargs else args[1]
    x = kwargs["x"] if "x" in kwargs else args[2]
    return {"heatkernel.psi.points": np.broadcast(np.asarray(t), np.asarray(x)).size}


def _integral_counts(args, kwargs, result):
    return {"stieltjes.cells": result.n_cells, "stieltjes.not_converged": int(not result.converged)}


def _path_points(args, kwargs, result):
    return {"gaussproc.simulate_paths.path_points": result.paths.size}


def _eval_points(args, kwargs, result):
    return {"regulated.eval.points": np.size(args[1] if len(args) > 1 else kwargs["ts"])}


COUNTING = {
    "heatkernel.psi": _psi_points,
    "stieltjes.integrate_ys": _integral_counts,
    "stieltjes.integrate_ls": _integral_counts,
    "gaussproc.simulate_paths": _path_points,
    "regulated.eval": _eval_points,
}


class Tracer:
    """The spans and counters of one traced pass."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.scenarios: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.scenario = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]
        self._scenario = -1
        self._patches: list[tuple[object, str, object]] = []

    def set_scenario(self, name: str) -> None:
        self.scenarios.append(name)
        self._scenario = len(self.scenarios) - 1

    def wrap(self, name: str, fn):
        """``fn`` recording one span named ``name`` per call."""
        nid = self.names.index(name)
        count = COUNTING.get(name)
        stack, counters = self._stack, self.counters
        name_ids, parents, scenarios = self.name_id, self.parent, self.scenario
        starts, ends = self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            scenarios.append(self._scenario)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if count is not None:
                for key, n in count(args, kwargs, result).items():
                    counters[key] += int(n)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "gaussito" or k.startswith("gaussito.")]
        for name, targets in FUNCTIONS.items():
            for module_name, attr in targets:
                original = getattr(sys.modules[module_name], attr)
                wrapped = self.wrap(name, original)
                if name == "gaussproc.catalog":
                    wrapped = self._wrapping_cov(wrapped)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapped)
        regulated = sys.modules["gaussito.regulated"].RegulatedFunction
        for method in REGULATED_METHODS:
            self._patch(regulated, method, self.wrap("regulated.eval", getattr(regulated, method)))

    def _wrapping_cov(self, catalog):
        @functools.wraps(catalog)
        def traced_catalog(*args, **kwargs):
            spec = catalog(*args, **kwargs)
            spec.cov = self.wrap("gaussproc.cov", spec.cov)
            return spec

        return traced_catalog

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "scenario": np.frombuffer(self.scenario, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, float]:
        """Calls and self seconds per span name, plus the counters."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], dur[nested])
        self_s = np.bincount(a["name_id"], weights=dur - child, minlength=len(self.names))
        calls = np.bincount(a["name_id"], minlength=len(self.names))
        out: dict[str, float] = {}
        for k, name in enumerate(self.names):
            out[f"{name}.self_s"] = float(self_s[k])
            if name in CALL_COUNTED:
                out[f"{name}.calls"] = int(calls[k])
        out.update(self.counters)
        return out

    def write(self, path) -> None:
        """Write the spans and the name/scenario tables to an ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self.names), scenarios=np.array(self.scenarios), **self.arrays())
