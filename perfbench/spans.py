"""In-memory span tracer that wraps obstacle_bvp functions from outside.

Each hook replaces one module-level function (or one method) on the name its
caller actually looks up, so ``src/`` stays untouched.  A span records its
name, start, end, parent span and the op (or set-up repetition) it belongs to.
Spans stay in memory until the run ends; :meth:`Tracer.summary` then turns
them into per-name self times, call counts and exception counts.

A hook whose target no longer exists, or a derived count whose argument or
result changed shape, is reported as absent instead of failing, so a later
change that removes or renames a function still runs.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter

import numpy as np

SETUP_SCOPE = -1

# Hook kinds: "span" records a timed span; "count" only counts calls.
# (module, attribute path, span name, kind)
HOOKS = (
    ("examples", "get_example", "examples.get_example", "span"),
    ("examples", "reformulate", "penalty.reformulate", "span"),
    ("penalty", "reformulate", "penalty.reformulate", "span"),
    ("cli", "main", "cli.main", "span"),
    ("cli", "solve_exact", "exact.solve_exact", "span"),
    ("cli", "eval_solution", "exact.eval_solution", "span"),
    ("cli", "shooting_solve", "oracle.shooting_solve", "span"),
    ("cli", "verification_report", "verify.verification_report", "span"),
    ("exact", "solve_exact", "exact.solve_exact", "span"),
    ("exact", "piece_basis", "basis.piece_basis", "span"),
    ("exact", "particular_solution", "exact.particular_solution", "span"),
    ("exact", "assemble_system", "exact.assemble_system", "span"),
    ("exact", "gauss_solve", "exact.gauss_solve.exact", "span"),
    ("exact", "eval_basis", "basis.eval_basis", "span"),
    ("oracle", "gauss_solve", "exact.gauss_solve.oracle", "span"),
    ("oracle", "integrate_fundamental", "oracle.integrate_fundamental", "span"),
    ("verify", "eval_solution", "exact.eval_solution", "span"),
    ("verify", "sample", "oracle.sample", "span"),
    ("verify", "residual_report", "verify.residual_report", "span"),
    ("verify", "solution_scale", "verify.solution_scale", "span"),
    ("verify", "continuity_report", "verify.continuity_report", "span"),
    ("verify", "condition_report", "verify.condition_report", "span"),
    ("verify", "compare_solutions", "verify.compare_solutions", "span"),
    ("model", "PiecewiseBvp.owning_piece", "model.owning_piece", "count"),
)


def _residual_points(args, kwargs, result, fn):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments["samples_per_piece"] * len(bound.arguments["bvp"].pieces)


def _rk4_steps(args, kwargs, result, fn):
    return sum(len(xs) - 1 for xs, *_ in result.piece_trajectories)


def _system_unknowns(args, kwargs, result, fn):
    return result.matrix.shape[1]


def _lstsq_calls(args, kwargs, result, fn):
    rows, cols = args[0].matrix.shape
    return int(rows > cols)


# Counts derived from a call's arguments or result: span name -> (counter, fn).
DERIVED = {
    "verify.residual_report": ("verify.residual_points", _residual_points),
    "oracle.shooting_solve": ("oracle.rk4_steps", _rk4_steps),
    "exact.assemble_system": ("exact.system_unknowns", _system_unknowns),
    "exact.gauss_solve.exact": ("exact.lstsq_calls", _lstsq_calls),
    "exact.gauss_solve.oracle": ("exact.lstsq_calls", _lstsq_calls),
}


class Tracer:
    """Span store plus the scope (op index or set-up) that new spans join."""

    def __init__(self):
        self.scope = None  # None: not recording
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("l")
        self.owner = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()  # (scope is op?, name) -> count
        self.absent: set[str] = set()
        self._stack = [-1]

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _count(self, name: str, value) -> None:
        self.counts[(self.scope != SETUP_SCOPE, name)] += value

    def install(self, package) -> None:
        """Wrap every hook target in a freshly imported ``obstacle_bvp``."""
        for module_name, path, span, kind in HOOKS:
            holder = getattr(package, module_name, None)
            *owners, attr = path.split(".")
            for owner in owners:
                holder = getattr(holder, owner, None)
            fn = getattr(holder, attr, None)
            if fn is None:
                self.absent.add(f"{module_name}.{path}")
                continue
            wrap = self._span_wrapper if kind == "span" else self._count_wrapper
            setattr(holder, attr, wrap(span, fn))

    def _count_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.scope is not None:
                tracer._count(name + ".calls", 1)
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, name, fn):
        tracer = self
        nid = self._nid(name)
        derived = DERIVED.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.scope is None:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.owner.append(tracer.scope)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._count(f"{name}!{type(exc).__name__}", 1)
                raise
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if derived is not None:
                counter, measure = derived
                try:
                    tracer._count(counter, measure(args, kwargs, result, fn))
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    tracer.absent.add(counter)  # the signature or result changed
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        """All spans as numpy columns (name ids index :attr:`names`)."""
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int32),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "owner": np.asarray(self.owner, dtype=np.int64),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
        }

    def summary(self) -> dict:
        """Per span name, separately for ops and set-up: calls, self seconds
        and inclusive seconds, plus all counters."""
        cols = self.arrays()
        dur = cols["end"] - cols["start"]
        child = np.zeros_like(dur)
        has_parent = cols["parent"] >= 0
        np.add.at(child, cols["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        out = {"op": {}, "setup": {}}
        for scope, mask in (("op", cols["owner"] >= 0),
                            ("setup", cols["owner"] == SETUP_SCOPE)):
            for nid, name in enumerate(self.names):
                sel = mask & (cols["name_id"] == nid)
                # Inclusive time counts only outermost spans of a name, so a
                # recursive or re-entrant name is not counted twice.
                outer = sel.copy()
                parents = cols["parent"][sel]
                nested = np.zeros(parents.shape, dtype=bool)
                valid = parents >= 0
                nested[valid] = cols["name_id"][parents[valid]] == nid
                outer[np.flatnonzero(sel)[nested]] = False
                out[scope][name] = {
                    "calls": int(sel.sum()),
                    "self_s": float(self_time[sel].sum()),
                    "incl_s": float(dur[outer].sum()),
                }
        counters = {"op": {}, "setup": {}}
        for (is_op, name), value in self.counts.items():
            counters["op" if is_op else "setup"][name] = value
        return {"spans": out, "counters": counters, "absent": sorted(self.absent)}
