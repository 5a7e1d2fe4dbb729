"""Span tracing of safegov's public functions, installed from outside.

`Tracer.install()` replaces each traced function or method with a
wrapper that records one span per call (name, start, end, parent) and
rebinds every module attribute that held the original, so names pulled
in with `from ... import` are traced too.  `Tracer.remove()` puts every
original back.  Spans live in flat arrays until `save()` writes them.

`LogCounter` is a logging handler for the `safegov` logger tree.  It
counts records per logger and message template, keeps the time and
arguments of each record, and keeps the package's per-state warnings
from being printed.
"""

from __future__ import annotations

import functools
import logging
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (span name, module, class or None, attribute).  The span name is
# "<layer>.<function>"; the layer is the safegov module's short name.
TARGETS = [
    ("lp.lp_solve", "safegov.geometry.lp", None, "lp_solve"),
    ("lp.chebyshev_center", "safegov.geometry.lp", None, "chebyshev_center"),
    ("polytope.region_diff", "safegov.geometry.polytope", None, "region_diff"),
    ("polytope.merge_convex_members", "safegov.geometry.polytope", None, "merge_convex_members"),
    ("polytope.convex_hull", "safegov.geometry.polytope", None, "convex_hull"),
    ("polytope.minkowski_sum", "safegov.geometry.polytope", None, "minkowski_sum"),
    ("polytope.pontryagin_diff", "safegov.geometry.polytope", None, "pontryagin_diff"),
    ("polytope.union_subset", "safegov.geometry.polytope", None, "union_subset"),
    ("polytope.remove_redundancy", "safegov.geometry.polytope", "HPolytope", "remove_redundancy"),
    ("polytope.vertices", "safegov.geometry.polytope", "HPolytope", "vertices"),
    ("polytope.support", "safegov.geometry.polytope", "HPolytope", "support"),
    ("polytope.chebyshev", "safegov.geometry.polytope", "HPolytope", "chebyshev"),
    ("polytope.is_empty", "safegov.geometry.polytope", "HPolytope", "is_empty"),
    ("polytope.is_bounded", "safegov.geometry.polytope", "HPolytope", "is_bounded"),
    ("safeset.compute_unrecoverable", "safegov.safeset", None, "compute_unrecoverable"),
    ("safeset.build_safe_artifact", "safegov.safeset", None, "build_safe_artifact"),
    ("safeset.classify", "safegov.safeset", None, "classify"),
    ("governor.govern", "safegov.governor", None, "govern"),
    ("governor.build_miqp", "safegov.governor", None, "build_miqp"),
    ("governor.solve_miqp", "safegov.governor", None, "solve_miqp"),
    ("governor.qp_solve", "safegov.governor", None, "qp_solve"),
    ("learner.train", "safegov.learner", None, "train"),
    ("learner.fit", "safegov.learner", None, "fit"),
    ("learner.pretrain_to_policy", "safegov.learner", None, "pretrain_to_policy"),
    ("learner.run_trajectory", "safegov.learner", None, "run_trajectory"),
    ("learner.select_action", "safegov.learner", None, "select_action"),
    ("learner.forward", "safegov.learner", "QFunction", "forward"),
    ("learner.loss_and_grads", "safegov.learner", "QFunction", "loss_and_grads"),
    ("envs.step", "safegov.envs", None, "step"),
    ("envs.sample_safe_state", "safegov.envs", "AccEnv", "sample_safe_state"),
]


class Tracer:
    """Records spans for the functions in TARGETS while installed."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # Outputs seen at layer boundaries, filled by the observers.
        self.lp_status = Counter()
        self.region_pieces_out = 0
        self.merge_members = [0, 0]
        self.members_per_k: list[int] = []
        self.artifact_members = (0, 0)
        self.govern_results: list[tuple[str, int, bool]] = []
        self.fallback_reasons = Counter()
        self._miqp_seen: list[tuple[str, bool]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        observers = {
            "lp.lp_solve": self._see_lp,
            "polytope.region_diff": self._see_region_diff,
            "polytope.merge_convex_members": self._see_merge,
            "safeset.compute_unrecoverable": self._see_sets,
            "safeset.build_safe_artifact": self._see_artifact,
            "governor.solve_miqp": self._see_miqp,
            "governor.govern": self._see_govern,
        }
        for nid, (name, modname, clsname, attr) in enumerate(TARGETS):
            module = sys.modules[modname]
            if clsname is not None:
                owner = getattr(module, clsname)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(nid, original, observers.get(name)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(nid, original, observers.get(name))
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("safegov") and mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, original, wrapper)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, nid: int, fn, observe):
        tr = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            idx = len(tr.start)
            tr.name_id.append(nid)
            tr.parent.append(tr._stack[-1] if tr._stack else -1)
            tr.start.append(t0)
            tr.end.append(t0)
            tr._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[idx] = clock()
                tr._stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    # -- observers ----------------------------------------------------

    def _see_lp(self, args, res) -> None:
        self.lp_status[res.status] += 1

    def _see_region_diff(self, args, res) -> None:
        self.region_pieces_out += len(res)

    def _see_merge(self, args, res) -> None:
        self.merge_members[0] += len(args[0])
        self.merge_members[1] += len(res)

    def _see_sets(self, args, res) -> None:
        self.members_per_k = [len(s) for s in res.sets]

    def _see_artifact(self, args, res) -> None:
        self.artifact_members = (len(res.safe), len(res.inflated_unsafe))

    def _see_miqp(self, args, res) -> None:
        self._miqp_seen.append((res.status, res.u_safe is not None))

    def _see_govern(self, args, res) -> None:
        seen, self._miqp_seen = self._miqp_seen, []
        self.govern_results.append((res.status, res.nodes_explored, res.modified))
        if res.status != "fallback":
            return
        # govern() solves once; a node-budget stop ends there.  An
        # infeasible first solve is retried at a tenfold tolerance, and the
        # least-violating assignment is used when the retry yields nothing.
        if len(seen) == 1:
            self.fallback_reasons["budget"] += 1
        elif seen[-1][0] in ("optimal", "fallback") and seen[-1][1]:
            self.fallback_reasons["relaxed_tol"] += 1
        else:
            self.fallback_reasons["min_violation"] += 1

    # -- results ------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total inclusive seconds, self seconds)."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        n = len(self.names)
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=dur.size)
        calls = np.bincount(nid, minlength=n)
        incl = np.bincount(nid, weights=dur, minlength=n)
        own = np.bincount(nid, weights=dur - child[:dur.size], minlength=n)
        return {name: (int(calls[i]), float(incl[i]), float(own[i])) for i, name in enumerate(self.names)}

    def child_stats(self, parent_name: str, child_name: str) -> tuple[int, float]:
        """Count and total seconds of `child_name` spans whose direct
        parent is a `parent_name` span."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        pid, cid = self.names.index(parent_name), self.names.index(child_name)
        idx = np.nonzero((nid == cid) & (par >= 0))[0]
        idx = idx[nid[par[idx]] == pid]
        return int(idx.size), float(dur[idx].sum())

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class LogCounter(logging.Handler):
    """Counts `safegov` log records and silences them while attached."""

    def __init__(self):
        super().__init__(level=logging.INFO)
        self.counts = Counter()
        self.records: dict[str, list[tuple[float, tuple]]] = {}

    def emit(self, record: logging.LogRecord) -> None:
        self.counts[f"{record.name}:{record.msg}"] += 1
        self.records.setdefault(record.msg, []).append((time.perf_counter(), record.args))

    def count(self, logger_name: str, msg_prefix: str = "") -> int:
        return sum(n for key, n in self.counts.items()
                   if key.startswith(f"{logger_name}:{msg_prefix}"))

    def __enter__(self) -> "LogCounter":
        root = logging.getLogger("safegov")
        self._saved = (root.level, root.propagate)
        root.setLevel(logging.INFO)
        root.propagate = False
        root.addHandler(self)
        return self

    def __exit__(self, *exc) -> None:
        root = logging.getLogger("safegov")
        root.removeHandler(self)
        root.setLevel(self._saved[0])
        root.propagate = self._saved[1]
