"""End-to-end metrics of an untraced run and per-layer metrics of a
traced one.  Every workload reports every metric; a layer the workload
does not reach reports zero calls and zero time."""

from __future__ import annotations

import resource

import numpy as np

MAX_K = 3  # deepest recursion step any workload builds


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_spans, res, durations) -> dict[str, tuple[float, str]]:
    """Timings over the run's (start, end) spans; `durations(starts, ends)`
    turns spans into seconds (the host probe's correction).  p99_ms is the
    99th percentile within each chunk (1024 govern calls; the 7 timed
    episodes of a train() call, where it is the slowest; a single build),
    then the median over chunks, so one slow chunk does not set it."""

    def seconds(spans):
        spans = np.asarray(spans, dtype=float).reshape(-1, 2)
        return durations(spans[:, 0], spans[:, 1])

    timed = [c for c in res.chunks if len(c.ops)]
    op_ms = seconds(np.vstack([c.ops for c in timed])) * 1e3
    chunk_p99 = [np.percentile(seconds(c.ops), 99) * 1e3 for c in timed]
    busy = float(seconds(np.vstack([c.calls for c in res.chunks])).sum())
    return {
        "setup_s": (float(np.median(seconds(setup_spans))), "s"),
        "p50_ms": (float(np.percentile(op_ms, 50)), "ms"),
        "p99_ms": (float(np.median(chunk_p99)), "ms"),
        "ops_per_s": (sum(c.completed for c in res.chunks) / busy, "1/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def _frac(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def _step_times(tracer, logs) -> list[float]:
    """Mean seconds per recursion step k = 1..MAX_K: from the start of
    compute_unrecoverable (or the previous step's log record) to the
    package's "X_k: n members" record."""
    marks = sorted(logs.records.get("X_%d: %d members", []))
    nid = np.frombuffer(tracer.name_id, dtype=np.int32)
    cu = nid == tracer.names.index("safeset.compute_unrecoverable")
    starts = np.frombuffer(tracer.start, dtype=np.float64)[cu]
    ends = np.frombuffer(tracer.end, dtype=np.float64)[cu]
    per_k = [[] for _ in range(MAX_K)]
    for s, e in zip(starts, ends):
        prev = s
        for t, (k, _) in marks:
            if s <= t <= e and 1 <= k <= MAX_K:
                per_k[k - 1].append(t - prev)
                prev = t
    return [float(np.mean(v)) if v else 0.0 for v in per_k]


def per_layer(tracer, logs, res, overhead_s: float) -> dict[str, tuple[float, str]]:
    tot = tracer.totals()
    out: dict[str, tuple[float, str]] = {}

    def calls_self(name: str, with_calls: bool = True) -> None:
        calls, _, own = tot[name]
        if with_calls:
            out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (own, "s")

    # lp
    calls_self("lp.lp_solve")
    lp_calls, _, lp_self = tot["lp.lp_solve"]
    out["lp.lp_solve.us_per_call"] = (_frac(lp_self * 1e6, lp_calls), "us")
    out["lp.lp_solve.infeasible_frac"] = (_frac(tracer.lp_status["infeasible"], lp_calls), "frac")
    calls_self("lp.chebyshev_center")

    # polytope
    for op in ("region_diff", "merge_convex_members", "remove_redundancy", "vertices", "support",
               "chebyshev", "is_empty", "is_bounded", "convex_hull", "minkowski_sum",
               "pontryagin_diff", "union_subset"):
        calls_self(f"polytope.{op}")
    out["polytope.region_diff.pieces_out"] = (tracer.region_pieces_out, "count")
    out["polytope.merge_convex_members.members_in"] = (tracer.merge_members[0], "count")
    out["polytope.merge_convex_members.members_out"] = (tracer.merge_members[1], "count")
    out["polytope.chebyshev.lp_frac"] = (
        _frac(tracer.child_stats("polytope.chebyshev", "lp.chebyshev_center")[0],
              tot["polytope.chebyshev"][0]), "frac")

    # safeset
    calls_self("safeset.compute_unrecoverable", with_calls=False)
    calls_self("safeset.build_safe_artifact", with_calls=False)
    for k, t in enumerate(_step_times(tracer, logs), start=1):
        out[f"safeset.step_s.k{k}"] = (t, "s")
    members = tracer.members_per_k + [0] * (MAX_K + 1 - len(tracer.members_per_k))
    for k, n in enumerate(members[:MAX_K + 1]):
        out[f"safeset.members.k{k}"] = (n, "count")
    out["safeset.safe_members"] = (tracer.artifact_members[0], "count")
    out["safeset.inflated_members"] = (tracer.artifact_members[1], "count")
    calls_self("safeset.classify")

    # governor
    results = tracer.govern_results
    n_gov = len(results)
    nodes = np.array([r[1] for r in results]) if results else np.zeros(1)
    out["governor.govern.calls"] = (n_gov, "count")
    for name in ("governor.build_miqp", "governor.solve_miqp", "governor.qp_solve"):
        calls_self(name)
    out["governor.nodes.p50"] = (float(np.percentile(nodes, 50)), "count")
    out["governor.nodes.p99"] = (float(np.percentile(nodes, 99)), "count")
    out["governor.nodes.max"] = (float(nodes.max()), "count")
    out["governor.fastpath_frac"] = (
        _frac(sum(s == "optimal" and n == 0 for s, n, _ in results), n_gov), "frac")
    out["governor.modified_frac"] = (_frac(sum(m for _, _, m in results), n_gov), "frac")
    out["governor.fallback_rate"] = (_frac(sum(s == "fallback" for s, _, _ in results), n_gov), "frac")
    for reason in ("budget", "relaxed_tol", "min_violation"):
        out[f"governor.fallback.{reason}"] = (tracer.fallback_reasons[reason], "count")
    out["governor.warnings"] = (logs.count("safegov.governor"), "count")

    # learner
    calls_self("learner.forward")
    calls_self("learner.loss_and_grads")
    calls_self("learner.fit")
    out["learner.fit.reverts"] = (logs.count("safegov.learner", "fit(): held-out loss grew"), "count")
    for name in ("learner.pretrain_to_policy", "learner.run_trajectory", "learner.select_action"):
        calls_self(name, with_calls=False)
    out["learner.govern_share"] = (
        _frac(tracer.child_stats("learner.run_trajectory", "governor.govern")[1], tot["learner.train"][1]),
        "frac")
    steps = res.extra.get("steps", 0)
    out["learner.violation_rate"] = (_frac(res.extra.get("violations", 0), steps), "frac")

    # envs
    calls_self("envs.step")
    calls_self("envs.sample_safe_state")
    out["envs.sample_safe_state.tries_per_state"] = (
        _frac(tracer.child_stats("envs.sample_safe_state", "safeset.classify")[0],
              tot["envs.sample_safe_state"][0]), "count")

    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.spans"] = (tracer.span_count(), "count")
    return out
