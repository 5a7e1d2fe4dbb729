"""Tests of the benchmark harness itself:  python3 -m pytest perfbench/tests -q"""

import json
import os
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import hostprobe  # noqa: E402
import metrics  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from safegov import governor, safeset  # noqa: E402
from safegov.geometry import HPolytope, PolyUnion  # noqa: E402


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def interval_member(lo, hi):
    return {"A": [[1.0], [-1.0]], "b": [hi, -lo]}


# ------------------------------------------------------------------ inputs


def test_same_seed_same_build_inputs():
    wl = workloads.BuildWorkload(workloads.reduced2d_problem, workloads.REDUCED2D_K, "reduced2d_k3", True)
    ctx = wl.setup()
    a, b, c = wl.inputs(ctx, 7), wl.inputs(ctx, 7), wl.inputs(ctx, 8)
    for key in ("probes", "labels", "reliable"):
        assert np.array_equal(a[key], b[key])
    assert not np.array_equal(a["probes"], c["probes"])
    # Probes far from every reference boundary carry almost all the weight.
    assert a["reliable"].mean() > 0.99
    assert set(a["labels"]) == {"unsafe", "safe", "unrecoverable"}


def test_same_seed_same_govern_inputs():
    art = SimpleNamespace(
        safe=PolyUnion([HPolytope.from_bounds([10.0, -5.0, 5.0], [60.0, 5.0, 30.0])]),
        spec=SimpleNamespace(U=HPolytope.from_bounds([-3.0], [3.0])),
    )
    wl = workloads.GovernWorkload()
    a, b, c = wl.inputs({"art": art}, 3), wl.inputs({"art": art}, 3), wl.inputs({"art": art}, 4)
    assert np.array_equal(a["X"], b["X"]) and np.array_equal(a["U"], b["U"])
    assert not np.array_equal(a["X"], c["X"])
    assert a["X"].shape == (workloads.GOVERN_POOL, 3)
    assert art.safe.contains_many(a["X"]).all()
    assert np.all(np.abs(a["U"]) <= 3.0)


# ------------------------------------------------------------------ oracle


def oracle_1d(*members):
    """x+ = x + u, U = [-1, 6]; members are intervals of the next state."""
    return checks.GovernorOracle(np.eye(1), np.eye(1), [interval_member(*m) for m in members], -1.0, 6.0)


def test_oracle_hand_worked_1d():
    o = oracle_1d((2.0, 5.0))
    # At x = 0 the next state is u: u in (2, 5) is forbidden.
    got = o.govern_many(np.zeros((5, 1)), [3.0, 4.6, -0.5, 5.5, 2.0])
    assert np.allclose(got, [2.0, 5.0, -0.5, 5.5, 2.0])
    # At x = 1 the forbidden actions shift to (1, 4).
    assert o.govern_many([[1.0]], [3.0])[0] == pytest.approx(4.0)
    # With (4.5, 7) also forbidden, only [-1, 2] is left inside U.
    o2 = oracle_1d((2.0, 5.0), (4.5, 7.0))
    assert np.allclose(o2.govern_many(np.zeros((2, 1)), [5.5, 0.5]), [2.0, 0.5])
    # A member covering all of U leaves nothing.
    o3 = oracle_1d((-2.0, 8.0))
    assert np.isnan(o3.govern_many([[0.0]], [1.0])[0])
    # (-0.5, 2) and (2, 5.5) touch at 2; a third member ends a few ulps
    # past 2, as rounding leaves members that share a face.  The point 2
    # meets every member within FEAS_TOL, so it is the projection of 3.
    o4 = oracle_1d((-0.5, 2.0), (2.0, 5.5), (0.0, 2.0 + 4e-15))
    assert np.allclose(o4.govern_many([[0.0]], [3.0]), [2.0])
    # An overlap wider than the tolerance still blocks the point.
    o5 = oracle_1d((-0.5, 2.0), (2.0, 5.5), (0.0, 2.001))
    assert np.allclose(o5.govern_many([[0.0]], [3.0]), [5.5])


def test_check_governed_flags_mismatches():
    o = oracle_1d((2.0, 5.0))
    X = np.zeros((4, 1))
    ok = checks.check_governed(o, X, [3.0, 3.0, 3.0, 3.0],
                               ["optimal", "optimal", "fallback", "optimal"],
                               [2.0, 2.1, 2.0, 9.0])
    assert ok.tolist() == [True, False, False, False]
    empty = oracle_1d((-2.0, 8.0))
    assert checks.check_governed(empty, [[0.0]], [1.0], ["fallback"], [1.0]).tolist() == [True]
    assert checks.check_governed(empty, [[0.0]], [1.0], ["optimal"], [1.0]).tolist() == [False]


def test_oracle_agrees_with_governor_on_1d_artifact():
    sys_ = safeset.LinearSystem(np.eye(1), np.eye(1), np.eye(1))
    spec = safeset.ConstraintSpec(
        X0=PolyUnion([HPolytope(np.array([[1.0]]), np.array([0.0]))]),
        U=HPolytope.from_bounds([-1.0], [1.0]),
        W=HPolytope.from_bounds([-2.0], [2.0]),
        box=HPolytope.from_bounds([-10.0], [10.0]),
    )
    _, art = workloads.build(sys_, spec, 2)
    o = workloads._oracle(art)
    cfg = governor.GovernorConfig(S=np.eye(1))
    rng = np.random.default_rng(0)
    X = rng.uniform(-10, 10, size=(200, 1))
    U = rng.uniform(-1, 1, size=200)
    res = [governor.govern(x, [u], art, sys_, cfg) for x, u in zip(X, U)]
    statuses = [r.status for r in res]
    u_safe = [r.u_safe[0] for r in res]
    assert checks.check_governed(o, X, U, statuses, u_safe).all()
    assert "fallback" in statuses and "optimal" in statuses


# ------------------------------------------------------------------ tracer


def bound_objects():
    out = {}
    for _, modname, clsname, attr in tracer.TARGETS:
        if clsname:
            owner = getattr(sys.modules[modname], clsname)
            out[(id(owner), attr)] = owner.__dict__[attr]
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("safegov") and attr in mod.__dict__:
                out[(id(mod), attr)] = mod.__dict__[attr]
    return out


def test_tracer_wraps_from_imports_and_restores():
    import safegov.geometry.polytope as polytope

    before = bound_objects()
    tr = tracer.Tracer()
    with tr:
        # from-imported names are rebound too
        assert governor.lp_solve is not before[(id(governor), "lp_solve")]
        assert safeset.region_diff is not before[(id(safeset), "region_diff")]
        assert HPolytope.is_empty is not before[(id(HPolytope), "is_empty")]
        P = polytope.HPolytope.from_bounds([0.0, 0.0], [1.0, 1.0])
        P.remove_redundancy()
    assert bound_objects() == before
    totals = tr.totals()
    calls, incl, own = totals["polytope.remove_redundancy"]
    assert calls == 1 and 0.0 <= own <= incl
    lp_calls, lp_incl, _ = totals["lp.lp_solve"]
    assert lp_calls >= 4
    # remove_redundancy's self time excludes the LPs and is_empty beneath it
    children = sum(tr.child_stats("polytope.remove_redundancy", c)[1]
                   for c in ("lp.lp_solve", "polytope.is_empty"))
    assert own == pytest.approx(incl - children, abs=1e-9)
    # no spans are recorded once the wrappers are gone
    n = tr.span_count()
    P.is_empty()
    polytope.HPolytope.from_bounds([0.0], [1.0]).is_empty()
    assert tr.span_count() == n


def test_log_counter_silences_and_counts():
    import logging

    with tracer.LogCounter() as logs:
        logging.getLogger("safegov.governor").warning("governor fallback engaged at state %s", [1.0])
        logging.getLogger("safegov.learner").info(
            "fit(): held-out loss grew (%.4g -> %.4g); retrying at lr/2", 1.0, 2.0)
    assert logs.count("safegov.governor") == 1
    assert logs.count("safegov.learner", "fit(): held-out") == 1
    assert logging.getLogger("safegov").propagate


# -------------------------------------------------------------- host probe


def test_host_probe_rescales_slow_intervals():
    probe = hostprobe.HostProbe()
    # Probes every 0.1 s; the one ending at 0.3 s ran twice as slow, so the
    # interval (0.2, 0.3] counts at half speed.
    probe.ends = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    probe.durations = [1e-4, 1e-4, 1e-4, 2e-4, 1e-4, 1e-4]
    probe._prepare()
    got = probe.corrected([0.0, 0.2, 0.05, 0.25], [0.2, 0.4, 0.15, 0.26])
    assert np.allclose(got, [0.2, 0.15, 0.1, 0.005])
    assert probe.slow_share() == pytest.approx(1 / 6)


def test_host_probe_samples_on_a_timer():
    import time

    with hostprobe.HostProbe() as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(probe.durations) >= 5
    assert probe.corrected([0.0], [1.0])[0] <= 1.0 + 1e-9


# ----------------------------------------------------------------- metrics


def test_emitted_metrics_match_benchmark_json():
    spans = [(0.0, 0.1), (0.1, 0.3), (0.3, 0.6)]
    chunk = workloads.Chunk(spans, spans, 3)
    e2e = metrics.end_to_end([(0.0, 1.0)], workloads.RunResult(chunks=[chunk]), lambda a, b: b - a)
    assert e2e["p50_ms"][0] == pytest.approx(200.0) and e2e["ops_per_s"][0] == pytest.approx(5.0)
    assert {k: u for k, (_, u) in e2e.items()} == declared("end_to_end")
    layer = metrics.per_layer(tracer.Tracer(), tracer.LogCounter(), workloads.RunResult(), 0.0)
    assert {k: u for k, (_, u) in layer.items()} == declared("per_layer")


def test_metric_map_names_are_declared():
    with open(os.path.join(BENCH_DIR, "metric_map.json"), encoding="utf-8") as fh:
        mp = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = {w["name"] for w in bench["workloads"]}
    assert set(mp["unit_operation"]) == names
    assert set(mp["end_to_end"]) == set(declared("end_to_end"))
    layer_names = set(declared("per_layer"))
    for row in mp["layer_moves"]:
        assert set(row["on"]) <= names
        for pattern in re.split(r",\s*", row["layer_metrics"]):
            rx = re.compile(re.escape(pattern).replace(r"\*", ".*") + "$")
            assert any(rx.match(n) for n in layer_names), pattern
