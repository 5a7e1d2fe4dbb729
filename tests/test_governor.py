import itertools
import logging

import numpy as np
import pytest
from scipy.optimize import minimize

from safegov.geometry import FEAS_TOL, HPolytope, PolyUnion
from safegov.governor import (
    GovernorConfig,
    GovernorError,
    MIQPProblem,
    QP_INFEASIBLE,
    QP_OPTIMAL,
    _min_violation_action,
    build_miqp,
    govern,
    qp_solve,
    solve_miqp,
)
from safegov.safeset import (
    ConstraintSpec,
    LinearSystem,
    SafeSetArtifact,
    build_safe_artifact,
    compute_unrecoverable,
)


def interval(lo, hi):
    return HPolytope.from_bounds([lo], [hi])


def artifact_1d(K=2, w=2.0):
    sys = LinearSystem(np.eye(1), np.eye(1), np.eye(1))
    spec = ConstraintSpec(
        X0=PolyUnion([HPolytope(np.array([[1.0]]), np.array([0.0]))]),
        U=interval(-1, 1),
        W=interval(-w, w) if w > 0 else HPolytope.from_point([0.0]),
        box=interval(-10, 10),
    )
    sets = compute_unrecoverable(sys, spec, K=K)
    return build_safe_artifact(sets, sys, spec), sys, spec, sets


def stacked_miqp(S, u_nom, U_A, U_b, groups):
    """MIQPProblem from a list of per-group (alpha, beta) pairs."""
    m = np.size(u_nom)
    return MIQPProblem(
        S=S, u_nom=u_nom, U_A=U_A, U_b=U_b,
        alpha=np.vstack([a for a, _ in groups]) if groups else np.zeros((0, m)),
        beta=np.concatenate([b for _, b in groups]) if groups else np.zeros(0),
        starts=np.cumsum([0] + [b.size for _, b in groups]),
    )


def enumerate_miqp(prob):
    """Exhaustive oracle: try every face assignment, keep the best QP."""
    sizes = np.diff(prob.starts)
    best = None
    for choice in itertools.product(*[range(s) for s in sizes]):
        A = [prob.U_A]
        b = [prob.U_b]
        for start, i in zip(prob.starts, choice):
            A.append(-prob.alpha[start + i:start + i + 1])
            b.append(np.array([-prob.beta[start + i]]))
        res = qp_solve(prob.S, prob.u_nom, np.vstack(A), np.concatenate(b))
        if res.status == QP_OPTIMAL and (best is None or res.value < best[0]):
            best = (res.value, res.u)
    return best


# ------------------------------------------------------------------- QP


def test_qp_interior_optimum():
    res = qp_solve(np.array([[1.0]]), [2.0], np.array([[1.0], [-1.0]]), [3.0, 3.0])
    assert res.status == QP_OPTIMAL
    assert res.u[0] == pytest.approx(2.0, abs=1e-12)
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_qp_clamped_to_input_bound():
    res = qp_solve(np.array([[1.0]]), [5.0], np.array([[1.0], [-1.0]]), [3.0, 3.0])
    assert res.status == QP_OPTIMAL
    assert res.u[0] == pytest.approx(3.0, abs=1e-12)
    assert res.value == pytest.approx(4.0, abs=1e-12)


def test_qp_infeasible():
    res = qp_solve(np.array([[1.0]]), [0.0], np.array([[1.0], [-1.0]]), [-1.0, -1.0])
    assert res.status == QP_INFEASIBLE


def test_qp_2d_against_slsqp():
    rng = np.random.default_rng(19)
    agree = 0
    for _ in range(120):
        m = 2
        L = rng.normal(size=(m, m))
        S = L @ L.T + 0.5 * np.eye(m)
        t = rng.normal(size=m) * 2
        G = rng.normal(size=(int(rng.integers(1, 8)), m))
        h = rng.normal(size=G.shape[0]) + 1.0
        ours = qp_solve(S, t, G, h)
        ref = minimize(
            lambda u: (u - t) @ S @ (u - t),
            x0=np.zeros(m),
            jac=lambda u: 2 * S @ (u - t),
            constraints=[{"type": "ineq", "fun": lambda u, G=G, h=h: h - G @ u}],
            method="SLSQP",
            options={"ftol": 1e-12, "maxiter": 200},
        )
        if ours.status == QP_OPTIMAL and ref.success:
            assert ours.value <= ref.fun + 1e-6, (S, t, G, h)
            # both feasible and ours no worse: exact minimizer
            assert np.all(G @ ours.u - h <= 1e-7)
            agree += 1
        elif ours.status == QP_INFEASIBLE:
            # SLSQP flounders on infeasible sets; cross-check with an LP oracle
            from safegov.geometry.lp import INFEASIBLE, lp_solve

            assert lp_solve(np.zeros(m), G, h).status == INFEASIBLE
    assert agree > 60


def test_qp_zero_rows():
    res = qp_solve(np.eye(2), [1.0, 1.0], np.zeros((1, 2)), [-1.0])
    assert res.status == QP_INFEASIBLE
    res = qp_solve(np.eye(2), [1.0, 1.0], np.zeros((1, 2)), [1.0])
    assert res.status == QP_OPTIMAL


# ------------------------------------------------------------------ MIQP


def test_miqp_no_groups_equals_qp():
    prob = stacked_miqp(
        S=np.array([[1.0]]), u_nom=np.array([5.0]),
        U_A=np.array([[1.0], [-1.0]]), U_b=np.array([3.0, 3.0]), groups=[],
    )
    res = solve_miqp(prob)
    assert res.status == "optimal"
    assert res.u_safe[0] == pytest.approx(3.0, abs=1e-9)
    assert res.modified


def test_miqp_unsafe_interval_next_state():
    # plant z = u, unsafe z in (2, 4), u_nom = 3: nearest escape is z = 2.
    g = (np.array([[1.0], [-1.0]]), np.array([4.0, -2.0]))
    prob = stacked_miqp(
        S=np.array([[1.0]]), u_nom=np.array([3.0]),
        U_A=np.array([[1.0], [-1.0]]), U_b=np.array([3.0, 3.0]), groups=[g],
    )
    res = solve_miqp(prob)
    assert res.status == "optimal"
    assert res.u_safe[0] == pytest.approx(2.0, abs=1e-9)
    assert res.modified
    ref = enumerate_miqp(prob)
    assert res.objective == pytest.approx(ref[0], abs=1e-9)


def random_miqp(rng, m=None):
    m = m or int(rng.integers(1, 4))
    L = rng.normal(size=(m, m))
    S = L @ L.T + 0.3 * np.eye(m)
    u_nom = rng.normal(size=m) * 2
    U_A = np.vstack([np.eye(m), -np.eye(m)])
    U_b = np.full(2 * m, 3.0)
    groups = []
    for _ in range(int(rng.integers(0, 4))):
        s = int(rng.integers(0, 5))
        alpha = rng.normal(size=(s, m))
        if s and rng.random() < 0.15:
            alpha[rng.integers(0, s)] = 0.0
        beta = rng.normal(size=s) * 2
        groups.append((alpha, beta))
    return stacked_miqp(S=S, u_nom=u_nom, U_A=U_A, U_b=U_b, groups=groups)


def test_miqp_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(101)
    n_feasible = 0
    for _ in range(150):
        prob = random_miqp(rng)
        res = solve_miqp(prob)
        ref = enumerate_miqp(prob)
        if ref is None:
            assert res.status == "infeasible"
        else:
            assert res.status == "optimal"
            assert res.objective == pytest.approx(ref[0], abs=1e-6)
            n_feasible += 1
    assert n_feasible > 30


def test_miqp_determinism():
    rng = np.random.default_rng(7)
    prob = random_miqp(rng, m=2)
    r1 = solve_miqp(prob)
    r2 = solve_miqp(prob)
    assert r1.status == r2.status
    assert r1.nodes_explored == r2.nodes_explored
    if r1.u_safe is not None:
        assert np.array_equal(r1.u_safe, r2.u_safe)


def test_miqp_empty_group_is_never_met():
    empty = (np.zeros((0, 1)), np.zeros(0))
    groups = [(np.array([[1.0], [-1.0]]), np.array([4.0, -2.0])), empty,
              (np.array([[2.0]]), np.array([1.0])), empty]
    prob = stacked_miqp(S=np.array([[1.0]]), u_nom=np.array([0.0]),
                        U_A=np.array([[1.0], [-1.0]]), U_b=np.array([3.0, 3.0]), groups=groups)
    u = np.array([0.5])
    per_group = [(a @ u - b).max(initial=-np.inf) for a, b in groups]
    assert np.array_equal(prob.group_max(prob.slacks(u)), per_group)
    assert enumerate_miqp(prob) is None
    assert solve_miqp(prob).status == "infeasible"


# --------------------------------------------------------------- governor


def test_governor_config_validation():
    with pytest.raises(GovernorError):
        GovernorConfig(S=np.array([[0.0]]))
    with pytest.raises(GovernorError):
        GovernorConfig(S=np.array([[1.0, 2.0], [0.0, 1.0]]))
    GovernorConfig(S=np.eye(2))


def test_govern_minimality_when_nominal_feasible():
    art, sys, spec, _ = artifact_1d()
    cfg = GovernorConfig(S=np.array([[1.0]]))
    res = govern([8.0], [0.0], art, sys, cfg)
    assert res.status == "optimal"
    assert not res.modified
    assert res.u_safe[0] == pytest.approx(0.0, abs=1e-12)
    assert res.objective == 0.0


def test_govern_modifies_toward_boundary():
    art, sys, spec, _ = artifact_1d()
    cfg = GovernorConfig(S=np.array([[1.0]]))
    # From x = 5 the inflated unsafe region z <= 4 forces u >= -1.
    res = govern([5.0], [-3.0], art, sys, cfg)
    assert res.status == "optimal"
    assert res.modified
    assert res.u_safe[0] == pytest.approx(-1.0, abs=1e-7)


def test_build_miqp_rejects_mis_sized_weight_or_action():
    art, sys, spec, _ = artifact_1d()
    # x = 8 with u_nom = 0 is admissible as it is; x = 5 with u_nom = -3 is not.
    for x, u in (([8.0], [0.0]), ([5.0], [-3.0])):
        with pytest.raises(GovernorError):
            govern(x, u, art, sys, GovernorConfig(S=np.eye(2)))
        with pytest.raises(GovernorError):
            govern(x, u + [0.0], art, sys, GovernorConfig(S=np.array([[1.0]])))


@pytest.mark.parametrize("hi, n_warnings", [(1 + 5e-7, 0), (2.0, 1)])
def test_govern_fallback_chain(caplog, hi, n_warnings):
    # z = x + u + w with U = [-1, 1]; from x = 0 the member {-10 <= z <= hi}
    # can only be left through z >= hi, which U reaches within 10 * FEAS_TOL
    # when hi = 1 + 5e-7 (relaxed retry) and never when hi = 2 (least
    # violation, one warning).  Either way the answer is u = 1.
    sys = LinearSystem(np.eye(1), np.eye(1), np.eye(1))
    spec = ConstraintSpec(X0=PolyUnion([interval(-10, -9)]), U=interval(-1, 1),
                          W=HPolytope.from_point([0.0]), box=interval(-10, 10))
    member = PolyUnion([interval(-10, hi)])
    art = SafeSetArtifact(system=sys, spec=spec, k_used=0, safe=PolyUnion.empty(1),
                          inflated_unsafe=member, unrecoverable=member, fixpoint_reached=False)
    with caplog.at_level(logging.WARNING, logger="safegov.governor"):
        res = govern([0.0], [0.0], art, sys, GovernorConfig(S=np.array([[1.0]])))
    assert res.status == "fallback"
    assert res.u_safe[0] == pytest.approx(1.0, abs=1e-9)
    assert res.modified
    engaged = [r for r in caplog.records if "fallback engaged" in r.getMessage()]
    assert len(engaged) == len(caplog.records) == n_warnings


def test_min_violation_greedy_above_assignment_cap():
    # 13 two-row groups give 2**13 = 8,192 assignments, above the cap, so
    # the greedy assignment is solved: at the clipped nominal u = 0 each of
    # the twelve equal groups takes u >= 0.3 (slack -0.3 beats -0.35) and
    # the last takes u <= -0.5.  The least worst violation of that pair is
    # 0.4, at u = -0.1.  Taking u <= -0.35 in the twelve groups instead
    # violates nothing, which an exhaustive search would have found.
    groups = [(np.array([[1.0], [-1.0]]), np.array([0.3, 0.35]))] * 12
    groups.append((np.array([[-1.0], [1.0]]), np.array([0.5, 2.0])))
    prob = stacked_miqp(np.eye(1), np.array([0.0]), np.array([[1.0], [-1.0]]),
                        np.array([1.0, 1.0]), groups)
    u = _min_violation_action(prob, FEAS_TOL)
    assert u == pytest.approx([-0.1], abs=1e-9)
    res = solve_miqp(prob)
    assert res.status == "optimal" and res.u_safe[0] <= -0.5 + 1e-9


def test_govern_build_structure():
    art, sys, spec, _ = artifact_1d()
    cfg = GovernorConfig(S=np.array([[1.0]]))
    x = np.array([5.0])
    prob = build_miqp(x, [0.0], art, sys, cfg)
    assert prob.n_groups == len(art.inflated_unsafe)
    G = np.vstack([m.A for m in art.inflated_unsafe.members])
    g = np.concatenate([m.b for m in art.inflated_unsafe.members])
    assert np.allclose(prob.alpha, G @ sys.B)
    assert np.allclose(prob.beta, g - G @ sys.A @ x)
    assert np.array_equal(np.diff(prob.starts), [m.A.shape[0] for m in art.inflated_unsafe.members])


def test_govern_robust_one_step_safety_1d():
    art, sys, spec, _ = artifact_1d(K=3)
    cfg = GovernorConfig(S=np.array([[1.0]]))
    rng = np.random.default_rng(5)
    Xk = art.unrecoverable
    for _ in range(200):
        x = np.array([rng.uniform(-10, 10)])
        if not art.safe.contains(x):
            continue
        u_nom = np.array([rng.uniform(-1, 1)])
        res = govern(x, u_nom, art, sys, cfg)
        assert res.status == "optimal"
        for w in (-2.0, 2.0):
            z = sys.step(x, res.u_safe, [w])
            assert not Xk.contains(z, tol=-1e-6), (x, res.u_safe, w)


def test_govern_zero_disturbance_reduces_to_plain_governor():
    art, sys, spec, _ = artifact_1d(K=2, w=0.0)
    # With W = {0} the inflated set equals X_k itself.
    cfg = GovernorConfig(S=np.array([[1.0]]))
    res = govern([1.5], [-1.0], art, sys, cfg)
    assert res.status == "optimal"
    # X_k ends at x <= 0 (u = 0 holds the line); requirement z >= 0
    assert (1.5 + res.u_safe[0]) >= -1e-7


def test_one_step_feasibility_from_outside_Xk():
    # Governed with the depth-(k-1) region: feasible from any x outside X_k.
    sys = LinearSystem(np.eye(1), np.eye(1), np.eye(1))
    spec = ConstraintSpec(
        X0=PolyUnion([HPolytope(np.array([[1.0]]), np.array([0.0]))]),
        U=interval(-1, 1),
        W=interval(-2, 2),
        box=interval(-10, 10),
    )
    sets = compute_unrecoverable(sys, spec, K=3)
    from safegov.safeset import UnrecoverableSets

    art_km1 = build_safe_artifact(UnrecoverableSets(sets.sets[:3], False), sys, spec)
    cfg = GovernorConfig(S=np.array([[1.0]]))
    rng = np.random.default_rng(11)
    n = 0
    while n < 100:
        x = np.array([rng.uniform(-10, 10)])
        if sets.final.contains(x) or not spec.box.contains(x):
            continue
        res = govern(x, np.array([rng.uniform(-1, 1)]), art_km1, sys, cfg)
        assert res.status == "optimal", x
        n += 1


def test_govern_determinism():
    art, sys, spec, _ = artifact_1d()
    cfg = GovernorConfig(S=np.array([[1.0]]))
    r1 = govern([4.5], [-3.0], art, sys, cfg)
    r2 = govern([4.5], [-3.0], art, sys, cfg)
    assert np.array_equal(r1.u_safe, r2.u_safe)
    assert r1.nodes_explored == r2.nodes_explored


def test_result_serialization():
    art, sys, spec, _ = artifact_1d()
    cfg = GovernorConfig(S=np.array([[1.0]]))
    d = govern([8.0], [0.5], art, sys, cfg).to_dict()
    assert set(d) == {"u_safe", "modified", "objective", "nodes_explored", "solve_time", "status"}
