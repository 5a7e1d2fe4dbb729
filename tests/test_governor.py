import dataclasses
import itertools
import logging

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.optimize import linprog, minimize

import governor_reference
from safegov import governor
from safegov.envs import BOX_HI, BOX_LO, AccEnv, constraint_spec
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
    assert _min_violation_action(prob) is None


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


def fallback_chain_artifact(hi):
    """z = x + u + w with U = [-1, 1], W = {0} and the one member
    {-10 <= z <= hi}: from x the member is left through z >= hi, which U
    reaches when hi - x <= 1."""
    sys = LinearSystem(np.eye(1), np.eye(1), np.eye(1))
    spec = ConstraintSpec(X0=PolyUnion([interval(-10, -9)]), U=interval(-1, 1),
                          W=HPolytope.from_point([0.0]), box=interval(-10, 10))
    member = PolyUnion([interval(-10, hi)])
    art = SafeSetArtifact(system=sys, spec=spec, k_used=0, safe=PolyUnion.empty(1),
                          inflated_unsafe=member, unrecoverable=member, fixpoint_reached=False)
    return art, sys


@pytest.mark.parametrize("hi, n_warnings", [(1 + 5e-7, 0), (2.0, 1)])
def test_govern_fallback_chain(caplog, hi, n_warnings):
    # From x = 0, U reaches z >= hi within 10 * FEAS_TOL when hi = 1 + 5e-7
    # (relaxed retry) and never when hi = 2 (least violation, one warning).
    # Either way the answer is u = 1.
    art, sys = fallback_chain_artifact(hi)
    with caplog.at_level(logging.WARNING, logger="safegov.governor"):
        res = govern([0.0], [0.0], art, sys, GovernorConfig(S=np.array([[1.0]])))
    assert res.status == "fallback"
    assert res.reason == ("min_violation" if n_warnings else "relaxed_tol")
    assert res.u_safe[0] == pytest.approx(1.0, abs=1e-9)
    assert res.modified
    engaged = [r for r in caplog.records if "fallback engaged" in r.getMessage()]
    assert len(engaged) == len(caplog.records) == n_warnings


@pytest.mark.parametrize("hi, reason", [(1 + 5e-7, "relaxed_tol"), (2.0, "min_violation")])
def test_govern_evaluates_candidates_once(monkeypatch, hi, reason):
    # Both fallbacks solve the problem twice; the retry re-tests the first
    # solve's candidates and builds none.
    art, sys = fallback_chain_artifact(hi)
    built = []
    candidates = governor._candidates
    monkeypatch.setattr(governor, "_candidates", lambda prob: built.append(prob) or candidates(prob))
    res = govern([0.0], [0.0], art, sys, GovernorConfig(S=np.array([[1.0]])))
    assert (res.status, res.reason) == ("fallback", reason)
    assert len(built) == 1


def same_result(a, b) -> bool:
    """Equal status, modified flag and node count; byte-equal action and
    objective."""
    if (a.u_safe is None) != (b.u_safe is None):
        return False
    return (a.status == b.status and a.modified == b.modified and a.nodes_explored == b.nodes_explored
            and (a.u_safe is None or a.u_safe.tobytes() == b.u_safe.tobytes())
            and np.float64(a.objective).tobytes() == np.float64(b.objective).tobytes())


def test_govern_matches_reference_bitwise_on_every_path():
    # Seeded uniform safe states and actions on the ACC K = 0 artifact
    # take the fast path, the branch and the least-violation fallback;
    # states just short of the fallback chain's member, at 10^-9 to 10^-5
    # below x = 0, take the branch, the relaxed retry and the least violation.
    env = AccEnv()
    spec = constraint_spec(env.params)
    acc = build_safe_artifact(compute_unrecoverable(env.system, spec, K=0), env.system, spec)
    rng = np.random.default_rng(31)
    X = rng.uniform(BOX_LO, BOX_HI, size=(600, 3))
    X = X[acc.safe.contains_many(X)]
    U = rng.uniform(env.params.u_min, env.params.u_max, size=len(X))
    cases = [(acc, env.system, np.eye(1), x, [u]) for x, u in zip(X, U)]
    chain, sys = fallback_chain_artifact(1.0)
    cases += [(chain, sys, np.array([[2.0]]), [-10.0 ** rng.uniform(-9, -5)], [rng.uniform(-1, 1)])
              for _ in range(60)]

    paths = set()
    for art, sys, S, x, u in cases:
        cfg = GovernorConfig(S=S)
        res = govern(x, u, art, sys, cfg)
        ref = governor_reference.govern(x, u, art, sys, cfg)
        assert same_result(res, ref), (x, u, res, ref)
        paths.add(res.reason or ("fast" if res.nodes_explored == 0 else "branch"))
    assert paths == {"fast", "branch", "relaxed_tol", "min_violation"}


def nested_boxes_miqp(rng, m, n_groups, spread):
    """u in U = [-1, 1]^m must leave n_groups boxes that contain u_nom, one
    group of 2m rows each, so the action, if there is one, lies past the
    first CANDIDATE_BLOCK candidates in objective order."""
    L = rng.normal(size=(m, m))
    u_nom = rng.uniform(-0.5, 0.5, size=m)
    rows = np.vstack([np.eye(m), -np.eye(m)])
    groups = [(rows, np.concatenate([u_nom + rng.uniform(0.05, spread, size=m),
                                     rng.uniform(0.05, spread, size=m) - u_nom]))
              for _ in range(n_groups)]
    return stacked_miqp(L @ L.T + 0.3 * np.eye(m), u_nom, rows, np.ones(2 * m), groups)


@pytest.mark.parametrize("m, n_groups, spread", [(1, 34, 1.2), (2, 10, 1.6)])
def test_solve_miqp_matches_reference_bitwise_on_random_instances(m, n_groups, spread):
    # The second solve of each problem, at the relaxed tolerance, re-tests
    # the margins the first one kept.
    rng = np.random.default_rng(47 + m)
    probs = [random_miqp(rng, m=m) for _ in range(200)]
    probs += [nested_boxes_miqp(rng, m, n_groups, spread) for _ in range(30)]
    paths = set()
    for prob in probs:
        for eps in (FEAS_TOL, 10 * FEAS_TOL):
            res = solve_miqp(prob, eps_feas=eps)
            ref = governor_reference.solve_miqp(prob, eps_feas=eps)
            assert same_result(res, ref), (prob, eps, res, ref)
            paths.add((res.status, min(res.nodes_explored, 1) + (res.nodes_explored > governor.CANDIDATE_BLOCK)))
    # 0: fast path; 1: answer in the first block; 2: past it.
    assert paths == {("optimal", 0), ("optimal", 1), ("optimal", 2), ("infeasible", 1), ("infeasible", 2)}


def test_min_violation_exact_over_many_assignments():
    # 13 two-row groups give 2**13 = 8,192 face assignments.  Taking
    # u <= -0.35 in the twelve equal groups and u <= -0.5 in the last
    # violates nothing, and u = -0.5 is the nearest such action to u_nom = 0.
    # The greedy choice at the clipped nominal (u >= 0.3 in the twelve
    # groups) would have settled for a worst violation of 0.4 at u = -0.1.
    groups = [(np.array([[1.0], [-1.0]]), np.array([0.3, 0.35]))] * 12
    groups.append((np.array([[-1.0], [1.0]]), np.array([0.5, 2.0])))
    prob = stacked_miqp(np.eye(1), np.array([0.0]), np.array([[1.0], [-1.0]]),
                        np.array([1.0, 1.0]), groups)
    u = _min_violation_action(prob)
    assert u == pytest.approx([-0.5], abs=1e-12)
    res = solve_miqp(prob)
    assert res.status == "optimal" and res.u_safe[0] == pytest.approx(-0.5, abs=1e-9)


def worst_violation(prob, u):
    """max_j min_{i in j} (beta_i - alpha_i' u)+, one group at a time."""
    viol = np.maximum(0.0, prob.beta - prob.alpha @ u)
    return max(viol[lo:hi].min() for lo, hi in zip(prob.starts[:-1], prob.starts[1:]))


def test_min_violation_matches_per_assignment_lp():
    # Oracle: per face assignment, min s s.t. alpha_i u + s >= beta_i,
    # s >= 0, u in U; the least s over assignments is the least worst
    # violation.  The assignments' LPs share no variable, so HiGHS solves
    # them as one block-diagonal LP whose optimum is optimal in every block.
    # Ties: no action in U with that worst violation is nearer u_nom, by
    # the assignment enumeration on rows alpha_i u >= beta_i - f.
    rng = np.random.default_rng(23)
    U_A, U_b = np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    n_positive = 0
    for _ in range(1000):
        groups = []
        for _ in range(int(rng.integers(1, 4))):
            s = int(rng.integers(1, 4))
            alpha = rng.normal(size=(s, 1))
            alpha[rng.random(s) < 0.2] = 0.0
            groups.append((alpha, rng.normal(size=s) * 1.5))
        prob = stacked_miqp(np.array([[rng.uniform(0.5, 2.0)]]), rng.normal(size=1) * 1.5,
                            U_A, U_b, groups)
        blocks, b_ub = [], []
        for choice in itertools.product(*[range(b.size) for _, b in groups]):
            rows = prob.starts[:-1] + np.array(choice)
            blocks.append(np.vstack([np.hstack([U_A, np.zeros((2, 1))]),
                                     np.hstack([-prob.alpha[rows], -np.ones((rows.size, 1))])]))
            b_ub.append(np.concatenate([U_b, -prob.beta[rows]]))
        lp = linprog(np.tile([0.0, 1.0], len(blocks)), A_ub=block_diag(*blocks),
                     b_ub=np.concatenate(b_ub), bounds=[(None, None), (0.0, None)] * len(blocks),
                     method="highs")
        assert lp.status == 0
        ref = lp.x[1::2].min()
        u = _min_violation_action(prob)
        f = worst_violation(prob, u)
        assert -1.0 <= u[0] <= 1.0
        assert abs(f - ref) <= 1e-9, (groups, prob.u_nom)
        nearest = enumerate_miqp(dataclasses.replace(prob, beta=prob.beta - f))[0]
        assert prob.S[0, 0] * (u[0] - prob.u_nom[0]) ** 2 <= nearest + 1e-6, (groups, prob.u_nom)
        n_positive += ref > 1e-9
    assert n_positive > 100


def test_min_violation_needs_scalar_action():
    # z = x + u with U = [-1, 1]^2; from x = 0 the member [-10, 2]^2 cannot
    # be left, so govern() reaches the fallback, which is scalar-only.
    sys = LinearSystem(np.eye(2), np.eye(2), np.eye(2))
    box = HPolytope.from_bounds([-10, -10], [10, 10])
    spec = ConstraintSpec(X0=PolyUnion([HPolytope.from_bounds([-10, -10], [-9, -9])]),
                          U=HPolytope.from_bounds([-1, -1], [1, 1]),
                          W=HPolytope.from_point([0.0, 0.0]), box=box)
    member = PolyUnion([HPolytope.from_bounds([-10, -10], [2, 2])])
    art = SafeSetArtifact(system=sys, spec=spec, k_used=0, safe=PolyUnion.empty(2),
                          inflated_unsafe=member, unrecoverable=member, fixpoint_reached=False)
    with pytest.raises(GovernorError, match="scalar"):
        govern([0.0, 0.0], [0.0, 0.0], art, sys, GovernorConfig(S=np.eye(2)))


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
    assert set(d) == {"u_safe", "modified", "objective", "nodes_explored", "solve_time", "status", "reason"}
    assert d["reason"] == ""
