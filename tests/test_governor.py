import collections
import dataclasses
import functools
import hashlib
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
    # With no groups the governor's program is the QP over U alone.
    rng = np.random.default_rng(61)
    statuses = collections.Counter()
    for _ in range(300):
        U_A = rng.normal(size=(int(rng.integers(1, 5)), 1))
        prob = stacked_miqp(np.array([[rng.uniform(0.5, 2.0)]]), rng.normal(size=1) * 2,
                            U_A, rng.normal(size=U_A.shape[0]), [])
        res = solve_miqp(prob)
        ref = qp_solve(prob.S, prob.u_nom, prob.U_A, prob.U_b)
        statuses[ref.status, res.nodes_explored > 0] += 1
        if ref.status == QP_OPTIMAL:
            assert res.status == "optimal"
            assert res.u_safe == pytest.approx(ref.u, abs=1e-9)
            assert res.objective == pytest.approx(ref.value, abs=1e-9)
        else:
            assert (ref.status, res.status) == (QP_INFEASIBLE, "infeasible")
    assert set(statuses) == {(QP_OPTIMAL, False), (QP_OPTIMAL, True), (QP_INFEASIBLE, True)}


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
    # The draws with two or three inputs are rejected; they stay in the
    # stream so that the scalar instances are the same.
    rng = np.random.default_rng(101)
    n_feasible = 0
    for _ in range(150):
        prob = random_miqp(rng)
        if prob.u_nom.size != 1:
            with pytest.raises(GovernorError, match="scalar"):
                solve_miqp(prob)
            continue
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
    # A solve of an equal fresh problem and a second solve of the same one,
    # which reads the kept evaluation, give the same bytes.
    prob = nested_boxes_miqp(np.random.default_rng(7), 1, 8, 1.4)
    r1 = solve_miqp(prob)
    assert r1.nodes_explored > 0
    assert same_result(r1, solve_miqp(prob))
    assert same_result(r1, solve_miqp(dataclasses.replace(prob)))


def test_miqp_empty_group_is_never_met():
    empty = (np.zeros((0, 1)), np.zeros(0))
    groups = [(np.array([[1.0], [-1.0]]), np.array([4.0, -2.0])), empty,
              (np.array([[2.0]]), np.array([1.0])), empty]
    prob = stacked_miqp(S=np.array([[1.0]]), u_nom=np.array([0.0]),
                        U_A=np.array([[1.0], [-1.0]]), U_b=np.array([3.0, 3.0]), groups=groups)
    u = np.array([0.5])
    per_group = [(a @ u - b).max(initial=-np.inf) for a, b in groups]
    assert prob.least_slack(u)[0] == min(per_group) == -np.inf
    met = stacked_miqp(prob.S, prob.u_nom, prob.U_A, prob.U_b, groups[::2])
    assert met.least_slack(u)[0] == min(per_group[::2]) > -np.inf
    assert enumerate_miqp(prob) is None
    assert solve_miqp(prob).status == "infeasible"
    assert _min_violation_action(prob) is None


# --------------------------------------------------------------- governor


def test_governor_config_validation():
    # S must be a finite, positive 1x1 matrix, since the action is scalar.
    for S in ([[0.0]], [[-1.0]], [[np.nan]], [[np.inf]], [[1.0, 2.0], [0.0, 1.0]], np.eye(2),
              [[1.0, 0.0]], np.zeros((0, 0))):
        with pytest.raises(GovernorError, match="1x1"):
            GovernorConfig(S=np.array(S))
    cfg = GovernorConfig(S=2.0)
    assert cfg.S.tolist() == [[2.0]] and not cfg.S.flags.writeable


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
    # A 2x2 weight is rejected where its config is made, so it never
    # reaches build_miqp; a two-entry action is rejected by build_miqp.
    with pytest.raises(GovernorError, match="1x1"):
        GovernorConfig(S=np.eye(2))
    cfg = GovernorConfig(S=np.array([[1.0]]))
    # x = 8 with u_nom = 0 is admissible as it is; x = 5 with u_nom = -3 is not.
    for x, u in (([8.0], [0.0]), ([5.0], [-3.0])):
        for step in (build_miqp, govern):
            with pytest.raises(GovernorError, match="the action is scalar"):
                step(x, u + [0.0], art, sys, cfg)


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


@pytest.mark.parametrize("hi, reason", [(1 + 5e-7, "relaxed_tol"), (2.0, "min_violation")])
def test_govern_fallback_chain(caplog, hi, reason):
    # From x = 0, U reaches z >= hi within 10 * FEAS_TOL when hi = 1 + 5e-7
    # (relaxed retry) and never when hi = 2 (least violation).  Either way
    # the answer is u = 1, and the reason tag is the fallback's only record.
    # An artifact that is not a fixpoint is warned about once, at its first
    # call, even when later calls pass another system object; a fixpoint
    # artifact is not warned about.
    chain, sys = fallback_chain_artifact(hi)
    arts = [chain, fallback_chain_artifact(hi)[0], dataclasses.replace(chain, fixpoint_reached=True)]
    cfg = GovernorConfig(S=np.array([[1.0]]))
    with caplog.at_level(logging.DEBUG, logger="safegov.governor"):
        for art in arts:
            for system in (sys, sys, LinearSystem(sys.A.copy(), sys.B.copy(), sys.E)):
                res = govern([0.0], [0.0], art, system, cfg)
                assert (res.status, res.reason) == ("fallback", reason)
                assert res.u_safe[0] == pytest.approx(1.0, abs=1e-9)
                assert res.modified
    not_fixpoint = ("governing with an artifact that is not a fixpoint (k_used=0): "
                    "its safe set need not be invariant")
    assert [r.getMessage() for r in caplog.records] == [not_fixpoint] * 2


@pytest.mark.parametrize("hi, reason", [(1 + 5e-7, "relaxed_tol"), (2.0, "min_violation")])
def test_govern_evaluates_candidates_once(monkeypatch, hi, reason):
    # Both fallbacks solve the problem twice; the retry and the least
    # violation read the break points the first solve evaluated.
    art, sys = fallback_chain_artifact(hi)
    evaluated = []
    evaluate = governor._evaluate
    monkeypatch.setattr(governor, "_evaluate", lambda prob: evaluated.append(prob) or evaluate(prob))
    res = govern([0.0], [0.0], art, sys, GovernorConfig(S=np.array([[1.0]])))
    assert (res.status, res.reason) == ("fallback", reason)
    assert len(evaluated) == 1


def test_prepared_rows_keyed_on_the_system_matrices():
    # The row data depend on A and B alone: an equal but distinct system
    # reuses them, and a system with another B rebuilds them.  With B = 1
    # the member is never left; with B = 2 it is left at u = 1.  A problem
    # that build_miqp builds holds the artifact's rows.
    art, sys = fallback_chain_artifact(2.0)
    cfg = GovernorConfig(S=np.array([[1.0]]))
    runs = [(sys, "min_violation"), (LinearSystem(sys.A.copy(), sys.B.copy(), sys.E), "min_violation"),
            (sys, "min_violation"), (LinearSystem(sys.A, 2 * sys.B, sys.E), "")]
    rows = []
    for system, reason in runs:
        res = govern([0.0], [0.0], art, system, cfg)
        assert res.reason == reason
        assert res.u_safe[0] == pytest.approx(1.0, abs=1e-9)
        rows.append(build_miqp([0.0], [0.0], art, system, cfg).rows)
    assert rows[0] is rows[1] is rows[2] is not rows[3]
    assert rows[0].alpha.tolist() == [[1.0], [-1.0]] and rows[3].alpha.tolist() == [[2.0], [-2.0]]
    # The cell table is the rows' own: the box [-10, 10] and U = [-1, 1]
    # give next states in [-11, 11] under B = 1 and [-12, 12] under B = 2.
    # A problem built directly derives rows with no table.
    assert rows[0].cells is rows[1].cells is rows[2].cells is not rows[3].cells
    assert rows[0].cells.lo[0] == pytest.approx(-11.0) and rows[3].cells.lo[0] == pytest.approx(-12.0)
    assert dataclasses.replace(build_miqp([0.0], [0.0], art, sys, cfg)).rows.cells is None


def govern_path(res) -> str:
    """The govern() path a result took: "fast", "branch", "relaxed_tol" or
    "min_violation"."""
    return res.reason or ("fast" if res.nodes_explored == 0 else "branch")


def same_result(a, b) -> bool:
    """Equal status, reason, modified flag and node count; byte-equal
    action and objective."""
    return result_bytes(a) == result_bytes(b)


def result_bytes(res) -> bytes:
    """Status, reason, modified flag, node count, action bytes and
    objective bytes of a result."""
    u = b"none" if res.u_safe is None else res.u_safe.tobytes()
    head = f"{res.status}|{res.reason}|{res.modified}|{res.nodes_explored}|".encode()
    return head + u + b"|" + np.float64(res.objective).tobytes()


@functools.lru_cache(maxsize=None)
def acc_artifact(K):
    env = AccEnv()
    spec = constraint_spec(env.params)
    return build_safe_artifact(compute_unrecoverable(env.system, spec, K=K), env.system, spec), env


def acc_inputs(art, env, n, seed):
    """n uniform box states inside the safe region, each with a uniform
    nominal action from U."""
    rng = np.random.default_rng(seed)
    X = np.zeros((0, 3))
    while len(X) < n:
        Y = rng.uniform(BOX_LO, BOX_HI, size=(4096, 3))
        X = np.vstack([X, Y[art.safe.contains_many(Y)]])
    return X[:n], rng.uniform(env.params.u_min, env.params.u_max, size=n)


def test_govern_matches_reference_bitwise_on_every_path():
    # Seeded uniform safe states and actions on the ACC K = 0 and K = 1
    # artifacts take the fast path, the branch and the least-violation
    # fallback, the K = 1 ones at least 100 times; states just short of the
    # fallback chain's member, at 10^-9 to 10^-5 below x = 0, take the
    # branch, the relaxed retry and the least violation.
    cases = []
    for K, n, seed in ((0, 300, 31), (1, 1600, 37)):
        art, env = acc_artifact(K)
        cases += [(art, env.system, np.eye(1), x, [u]) for x, u in zip(*acc_inputs(art, env, n, seed))]
    rng = np.random.default_rng(31)
    chain, sys = fallback_chain_artifact(1.0)
    cases += [(chain, sys, np.array([[2.0]]), [-10.0 ** rng.uniform(-9, -5)], [rng.uniform(-1, 1)])
              for _ in range(60)]

    paths = collections.Counter()
    for art, sys, S, x, u in cases:
        cfg = GovernorConfig(S=S)
        res = govern(x, u, art, sys, cfg)
        ref = governor_reference.govern(x, u, art, sys, cfg)
        assert same_result(res, ref), (x, u, res, ref)
        paths[art.k_used, govern_path(res)] += 1
    assert {p for _, p in paths} == {"fast", "branch", "relaxed_tol", "min_violation"}
    assert paths[1, "min_violation"] >= 100


# SHA-256 over result_bytes of 3,000 govern() calls on seeded uniform safe
# states and actions of the ACC K = 1 artifact (255 of them fall back
# to the least violation), recorded before the governor kept its face rows
# group-major; and over solve_miqp on the random scalar problems at the
# strict and the relaxed tolerance, recorded while the governor still
# solved problems with more inputs.
GOVERN_ACC_K1_SHA256 = "476d8eaebac9293e57769a796f070edcb0d95c3e362de5fb13e161eb368acfcd"
SOLVE_MIQP_RANDOM_SHA256 = "f820974a3c32737dc0bc140bd00fe04205bd895d5b371a504836a9cc4fb08019"


def test_govern_results_pinned():
    art, env = acc_artifact(1)
    cfg = GovernorConfig(S=np.eye(1))
    digest = hashlib.sha256()
    for x, u in zip(*acc_inputs(art, env, 3000, 53)):
        digest.update(result_bytes(govern(x, [u], art, env.system, cfg)))
    assert digest.hexdigest() == GOVERN_ACC_K1_SHA256


def test_govern_rejects_bad_inputs_by_name():
    # On the ACC K = 1 artifact at x = (40, 0, 20), a NaN action came back
    # as U's upper bound with status "optimal", each non-finite state raised
    # numpy's "attempt to get argmin of an empty sequence" and a state with
    # two entries numpy's matmul error.  Now build_miqp and govern() name
    # the input, before the artifact is prepared.
    art, env = acc_artifact(1)
    cfg = GovernorConfig(S=np.eye(1))
    x = np.array([40.0, 0.0, 20.0])
    p = env.params
    actions = ([p.u_min], [0.0], [p.u_max])
    states = list(itertools.product(*[(v, np.nan, np.inf, -np.inf) for v in x]))[1:]
    assert len(states) == 63 and all(not np.isfinite(s).all() for s in states)
    fresh = dataclasses.replace(art)
    for step in (build_miqp, govern):
        for u in ([np.nan], [np.inf], [-np.inf], np.nan, [np.float64(np.nan)], [np.float64(-np.inf)]):
            with pytest.raises(GovernorError, match=r"u_nom must be finite, not \[-?(nan|inf)\]"):
                step(x, u, fresh, env.system, cfg)
        for bad in states:
            for u in actions:
                with pytest.raises(GovernorError, match=r"x must be finite"):
                    step(list(bad), u, fresh, env.system, cfg)
                # perfbench's forms, which _checked reads without numpy's
                # conversion.
                with pytest.raises(GovernorError, match=r"x must be finite"):
                    step(np.array(bad), [np.float64(u[0])], fresh, env.system, cfg)
        for wrong in (x[:2], np.append(x, 1.0), x[:, None][:2], []):
            with pytest.raises(GovernorError, match=rf"x has {np.size(wrong)} entries; the system has 3 states"):
                step(wrong, [0.0], fresh, env.system, cfg)
        # Inputs numpy cannot read as real numbers raised its TypeError or
        # ValueError.
        with pytest.raises(GovernorError, match=r"u_nom must be a real number, not \[\(1\+2j\)\]"):
            step(x, [1 + 2j], fresh, env.system, cfg)
        with pytest.raises(GovernorError, match=r"x must be real numbers, not \['a', 'b', 'c'\]"):
            step(["a", "b", "c"], [0.0], fresh, env.system, cfg)
        # numpy's cast dropped the imaginary part of complex arrays and
        # numpy scalars with only a ComplexWarning: govern() returned
        # [2.9] with status "optimal" for np.array([2.9 + 5j]).
        for u in (np.array([2.9 + 5j]), np.complex128(2.9 + 0j), [np.complex64(2.9)], np.array([[2.9 + 0j]])):
            with pytest.raises(GovernorError, match=r"u_nom must be a real number, not .*\(complex entries\)"):
                step(x, u, fresh, env.system, cfg)
        for bad in (x + 1j, x.astype(complex), [40.0, np.complex128(0.0), 20.0]):
            with pytest.raises(GovernorError, match=r"x must be real numbers, not .*\(complex entries\)"):
                step(bad, [2.9], fresh, env.system, cfg)
    assert not hasattr(fresh, "_governor_cache")
    # The inputs are fine on their own: from x = (40, 0, 20) the governor
    # lifts u_min and 0 to 1/6 and keeps u_max.
    assert [govern_path(govern(x, u, art, env.system, cfg)) for u in actions] == ["branch", "branch", "fast"]


def test_govern_takes_every_form_of_a_scalar_action():
    # A list, a tuple, a bare number, a numpy scalar, a nested list and
    # arrays of shape (1,) and (1, 1) give the bytes of the one-entry list
    # on each path, and the action returned never shares the caller's
    # memory, the kept nominal action included.  The state given as a
    # list, a tuple, a (1, n) array or a non-contiguous float64 view gives
    # the bytes of the float64 vector, and a float32 array those of its
    # values as a float64 vector.
    art, env = acc_artifact(1)
    cfg = GovernorConfig(S=np.eye(1))
    cases = [(art, env.system, x, u) for x, u in zip(*acc_inputs(art, env, 400, 53))]
    chain, sys = fallback_chain_artifact(1.0)
    cases += [(chain, sys, np.array([-1e-7]), 0.3)]
    forms = (lambda u: (u,), lambda u: u, np.float64, lambda u: [float(u)], lambda u: [[u]],
             lambda u: np.array([u]), lambda u: np.array([[u]]))
    state_forms = (lambda x: x.tolist(), lambda x: tuple(x.tolist()), lambda x: x[None, :],
                   lambda x: np.repeat(x, 2)[::2])
    paths, paths32 = set(), set()
    for art, sys, x, u in cases:
        first = govern(x, [u], art, sys, cfg)
        assert same_result(first, governor_reference.govern(x, [u], art, sys, cfg))
        paths.add(govern_path(first))
        for form in forms:
            u_in = form(u)
            res = govern(x, u_in, art, sys, cfg)
            assert result_bytes(res) == result_bytes(first), (x, u_in)
            assert not np.shares_memory(res.u_safe, u_in)
        for form in state_forms:
            x_in = form(x)
            assert result_bytes(govern(x_in, [u], art, sys, cfg)) == result_bytes(first), (x_in, u)
        x32 = x.astype(np.float32)
        res = govern(x32, [u], art, sys, cfg)
        assert result_bytes(res) == result_bytes(govern(x32.astype(float), [u], art, sys, cfg)), (x32, u)
        paths32.add(govern_path(res))
    assert not state_forms[-1](cases[0][2]).flags.c_contiguous
    assert paths == paths32 == {"fast", "branch", "relaxed_tol", "min_violation"}


def test_fast_path_builds_no_problem(monkeypatch):
    # On the pinned ACC K = 1 corpus a call that keeps the nominal action
    # makes no MIQPProblem; every other call makes exactly one.
    art, env = acc_artifact(1)
    cfg = GovernorConfig(S=np.eye(1))
    built = []
    real = governor.MIQPProblem
    monkeypatch.setattr(governor, "MIQPProblem", lambda *a, **k: built.append(1) or real(*a, **k))
    paths = collections.Counter()
    for x, u in zip(*acc_inputs(art, env, 600, 53)):
        before = len(built)
        path = govern_path(govern(x, [u], art, env.system, cfg))
        paths[path] += 1
        assert len(built) - before == (path != "fast"), path
    assert paths["fast"] > 300 and len(paths) >= 3


def settled_by_table(cells, x, u) -> bool:
    """Whether the cell table settles the nominal action u at x."""
    return cells.settles(np.asarray(x, dtype=float).tolist(), float(u))


def cell_reference(cells, x, t) -> int:
    """The index of the cell of A x + B t, -1 outside D or when x lies
    outside the box: the table's lookup as it stood before it was merged
    into one settle, a loop per axis over the nonzero entries of
    A_i / h_i."""
    N, k = cells.N, 0
    for (row, b, lo), x_lo, x_hi, v in zip(cells.index, cells.x_lo, cells.x_hi, x):
        if not x_lo <= v <= x_hi:
            return -1
        z = b * t - lo
        for j, a in enumerate(row):
            if a != 0.0:
                z += a * x[j]
        if not 0.0 <= z < N:
            return -1
        k = k * N + int(z)
    return k


def settles_reference(cells, x, t) -> bool:
    """The table's settle as it stood before it was one compiled frame:
    U's rows, then cell_reference, then a row test per member of the
    cell's candidate set, each row's sum formed left to right."""
    for a, b, s in cells.u_rows:
        if not a * t - b <= s:
            return False
    k = cell_reference(cells, x, t)
    if k < 0:
        return False
    for j in cells.sets[cells.codes[k]]:
        for row in cells.members[j]:
            total = 0.0
            for a, v in zip(row, [*x, t, 1.0]):
                total += a * v
            if total > 0.0:
                break
        else:
            return False
    return True


def candidates(cells, k) -> tuple:
    """The candidate set of cell k of the table: () for a clear cell."""
    return cells.sets[cells.codes[k]]


def empty_table(monkeypatch, cells):
    """Empty the cell table: every cell's candidate set holds every member,
    and no member has a row, so the table settles nothing.  The settle is
    compiled again from the emptied data."""
    monkeypatch.setattr(cells, "sets", [tuple(range(len(cells.members)))] * len(cells.sets))
    monkeypatch.setattr(cells, "members", [()] * len(cells.members))
    monkeypatch.setattr(cells, "settles", governor._settler(len(cells.index))(cells))


def govern_bytes(calls, art, sys, cfg) -> list[bytes]:
    """result_bytes of govern() on each (x, u) of calls."""
    return [result_bytes(govern(x, [u], art, sys, cfg)) for x, u in calls]


def test_cell_table_members_outside_a_cells_set_clear_it():
    # In each of the 32,768 cells of the ACC K = 1 table, every inflated
    # member outside the cell's candidate set has a row that clears the
    # cell's 8 corners and centre by more than the margin, tested on the
    # members' own rows rather than through a lookup.  The 7,196 cells
    # with an empty set are the clear cells; the 59 distinct sets hold
    # 1.49 members per cell.
    art, env = acc_artifact(1)
    cells = governor._prepared(art, env.system).cells
    members = art.inflated_unsafe.members
    n, N = 3, cells.N
    assert N == 32 and N ** n <= governor._CELL_BUDGET < (N + 1) ** n
    assert len(cells.codes) == N ** n and len(cells.sets) == len(set(cells.sets)) == 59
    assert all(list(s) == sorted(set(s)) and set(s) <= set(range(len(members))) for s in cells.sets)
    held = np.zeros((len(cells.sets), len(members)), bool)
    for c, s in enumerate(cells.sets):
        held[c, list(s)] = True
    held = held[np.array(cells.codes)]
    assert (~held.any(axis=1)).sum() == 7196 and held.sum() == 48927
    k = np.stack(np.unravel_index(np.arange(N ** n), (N,) * n), axis=1)
    offsets = np.array(list(itertools.product((0.0, 1.0), repeat=n)) + [(0.5,) * n])
    points = cells.lo + (k[:, None, :] + offsets) * cells.h
    for j, mbr in enumerate(members):
        excess = points[~held[:, j]] @ mbr.A.T - mbr.b - cells.margin * np.maximum(1.0, np.linalg.norm(mbr.A, axis=1))
        assert (excess.max(axis=2) > 0.0).all(), j


def test_cell_table_keeps_the_margin_at_a_cell_edge():
    # A member whose face y <= c lies on the edge between cells k - 1 and
    # k stays in the candidate set of cell k, where the face's least slack
    # is 0, and clears cell k + 1, where it is one cell width; the table
    # of the fallback chain's system has 32,768 cells over [-11, 11].
    art, sys = fallback_chain_artifact(2.0)
    cells = governor._prepared(art, sys).cells
    k = cells.N // 2 + 100
    c = cells.lo[0] + cells.h[0] * k
    member = PolyUnion([interval(-10, c)])
    edge = dataclasses.replace(art, inflated_unsafe=member, unrecoverable=member, fixpoint_reached=True)
    table = governor._prepared(edge, sys).cells
    assert (cells.N, *(candidates(table, i) for i in (k - 1, k, k + 1))) == (32768, (0,), (0,), ())
    # A member with no rows, the whole line, clears no cell: it joins every
    # cell's set, and the table settles nothing.
    whole = PolyUnion([interval(-10, c), HPolytope(np.zeros((0, 1)), np.zeros(0), 1)])
    table = governor._prepared(dataclasses.replace(edge, inflated_unsafe=whole, unrecoverable=whole), sys).cells
    assert [candidates(table, i) for i in (k - 1, k, k + 1)] == [(0, 1), (0, 1), (1,)]
    assert not any(settled_by_table(table, [x], 0.0) for x in np.linspace(-10.0, 10.0, 41))


def near_face_calls(art, sys, rng, per_face):
    """States whose next nominal state lies 1e-9 to 1e-3 outside or inside
    a face of an inflated member, at a random point of the facet, each with
    a uniform action of U."""
    calls = []
    for mbr in art.inflated_unsafe.members:
        V = mbr.vertices()
        for a, g in zip(mbr.A, mbr.b):
            facet = V[np.abs(V @ a - g) <= 1e-7 * max(1.0, abs(g))]
            for _ in range(per_face):
                y = rng.dirichlet(np.ones(len(facet))) @ facet
                y = y + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9, -3) * a / np.linalg.norm(a)
                u = rng.uniform(-3.0, 3.0)
                calls.append((np.linalg.solve(sys.A, y - sys.B[:, 0] * u), u))
    return calls


def test_cell_table_settles_only_what_the_screen_admits(monkeypatch):
    # On 200,000 uniform box states with uniform actions of U, and on
    # states whose next nominal state lies 1e-9 to 1e-3 from a member's
    # face, the table's settle gives settles_reference's verdict, the
    # screen admits every nominal action the table settles, and govern()
    # gives the bytes it gives with the table emptied: on every settled
    # call, on every near-face call and on 3,000 other calls.
    art, env = acc_artifact(1)
    sys, cfg = env.system, GovernorConfig(S=np.eye(1))
    rows = governor._prepared(art, sys)
    cells = rows.cells
    rng = np.random.default_rng(47)
    X = rng.uniform(BOX_LO, BOX_HI, size=(200_000, 3))
    U = rng.uniform(env.params.u_min, env.params.u_max, size=len(X))
    uniform = list(zip(X, U))
    near = near_face_calls(art, sys, rng, 10)
    verdicts = [settled_by_table(cells, x, u) for x, u in uniform + near]
    assert verdicts == [settles_reference(cells, x.tolist(), float(u)) for x, u in uniform + near]
    assert len(verdicts) == 201_010
    settled = [call for call, v in zip(uniform + near, verdicts) if v]
    near_settled = sum(verdicts[len(uniform):])
    assert len(settled) - near_settled > 0.1 * len(uniform) and len(near) > 900
    for x, u in settled:
        assert rows.admits(rows.screen(x, np.array([u]))[2], FEAS_TOL), (x, u)
    unsettled = [(x, u) for x, u in uniform[:6000] if not settled_by_table(cells, x, u)][:3000]
    calls = settled + near + unsettled
    with_table = govern_bytes(calls, art, sys, cfg)
    empty_table(monkeypatch, cells)
    assert not any(settled_by_table(cells, x, u) for x, u in settled)
    assert govern_bytes(calls, art, sys, cfg) == with_table


def test_cell_table_misses_outside_its_domain():
    # States outside the box, whose next nominal state leaves the table's
    # domain or lies in a clear cell, and actions outside U from a state
    # whose next nominal states lie in clear cells, miss the table;
    # govern() gives the reference's result on each.
    art, env = acc_artifact(1)
    sys, cfg = env.system, GovernorConfig(S=np.eye(1))
    cells = governor._prepared(art, sys).cells

    def clear_cell(x, u):
        k = np.floor((sys.A @ x + sys.B[:, 0] * u - cells.lo) / cells.h).astype(int)
        return candidates(cells, np.ravel_multi_index(k, (cells.N,) * 3)) == ()

    x = np.array([50.0, 0.0, 30.0])
    assert clear_cell(x, -3.0) and clear_cell(x, 3.0) and clear_cell([60.0, -20.5, 30.0], 0.0)
    calls = [([200.0, 0.0, 20.0], 0.0), ([60.0, 0.0, 45.0], 1.0), ([-15.0, 30.0, 20.0], -2.0),
             ([60.0, -20.5, 30.0], 0.0), (x, 3.5), (x, -3.0 - 1e-6)]
    for x, u in calls:
        assert not settled_by_table(cells, x, u)
        res, ref = govern(x, [u], art, sys, cfg), governor_reference.govern(x, [u], art, sys, cfg)
        assert same_result(res, ref), (x, u, res, ref)
    assert [cell_reference(cells, x, 0.0) for x, _ in calls[:4]] == [-1] * 4


def test_cell_table_settles_every_fast_call_of_the_pinned_corpus():
    # The table settles all 2,311 of the pinned corpus's 3,000 calls that
    # keep the nominal action, 1,730 of them in clear cells.  A table that
    # stops settling loses the gain with no other test failing.
    art, env = acc_artifact(1)
    sys, cfg = env.system, GovernorConfig(S=np.eye(1))
    cells = governor._prepared(art, sys).cells
    calls = list(zip(*acc_inputs(art, env, 3000, 53)))
    fast = [(x, u) for x, u in calls if govern_path(govern(x, [u], art, sys, cfg)) == "fast"]
    settled = [(x, u) for x, u in calls if settled_by_table(cells, x, u)]
    clear = [(x, u) for x, u in settled if candidates(cells, cell_reference(cells, x.tolist(), u)) == ()]
    assert (len(fast), len(settled), len(clear)) == (2311, 2311, 1730)


def test_cell_table_leaves_the_k2_corpus_unchanged(monkeypatch):
    # On the pinned corpus's draw for the ACC K = 2 artifact, govern()
    # gives the same bytes with the table emptied, the table's settle gives
    # settles_reference's verdict on every call, and it settles at least
    # 2,300 of the 2,312 calls that keep the nominal action.
    art, env = acc_artifact(2)
    sys, cfg = env.system, GovernorConfig(S=np.eye(1))
    cells = governor._prepared(art, sys).cells
    calls = list(zip(*acc_inputs(art, env, 3000, 53)))
    with_table = govern_bytes(calls, art, sys, cfg)
    fast = sum(b.startswith(b"optimal||False|0|") for b in with_table)
    verdicts = [settled_by_table(cells, x, u) for x, u in calls]
    assert verdicts == [settles_reference(cells, x.tolist(), float(u)) for x, u in calls]
    settled = sum(verdicts)
    assert fast == 2312 and settled >= 2300, (fast, settled)
    empty_table(monkeypatch, cells)
    assert not any(settled_by_table(cells, x, u) for x, u in calls)
    assert govern_bytes(calls, art, sys, cfg) == with_table


def test_offset_slabs_are_the_padded_offsets_gathered():
    # The offset slabs the screen forms from an artifact's rows equal
    # np.append(g - GA x, inf)[slabs] byte for byte, and so the slabs a
    # problem with the same arrays derives: on random scalar problems with
    # short and empty groups (x = 0, as screen_hand_built lays them out,
    # and x = 1 and 2.5) and on the pinned ACC K = 1 corpus.
    def padded(rows, x):
        GA = rows.GA[:rows.g.size]
        return np.append(rows.g - GA @ x, np.inf)[rows.slabs].tobytes()

    rng = np.random.default_rng(71)
    seen = collections.Counter()
    for _ in range(300):
        prob = random_miqp(rng, m=1)
        rows = hand_built_rows(prob)
        sizes = np.diff(prob.starts)
        seen["short"] += bool(sizes.size) and sizes.min() < sizes.max()
        seen["empty"] += bool(np.any(sizes == 0))
        seen["no rows"] += not prob.beta.size
        for x in (np.zeros(1), np.ones(1), np.array([2.5])):
            GAx, beta_slabs, margins = rows.screen(x, prob.u_nom)
            assert beta_slabs.tobytes() == padded(rows, x)
            built = rows.problem(prob.u_nom, prob.S, GAx, beta_slabs, margins)
            assert dataclasses.replace(built).beta_slabs.tobytes() == padded(rows, x)
    assert min(seen.values()) >= 10, seen
    art, env = acc_artifact(1)
    rows = governor._prepared(art, env.system)
    for x, u in zip(*acc_inputs(art, env, 3000, 53)):
        assert rows.screen(x, np.array([u]))[1].tobytes() == padded(rows, x)


def hand_built_rows(prob):
    """The rows of an artifact that a problem built directly stands for:
    A = B = 1 at x = 0, where alpha = G B and beta = g - G A x."""
    return governor._FaceRows(prob.beta, prob.alpha, prob.alpha, prob.starts, prob.U_A, prob.U_b)


def govern_screen(rows, x, u_nom, cfg):
    """What govern() does before its first solve: None when the nominal
    action passes the screen at FEAS_TOL, otherwise the problem it builds."""
    GAx, beta_slabs, margins = rows.screen(x, u_nom)
    if rows.admits(margins, FEAS_TOL):
        return None
    return rows.problem(u_nom, cfg.S, GAx, beta_slabs, margins)


def screen_hand_built(prob, cfg):
    """govern()'s screen on a problem built directly (hand_built_rows)."""
    return govern_screen(hand_built_rows(prob), np.zeros(1), prob.u_nom, cfg)


def assert_screened_as_built(screened, built):
    """A problem the screen built, not yet solved, is handed the offsets'
    slabs and the nominal action's margins that a problem built directly
    from the same arrays derives on its first solve, and solves to the same
    bytes at the strict and the relaxed tolerance and in the least-violation
    fallback."""
    built_results = [solve_miqp(built, eps_feas=eps) for eps in (FEAS_TOL, 10 * FEAS_TOL)]
    assert "evaluation" not in vars(screened)
    assert screened.beta.tobytes() == built.beta.tobytes()
    assert screened.beta_slabs.tobytes() == built.beta_slabs.tobytes()
    (excess, least), (built_excess, built_least) = screened.margins, built.margins
    assert np.array(excess).tobytes() == np.array(built_excess).tobytes()
    assert np.float64(least).tobytes() == np.float64(built_least).tobytes()
    for eps, built_res in zip((FEAS_TOL, 10 * FEAS_TOL), built_results):
        assert same_result(solve_miqp(screened, eps_feas=eps), built_res)
    u, built_u = _min_violation_action(screened), _min_violation_action(built)
    assert (u is None and built_u is None) or u.tobytes() == built_u.tobytes()


def test_screen_decides_as_solve_miqp_on_random_problems():
    # The test govern() makes before it builds a problem keeps the nominal
    # action exactly when solve_miqp's fast path does, on random scalar
    # problems with padded groups, groups with no rows, and U rows scaled
    # off unit length, whose tolerances scale with them.  Half the nominal
    # actions sit on a break point, moved by at most 5e-6, so that their
    # margins fall on both sides of the strict and the relaxed tolerance.
    rng = np.random.default_rng(67)
    seen = collections.Counter()
    for _ in range(600):
        prob = random_miqp(rng, m=1)
        if rng.random() < 0.5:
            scale = rng.uniform(0.2, 5.0, size=(2, 1))
            prob = dataclasses.replace(prob, U_A=prob.U_A * scale, U_b=prob.U_b * scale[:, 0])
            seen["non-unit U"] += 1
        if rng.random() < 0.5:
            a = np.concatenate([prob.U_A[:, 0], prob.alpha[:, 0]])
            h = np.concatenate([prob.U_b, prob.beta])[a != 0.0] / a[a != 0.0]
            shift = rng.choice([-5e-6, -5e-7, -5e-8, 0.0, 5e-8, 5e-7, 5e-6])
            prob = dataclasses.replace(prob, u_nom=np.array([rng.choice(h) + shift]))
            seen["near a break point"] += 1
        sizes = np.diff(prob.starts)
        seen["padded"] += bool(sizes.size) and sizes.min() < sizes.max()
        seen["empty group"] += bool(np.any(sizes == 0))
        screened = screen_hand_built(prob, GovernorConfig(S=prob.S))
        built = dataclasses.replace(prob)
        res = solve_miqp(built)
        assert (screened is None) == (res.status == "optimal" and res.nodes_explored == 0)
        if screened is None:
            seen["kept"] += 1
            continue
        seen[res.status] += 1
        assert_screened_as_built(screened, built)
    assert set(seen) == {"non-unit U", "near a break point", "padded", "empty group", "kept", "optimal",
                         "infeasible"}
    assert min(seen.values()) >= 20, seen


def test_screened_problem_solves_as_built_on_every_path():
    # On the pinned ACC K = 1 corpus and the fallback chain's near states,
    # govern() keeps the nominal action exactly when solve_miqp on the
    # problem of build_miqp does, and a problem it builds because the
    # nominal action is not admissible solves on the branch, the relaxed
    # retry and the least violation as a problem built directly from the
    # same arrays, which derives its rows, slabs and margins itself.
    art, env = acc_artifact(1)
    cases = [(art, env.system, x, [u]) for x, u in zip(*acc_inputs(art, env, 3000, 53))]
    rng = np.random.default_rng(31)
    chain, sys = fallback_chain_artifact(1.0)
    cases += [(chain, sys, [-10.0 ** rng.uniform(-9, -5)], [rng.uniform(-1, 1)]) for _ in range(60)]
    cfg = GovernorConfig(S=np.eye(1))
    paths = collections.Counter()
    for art, sys, x, u in cases:
        res = govern(x, u, art, sys, cfg)
        paths[govern_path(res)] += 1
        built = build_miqp(x, u, art, sys, cfg)
        first = solve_miqp(built)
        x_checked, _, u_checked, _ = governor._checked(x, u, sys)
        screened = govern_screen(built.rows, x_checked, u_checked, cfg)
        assert (screened is None) == (govern_path(res) == "fast") == (govern_path(first) == "fast")
        if screened is None:
            assert same_result(res, first)
        else:
            assert_screened_as_built(screened, dataclasses.replace(built))
    assert set(paths) == {"fast", "branch", "relaxed_tol", "min_violation"}


def test_solve_miqp_results_pinned():
    # The problems with two and three inputs are drawn as when they were
    # solved, and are rejected.
    rng = np.random.default_rng(59)
    digest = hashlib.sha256()
    for m in (1, 2, 3):
        for prob in [random_miqp(rng, m=m) for _ in range(100)] + [nested_boxes_miqp(rng, m, 8, 1.4)
                                                                  for _ in range(10 if m < 3 else 2)]:
            for eps in (FEAS_TOL, 10 * FEAS_TOL):
                if m == 1:
                    digest.update(result_bytes(solve_miqp(prob, eps_feas=eps)))
                    continue
                with pytest.raises(GovernorError, match="scalar"):
                    solve_miqp(prob, eps_feas=eps)
    assert digest.hexdigest() == SOLVE_MIQP_RANDOM_SHA256


def nested_boxes_miqp(rng, m, n_groups, spread):
    """u in U = [-1, 1]^m must leave n_groups boxes that contain u_nom, one
    group of 2m rows each, so the action, if there is one, lies past the
    reference's first block of governor_reference.CANDIDATE_BLOCK
    candidates in objective order."""
    L = rng.normal(size=(m, m))
    u_nom = rng.uniform(-0.5, 0.5, size=m)
    rows = np.vstack([np.eye(m), -np.eye(m)])
    groups = [(rows, np.concatenate([u_nom + rng.uniform(0.05, spread, size=m),
                                     rng.uniform(0.05, spread, size=m) - u_nom]))
              for _ in range(n_groups)]
    return stacked_miqp(L @ L.T + 0.3 * np.eye(m), u_nom, rows, np.ones(2 * m), groups)


@pytest.mark.parametrize("m, n_groups, spread", [(1, 34, 1.2)])
def test_solve_miqp_matches_reference_bitwise_on_random_instances(m, n_groups, spread):
    # The second solve of each problem, at the relaxed tolerance, re-tests
    # the margins the first one kept.  The reference tests its candidates
    # in blocks; answers in and past its first block are both hit.
    rng = np.random.default_rng(47 + m)
    probs = [random_miqp(rng, m=m) for _ in range(200)]
    probs += [nested_boxes_miqp(rng, m, n_groups, spread) for _ in range(30)]
    paths = set()
    for prob in probs:
        for eps in (FEAS_TOL, 10 * FEAS_TOL):
            res = solve_miqp(prob, eps_feas=eps)
            ref = governor_reference.solve_miqp(prob, eps_feas=eps)
            assert same_result(res, ref), (prob, eps, res, ref)
            block = governor_reference.CANDIDATE_BLOCK
            paths.add((res.status, min(res.nodes_explored, 1) + (res.nodes_explored > block)))
    # 0: fast path; 1: answer in the reference's first block; 2: past it.
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


def test_min_violation_ties_follow_row_order():
    # One group, u >= 0.5 or u <= -0.5: from u_nom = 0 both zeros are
    # nearest with no violation, and the first row's zero is taken, as in
    # the reference.
    rows = [(np.array([[1.0]]), 0.5), (np.array([[-1.0]]), 0.5)]
    for order, want in ((rows, 0.5), (rows[::-1], -0.5)):
        group = (np.vstack([a for a, _ in order]), np.array([b for _, b in order]))
        prob = stacked_miqp(np.eye(1), np.array([0.0]), np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]), [group])
        u = _min_violation_action(prob)
        assert u.tobytes() == governor_reference.min_violation_action(prob).tobytes()
        assert u[0] == want


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


def test_governor_needs_scalar_action(caplog):
    # z = x + u with U = [-1, 1]^2: build_miqp and govern() reject the two
    # inputs up front, from a state where [-10, 2]^2 cannot be left as from
    # one where u = 0 is admissible, with a two-entry action as with a
    # scalar one, before the artifact is prepared or warned about.  S is
    # 1x1 either way: a config with another S is never made.
    sys = LinearSystem(np.eye(2), np.eye(2), np.eye(2))
    box = HPolytope.from_bounds([-10, -10], [10, 10])
    spec = ConstraintSpec(X0=PolyUnion([HPolytope.from_bounds([-10, -10], [-9, -9])]),
                          U=HPolytope.from_bounds([-1, -1], [1, 1]),
                          W=HPolytope.from_point([0.0, 0.0]), box=box)
    member = PolyUnion([HPolytope.from_bounds([-10, -10], [2, 2])])
    art = SafeSetArtifact(system=sys, spec=spec, k_used=0, safe=PolyUnion.empty(2),
                          inflated_unsafe=member, unrecoverable=member, fixpoint_reached=False)
    with caplog.at_level(logging.DEBUG, logger="safegov.governor"):
        for x in ([0.0, 0.0], [5.0, 5.0]):
            for u in ([0.0, 0.0], [0.0]):
                for step in (build_miqp, govern):
                    with pytest.raises(GovernorError, match="scalar action"):
                        step(x, u, art, sys, GovernorConfig(S=np.eye(1)))
    assert not caplog.records
    assert not hasattr(art, "_governor_cache")


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


if __name__ == "__main__":
    # govern() census: PYTHONPATH=src:tests python tests/test_governor.py
    # Calls and median solve_time of each path over five passes, on the
    # pinned ACC K = 1 corpus, the one GOVERN_ACC_K1_SHA256 is recorded on;
    # on the same draw for the ACC K = 2 artifact (about 3 s to build); on
    # the governor calls of one safe-training run on K = 1 (seed 0, 8
    # episodes); and on the fallback chain's 60 near states of the
    # every-path reference test, which take the relaxed retry that the
    # corpora never take.  A call that keeps the nominal action is "fast
    # (clear cell)" or "fast (candidate set)" when the cell table settles
    # it in a cell whose candidate set is empty or not, and "fast (screen)"
    # otherwise.  Each corpus's line also gives its table's distinct sets,
    # their mean size per cell, and the median time of five fresh
    # _prepared calls, which build the rows and the table.  "rejected
    # attempt" is the median time of the table's settle, timed alone with
    # one perf_counter pair, on the calls it does not settle.
    import time

    from safegov import learner

    logging.disable(logging.WARNING)    # the not-a-fixpoint warning, repeated by each fresh _prepared
    art, env = acc_artifact(1)
    art2, _ = acc_artifact(2)
    cfg = GovernorConfig(S=np.eye(1))
    _, logs = learner.train(env, learner.TrainConfig(episodes=8, seed=0, mode="safe"), art)
    rng = np.random.default_rng(31)
    chain, chain_sys = fallback_chain_artifact(1.0)
    corpora = {
        "ACC K=1 corpus": [(art, env.system, x, [u]) for x, u in zip(*acc_inputs(art, env, 3000, 53))],
        "ACC K=2 corpus": [(art2, env.system, x, [u]) for x, u in zip(*acc_inputs(art2, env, 3000, 53))],
        "safe training, K=1, seed 0, 8 episodes": [(art, env.system, x, [u]) for log in logs
                                                   for x, u in zip(log.states, log.u_nom)],
        "fallback chain near states": [(chain, chain_sys, [-10.0 ** rng.uniform(-9, -5)], [rng.uniform(-1, 1)])
                                       for _ in range(60)],
    }
    paths = ("fast (clear cell)", "fast (candidate set)", "fast (screen)", "branch", "relaxed_tol", "min_violation")
    for name, calls in corpora.items():
        a, system = calls[0][:2]
        builds = []
        for _ in range(5):
            a.__dict__.pop("_governor_cache", None)
            t0 = time.perf_counter()
            cells = governor._prepared(a, system).cells
            builds.append(time.perf_counter() - t0)
        times = {path: [] for path in paths}
        rejected = []
        digests = set()
        for _ in range(5):
            digest = hashlib.sha256()
            for a, system, x, u in calls:
                _, xs, _, t = governor._checked(x, u, system)
                t0 = time.perf_counter()
                if not cells.settles(xs, t):
                    rejected.append(time.perf_counter() - t0)
                res = govern(x, u, a, system, cfg)
                digest.update(result_bytes(res))
                path = govern_path(res)
                if path == "fast":
                    if not settled_by_table(cells, x, u[0]):
                        path += " (screen)"
                    elif candidates(cells, cell_reference(cells, np.asarray(x, dtype=float).tolist(), float(u[0]))):
                        path += " (candidate set)"
                    else:
                        path += " (clear cell)"
                times[path].append(res.solve_time)
            digests.add(digest.hexdigest())
        share = (len(times["fast (clear cell)"]) + len(times["fast (candidate set)"])) / (5 * len(calls))
        size = np.mean([len(cells.sets[c]) for c in cells.codes])
        print(f"{name}: {len(calls)} calls, 5 passes; the table settles {share:.1%}; its {len(cells.sets)} "
              f"candidate sets hold {size:.2f} members per cell; _prepared {np.median(builds) * 1e3:.1f} ms")
        for path, t in [*times.items(), ("rejected attempt", rejected)]:
            print(f"  {path}: {len(t) // 5} calls" + (f", median {np.median(t) * 1e6:.2f} us" if t else ""))
        if name.startswith("ACC K=1"):
            match = digests == {GOVERN_ACC_K1_SHA256}
            print(f"  digest {'match' if match else 'DIFFER'}")
