import itertools
import os

import numpy as np
import pytest
from scipy.optimize import linprog

import lp_reference
from safegov.geometry import INFEASIBLE, OPTIMAL, UNBOUNDED, LpError, chebyshev_center, lp_solve
from safegov.geometry import lp as lp_module


def test_min_x_over_unit_interval():
    res = lp_solve(np.array([1.0]), np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]))
    assert res.status == OPTIMAL
    assert abs(res.x[0]) <= 1e-9
    assert abs(res.value) <= 1e-9


def test_contradictory_halfspaces_infeasible():
    # x <= -1 and x >= 1
    res = lp_solve(np.array([1.0]), np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))
    assert res.status == INFEASIBLE


def test_corner_optimum_unit_square():
    A = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    b = np.array([1, 1, 0, 0], dtype=float)
    res = lp_solve(np.array([-1.0, -1.0]), A, b)
    assert res.status == OPTIMAL
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-9)
    assert abs(res.value + 2.0) <= 1e-9


def test_unbounded_direction():
    res = lp_solve(np.array([-1.0]), np.array([[-1.0]]), np.array([0.0]))
    assert res.status == UNBOUNDED


def test_degenerate_single_point():
    # x <= 0 and x >= 0 admits exactly x = 0.
    res = lp_solve(np.array([1.0]), np.array([[1.0], [-1.0]]), np.array([0.0, 0.0]))
    assert res.status == OPTIMAL
    assert abs(res.x[0]) <= 1e-9


def test_no_constraints():
    assert lp_solve(np.zeros(2), np.zeros((0, 2)), np.zeros(0)).status == OPTIMAL
    assert lp_solve(np.array([1.0, 0.0]), np.zeros((0, 2)), np.zeros(0)).status == UNBOUNDED


def _random_lps(rng, count, max_rows):
    for _ in range(count):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, max_rows + 1))
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m) + 1.0
        yield rng.normal(size=n), A, b


def _awkward_rows(rng, A, b):
    """The same LP with rows duplicated, all-zero rows added (vacuous, or
    infeasible when the offset is negative) or rows scaled by 1e+-3."""
    kind = int(rng.integers(3))
    if kind == 0:
        idx = rng.integers(0, b.size, size=int(rng.integers(1, b.size + 1)))
        return np.vstack([A, A[idx]]), np.concatenate([b, b[idx]])
    if kind == 1:
        k = int(rng.integers(1, 4))
        off = rng.uniform(0.0, 2.0, size=k)
        if rng.uniform() < 0.1:
            off[0] = -1.0
        return np.vstack([A, np.zeros((k, A.shape[1]))]), np.concatenate([b, off])
    s = 10.0 ** rng.choice([-3.0, 3.0], size=b.size)
    return A * s[:, None], b * s


def test_zero_rows_decided_by_offset():
    # Vacuous zero rows leave the LP as it was; a zero row with a negative
    # offset makes it infeasible.
    A = np.array([[1.0, 0.3], [-0.7, 1.1], [-0.2, -1.3]])
    b = np.array([1.3, 0.9, 1.7])
    c = np.array([-1.0, 0.5])
    plain = lp_solve(c, A, b)
    Az = np.vstack([A, np.zeros((2, 2))])
    padded = lp_solve(c, Az, np.concatenate([b, [0.334, 1.008]]))
    assert padded.status == OPTIMAL
    assert padded.value == pytest.approx(plain.value, abs=1e-9)
    assert lp_solve(c, Az, np.concatenate([b, [0.334, -1.0]])).status == INFEASIBLE
    assert lp_solve(np.zeros(2), np.zeros((2, 2)), np.array([1.0, 0.0])).status == OPTIMAL


def _random_cases():
    """800 random LPs: 200 small, 300 larger, and each larger one again
    with awkward rows."""
    rng = np.random.default_rng(7)
    cases = list(_random_lps(rng, 200, 11))
    for c, A, b in _random_lps(rng, 300, 30):
        cases.append((c, A, b))
        cases.append((c, *_awkward_rows(rng, A, b)))
    return cases


def test_matches_scipy_on_random_instances():
    n_checked = 0
    for c, A, b in _random_cases():
        n = c.size
        ours = lp_solve(c, A, b)
        ref = linprog(c, A_ub=A, b_ub=b, bounds=[(None, None)] * n, method="highs")
        if ref.status == 0:
            assert ours.status == OPTIMAL, (A, b, c)
            assert ours.value == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
            n_checked += 1
        elif ref.status == 2:
            assert ours.status == INFEASIBLE
        elif ref.status == 3:
            assert ours.status == UNBOUNDED
    assert n_checked > 50


def test_chebyshev_center_of_box():
    A = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    b = np.array([2, 1, 0, 0], dtype=float)
    c, r = chebyshev_center(A, b)
    assert r == pytest.approx(0.5, abs=1e-7)
    assert c[1] == pytest.approx(0.5, abs=1e-6)


def test_chebyshev_center_empty():
    c, r = chebyshev_center(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))
    assert c is None and r < 0


def test_near_touching_parallel_halfspaces_are_infeasible():
    """a'x <= d and a'x >= d + gap with gap 2e-6 to 1e-5: phase 1 ends at
    about the gap, past its 1e-6 threshold, and the certificate y = (1, 1)
    with y'b = -gap must hold at every offset d.  With a threshold scaled
    by max |b| the sets of offset 7 and up raised LpError."""
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        a = rng.normal(size=n)
        a /= np.linalg.norm(a)
        for d in (1.0, 7.0, 99.3, 100.0, 1e3):
            for gap in (2e-6, 3.7e-6, 5e-6, 1e-5):
                A, b = np.vstack([a, -a]), np.array([d, -(d + gap)])
                assert lp_solve(np.zeros(n), A, b).status == INFEASIBLE, (n, d, gap)
                assert chebyshev_center(A, b) == (None, -1.0)


def test_far_optimum_is_held_to_the_offsets_scale():
    """An optimum at x1 = 1e6 with offsets of 1 is accepted; a point that
    far out which misses a row with offset 1 by 0.5 is not, though the
    miss is only 2.5e-7 of that row's |a_i| |x| = 2e6."""
    A = np.array([[1e-6, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    res = lp_solve(np.array([-1.0, 0.0]), A, np.ones(4))
    assert res.status == OPTIMAL and res.x[0] == pytest.approx(1e6, rel=1e-12)
    A, b = np.array([[1.0, 1.0], [-1.0, -1.0]]), np.ones(2)
    norms = np.linalg.norm(A, axis=1)
    assert lp_module._worst_miss(A, b, norms, np.array([1e6, -1e6 + 0.5])) == 0.0
    assert lp_module._worst_miss(A, b, norms, np.array([1e6, -1e6 + 1.5])) == pytest.approx(0.5)


def _pairwise_sum_rows(seed):
    """28 random unit rows in R^3 with offsets from U(10, 60), then the 378
    pairwise sums of rows and offsets: 406 rows around an interior origin."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(28, 3))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    b = rng.uniform(10, 60, size=28)
    i, j = np.triu_indices(28, 1)
    return np.vstack([A, A[i] + A[j]]), np.concatenate([b, b[i] + b[j]])


# The seeds of 0-99 whose Chebyshev LP phase 1 ended above its threshold
# from rounding alone while the LP had a 1e9 radius cap row (it swamped the
# objective row), and which were once called empty (r = -1), then raised
# LpError; and five that never did.
_PAIRWISE_SUM_SEEDS = (21, 26, 37, 50, 53, 63, 66, 72, 73, 78, 0, 1, 2, 3, 4)


def test_pairwise_sum_sets_are_never_called_empty():
    """Every set of the generator holds a ball around the origin, and its
    Chebyshev LP gives the radius HiGHS gives, on every seed."""
    for seed in _PAIRWISE_SUM_SEEDS:
        A, b = _pairwise_sum_rows(seed)
        ref = linprog([0.0, 0.0, 0.0, -1.0], A_ub=np.column_stack([A, np.linalg.norm(A, axis=1)]), b_ub=b,
                      bounds=[(None, None)] * 3 + [(0.0, None)], method="highs")
        assert ref.status == 0 and -ref.fun > 1.0, seed
        _, r = chebyshev_center(A, b)
        assert r == pytest.approx(-ref.fun, rel=1e-6), seed


def test_halfspace_holds_balls_of_any_radius(monkeypatch):
    """A half-space, or the whole space, has an unbounded Chebyshev LP: its
    radius is inf, and HPolytope.chebyshev() marks it nonempty, so that
    is_empty() solves no LP of its own."""
    from safegov.geometry import polytope as polytope_module

    calls = []
    for module in (lp_module, polytope_module):
        monkeypatch.setattr(module, "lp_solve", lambda *a, real=lp_solve: calls.append(1) or real(*a))
    cases = ((np.array([[1.0, 0.0]]), np.array([1.0])), (np.array([[3.0, -4.0], [6.0, -8.0]]), np.array([-2.0, 5.0])),
             (np.zeros((0, 2)), np.zeros(0)))
    for A, b in cases:
        assert chebyshev_center(A, b) == (None, np.inf)
        P = polytope_module.HPolytope(A, b, 2)
        before = len(calls)
        assert P.chebyshev() == (None, np.inf)
        assert not P.is_empty()
        assert len(calls) - before == 1


def _joggled_grid_hull(d, jitter):
    """The convex_hull rows of the 4-point-per-axis grid on [0, 1]^d moved by
    1e-10 jitter, hulled with qhull's joggle option QJ."""
    from safegov.geometry import polytope as polytope_module

    grid = np.array(list(itertools.product(np.linspace(0.0, 1.0, 4), repeat=d)))
    real_hull = polytope_module.ConvexHull
    polytope_module.ConvexHull = lambda p, qhull_options=None: real_hull(p, qhull_options="QJ")
    try:
        H = polytope_module.convex_hull(grid + jitter * 1e-10)
    finally:
        polytope_module.ConvexHull = real_hull
    return polytope_module.HPolytope(H.A, H.b, d)


def _joggled_cases():
    """Three joggled grid hulls whose LPs once failed: in 3-D (25 rows) a row
    LP of remove_redundancy missed a row by 1.6e-6; in 4-D (318 rows) the
    emptiness LP missed one by 1.5e-2, past the bound then scaled by
    max |b|; in 4-D (278 rows) the emptiness LP called the set empty."""
    rng = np.random.default_rng(41)
    for dim in (2, 3, 4):
        for _ in range(3):
            rng.normal(size=(12, dim)) * rng.uniform(0.5, 2.0) + rng.normal(size=dim)
    rng.normal(size=(10, 2)) @ rng.normal(size=(2, 3))
    yield _joggled_grid_hull(3, rng.normal(size=(64, 3)))
    yield _joggled_grid_hull(4, np.random.default_rng(3).normal(size=(256, 4)))
    rng = np.random.default_rng(5)
    rng.normal(size=(16, 2))
    rng.normal(size=(64, 3))
    yield _joggled_grid_hull(4, rng.normal(size=(256, 4)))


def test_joggled_hulls_are_never_called_empty():
    """The joggled grid hulls hold the cube's center: the emptiness LP and
    redundancy removal find it or raise LpError."""
    for P in _joggled_cases():
        center = np.full(P.dim, 0.5)
        assert P.contains(center)
        try:
            assert lp_solve(np.zeros(P.dim), P.A, P.b).status == OPTIMAL
            out = P.remove_redundancy()
        except LpError:
            continue
        assert out.contains(center)


def _outcome(solve, c, A, b):
    """Status, point bytes and value bytes of one solve; LpError counts."""
    try:
        res = solve(c, A, b)
    except LpError:
        return ("LpError", None, None)
    x = None if res.x is None else res.x.tobytes()
    value = None if res.value is None else np.float64(res.value).tobytes()
    return res.status, x, value


# Every LP that K = 4 builds of the 2-D gap/relative-speed system (at the
# default v_fixed = 20, at 15 and at 25) and a K = 1 build of the ACC case
# study solved, spec construction included, recorded once so that the corpus
# does not shrink as the builds come to solve fewer LPs.  Rebuild it with
# `PYTHONPATH=src:tests python tests/test_lp.py`.
BUILD_LPS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "build_lps.npz")


def record_build_lps(path=BUILD_LPS):
    """Run the builds above with lp_solve wrapped and save each LP's
    (c, A, b), concatenated, with its column and row counts."""
    from test_safeset import sys_2d
    from safegov import envs
    from safegov.geometry import polytope as polytope_module
    from safegov.safeset import build_safe_artifact, compute_unrecoverable

    seen = []
    real = lp_module.lp_solve

    def recording(c, A, b):
        seen.append((np.array(c, dtype=float), np.array(A, dtype=float).reshape(-1, np.size(c)),
                     np.array(b, dtype=float)))
        return real(c, A, b)

    lp_module.lp_solve = polytope_module.lp_solve = recording
    try:
        p = envs.AccParams()
        for (sys, spec), K in [(sys_2d(), 4), (sys_2d(v_fixed=15.0), 4), (sys_2d(v_fixed=25.0), 4),
                               ((envs.linear_system(p), envs.constraint_spec(p)), 1)]:
            build_safe_artifact(compute_unrecoverable(sys, spec, K=K), sys, spec)
    finally:
        lp_module.lp_solve = polytope_module.lp_solve = real
    np.savez_compressed(path, c=np.concatenate([c for c, _, _ in seen]),
                        A=np.concatenate([A.ravel() for _, A, _ in seen]),
                        b=np.concatenate([b for _, _, b in seen]),
                        cols=np.array([c.size for c, _, _ in seen]), rows=np.array([b.size for _, _, b in seen]))


def _recorded_build_lps():
    """The (c, A, b) of every LP in BUILD_LPS."""
    with np.load(BUILD_LPS) as f:
        c, A, b, cols, rows = (f[k] for k in ("c", "A", "b", "cols", "rows"))
    c_at = np.concatenate([[0], np.cumsum(cols)])
    b_at = np.concatenate([[0], np.cumsum(rows)])
    A_at = np.concatenate([[0], np.cumsum(cols * rows)])
    return [(c[c_at[i]:c_at[i + 1]], A[A_at[i]:A_at[i + 1]].reshape(rows[i], cols[i]), b[b_at[i]:b_at[i + 1]])
            for i in range(cols.size)]


def test_bitwise_equal_to_reference_solver():
    """The solver reproduces the loop-built reference tableau exactly:
    same status, and the same bytes of point and value.  Each constraint
    set is asked with its own objective and two random ones."""
    recorded = _recorded_build_lps()
    assert len(recorded) > 1000
    rng = np.random.default_rng(11)
    for c0, A, b in _random_cases() + recorded:
        for c in (c0, rng.normal(size=c0.size), rng.normal(size=c0.size)):
            assert _outcome(lp_solve, c, A, b) == _outcome(lp_reference.lp_solve, c, A, b), (c, A, b)


def test_repeated_solves_keep_their_answers():
    """Asking one set with c1, c2, c1 gives the same first and third
    outcome.  An infeasible set and a set of zero rows keep their answers
    when asked again, and every answer matches the reference."""
    A = np.array([[1.0, 0.3], [-0.7, 1.1], [-0.2, -1.3], [0.5, -0.5]])
    b = np.array([1.3, 0.9, 1.7, 0.2])
    c1, c2 = np.array([-1.0, 0.5]), np.array([0.4, 1.0])
    runs = [_outcome(lp_solve, c, A, b) for c in (c1, c2, c1)]
    assert runs[0] == runs[2] != runs[1]
    assert runs == [_outcome(lp_reference.lp_solve, c, A, b) for c in (c1, c2, c1)]

    A_inf, b_inf = np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0])
    zero = np.zeros((3, 2))
    for c, A, b in [(np.ones(1), A_inf, b_inf), (np.zeros(1), A_inf, b_inf),
                    (np.zeros(2), zero, np.array([1.0, 0.0, 2.0])),
                    (np.array([1.0, 0.0]), zero, np.array([1.0, 0.0, 2.0])),
                    (np.zeros(2), zero, np.array([1.0, -1.0, 2.0]))]:
        first, again = _outcome(lp_solve, c, A, b), _outcome(lp_solve, c, A, b)
        assert first == again == _outcome(lp_reference.lp_solve, c, A, b)
    assert _outcome(lp_solve, np.ones(1), A_inf, b_inf)[0] == INFEASIBLE
    assert _outcome(lp_solve, np.array([1.0, 0.0]), zero, np.array([1.0, 0.0, 2.0]))[0] == UNBOUNDED
    assert _outcome(lp_solve, np.zeros(2), zero, np.array([1.0, -1.0, 2.0]))[0] == INFEASIBLE


if __name__ == "__main__":
    record_build_lps()
