import itertools
import json
import math

import numpy as np
import pytest

from safegov.geometry import (
    GeometryError,
    HPolytope,
    PolyUnion,
    RegionBudgetError,
    UnboundedSetError,
    affine_map,
    convex_hull,
    convhull_union,
    inverse_affine_map,
    lp_solve,
    merge_convex_members,
    minkowski_sum,
    pontryagin_diff,
    region_diff,
    set_equal,
    subset,
    subset_of_union,
    union_minkowski,
    union_subset,
)
from safegov.geometry.lp import FEAS_TOL, INFEASIBLE, OPTIMAL, UNBOUNDED, LpError


def box(lo, hi):
    return HPolytope.from_bounds(lo, hi)


def random_bounded_polytope(rng, dim, n_points=8):
    """Hull of a random cloud: bounded, full-dimensional w.h.p."""
    pts = rng.normal(size=(n_points, dim)) * rng.uniform(0.5, 2.0)
    pts += rng.normal(size=dim)
    return convex_hull(pts)


def in_minkowski_sum_lp(x, P, Q):
    """Membership oracle for P (+) Q: exists p with p in P and x - p in Q."""
    d = P.dim
    A = np.vstack([np.hstack([P.A]), -Q.A])
    b = np.concatenate([P.b, Q.b - Q.A @ x])
    # variables: p.  x - p in Q  <=>  -Q.A p <= Q.b - Q.A x
    return lp_solve(np.zeros(d), A, b).status == OPTIMAL


# ---------------------------------------------------------------- basics


def test_membership_and_emptiness():
    b2 = box([0, 0], [1, 1])
    assert b2.contains([0.0, 0.0])
    assert b2.contains([1.0, 1.0])
    assert not b2.contains([1.1, 0.5])
    assert not b2.is_empty()
    assert HPolytope(np.array([[1.0], [-1.0]]), np.array([0.0, -1.0])).is_empty()
    # single point {x <= 0, x >= 0} is nonempty
    assert not HPolytope(np.array([[1.0], [-1.0]]), np.array([0.0, 0.0])).is_empty()


def test_emptiness_cached_consistently():
    P = HPolytope(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))
    assert P.is_empty() and P.is_empty()


def test_contains_dimension_mismatch():
    with pytest.raises(GeometryError):
        box([0], [1]).contains([0.0, 0.0])


def test_membership_row_scale_cache_keeps_the_verdicts():
    """contains and contains_many reuse a cached max(1, ||a_i||); their
    verdicts must equal the formula recomputed from the rows, on rows
    scaled far below and above 1, vacuous zero rows, and points placed
    on, just inside and just outside the tolerance band of each row.
    Both predicates must also agree with each other on every point: a
    state is safe to the batched test exactly when it is to classify()."""

    def slack(A, b, X):
        # Summed one column at a time, as both predicates do; a matrix
        # product rounds a batch of points apart from a single one.
        S = np.zeros((len(X), len(b)))
        for j in range(A.shape[1]):
            S = S + np.outer(X[:, j], A[:, j])
        return S - b

    def uncached_many(A, b, X, tol):
        return np.all(slack(A, b, X) <= tol * np.maximum(1.0, np.linalg.norm(A, axis=1)), axis=1)

    rng = np.random.default_rng(12)
    for trial in range(60):
        dim = int(rng.integers(1, 5))
        sets = []
        for _ in range(3):
            k = int(rng.integers(dim + 1, 3 * dim + 3))
            A = rng.normal(size=(k, dim)) * rng.choice([1e-3, 0.2, 1.0, 7.0, 300.0], size=(k, 1))
            A[rng.random(k) < 0.15] = 0.0
            b = np.abs(rng.normal(size=k)) * np.linalg.norm(A, axis=1) + rng.uniform(0.0, 0.1, size=k)
            sets.append(HPolytope(A, b, dim))
        U = PolyUnion(sets, dim)
        points = [rng.normal(size=dim) * 2.0 for _ in range(6)]
        for P in sets:
            for a, beta in zip(P.A, P.b):
                nn = a @ a
                if nn == 0.0:
                    continue
                x0 = rng.normal(size=dim)
                on = x0 + (beta - a @ x0) / nn * a
                step = FEAS_TOL * max(1.0, np.sqrt(nn)) / nn * a
                points += [on] + [on + s * step for s in (-2.0, -1.001, 0.5, 0.999, 1.001, 2.0)]
        X = np.array(points)
        for tol in (FEAS_TOL, 1e-6, 0.0):
            batched = U.contains_many(X, tol).tolist()
            assert [U.contains(x, tol) for x in X] == batched, (trial, tol)
            for P in sets:
                assert PolyUnion([P], dim).contains_many(X, tol).tolist() == [P.contains(x, tol) for x in X]
            for P in sets:
                want = uncached_many(P.A, P.b, X, tol).tolist()
                assert [P.contains(x, tol) for x in X] == want
                assert [P.contains(x, tol) for x in X] == want       # from the cache
            want = np.any([uncached_many(m.A, m.b, X, tol) for m in U.members], axis=0)
            assert batched == want.tolist()


def test_subset_basics():
    assert subset(box([0, 0], [1, 1]), box([0, 0], [2, 2]))
    assert not subset(box([0], [2]), box([0], [1]))
    assert subset(box([0], [1]), box([0], [1]))


def test_second_subset_of_boxes_solves_no_lp(monkeypatch):
    # The first call settles both emptinesses and P's supports along Q's
    # rows; the second finds all of them kept on the sets.
    P, Q = box([0, 0], [1, 1]), box([-1, 0], [2, 2])
    calls = _count_lps(monkeypatch)
    assert subset(P, Q)
    assert calls[0] > 0
    calls[0] = 0
    assert subset(P, Q)
    assert calls[0] == 0


def test_subset_partial_order_on_random_triples():
    rng = np.random.default_rng(3)
    for _ in range(20):
        P = random_bounded_polytope(rng, 2)
        Q = minkowski_sum(P, box([-0.1, -0.1], [0.1, 0.1]))
        R = minkowski_sum(Q, box([-0.1, -0.1], [0.1, 0.1]))
        assert subset(P, P)
        assert subset(P, Q) and subset(Q, R) and subset(P, R)
        if subset(Q, P):
            assert set_equal(P, Q)


def test_support_values():
    b2 = box([0, 0], [1, 1])
    assert b2.support([1, 0]) == pytest.approx(1.0, abs=1e-9)
    assert box([-1.5], [1.5]).support([1.0]) == pytest.approx(1.5, abs=1e-9)
    assert b2.support([0, 0]) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(UnboundedSetError):
        HPolytope(np.array([[1.0]]), np.array([0.0])).support([-1.0])


def test_redundancy_removal_minimal():
    # Unit square plus a slack row x <= 5 and a duplicate.
    A = np.array([[1, 0], [0, 1], [-1, 0], [0, -1], [1, 0], [1, 1]], dtype=float)
    b = np.array([1, 1, 0, 0, 5, 10], dtype=float)
    P = HPolytope(A, b).remove_redundancy()
    assert P.A.shape[0] == 4
    # Every surviving row must be tight somewhere: relaxing it changes the set.
    from safegov.geometry import UnboundedSetError

    for i in range(P.A.shape[0]):
        mask = np.arange(P.A.shape[0]) != i
        relaxed = HPolytope(P.A[mask], P.b[mask], 2)
        try:
            grew = relaxed.support(P.A[i]) > P.b[i] + 1e-9
        except UnboundedSetError:
            grew = True
        assert grew


# ------------------------------------------------------------- vertices


def test_unit_square_vertices():
    v = box([0, 0], [1, 1]).vertices()
    assert v.shape == (4, 2)
    expect = {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
    got = {tuple(np.round(p, 9)) for p in v}
    assert got == expect


def test_hull_of_square_plus_interior_point():
    P = convex_hull([[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5]])
    assert P.A.shape[0] == 4
    assert set_equal(P, box([0, 0], [1, 1]))


def test_hull_vertices_roundtrip_3d():
    rng = np.random.default_rng(11)
    for _ in range(10):
        cloud = rng.normal(size=(12, 3))
        H1 = convex_hull(cloud)
        H2 = convex_hull(H1.vertices())
        assert set_equal(H1, H2, tol=1e-6)
        # membership sampling equivalence
        pts = rng.uniform(-2, 2, size=(200, 3))
        m1 = np.array([H1.contains(p, tol=1e-6) for p in pts])
        m2 = np.array([H2.contains(p, tol=1e-6) for p in pts])
        assert np.array_equal(m1, m2)


def test_vertices_errors():
    with pytest.raises(UnboundedSetError):
        HPolytope(np.array([[1.0, 0.0]]), np.array([1.0])).vertices()
    with pytest.raises(GeometryError):
        HPolytope.empty(2).vertices()


def test_degenerate_hull_flat_segment():
    # Rank-deficient cloud in 3-D: a segment.
    seg = convex_hull([[-0.1875, -0.75, 0.0], [0.1875, 0.75, 0.0]])
    v = seg.vertices()
    assert v.shape[0] == 2
    assert seg.contains([0.0, 0.0, 0.0])
    assert not seg.contains([0.0, 0.1, 0.0])


# ------------------------------------------------------- minkowski / pontryagin


def test_minkowski_intervals():
    s = minkowski_sum(box([0], [1]), box([0], [1]))
    assert set_equal(s, box([0], [2]))


def test_minkowski_singleton_translation():
    sq = box([0, 0], [1, 1])
    t = minkowski_sum(sq, HPolytope.from_point([1, 1]))
    assert set_equal(t, box([1, 1], [2, 2]))


def test_minkowski_triangle_box_sampled_against_lp_oracle():
    tri = convex_hull([[0, 0], [1, 0], [0, 1]])
    neg = box([-1, -1], [0, 0])
    S = minkowski_sum(tri, neg)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.5, 1.5, size=(10_000, 2))
    ours = np.array([S.contains(p, tol=1e-7) for p in pts])
    oracle = np.array([in_minkowski_sum_lp(p, tri, neg) for p in pts])
    # agree away from a thin boundary band
    band = np.array([
        S.contains(p, tol=1e-4) and not S.contains(p, tol=-1e-4) for p in pts
    ])
    assert np.all(ours[~band] == oracle[~band])


def test_minkowski_unbounded_rejected():
    halfspace = HPolytope(np.array([[1.0, 0.0]]), np.array([0.0]))
    with pytest.raises(UnboundedSetError):
        minkowski_sum(halfspace, box([0, 0], [1, 1]))


def test_pontryagin_intervals():
    assert set_equal(pontryagin_diff(box([-2], [2]), box([-1], [1])), box([-1], [1]))
    assert pontryagin_diff(box([-1], [1]), box([-2], [2])).is_empty()
    P = box([-3, -1], [5, 2])
    assert set_equal(pontryagin_diff(P, HPolytope.from_point([0, 0])), P)


def test_minkowski_pontryagin_identity_with_origin():
    rng = np.random.default_rng(9)
    z = HPolytope.from_point([0.0, 0.0])
    for _ in range(5):
        P = random_bounded_polytope(rng, 2)
        assert set_equal(minkowski_sum(P, z), P, tol=1e-7)
        assert set_equal(pontryagin_diff(P, z), P, tol=1e-9)


def test_erosion_dilation_duality():
    rng = np.random.default_rng(21)
    for _ in range(8):
        P = random_bounded_polytope(rng, 2, n_points=10)
        Q = box([-0.2, -0.3], [0.2, 0.3])
        D = pontryagin_diff(P, Q)
        if D.is_empty():
            continue
        assert subset(minkowski_sum(D, Q), P, tol=1e-6)
    # boxes: equality exact
    P = box([-2, -1], [2, 3])
    Q = box([-0.5, -0.5], [0.5, 0.5])
    assert set_equal(minkowski_sum(pontryagin_diff(P, Q), Q), P, tol=1e-9)


# ---------------------------------------------------------- affine maps


def test_affine_scale():
    M = 2.0 * np.eye(2)
    assert set_equal(affine_map(M, box([-1, -1], [1, 1])), box([-2, -2], [2, 2]))


def test_affine_disturbance_column_segment():
    Ts = 0.5
    E = np.array([[Ts * Ts / 2.0], [Ts], [0.0]])
    seg = affine_map(-E, box([-1.5], [1.5]))
    v = seg.vertices()
    v = v[np.argsort(v[:, 0])]
    assert np.allclose(v[0], [-0.1875, -0.75, 0.0], atol=1e-9)
    assert np.allclose(v[1], [0.1875, 0.75, 0.0], atol=1e-9)


def test_affine_zero_map_gives_singleton():
    P = affine_map(np.zeros((2, 2)), box([-1, -1], [1, 1]))
    v = P.vertices()
    assert v.shape[0] == 1
    assert np.allclose(v[0], 0.0)


def test_inverse_affine_map():
    M = np.array([[2.0, 0.0], [0.0, 4.0]])
    P = box([-2, -4], [2, 4])
    pre = inverse_affine_map(M, P)  # {y : M y in P}
    assert set_equal(pre, box([-1, -1], [1, 1]))
    with pytest.raises(GeometryError):
        inverse_affine_map(np.zeros((2, 2)), P)


# ------------------------------------------------------------- unions


def test_union_membership_and_pruning():
    U = PolyUnion([box([0], [1]), HPolytope.empty(1), box([2], [3])])
    assert len(U) == 2
    assert U.contains([0.5]) and U.contains([2.5]) and not U.contains([1.5])


def test_convhull_union():
    U = PolyUnion([box([0], [1]), box([2], [3])])
    assert set_equal(convhull_union(U), box([0], [3]))
    single = PolyUnion([box([0, 0], [1, 2])])
    assert set_equal(convhull_union(single), box([0, 0], [1, 2]))
    with pytest.raises(GeometryError):
        convhull_union(PolyUnion.empty(2))


def test_convhull_union_overlapping_squares_sampled():
    a = box([0, 0], [2, 2])
    c = box([1, 1], [3, 3])
    H = convhull_union(PolyUnion([a, c]))
    rng = np.random.default_rng(17)
    pts = rng.uniform(-0.5, 3.5, size=(2000, 2))
    hull_pts = np.vstack([a.vertices(), c.vertices()])
    for p in pts:
        inside = H.contains(p, tol=1e-7)
        # oracle: p in hull iff p is a convex combination of member vertices
        k = hull_pts.shape[0]
        A = np.vstack([
            np.hstack([hull_pts.T, -np.eye(2) @ np.zeros((2, k))]),
        ])
        # solve with LP: lambda >= 0, sum lambda = 1, V'lambda = p
        Alp = np.vstack([
            np.hstack([hull_pts.T]),
            -np.hstack([hull_pts.T]),
            np.ones((1, k)),
            -np.ones((1, k)),
            -np.eye(k),
        ])
        blp = np.concatenate([p + 1e-9, -p + 1e-9, [1 + 1e-9], [-1 + 1e-9], np.zeros(k)])
        oracle = lp_solve(np.zeros(k), Alp, blp).status == OPTIMAL
        near = H.contains(p, tol=1e-5) and not H.contains(p, tol=-1e-5)
        if not near:
            assert inside == oracle


def test_union_minkowski():
    U = PolyUnion([box([0], [1]), box([3], [4])])
    S = union_minkowski(U, box([0], [1]))
    assert len(S) == 2
    assert union_subset(S, PolyUnion([box([0], [2]), box([3], [5])]))
    assert union_subset(PolyUnion([box([0], [2]), box([3], [5])]), S)
    same = union_minkowski(U, HPolytope.from_point([0.0]))
    assert union_subset(same, U) and union_subset(U, same)


def test_union_minkowski_sampled_oracle():
    rng = np.random.default_rng(23)
    U = PolyUnion([convex_hull(rng.normal(size=(6, 2))), convex_hull(rng.normal(size=(6, 2)) + 3.0)])
    Q = box([-0.3, -0.2], [0.3, 0.2])
    S = union_minkowski(U, Q)
    pts = rng.uniform(-3, 6, size=(3000, 2))
    for p in pts:
        oracle = any(in_minkowski_sum_lp(p, m, Q) for m in U.members)
        near = S.contains(p, tol=1e-4) and not S.contains(p, tol=-1e-4)
        if not near:
            assert S.contains(p, tol=1e-7) == oracle


# ----------------------------------------------------------- region diff


def test_region_diff_interval():
    out = region_diff(box([0], [3]), PolyUnion([box([1], [2])]))
    assert len(out) == 2
    assert union_subset(out, PolyUnion([box([0], [1]), box([2], [3])]))
    assert union_subset(PolyUnion([box([0], [1]), box([2], [3])]), out)


def test_region_diff_empty_union_identity():
    P = box([0, 0], [1, 1])
    out = region_diff(P, PolyUnion.empty(2))
    assert len(out) == 1
    assert set_equal(out.members[0], P)


def test_region_diff_covered():
    out = region_diff(box([1], [2]), PolyUnion([box([0], [3])]))
    assert out.is_empty()


def test_region_diff_grid_oracle_two_holes():
    P = box([0, 0], [4, 4])
    U = PolyUnion([box([1, 1], [2, 2]), box([2, 0], [3, 1])])
    out = region_diff(P, U)
    n = 200
    xs = (np.arange(n) + 0.5) * 4.0 / n
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    expected = np.array([P.contains(p) and not U.contains(p, tol=0.0) for p in pts])
    got = out.contains_many(pts)
    # exclude a one-cell band around the hole boundaries
    cell = 4.0 / n
    band = np.zeros(len(pts), dtype=bool)
    for m in U.members:
        for a, beta in zip(m.A, m.b):
            band |= np.abs(pts @ a - beta) <= cell
    agree = (got == expected) | band
    assert agree.mean() >= 0.999


def test_region_diff_soundness_sampled():
    rng = np.random.default_rng(31)
    P = convex_hull(rng.uniform(-2, 2, size=(8, 2)))
    U = PolyUnion([convex_hull(rng.uniform(-2, 2, size=(5, 2))) for _ in range(2)])
    out = region_diff(P, U)
    pts = rng.uniform(-2.5, 2.5, size=(10_000, 2))
    for p in pts:
        expected = P.contains(p, tol=0.0) and not U.contains(p, tol=0.0)
        near_p = P.contains(p, tol=1e-4) and not P.contains(p, tol=-1e-4)
        near_u = any(m.contains(p, tol=1e-4) and not m.contains(p, tol=-1e-4) for m in U.members)
        if not (near_p or near_u):
            assert out.contains(p, tol=1e-7) == expected


def test_region_diff_budget_error():
    rng = np.random.default_rng(41)
    P = box([0, 0], [10, 10])
    holes = PolyUnion([
        convex_hull(rng.uniform(0, 10, size=(5, 2))) for _ in range(12)
    ])
    with pytest.raises(RegionBudgetError):
        region_diff(P, holes, max_pieces=3)


def test_region_diff_unbounded_half_plane_member():
    # A half-plane has no vertices, so no pre-filter can rule it out: the
    # LP path decides it, whether it cuts P or misses it.
    P = box([0, 0], [2, 2])
    cut = HPolytope(np.array([[1.0, 0.0]]), np.array([1.0]))      # x <= 1
    miss = HPolytope(np.array([[1.0, 0.0]]), np.array([-1.0]))    # x <= -1
    out = region_diff(P, PolyUnion([cut]))
    assert len(out) == 1
    assert set_equal(out.members[0], box([1, 0], [2, 2]))
    out = region_diff(P, PolyUnion([miss, cut]))
    assert len(out) == 1
    assert set_equal(out.members[0], box([1, 0], [2, 2]))


def test_region_diff_flat_segment_member():
    # A segment removes no volume, whether it crosses P or lies outside it.
    P = box([0, 0], [2, 2])
    inside = convex_hull([[1.0, 0.0], [1.0, 2.0]])
    outside = convex_hull([[3.0, 0.0], [3.0, 2.0]])
    for seg in (inside, outside):
        out = region_diff(P, PolyUnion([seg]))
        assert len(out) == 1
        assert set_equal(out.members[0], P)
    out = region_diff(P, PolyUnion([inside, outside, box([1.5, -1], [3, 3])]))
    assert union_subset(out, PolyUnion([box([0, 0], [1.5, 2])]))
    assert union_subset(PolyUnion([box([0, 0], [1.5, 2])]), out)


def test_region_diff_member_touching_a_face():
    # The first member meets P only along the face x = 2: its vertices lie
    # on that row of P, not strictly outside it.  The second shares faces
    # with P from the inside and must still cut it.
    P = box([0, 0], [2, 2])
    touching = box([2, 0], [3, 2])
    inner = box([0, 0], [1, 2])
    out = region_diff(P, PolyUnion([touching]))
    assert len(out) == 1
    assert set_equal(out.members[0], P)
    out = region_diff(P, PolyUnion([touching, inner]))
    assert len(out) == 1
    assert set_equal(out.members[0], box([1, 0], [2, 2]))


def test_subset_of_union():
    assert subset_of_union(box([0], [2]), PolyUnion([box([0], [1]), box([1], [2])]))
    assert not subset_of_union(box([0], [2]), PolyUnion([box([0], [1]), box([1.5], [2])]))


# ---------------------------------------------------------- merge / misc


def test_merge_convex_members():
    U = PolyUnion([box([0], [1]), box([1], [2]), box([5], [6])])
    merged = merge_convex_members(U)
    assert len(merged) == 2
    assert union_subset(merged, PolyUnion([box([0], [2]), box([5], [6])]))
    # non-convex union stays split
    L = PolyUnion([box([0, 0], [2, 1]), box([0, 0], [1, 2])])
    assert len(merge_convex_members(L)) == 2
    # Each of these comes back member for member: two 1000 x 1 boxes 2e-7
    # apart (every vertex of one lies beyond a row of the other by more
    # than FEAS_TOL, though the gap's 2e-7 is under the volume tolerance of
    # 1e-9 of the hull volume, so only separation keeps them apart); a
    # segment inside a box (no volume, never merged); one member; none.
    segment = HPolytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, -1, 1.5, -0.5])
    for members in ([box([0, 0], [1000, 1]), box([1000 + 2e-7, 0], [2000 + 2e-7, 1])],
                    [box([0, 0], [2, 2]), segment], [box([0], [1])], []):
        U = PolyUnion(members, members[0].dim if members else 2)
        out = merge_convex_members(U)
        assert len(out) == len(U)
        assert all(_same_bytes(m, u) for m, u in zip(out.members, U.members))


def test_merge_convex_members_retests_merged_members():
    # [0, 1] and [2, 3] do not merge; once [1, 2] has joined [0, 1], the
    # merged [0, 2] must be tested against [2, 3] again.
    merged = merge_convex_members(PolyUnion([box([0], [1]), box([2], [3]), box([1], [2])]))
    assert len(merged) == 1
    assert set_equal(merged.members[0], box([0], [3]))
    # A longer cascade: each merge opens the pair that makes the next.
    merged = merge_convex_members(PolyUnion([box([4], [5]), box([0], [1]), box([2], [3]),
                                             box([3], [4]), box([1], [2])]))
    assert len(merged) == 1
    assert set_equal(merged.members[0], box([0], [5]))
    # Every pair of distant cells is apart, yet the grid merges to one box.
    cells = [box([i, j], [i + 1, j + 1]) for i in range(4) for j in range(3)]
    merged = merge_convex_members(PolyUnion(cells))
    assert len(merged) == 1
    assert set_equal(merged.members[0], box([0, 0], [4, 3]))


def test_boundedness_flag_matches_lp_answer(monkeypatch):
    def lp_bounded(P):
        """is_bounded's LPs on P's rows: bounded when empty or when no axis
        direction is unbounded."""
        if lp_solve(np.zeros(P.dim), P.A, P.b).status == INFEASIBLE:
            return True
        return all(lp_solve(s * e, P.A, P.b).status != UNBOUNDED for e in np.eye(P.dim) for s in (1.0, -1.0))

    sq = box([0, 0], [1, 1])
    half_x = HPolytope(np.array([[1.0, 0.0]]), np.array([1.0]))
    half_y = HPolytope(np.array([[0.0, 1.0]]), np.array([1.0]))
    for P in (sq, half_x, half_y):
        P.is_bounded()  # operands whose flags are known
    slab = half_x.intersect(HPolytope(np.array([[-1.0, 0.0]]), np.array([1.0])))
    M = np.array([[2.0, 1.0], [0.5, 1.0]])
    rng = np.random.default_rng(5)
    outs = [
        sq.intersect(half_x), half_x.intersect(sq),
        half_x.intersect(half_y), slab,
        convex_hull(rng.normal(size=(6, 2))), convex_hull(rng.normal(size=(9, 3))),
        convex_hull([[0.0, 0.0], [1.0, 1.0]]), convex_hull([[2.0, 1.0]]),
        inverse_affine_map(M, sq), inverse_affine_map(M, half_x), inverse_affine_map(M, slab),
        sq.remove_redundancy(), half_x.remove_redundancy(), slab.remove_redundancy(),
        half_x.intersect(half_y).remove_redundancy(),
        pontryagin_diff(sq, box([-0.1, -0.2], [0.3, 0.1])), pontryagin_diff(sq, box([-1, -1], [1, 1])),
        pontryagin_diff(half_x, sq),
    ]
    for P in outs:
        assert P.is_bounded() == lp_bounded(P), P
    assert not half_x.intersect(half_y).is_bounded()
    # Rows holding a positive multiple of every +e_i and -e_i bound the set,
    # empty or not, and is_bounded solves no LP for it; a set missing one of
    # these rows, or with none of them, takes the LPs.
    e = np.eye(3)
    boxed = [
        HPolytope(np.vstack([2.0 * e, rng.normal(size=(2, 3)), -0.5 * e]), np.r_[np.ones(3), 5.0, 5.0, np.ones(3)], 3),
        box([1, 1], [0, 2]),
        HPolytope(np.vstack([e, -e]), np.r_[np.ones(3), -2.0, 0.0, 0.0], 3),
    ]
    others = [
        HPolytope(np.vstack([e, -e[:2]]), np.ones(5), 3),
        HPolytope(np.vstack([e, -np.ones((1, 3))]), np.r_[np.ones(3), 1.0], 3),
        HPolytope(np.vstack([e, -e[:2], [[0.0, 0.0, -1e-3]]]), np.ones(6), 3),
    ]
    calls = _count_lps(monkeypatch)
    for P in boxed:
        assert P.is_bounded()
    assert calls[0] == 0
    for P in boxed + others:
        assert P.is_bounded() == lp_bounded(P), P
    assert [P.is_bounded() for P in others] == [False, True, True]


def test_serialization_roundtrip_bit_exact():
    rng = np.random.default_rng(2)
    U = PolyUnion([convex_hull(rng.normal(size=(7, 3))) for _ in range(3)])
    blob = json.dumps(U.to_dict())
    U2 = PolyUnion.from_dict(json.loads(blob))
    assert len(U2) == len(U)
    for m1, m2 in zip(U.members, U2.members):
        assert np.array_equal(m1.A, m2.A)
        assert np.array_equal(m1.b, m2.b)
    d = U.to_dict()
    assert set(d) == {"dim", "members"}


# ------------------------------------------------------ LP-sparing shortcuts


def test_dedup_keeps_the_tightest_row_per_normal():
    def loop_dedup(P):
        # Row-by-row reference: the tightest offset of each run of equal
        # normal keys, in sorted order.
        P = P.normalized()
        key = np.round(P.A / 1e-9) * 1e-9
        order = np.lexsort(np.column_stack([key, P.b]).T[::-1])
        A, b, key = P.A[order], P.b[order], key[order]
        keep, i = [], 0
        while i < len(b):
            j = i
            while j + 1 < len(b) and np.all(key[j + 1] == key[i]):
                j += 1
            keep.append(i + int(np.argmin(b[i:j + 1])))
            i = j + 1
        return A[keep], b[keep]

    rng = np.random.default_rng(8)
    for _ in range(30):
        dim = int(rng.integers(1, 4))
        A = rng.choice([-1.0, 0.0, 0.5, 1.0], size=(int(rng.integers(2, 14)), dim))
        A[np.all(A == 0.0, axis=1), 0] = 1.0
        A = np.vstack([A, A[:3] * rng.uniform(0.5, 3.0, size=(min(3, len(A)), 1))])
        b = rng.normal(size=len(A))
        A_ref, b_ref = loop_dedup(HPolytope(A, b, dim))
        got = HPolytope(A, b, dim)._dedup()
        assert got.A.tobytes() == A_ref.tobytes() and got.b.tobytes() == b_ref.tobytes()


def _fresh_unit_rows(P):
    """normalized()'s rows computed from scratch, as before they were
    memoized on the set."""
    norms = np.linalg.norm(P.A, axis=1)
    if np.any((norms < 1e-12) & (P.b < -FEAS_TOL)):
        return np.zeros((1, P.dim)), np.array([-1.0])
    mask = norms >= 1e-12
    return P.A[mask] / norms[mask, None], P.b[mask] / norms[mask]


def _fresh_dedup_rows(P):
    A, b = _fresh_unit_rows(P)
    if len(b) <= 1:
        return A, b
    key = np.round(A / 1e-9) * 1e-9
    order = np.lexsort(np.column_stack([key, b]).T[::-1])
    A, b, key = A[order], b[order], key[order]
    first = np.ones(len(b), dtype=bool)
    first[1:] = np.any(key[1:] != key[:-1], axis=1)
    return A[first], b[first]


def _memo_cases(rng):
    """Random 1-D to 4-D row sets with zero rows, an infeasible zero row,
    duplicated and rescaled rows, rows that differ by 1e-10, rows of norm
    exactly 1 and no rows at all."""
    yield HPolytope(np.zeros((0, 2)), np.zeros(0), 2)
    for trial in range(80):
        dim = 1 + trial % 4
        A = rng.normal(size=(int(rng.integers(1, 9)), dim))
        if trial % 5 == 0:
            A /= np.linalg.norm(A, axis=1)[:, None]
        b = rng.normal(size=len(A))
        extra_A, extra_b = [A], [b]
        if trial % 3 == 0:
            extra_A.append(np.zeros((2, dim)))
            extra_b.append(np.array([1.0, 0.0]))                          # vacuous zero rows
        if trial % 7 == 0:
            extra_A.append(np.zeros((1, dim)))
            extra_b.append(np.array([-1.0]))                              # infeasible zero row
        idx = rng.integers(0, len(A), size=3)
        extra_A.append(A[idx] * rng.uniform(0.5, 2.0, size=(3, 1)))
        extra_b.append(b[idx] + rng.choice([0.0, 0.1, -0.1], size=3))    # duplicates
        extra_A.append(A[idx] + 1e-10 * rng.choice([-1.0, 1.0], size=(3, dim)))
        extra_b.append(b[idx] + 1e-10)                                   # near-duplicates
        A, b = np.vstack(extra_A), np.concatenate(extra_b)
        order = rng.permutation(len(b))
        yield HPolytope(A[order], b[order], dim)


def test_memoized_row_forms_match_a_fresh_computation():
    """normalized() and _dedup() rows are computed once per set.  Every
    call returns rows byte-equal to a fresh computation, in a fresh
    wrapper: flags set on one result (as remove_redundancy sets them on
    its _dedup()) never show on the next."""
    rng = np.random.default_rng(61)
    for trial, P in enumerate(_memo_cases(rng)):
        for _ in range(2):
            for got, want in ((P.normalized(), _fresh_unit_rows(P)), (P._dedup(), _fresh_dedup_rows(P))):
                assert got.A.shape == want[0].shape and got.b.shape == want[1].shape, trial
                assert got.A.tobytes() == want[0].tobytes() and got.b.tobytes() == want[1].tobytes(), trial
                assert not got.A.flags.writeable and not got.b.flags.writeable
                assert got._empty is None and got._bounded is None and not got._irredundant, trial
                assert got._cheb is None and got._verts is None, trial
                got._empty, got._bounded, got._irredundant = True, True, True
                got._cheb = (np.zeros(P.dim), 1.0)
        if not P.is_empty():
            P.remove_redundancy()
        D = P._dedup()
        assert D._empty is None and not D._irredundant and D._cheb is None, trial


def test_sets_own_their_rows():
    """A set copies the rows it is built from: the caller's arrays stay
    writable, and a write to them reaches neither the set's rows nor the
    row forms cached from them."""
    A = np.vstack([np.eye(2), -np.eye(2)]) * 2.0
    b = np.ones(4)
    P = HPolytope(A, b)
    before = P._dedup().A.copy(), P.normalized().b.copy(), P.vertices().copy()
    A[0, 0], b[1] = 7.0, 3.0
    assert P.A[0, 0] == 2.0 and P.b[1] == 1.0
    assert not P.A.flags.writeable and not P.b.flags.writeable
    after = P._dedup().A, P.normalized().b, P.vertices()
    assert all(np.array_equal(x, y) for x, y in zip(before, after))


def test_vertex_enumeration_in_batches_keeps_the_points():
    """A set with more row subsets than one batch is enumerated a batch at
    a time, caches no index table, and yields the same points in the same
    order as one batch over every subset.  Small sets reuse a cached
    table."""
    from safegov.geometry import polytope as polytope_module
    from safegov.geometry.polytope import _VERTEX_BATCH, _enumerate_vertices, _subset_table

    def one_batch(A, b):
        # The enumeration as one batch over all C(r, d) subsets.
        r, d = A.shape
        combos = np.array(list(itertools.combinations(range(r), d)), dtype=np.intp).reshape(-1, d)
        mats = A[combos]
        ok = np.abs(np.linalg.det(mats)) > 1e-8
        sols = np.linalg.solve(mats[ok], b[combos[ok]][..., None])[..., 0]
        S = np.zeros((len(sols), r))
        for j in range(d):
            S = S + np.outer(sols[:, j], A[:, j])
        scale = 1.0 + np.abs(b).max(initial=1.0)
        feas = np.all(S - b <= 1e-6 * scale, axis=1) & np.all(np.isfinite(sols), axis=1)
        return polytope_module._dedup_points(sols[feas])

    rng = np.random.default_rng(67)
    normals = rng.normal(size=(60, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    big = HPolytope(normals, np.ones(60), 3)                  # 60 tangent planes of the unit ball
    assert math.comb(60, 3) > 8 * _VERTEX_BATCH
    _subset_table.cache_clear()
    V = big.vertices()
    assert _subset_table.cache_info().currsize == 0
    A, b = big._dedup().A, big._dedup().b
    assert V.tobytes() == one_batch(A, b).tobytes()
    assert len(V) > 60 and big.contains(V.mean(axis=0))
    for dim in (2, 3, 4):
        P = random_bounded_polytope(rng, dim, n_points=dim + 4)
        D = P._dedup()
        assert math.comb(len(D.b), dim) <= _VERTEX_BATCH
        assert _enumerate_vertices(D.A, D.b).tobytes() == one_batch(D.A, D.b).tobytes()
        hits = _subset_table.cache_info().hits
        _enumerate_vertices(D.A, D.b)
        assert _subset_table.cache_info().hits == hits + 1
    assert _subset_table.cache_info().currsize == 3


def _count_lps(monkeypatch):
    from safegov.geometry import lp as lp_module, polytope as polytope_module

    calls = [0]
    real = lp_module.lp_solve

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(lp_module, "lp_solve", counted)
    monkeypatch.setattr(polytope_module, "lp_solve", counted)
    return calls


def _same_bytes(P, Q):
    return P.A.tobytes() == Q.A.tobytes() and P.b.tobytes() == Q.b.tobytes()


def test_irredundant_fact_skips_the_second_pass(monkeypatch):
    rng = np.random.default_rng(11)
    M = np.array([[2.0, 1.0], [0.5, 1.0]])
    sq = box([0, 0], [1, 1])
    loose = sq.intersect(HPolytope(np.array([[1.0, 1.0]]), np.array([5.0])))
    hull = random_bounded_polytope(rng, 2)
    unflagged = [
        sq, loose, hull, HPolytope.from_point([1.0, 2.0]), HPolytope.empty(2),
        sq.intersect(hull), sq.normalized(), loose._dedup(), pontryagin_diff(sq, box([0, 0], [0.1, 0.1])),
        minkowski_sum(sq, hull), affine_map(M, sq), inverse_affine_map(M, sq),
    ]
    for P in unflagged:
        assert not P._irredundant, P
    once = [P.remove_redundancy() for P in (sq, loose, hull, random_bounded_polytope(rng, 3))]
    once.append(inverse_affine_map(M, once[1]))
    for P in once:
        assert P._irredundant
    calls = _count_lps(monkeypatch)
    for P in once:
        calls[0] = 0
        again = P.remove_redundancy()
        assert calls[0] == 0
        assert again._irredundant and again._empty is False
        assert _same_bytes(again, HPolytope(P.A, P.b, P.dim).remove_redundancy())


def _awkward_polytope(rng, dim):
    """A random hull with redundant rows added, rows redundant (or cutting
    a vertex off) by less than 10 FEAS_TOL, and duplicated rows, some of
    them scaled; the rows are shuffled."""
    P = random_bounded_polytope(rng, dim, n_points=10)
    A, b = [P.A], [P.b]
    k = P.A.shape[0]
    idx = rng.integers(0, k, size=3)
    A.append(P.A[idx])
    b.append(P.b[idx] + rng.uniform(0.05, 1.0, size=3))            # plainly redundant
    for v in P.vertices()[rng.permutation(len(P.vertices()))[:4]]:
        active = np.abs(P.A @ v - P.b) < 1e-9
        n = rng.uniform(0.1, 1.0, size=int(active.sum())) @ P.A[active]
        n /= np.linalg.norm(n)
        delta = rng.uniform(-10.0, 10.0) * FEAS_TOL                  # near a vertex
        A.append(n[None, :])
        b.append([n @ v + delta])
    idx = rng.integers(0, k, size=3)
    s = rng.uniform(0.5, 2.0, size=3)
    A.append(P.A[idx] * s[:, None])
    b.append(P.b[idx] * s)                                            # duplicates
    A, b = np.vstack(A), np.concatenate(b)
    order = rng.permutation(len(b))
    return HPolytope(A[order], b[order], dim)


def _cut_corners(dim, deltas):
    """Unit cube with each corner v cut by a row along v - c, c the cube's
    center, offset by one of deltas from v: the ray from c runs through v,
    so it passes the row by exactly the cut depth, below or near 10 FEAS_TOL."""
    corners = np.array(list(itertools.product([0.0, 1.0], repeat=dim)))
    n = (corners - 0.5) / np.linalg.norm(corners - 0.5, axis=1)[:, None]
    cube = box(np.zeros(dim), np.ones(dim))
    b = np.einsum("ij,ij->i", n, corners) - np.resize(deltas, len(corners))
    return HPolytope(np.vstack([cube.A, n]), np.concatenate([cube.b, b]), dim)


def test_ray_certificate_keeps_the_lp_decisions(monkeypatch):
    """remove_redundancy on a set known bounded decides rows from its
    vertices (facet rays keep rows, rows slack at every vertex go).  It
    returns the same row bytes as the same rows with boundedness unknown,
    where every row takes its LP, and with fewer LPs.  The sets have rows
    cutting corners, or passing near a vertex, by up to 20 FEAS_TOL."""
    calls = _count_lps(monkeypatch)
    rng = np.random.default_rng(23)
    with_vertices = without = 0
    deltas = np.array([0.5, -0.5, 5.0, -5.0, 9.5, 10.5, 20.0, -20.0]) * FEAS_TOL
    cut = [_cut_corners(dim, np.roll(deltas, k)) for dim in (2, 3) for k in range(0, 8, 3)]
    for trial, Q in enumerate(cut + [_awkward_polytope(rng, 2 + t % 2) for t in range(40)]):
        bare = HPolytope(Q.A, Q.b, Q.dim)
        assert Q.is_bounded() and not Q.is_empty() and not bare.is_empty()
        calls[0] = 0
        fast = Q.remove_redundancy()
        with_vertices += calls[0]
        calls[0] = 0
        slow = bare.remove_redundancy()
        without += calls[0]
        assert _same_bytes(fast, slow), trial
    assert with_vertices < 0.8 * without


def test_hull_centroid_keeps_the_lp_decisions(monkeypatch):
    """remove_redundancy on a convex_hull output shoots its rays from the
    facets of the hull's vertices, nudged toward their centroid.  It returns
    the same row bytes as the same rows known nonempty but with no vertices
    or boundedness (every row takes its LP), and on full-dimensional
    clouds with fewer LPs.
    The clouds are seeded: full-dimensional ones in 2-D, 3-D and 4-D, a
    planar one in 3-D, and a near-degenerate one (a 3-D grid jittered by
    1e-10, hulled with qhull's joggle option QJ).  On the last, one row LP
    raises LpError (its optimum misses a row by 1.6e-6, past lp_solve's
    acceptance bound of 10 FEAS_TOL of the row's scale, at this writing);
    both variants must meet the same outcome."""
    from safegov.geometry import polytope as polytope_module

    rng = np.random.default_rng(41)
    clouds = [(True, rng.normal(size=(12, dim)) * rng.uniform(0.5, 2.0) + rng.normal(size=dim))
              for dim in (2, 3, 4) for _ in range(3)]
    clouds.append((False, rng.normal(size=(10, 2)) @ rng.normal(size=(2, 3)) + 1.0))
    grid = np.array(list(itertools.product(np.linspace(0.0, 1.0, 4), repeat=3)))
    clouds.append((False, grid + rng.normal(size=grid.shape) * 1e-10))
    calls = _count_lps(monkeypatch)
    real_hull = polytope_module.ConvexHull
    for trial, (full, pts) in enumerate(clouds):
        if trial == len(clouds) - 1:
            monkeypatch.setattr(polytope_module, "ConvexHull",
                                lambda p, qhull_options=None: real_hull(p, qhull_options="QJ"))
        hull = convex_hull(pts)
        bare = HPolytope(hull.A, hull.b, hull.dim)
        bare._empty = False
        outcomes, lps = [], []
        for P in (hull, bare):
            calls[0] = 0
            try:
                out = P.remove_redundancy()
                outcomes.append((out.A.tobytes(), out.b.tobytes()))
            except LpError as exc:
                outcomes.append(str(exc))
            lps.append(calls[0])
        assert outcomes[0] == outcomes[1], trial
        assert lps[0] < lps[1] if full else lps[0] <= lps[1], trial


def test_ray_support_bounds():
    """The ray along each row from its own origin, that row skipped, on
    the unit square cut by x + y <= 1.5."""
    from safegov.geometry.polytope import _ray_support

    A = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    b = np.array([1.0, 1.0, 0.0, 0.0, 1.5])
    # Rows x <= 1 and y <= 1 meet the cut; x + y meets x <= 1 first.  The
    # ray along -x never meets another row, nor does the one along -y from
    # the bottom edge, on the row it skips: the 0/0 there stays quiet.
    # An origin outside a row (x = 1.5) gives no bound.
    C = np.array([[0.5, 0.25], [0.5, 0.25], [0.5, 0.25], [1.5, 0.5], [0.5, 0.25]])
    with np.errstate(all="raise"):
        assert np.array_equal(_ray_support(A, b, C), [1.25, 1.0, np.inf, -np.inf, 1.75])
        assert _ray_support(A, b, np.tile([0.5, 0.0], (5, 1)))[3] == np.inf


def test_ray_shortcuts_keep_region_diff_bytes(monkeypatch):
    """region_diff gives the same bytes with the facet rays of its
    remove_redundancy calls switched off, at a higher LP count."""
    from safegov.geometry import polytope as polytope_module

    rng = np.random.default_rng(31)
    # A face of the member just inside the square's right side, by less
    # than FEAS_TOL: it does not cut.
    sliver = box([-1.0, 0.3], [1.0 - 0.5 * FEAS_TOL, 0.7])
    cases = [(box([0, 0], [1, 1]), PolyUnion([sliver]))]
    for trial in range(12):
        dim = 2 + trial % 2
        P = random_bounded_polytope(rng, dim, n_points=12)
        U = PolyUnion([random_bounded_polytope(rng, dim, n_points=6) for _ in range(3)])
        cases.append((P, U))

    def run():
        return [[(m.A.tobytes(), m.b.tobytes()) for m in region_diff(HPolytope(P.A, P.b, P.dim), U).members]
                for P, U in cases]

    calls = _count_lps(monkeypatch)
    fast = run()
    fast_lps = calls[0]
    monkeypatch.setattr(polytope_module, "_ray_support", lambda A, b, C: np.full(len(A), -np.inf))
    calls[0] = 0
    assert run() == fast
    assert fast_lps < 0.9 * calls[0]


def test_chebyshev_ball_settles_emptiness(monkeypatch):
    calls = _count_lps(monkeypatch)
    sq = box([0, 0], [1, 1])
    sq.chebyshev()
    assert calls[0] == 1
    assert not sq.is_empty()
    assert calls[0] == 1
    segment = convex_hull([[0.0, 0.0], [1.0, 1.0]])  # a hull of points is known nonempty
    assert not segment.is_empty()
    assert calls[0] == 1
    flat = HPolytope(segment.A, segment.b)  # radius 0: emptiness needs its LP
    flat.chebyshev()
    assert not flat.is_empty()
    assert calls[0] == 3
    gap = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-1.0, -1.0]))
    assert gap.chebyshev()[1] < 0 and gap.is_empty()


def test_repeated_support_direction_solves_one_lp(monkeypatch):
    calls = _count_lps(monkeypatch)
    rng = np.random.default_rng(4)
    P = random_bounded_polytope(rng, 3)
    a = np.array([0.3, -1.0, 0.2])
    h = P.support(a)
    assert calls[0] == 1
    assert P.support(list(a)) == h and P.support(a.copy()) == h
    assert calls[0] == 1
    P.support(-a)
    assert calls[0] == 2
    assert HPolytope(P.A, P.b, P.dim).support(a) == h  # the memo belongs to one set
    assert calls[0] == 3


def test_dedup_points_matches_np_unique():
    """_dedup_points keeps the same points in the same order as the
    np.unique(axis=0) version it replaced, on seeded clouds in 1-D to 4-D
    with exact copies and copies moved by 1e-8, below the 1e-7 key step."""
    from safegov.geometry.polytope import _dedup_points

    def unique_dedup(pts, tol=1e-7):
        if pts.shape[0] <= 1:
            return pts
        key = np.round(pts / tol).astype(np.int64)
        _, idx = np.unique(key, axis=0, return_index=True)
        return pts[np.sort(idx)]

    rng = np.random.default_rng(17)
    for trial in range(200):
        dim = 1 + trial % 4
        pts = rng.normal(size=(int(rng.integers(1, 30)), dim)) * 10.0 ** rng.integers(-3, 3)
        copies = pts[rng.integers(0, len(pts), size=int(rng.integers(0, 20)))]
        copies = copies + rng.choice([0.0, 1e-8, -1e-8], size=copies.shape)
        cloud = np.vstack([pts, copies])[rng.permutation(len(pts) + len(copies))]
        got, ref = _dedup_points(cloud), unique_dedup(cloud)
        assert got.tobytes() == ref.tobytes(), trial


def _as_piece(P):
    """P held the way region_diff holds a piece: irredundant unit rows, its
    Chebyshev ball and its vertices."""
    R = P.remove_redundancy()
    R.chebyshev()
    return R, R.vertices()


def _margins(R, V):
    """The residuals V A' - b of R's vertices against its rows, and their
    margin delta, as region_diff computes them once per piece."""
    residuals = V @ R.A.T - R.b
    return residuals, 10 * FEAS_TOL + float(residuals.max(initial=0.0))


def _certificate_cases(rng, dim, min_r):
    """(R, Q) pairs for the vertex certificates.  R is the unit box cut by
    random rows, or a random hull; Q is a random hull, a box touching R
    along a face, a box that overlaps R in a sliver 0.5 to 5 min_r wide,
    a set cut along one of R's rows (shared face), or a box with rows
    duplicated and scaled."""
    e = np.eye(dim)
    for trial in range(12):
        cube = box(np.zeros(dim), np.ones(dim))
        a = rng.normal(size=(2, dim))
        a /= np.linalg.norm(a, axis=1)[:, None]
        cuts = HPolytope(a, a @ np.full(dim, 0.5) + rng.uniform(0.1, 0.4, size=2), dim)
        R = cube.intersect(cuts) if trial % 2 else random_bounded_polytope(rng, dim, n_points=10)
        yield R, random_bounded_polytope(rng, dim, n_points=8)
        k = int(rng.integers(dim))
        lo, hi = np.full(dim, -0.5), np.full(dim, 1.5)
        touch = lo.copy()
        touch[k] = 1.0
        yield cube, box(touch, hi + e[k])                                   # shares the face x_k = 1
        sliver = touch.copy()
        sliver[k] = 1.0 - rng.uniform(0.5, 5.0) * min_r
        yield cube, box(sliver, hi + e[k])                                  # overlaps x_k in [1 - w, 1]
        yield cube.intersect(HPolytope(-a[:1], -a[0] @ np.full(dim, 0.5), dim)), \
            random_bounded_polytope(rng, dim).intersect(HPolytope(a[:1], a[0] @ np.full(dim, 0.5), dim))
        Q = box(rng.uniform(-0.5, 0.5, size=dim), rng.uniform(0.5, 1.5, size=dim))
        s = rng.uniform(0.5, 2.0, size=len(Q.b))
        yield R, HPolytope(np.vstack([Q.A, Q.A * s[:, None]]), np.concatenate([Q.b, Q.b * s]), dim)


def _far_corner_cut(dim, depth):
    """The box [0, 100]^dim with its far corner cut by a row `depth` deep.
    Vertex enumeration accepts a point that misses a row by up to 1e-6
    (1 + max|b|), so for depth below 1e-4 it keeps the cut-off corner, a
    vertex `depth` outside the set."""
    n = np.ones(dim) / np.sqrt(dim)
    cube = box(np.zeros(dim), np.full(dim, 100.0))
    return cube.intersect(HPolytope(n[None, :], [n @ np.full(dim, 100.0) - depth], dim)), n


def _offsets(rng, k):
    return rng.choice([-20, -2, -1.5, -0.5, 0, 0.5, 1.5, 2, 20], size=k) * FEAS_TOL


def _lp_keep_mask(P):
    """remove_redundancy's LP loop on P's deduplicated rows, one LP per row."""
    D = P._dedup()
    keep = np.ones(len(D.b), dtype=bool)
    for i in range(len(D.b)):
        keep[i] = False
        res = lp_solve(-D.A[i], np.vstack([D.A[keep], D.A[i:i + 1]]), np.concatenate([D.b[keep], [D.b[i] + 1.0]]))
        keep[i] = not (res.status == OPTIMAL and -res.value <= D.b[i] + FEAS_TOL)
    return keep


def test_vertex_certificates_match_the_lps():
    """Every meet, cut and redundancy verdict a vertex certificate gives is
    the verdict of the LP it spares, on seeded 2-D and 3-D cases: boxes cut
    by random rows, members touching a piece's face, slivers 0.5-5 min_r
    wide, members cut along a piece's own row, duplicated rows, and boxes
    whose enumerated vertices include a point up to 5e-5 outside the set.
    The certificates must also decide most verdicts, and the facet rays
    must keep every row of a random hull.  For each pair that ``_apart``
    keeps, ``_significant`` on R & Q (its vertices, then its Chebyshev LP)
    gives the LP's meet verdict, and its vertices decide most of them."""
    from safegov.geometry.polytope import (
        VOLUME_TOL, _apart, _cut_verdicts, _meet_verdict, _min_radius_for, _significant, _stacked,
        _vertex_redundancy)

    rng = np.random.default_rng(29)
    decided = {"meet": [0, 0], "cut": [0, 0], "keep": [0, 0]}    # [undecided, decided]
    kept = [0, 0]    # pairs _apart keeps: [meet LP solved, vertices decided]
    for dim in (2, 3):
        min_r = _min_radius_for(dim, VOLUME_TOL)
        pairs = list(_certificate_cases(rng, dim, min_r))
        for depth in (2e-5, 5e-5):
            P, n = _far_corner_cut(dim, depth)
            s = n @ np.full(dim, 100.0) - depth            # P.support(n)
            pairs += [(P, HPolytope(n[None, :] * t, [s * t + off], dim))
                      for t, off in ((1.0, 0.0), (2.0, 0.5e-7), (0.5, -2e-7))]
        for trial, (P, Q) in enumerate(pairs):
            if Q.is_empty():
                continue
            R, VR = _as_piece(P)
            Qn = Q.normalized()
            VQ = Q.vertices() if Q.is_bounded() else None
            meets = R.intersect(Q).chebyshev()[1] > min_r
            if _apart(R, VR, _stacked([(Q, Qn, VQ)]), 2.0 * (min_r - 10 * FEAS_TOL))[0]:
                verdict = False
            else:
                verdict = _meet_verdict(R, VR, Qn, VQ, VR.mean(axis=0), min_r)
                # What region_diff asks next: R & Q's own vertices, then its LP.
                S = R.intersect(Qn)
                assert _significant(S, min_r)[0] == meets, (dim, trial)
                kept[S._cheb is None] += 1
            decided["meet"][verdict is not None] += 1
            assert verdict in (None, meets), (dim, trial)
            # Q's rows; Q's normals within 20 FEAS_TOL of R's support; R's own
            # rows tilted by 1e-10 and moved by as much (a member sharing a face).
            tilted = R.A + 1e-10 * rng.normal(size=R.A.shape)
            tilted /= np.linalg.norm(tilted, axis=1)[:, None]
            for A, b in [(Qn.A, Qn.b),
                         (Qn.A, np.array([R.support(a) for a in Qn.A]) + _offsets(rng, len(Qn.b))),
                         (tilted, R.b + _offsets(rng, len(R.b)))]:
                cuts, clear = _cut_verdicts(R, VR, *_margins(R, VR), HPolytope(A, b, dim))
                lp = np.array([HPolytope(R.A, R.b, dim).support(a) > beta + FEAS_TOL for a, beta in zip(A, b)])
                assert not np.any(cuts & ~lp) and not np.any(clear & lp), (dim, trial)
                decided["cut"][0] += int(np.sum(~cuts & ~clear))
                decided["cut"][1] += int(np.sum(cuts | clear))
        for trial, P in enumerate([_far_corner_cut(dim, 5e-5)[0], _cut_corners(dim, np.array([0.5, 5, 20, -20]) * FEAS_TOL)]
                                  + [_awkward_polytope(rng, dim) for _ in range(12)]):
            D = P._dedup()
            V = P.vertices()
            keep, drop = _vertex_redundancy(D.A, D.b, V)
            lp = _lp_keep_mask(P)
            assert not np.any(keep & ~lp) and not np.any(drop & lp), (dim, trial)
            decided["keep"][0] += int(np.sum(lp & ~keep))
            decided["keep"][1] += int(np.sum(keep))
            fast = P.remove_redundancy()
            assert _same_bytes(fast, HPolytope(P.A, P.b, dim).remove_redundancy()), (dim, trial)
        # On random hulls, whose facets are not slivers, the facet rays keep every row.
        for _ in range(10):
            P = random_bounded_polytope(rng, dim, n_points=10)
            D = P._dedup()
            keep, drop = _vertex_redundancy(D.A, D.b, P.vertices())
            assert keep.all() and not drop.any()
    assert all(yes > 2 * no for no, yes in decided.values()), decided
    assert kept[1] >= 60, kept      # 62 of the 64 kept pairs when written


def cone_bound_reference(A, b, a, reach):
    """The normal-cone bound of one row a over the rows A x <= b, one solve
    per subset, as _cut_verdicts formed it row by row before its bounds
    were batched: the reference _cone_bounds must equal bit for bit."""
    from safegov.geometry.polytope import _VERTEX_BATCH

    if math.comb(len(b), len(a)) > _VERTEX_BATCH:
        return np.inf
    combos = np.array(list(itertools.combinations(range(len(b)), len(a))), dtype=np.intp).reshape(-1, len(a))
    mats = A[combos]
    ok = np.abs(np.linalg.det(mats)) > 1e-8
    if not ok.any():
        return np.inf
    combos, mats = combos[ok], mats[ok]
    rhs = np.broadcast_to(a[:, None], (len(mats), len(a), 1))
    lam = np.maximum(np.linalg.solve(mats.transpose(0, 2, 1), rhs)[..., 0], 0.0)
    rest = np.abs(a - np.einsum("ki,kij->kj", lam, mats)).sum(axis=1)
    return float((np.einsum("ki,ki->k", lam, b[combos]) + rest * reach).min())


def test_normal_cone_bound_matches_the_support_lp():
    """Rows that touch a piece at a vertex are settled by the normal-cone
    bound where the vertex margin cannot decide them, and every verdict is
    the support LP's.  The rows pass through a vertex v of the piece, at
    offsets from -0.5 to 20 FEAS_TOL: normals inside the normal cone at v
    (a nonnegative mix of the rows active there), on its boundary (one
    active row, tilted by 1e-9), and outside it (a random direction, or a
    cone normal pushed out).  The pieces are random hulls and awkward
    sets with near-vertex and duplicated rows.  The bounds, solved for all
    rows in one batch, equal those of cone_bound_reference bit for bit."""
    from safegov.geometry.polytope import _cone_bounds, _cut_verdicts

    rng = np.random.default_rng(71)
    settled = touching = 0
    for dim in (2, 3, 4):
        for trial in range(25):
            R, VR = _as_piece(random_bounded_polytope(rng, dim, n_points=10) if trial % 3
                              else _awkward_polytope(rng, dim))
            margins = _margins(R, VR)
            lp_set = HPolytope(R.A, R.b, dim)
            rows, offsets, inside = [], [], []
            for v in VR[rng.permutation(len(VR))[:4]]:
                active = np.flatnonzero(np.abs(R.A @ v - R.b) < 1e-9)
                mix = rng.uniform(0.1, 1.0, size=len(active)) @ R.A[active]
                one = R.A[rng.choice(active)] + 1e-9 * rng.normal(size=dim)
                out = mix / np.linalg.norm(mix) + rng.normal(size=dim)
                for a, cone in ((mix, True), (one, False), (rng.normal(size=dim), False), (out, False)):
                    a = a / np.linalg.norm(a)
                    for off in np.array([0.0, 0.0, 0.4, -0.5, 2.0, 20.0]) * FEAS_TOL:
                        rows.append(a)
                        offsets.append(a @ v + off)
                        inside.append(cone and off == 0.0)
            A, b, inside = np.array(rows), np.array(offsets), np.array(inside)
            cuts, clear = _cut_verdicts(R, VR, *margins, HPolytope(A, b, dim))
            reach = 2.0 * (1.0 + np.abs(VR).max())
            tops, which = np.unique((VR @ A.T).argmax(axis=0), return_inverse=True)
            active = margins[0][tops] >= -FEAS_TOL * (1.0 + np.abs(R.b))
            batched = _cone_bounds(R.A, R.b, active, which, A, reach)
            alone = [cone_bound_reference(R.A[active[m]], R.b[active[m]], a, reach) for m, a in zip(which, A)]
            assert batched.tobytes() == np.array(alone).tobytes(), (dim, trial)
            lp = np.array([lp_set.support(a) > beta + FEAS_TOL for a, beta in zip(A, b)])
            assert not np.any(cuts & ~lp) and not np.any(clear & lp), (dim, trial)
            if trial % 3:
                touching += int(inside.sum())
                settled += int((clear & inside).sum())
    # Inside the cone at v, a'v = beta is the support up to rounding: the
    # vertex margin leaves all of these rows to the LP, the cone bound few.
    # The awkward pieces are left out of this count: their near-vertex
    # rows make slivers, and an enumerated vertex can lie outside them.
    assert settled > 0.95 * touching, (settled, touching)


def test_vertex_certificates_keep_region_diff_bytes(monkeypatch):
    """region_diff gives the same bytes with every vertex certificate off
    (no vertices for pieces or members), at a higher LP count.  The cases
    include members that touch the set, overlap it in slivers and repeat
    its rows."""
    from safegov.geometry import polytope as polytope_module
    from safegov.geometry.polytope import VOLUME_TOL, _min_radius_for

    rng = np.random.default_rng(37)
    cases = []
    for trial in range(8):
        dim = 2 + trial % 2
        pairs = list(_certificate_cases(rng, dim, _min_radius_for(dim, VOLUME_TOL)))
        P = pairs[0][0]
        cases.append((P, PolyUnion([Q for _, Q in pairs[:5]], dim)))
        cases.append((box(np.zeros(dim), np.ones(dim)), PolyUnion([Q for _, Q in pairs[1:4]], dim)))

    def run():
        return [[(m.A.tobytes(), m.b.tobytes()) for m in region_diff(HPolytope(P.A, P.b, P.dim), U).members]
                for P, U in cases]

    calls = _count_lps(monkeypatch)
    fast = run()
    fast_lps = calls[0]
    monkeypatch.setattr(polytope_module, "_vertices_or_none", lambda P: None)
    calls[0] = 0
    assert run() == fast
    assert fast_lps < 0.7 * calls[0]


def _pieces(rng, dim, min_r):
    """Pieces the way region_diff forms them: the rows of an irredundant
    set R with unit rows (a cube or a random hull), the earlier cut rows
    of the member, then one cut row flipped.  The cuts leave slivers 0.5
    to 5 min_r wide along a face of R, wedges 0.5 to 10 min_r deep at a
    vertex of R, a flat piece (a cut along one of R's own rows), an empty
    piece (a cut beyond R) and pieces through R's middle."""
    for trial in range(8):
        cube = box(np.zeros(dim), np.ones(dim))
        R = (cube if trial % 2 else random_bounded_polytope(rng, dim, n_points=10)).remove_redundancy()
        V = R.vertices()
        j = int(rng.integers(len(R.b)))
        v = V[rng.integers(len(V))]
        active = np.abs(R.A @ v - R.b) < 1e-9
        n = rng.uniform(0.1, 1.0, size=int(active.sum())) @ R.A[active]
        n /= np.linalg.norm(n)
        a = rng.normal(size=dim)
        a /= np.linalg.norm(a)
        cuts = [(R.A[j], R.b[j] - rng.uniform(0.5, 5.0) * min_r),     # sliver along a face
                (n, n @ v - rng.uniform(0.5, 10.0) * min_r),           # wedge at a vertex
                (R.A[j], R.b[j]),                                      # along R's own row
                (R.A[j], R.b[j] + 0.1),                                # beyond R
                (a, a @ V.mean(axis=0))]                               # through the middle
        for k, (c, beta) in enumerate(cuts):
            for prefix in ([], cuts[:k][-1:]):
                A = np.vstack([R.A] + [p[None, :] for p, _ in prefix] + [-c[None, :]])
                b = np.concatenate([R.b, [q for _, q in prefix], [-beta]])
                yield HPolytope(A, b, dim)


def test_piece_significance_matches_the_lp():
    """Every significance verdict region_diff takes from a piece's vertices
    is the Chebyshev LP's (radius above min_r), on seeded 2-D, 3-D and 4-D
    pieces: slivers, wedges, flat and empty pieces and plain cuts.  A deep
    verdict leaves the piece marked nonempty, with the vertex centroid
    inside it; the vertices decide most pieces, both ways."""
    from safegov.geometry.polytope import VOLUME_TOL, _min_radius_for, _significance, _vertices_or_none

    rng = np.random.default_rng(43)
    verdicts = {None: 0, True: 0, False: 0}
    for dim in (2, 3, 4):
        min_r = _min_radius_for(dim, VOLUME_TOL)
        for trial, piece in enumerate(_pieces(rng, dim, min_r)):
            piece._bounded = True
            V = _vertices_or_none(piece)
            lp = HPolytope(piece.A, piece.b, dim).chebyshev()[1] > min_r
            if V is None:
                assert not lp, (dim, trial)
                continue
            verdict = _significance(piece, V, min_r)
            verdicts[verdict] += 1
            assert verdict in (None, lp), (dim, trial)
            if verdict:
                assert piece._empty is False and piece.contains(V.mean(axis=0))
    assert verdicts[True] > verdicts[None] and verdicts[False] > verdicts[None], verdicts


def _redundancy_cases(rng, dim):
    """(kind, points or set): hulls of seeded clouds with repeated points
    and points moved onto the plane x_0 = max x_0, grids jittered by 1e-10 and
    hulled with qhull's joggle option QJ, and sets known bounded that are
    not hulls: random hulls with redundant, near-vertex and
    near-duplicate rows (normals tilted by 1e-10, offsets moved by up to
    20 FEAS_TOL), and half-spaces clipped to a box, the way ConstraintSpec
    clips X0."""
    for _ in range(6):
        pts = rng.normal(size=(12, dim)) * rng.uniform(0.5, 2.0)
        face = pts[:3].copy()
        face[:, 0] = pts[:, 0].max()
        yield "hull", np.vstack([pts, pts[:4], face])
    grid = np.array(list(itertools.product(np.linspace(0.0, 1.0, 3), repeat=dim)))
    for _ in range(2):
        yield "joggled", grid + rng.normal(size=grid.shape) * 1e-10
    for _ in range(6):
        P = _awkward_polytope(rng, dim)
        idx = rng.integers(0, len(P.b), size=3)
        tilted = P.A[idx] + 1e-10 * rng.normal(size=(3, dim))
        Q = HPolytope(np.vstack([P.A, tilted]), np.concatenate([P.b, P.b[idx] + _offsets(rng, 3)]), dim)
        Q._bounded = True     # it keeps the rows of a hull
        yield "bounded", Q
    for _ in range(3):
        cube = box(np.full(dim, -1.0), np.ones(dim))
        cube.is_bounded()
        a = rng.normal(size=(2, dim))
        yield "bounded", HPolytope(a, rng.uniform(-0.5, 0.5, size=2), dim).intersect(cube)


def test_hull_and_bounded_vertices_keep_the_lp_decisions(monkeypatch):
    """remove_redundancy's vertex certificates on a convex_hull output, a
    joggled (qhull ``QJ``) hull among them, and on a set known bounded that
    is not a hull give the LP's verdict on every row they decide, and the
    same row bytes as the LP alone, or both raise LpError.  The vertices
    are the ones ``_vertices_or_none`` enumerates from the set's own rows,
    the one witness remove_redundancy reads, and they decide most rows."""
    from safegov.geometry import polytope as polytope_module
    from safegov.geometry.polytope import _VERTEX_ROW_CAP, _vertex_redundancy, _vertices_or_none

    rng = np.random.default_rng(47)
    real_hull = polytope_module.ConvexHull
    compared = decided = 0
    for dim in (2, 3, 4):
        for trial, (kind, case) in enumerate(_redundancy_cases(rng, dim)):
            if kind == "joggled":
                monkeypatch.setattr(polytope_module, "ConvexHull",
                                    lambda p, qhull_options=None: real_hull(p, qhull_options="QJ"))
            P = convex_hull(case) if kind != "bounded" else case
            monkeypatch.setattr(polytope_module, "ConvexHull", real_hull)
            assert P._bounded is True, (dim, trial)
            outcomes = []
            for Q in (P, HPolytope(P.A, P.b, dim)):
                try:
                    out = Q.remove_redundancy()
                    outcomes.append((out.A.tobytes(), out.b.tobytes()))
                except LpError:
                    outcomes.append(None)
            assert outcomes[0] == outcomes[1], (dim, trial)
            D = P._dedup()
            V = _vertices_or_none(P)
            # The witness stops past the subsets of a 3-D set at the row cap.
            assert (V is None) == (math.comb(len(D.b), dim) > math.comb(_VERTEX_ROW_CAP, 3)), (dim, trial)
            if V is None:
                continue
            keep, drop = _vertex_redundancy(D.A, D.b, V)
            try:
                lp = _lp_keep_mask(P)
            except LpError:
                continue
            assert not np.any(keep & ~lp) and not np.any(drop & lp), (dim, trial)
            compared += len(lp)
            decided += int(np.sum(keep | drop))
    assert decided > 3 * compared // 4, (decided, compared)


def _merge_without_volume_bound(U):
    """merge_convex_members as it was before the hull volume was compared
    with the member volumes ahead of the intersection: every pair not
    separated forms its intersection and takes the full volume test."""
    from merge_reference import separated as _separated
    from safegov.geometry.polytope import _MERGE_VOLUME_TOL, _point_cloud_volume

    members = list(U.members)
    vols = [m.volume() for m in members]
    serials = list(range(len(members)))
    fresh = itertools.count(len(members))
    apart = set()
    changed = True
    while changed:
        changed = False
        n = len(members)
        for i, j in itertools.combinations(range(n), 2):
            if vols[i] <= _MERGE_VOLUME_TOL or vols[j] <= _MERGE_VOLUME_TOL or (serials[i], serials[j]) in apart:
                continue
            if _separated(members[i], members[j]) or _separated(members[j], members[i]):
                apart.add((serials[i], serials[j]))
                continue
            vi, vj = members[i].vertices(), members[j].vertices()
            vol_hull = _point_cloud_volume(np.vstack([vi, vj]))
            vol_int = 0.0
            inter = members[i].intersect(members[j])
            if not inter.is_empty():
                try:
                    vol_int = _point_cloud_volume(inter.vertices())
                except GeometryError:
                    vol_int = 0.0
            if vol_hull <= vols[i] + vols[j] - vol_int + max(_MERGE_VOLUME_TOL, 1e-9 * vol_hull):
                keep = [k for k in range(n) if k not in (i, j)]
                members = [members[k] for k in keep] + [convex_hull(np.vstack([vi, vj])).remove_redundancy()]
                vols = [vols[k] for k in keep] + [vol_hull]
                serials = [serials[k] for k in keep] + [next(fresh)]
                changed = True
                break
            apart.add((serials[i], serials[j]))
    return PolyUnion(members, U.dim)


def test_merge_volume_bound_keeps_the_merges(monkeypatch):
    """The merge marks a pair apart when its hull volume exceeds both
    volumes and the tolerance together, before forming the intersection.
    It returns the same member bytes as the full volume test on every
    pair, with fewer LPs, on seeded 2-D and 3-D unions: rows of boxes
    whose gaps hold less volume than the tolerance (they merge), boxes
    overlapping or nested, and random hulls."""
    rng = np.random.default_rng(53)
    unions = []
    for dim in (2, 3):
        for _ in range(3):
            gaps = rng.uniform(0.0, 0.9e-9, size=3) * rng.integers(0, 2, size=3)
            lo = np.concatenate([[0.0], np.cumsum(1.0 + gaps)])
            cells = [box(np.r_[lo[k], np.zeros(dim - 1)], np.r_[lo[k] + 1.0, np.ones(dim - 1)]) for k in range(4)]
            unions.append(PolyUnion(cells, dim))
            inner = rng.uniform(0.1, 0.4, size=dim)
            unions.append(PolyUnion([box(np.zeros(dim), np.ones(dim)), box(inner, inner + 0.5),
                                     box(np.full(dim, 0.5), np.full(dim, 1.5)),
                                     random_bounded_polytope(rng, dim), random_bounded_polytope(rng, dim)], dim))
    calls = _count_lps(monkeypatch)

    def run(merge):
        calls[0] = 0
        members = [[(m.A.tobytes(), m.b.tobytes()) for m in merge(PolyUnion(
            [HPolytope(m.A, m.b, m.dim) for m in U.members], U.dim)).members] for U in unions]
        return members, calls[0]

    fast, fast_lps = run(merge_convex_members)
    full, full_lps = run(_merge_without_volume_bound)
    assert fast == full
    assert fast_lps < full_lps
    assert sum(len(m) == 1 for m in fast) >= 3    # the rows of boxes merged despite their gaps


def _merge_cases(rng, dim):
    """Seeded unions of one kind each, for the merge's differential test:
    a grid of cells with random widths in shuffled order, a row of boxes
    whose gaps hold less volume than the merge tolerance, nested boxes with
    a box beside them, and random hulls with one hull split in two along a
    plane through its centroid."""
    kind = rng.integers(4)
    if kind == 0:
        edges = [np.cumsum(np.r_[0.0, rng.uniform(0.5, 2.0, size=rng.integers(1, 4))]) for _ in range(dim)]
        cells = [box([e[k] for e, k in zip(edges, idx)], [e[k + 1] for e, k in zip(edges, idx)])
                 for idx in itertools.product(*(range(len(e) - 1) for e in edges))]
        return [cells[k] for k in rng.permutation(len(cells))]
    if kind == 1:
        gaps = rng.uniform(0.0, 0.9e-9, size=3) * rng.integers(0, 2, size=3)
        lo = np.concatenate([[0.0], np.cumsum(1.0 + gaps)])
        rest = rng.uniform(0.5, 2.0, size=dim - 1)
        return [box(np.r_[lo[k], np.zeros(dim - 1)], np.r_[lo[k] + 1.0, rest]) for k in range(4)]
    if kind == 2:
        outer = rng.uniform(1.0, 3.0, size=dim)
        lo = rng.uniform(0.0, 0.5, size=dim) * outer
        nested = [box(np.zeros(dim), outer), box(lo, lo + rng.uniform(0.1, 0.5, size=dim) * outer)]
        beside = box(np.r_[outer[0], np.zeros(dim - 1)], np.r_[outer[0] + 1.0, outer[1:]])
        return nested + [beside] if rng.integers(2) else [nested[1], beside, nested[0]]
    H = random_bounded_polytope(rng, dim)
    a = rng.normal(size=dim)
    c = a @ H.vertices().mean(axis=0)
    halves = [HPolytope(np.vstack([H.A, s * a]), np.r_[H.b, s * c], dim) for s in (1.0, -1.0)]
    return [random_bounded_polytope(rng, dim) for _ in range(rng.integers(1, 3))] + halves


def test_merge_matches_restart_scan_reference_bytes():
    """The merge returns the member bytes, in order, of the restart-scan
    merge it replaced (tests/merge_reference.py) on 320 seeded 2-D and 3-D
    unions, and merges often enough there for that to mean something."""
    import merge_reference

    rng = np.random.default_rng(61)
    merges = 0
    for trial in range(320):
        dim = 2 + trial % 2
        members = _merge_cases(rng, dim)

        def fresh():
            return PolyUnion([HPolytope(m.A, m.b, dim) for m in members], dim)

        got = [(m.A.tobytes(), m.b.tobytes()) for m in merge_convex_members(fresh()).members]
        want = [(m.A.tobytes(), m.b.tobytes()) for m in merge_reference.merge_convex_members(fresh()).members]
        assert got == want, trial
        merges += len(members) - len(got)
    assert merges >= 250, merges
