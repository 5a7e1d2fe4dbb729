import json

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
from safegov.geometry.lp import OPTIMAL


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


def test_subset_basics():
    assert subset(box([0, 0], [1, 1]), box([0, 0], [2, 2]))
    assert not subset(box([0], [2]), box([0], [1]))
    assert subset(box([0], [1]), box([0], [1]))


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


def test_merge_convex_members_retests_merged_members():
    # [0, 1] and [2, 3] do not merge; once [1, 2] has joined [0, 1], the
    # merged [0, 2] must be tested against [2, 3] again.
    merged = merge_convex_members(PolyUnion([box([0], [1]), box([2], [3]), box([1], [2])]))
    assert len(merged) == 1
    assert set_equal(merged.members[0], box([0], [3]))
    # Every pair of distant cells is apart, yet the grid merges to one box.
    cells = [box([i, j], [i + 1, j + 1]) for i in range(4) for j in range(3)]
    merged = merge_convex_members(PolyUnion(cells))
    assert len(merged) == 1
    assert set_equal(merged.members[0], box([0, 0], [4, 3]))


def test_boundedness_flag_matches_lp_answer():
    def lp_bounded(P):
        return HPolytope(P.A, P.b, P.dim).is_bounded()

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
