import contextlib
import hashlib
import inspect

import numpy as np
import pytest

from safegov import envs, jsonutil
from safegov.geometry import HPolytope, PolyUnion, lp_solve, set_equal, union_subset
from safegov.geometry.lp import OPTIMAL
from safegov.safeset import (
    ConstraintSpec,
    FragmentBudgetError,
    LinearSystem,
    NoSafeRegionError,
    OutOfDomainError,
    SafeSetArtifact,
    artifact_hash,
    build_safe_artifact,
    classify,
    compute_unrecoverable,
    dp_oracle,
    load_artifact,
    save_artifact,
)


def interval(lo, hi):
    return HPolytope.from_bounds([lo], [hi])


def sys_1d():
    """x+ = x + u + w with U = [-1, 1], W = [-2, 2], box [-10, 10]."""
    sys = LinearSystem(np.eye(1), np.eye(1), np.eye(1))
    spec = ConstraintSpec(
        X0=PolyUnion([HPolytope(np.array([[1.0]]), np.array([0.0]))]),
        U=interval(-1, 1),
        W=interval(-2, 2),
        box=interval(-10, 10),
    )
    return sys, spec


def in_box_upper(union, box_hi=10.0):
    """Largest x <= box_hi contained in the union (1-D helper)."""
    hi = -np.inf
    for m in union.members:
        hi = max(hi, min(m.support(np.array([1.0])), box_hi))
    return hi


def inflated_complement_oracle(z, Xk, E, W):
    """True iff z + E w stays outside every member of Xk for all w in W.

    Per member, 'exists w in W with z + E w inside' is an LP feasibility
    problem in w; the oracle is independent of the Minkowski-sum path.
    """
    z = np.asarray(z, dtype=float)
    for m in Xk.members:
        A = np.vstack([m.A @ E, W.A])
        b = np.concatenate([m.b - m.A @ z, W.b])
        if lp_solve(np.zeros(W.dim), A, b).status == OPTIMAL:
            return False
    return True


# ------------------------------------------------------ 1-D analytic case


def test_1d_recursion_matches_hand_solution():
    sys, spec = sys_1d()
    sets = compute_unrecoverable(sys, spec, K=5)
    assert sets.K == 5
    # In-box, X_k = [-10, k]: worst-case u shifts the band up by one per step.
    for k, Xk in enumerate(sets.sets):
        assert in_box_upper(Xk) == pytest.approx(float(k), abs=1e-6)
        xs = np.linspace(-9.9, 9.9, 397)
        labels = Xk.contains_many(xs[:, None])
        expected = xs <= k
        off_boundary = np.abs(xs - k) > 1e-6
        assert np.all(labels[off_boundary] == expected[off_boundary])


def test_1d_recursion_monotone_chain():
    sys, spec = sys_1d()
    sets = compute_unrecoverable(sys, spec, K=5)
    for a, b in zip(sets.sets[:-1], sets.sets[1:]):
        assert union_subset(a, b)


def test_1d_against_dp_oracle():
    sys, spec = sys_1d()
    K = 4
    sets = compute_unrecoverable(sys, spec, K=K)
    grid = dp_oracle(sys, spec, K, grid_resolution=200, n_u=9, n_w=9)
    centers = grid.centers()
    ours = sets.final.contains_many(centers)
    ref = grid.labels.ravel()
    cell = 20.0 / 200
    boundary = np.abs(centers[:, 0] - K) <= cell
    agree = (ours == ref) | boundary
    assert agree.mean() >= 0.99


def test_zero_disturbance_fixpoint_immediately():
    # W = {0}: staying put with u = 0 is always possible, so X_k = X0.
    sys = LinearSystem(np.eye(1), np.eye(1), np.eye(1))
    spec = ConstraintSpec(
        X0=PolyUnion([HPolytope(np.array([[1.0]]), np.array([0.0]))]),
        U=interval(-1, 1),
        W=HPolytope.from_point([0.0]),
        box=interval(-10, 10),
    )
    sets = compute_unrecoverable(sys, spec, K=6)
    assert sets.fixpoint_reached
    assert sets.K <= 2
    for Xk in sets.sets:
        assert in_box_upper(Xk) == pytest.approx(0.0, abs=1e-6)
    grid = dp_oracle(sys, spec, 6, grid_resolution=200, n_u=9, n_w=1)
    centers = grid.centers()
    ours = sets.final.contains_many(centers)
    boundary = np.abs(centers[:, 0] - 0.0) <= 0.1
    assert ((ours == grid.labels.ravel()) | boundary).mean() >= 0.99


def test_k_zero_returns_x0_only():
    sys, spec = sys_1d()
    sets = compute_unrecoverable(sys, spec, K=0)
    assert sets.K == 0
    assert union_subset(sets.sets[0], spec.X0) and union_subset(spec.X0, sets.sets[0])


def test_autonomous_backward_orbit():
    # u = 0, w = 0: the unrecoverable set is the backward orbit of X0.
    sys = LinearSystem(np.array([[1.1]]), np.eye(1), np.eye(1))
    spec = ConstraintSpec(
        X0=PolyUnion([interval(1.0, 2.0)]),
        U=HPolytope.from_point([0.0]),
        W=HPolytope.from_point([0.0]),
        box=interval(-10, 10),
    )
    sets = compute_unrecoverable(sys, spec, K=3)
    X3 = sets.final
    # orbit: union of [1/1.1^j, 2/1.1^j] for j = 0..3
    for j in range(4):
        lo, hi = 1.0 / 1.1 ** j, 2.0 / 1.1 ** j
        mid = 0.5 * (lo + hi)
        assert X3.contains([mid])
    assert not X3.contains([0.5])
    assert not X3.contains([2.5])
    grid = dp_oracle(sys, spec, 3, grid_resolution=400, n_u=1, n_w=1)
    centers = grid.centers()
    ours = X3.contains_many(centers)
    ref = grid.labels.ravel()
    # exclude one-cell bands at the orbit edges
    cell = 20.0 / 400
    band = np.zeros(len(centers), dtype=bool)
    for j in range(4):
        for edge in (1.0 / 1.1 ** j, 2.0 / 1.1 ** j):
            band |= np.abs(centers[:, 0] - edge) <= cell
    assert ((ours == ref) | band).mean() >= 0.99


def test_dp_oracle_empty_x0():
    sys = LinearSystem(np.eye(1), np.eye(1), np.eye(1))
    spec = ConstraintSpec(
        X0=PolyUnion([HPolytope.empty(1)], dim=1),
        U=interval(-1, 1),
        W=interval(-1, 1),
        box=interval(-10, 10),
    )
    grid = dp_oracle(sys, spec, 5, grid_resolution=50)
    assert not grid.labels.any()
    sets = compute_unrecoverable(sys, spec, K=3)
    assert all(X.is_empty() for X in sets.sets)
    assert sets.fixpoint_reached


# ------------------------------------------------------ 2-D reduced system


def sys_2d(v_fixed=20.0, Ts=0.5):
    """Gap/relative-speed subsystem at a frozen ego speed band."""
    A = np.array([[1.0, Ts], [0.0, 1.0]])
    B = np.array([[-Ts * Ts / 2.0], [-Ts]])
    E = np.array([[Ts * Ts / 2.0], [Ts]])
    sys = LinearSystem(A, B, E)
    box = HPolytope.from_bounds([0.0, -20.0], [120.0, 20.0])
    # unsafe: gap below v_fixed or above 2 v_fixed
    close = HPolytope(np.array([[1.0, 0.0]]), np.array([v_fixed]))
    far = HPolytope(np.array([[-1.0, 0.0]]), np.array([-2.0 * v_fixed]))
    spec = ConstraintSpec(
        X0=PolyUnion([close, far]),
        U=interval(-3, 3),
        W=interval(-1.5, 1.5),
        box=box,
    )
    return sys, spec


def sys_acc():
    """The ACC case study on the default AccParams."""
    p = envs.AccParams()
    return envs.linear_system(p), envs.constraint_spec(p)


# SHA-256 of jsonutil.dumps of the 2-D K=2 artifact, then of X_0, X_1, X_2.
ARTIFACT_2D_K2_SHA256 = (
    "cc5993f5fc56078778cbafbc0759cb18429935aa810716510adb559a3b529d57",
    "4cd829b0fc96d47b2d16691a033b9df25cd842a75a9a7abf6f394ad10ff5052b",
    "c69ffaafad2a8c3e357947ba32807c19eb0d2c9a0bb6fcda279cd7aacbbe40cd",
    "910637f1e107ae23d787859a0c748044de0cc3be0a56f700e957466560a22e3f",
)


# The same digests for the 2-D K=3 build (the benchmark's reduced2d_build
# problem): the artifact, then X_0 ... X_3.
ARTIFACT_2D_K3_SHA256 = (
    "5a60487c899ea2e8d44e117647f04ac36639ea6c484890308801b10793374b07",
    "4cd829b0fc96d47b2d16691a033b9df25cd842a75a9a7abf6f394ad10ff5052b",
    "c69ffaafad2a8c3e357947ba32807c19eb0d2c9a0bb6fcda279cd7aacbbe40cd",
    "910637f1e107ae23d787859a0c748044de0cc3be0a56f700e957466560a22e3f",
    "8b394dbbea18ba9fed458e4081c1ff9fa21476cdc3891607cd82817e11419f6f",
)

# The same digests for the 2-D K=4 build, whose step k=4 the K=3 pins do
# not reach: the artifact, then X_0 ... X_4.
ARTIFACT_2D_K4_SHA256 = (
    "dcf82fa73eb4c7a3420fe747589766fee01c2fd7cead46efdab47da83dae192a",
    "4cd829b0fc96d47b2d16691a033b9df25cd842a75a9a7abf6f394ad10ff5052b",
    "c69ffaafad2a8c3e357947ba32807c19eb0d2c9a0bb6fcda279cd7aacbbe40cd",
    "910637f1e107ae23d787859a0c748044de0cc3be0a56f700e957466560a22e3f",
    "8b394dbbea18ba9fed458e4081c1ff9fa21476cdc3891607cd82817e11419f6f",
    "ef4dd64e223737a118da9fa3ee0348cdca0ee90633bc02adb8f1eb849576e06a",
)

# The same digests for the ACC K=1 build on the default AccParams (the
# benchmark's acc_build problem): the artifact, then X_0 and X_1.
ARTIFACT_ACC_K1_SHA256 = (
    "c89a723cb0f2060b2ffe118f73b169616ae9cd4d902597ec5ecc8e31de72b318",
    "7ee3590888fad3c4d76cb25b8585e6364984f3f3e0f14933a8bf412073050a3e",
    "e21c3cda6d631cfdcf7d802796764b9742af852c2f749acc46d8b22c5b4c7e6e",
)

# The same digests for the ACC K=2 build: the artifact, then X_0, X_1 and
# X_2.  X_2 has 79 members, the most of any pinned build.
ARTIFACT_ACC_K2_SHA256 = (
    "4808a3b8c6a05fa05d62024e570e2c70458a0ecd5226c0bf3c81e227594a936e",
    "7ee3590888fad3c4d76cb25b8585e6364984f3f3e0f14933a8bf412073050a3e",
    "e21c3cda6d631cfdcf7d802796764b9742af852c2f749acc46d8b22c5b4c7e6e",
    "b232c01c27c9e4d637fc4ba6e8470b02785049c439b55b317bccf9b190c163f5",
)


# The pinned builds: the system and its spec, K, the digests above and the
# LPs the build solves.  A build is deterministic, so its LP count repeats
# exactly.  The 2-D K=2 build solved 3,299 LPs before the geometry layer
# carried boundedness and Chebyshev balls between sets and ruled members
# out by vertex separation, and 2,062 after; 2,017 before remove_redundancy
# skipped sets known irredundant and rows a ray certified, a Chebyshev ball
# settled emptiness and support() kept a memo, and 1,053 after; 998 after
# convex_hull recorded a ray origin; 265 after region_diff took meets, cuts
# and redundant rows from its pieces' vertices; 89 after a piece's
# significance came from its vertices, the merge bounded volumes before
# intersecting and boxes were bounded without LPs; 75 after the merge took
# a vertex inside the other member as proof of a meet; 62 after touching
# rows were cleared by a normal-cone bound.  The ACC K=1 build solved 93
# when first pinned; ACC K=2 solved 1,462 before the merge stopped solving
# emptiness LPs on pairwise intersections, and 1,453 after.  One
# significance test for pieces, the top set and member meets, vertices
# then the Chebyshev LP, took the five builds from 62/177/337/93/1,453 to
# the counts below.
PINNED_BUILDS = {
    "2-D K=2": (sys_2d, 2, ARTIFACT_2D_K2_SHA256, 37),
    "2-D K=3": (sys_2d, 3, ARTIFACT_2D_K3_SHA256, 98),
    "2-D K=4": (sys_2d, 4, ARTIFACT_2D_K4_SHA256, 184),
    "ACC K=1": (sys_acc, 1, ARTIFACT_ACC_K1_SHA256, 57),
    "ACC K=2": (sys_acc, 2, ARTIFACT_ACC_K2_SHA256, 703),
}

# The HPolytope methods that solve LPs.
_LP_METHODS = ("chebyshev", "support", "is_empty", "is_bounded", "remove_redundancy")


@contextlib.contextmanager
def _lp_census():
    """Count the LPs solved inside the block, by the HPolytope method that
    asked for each: the innermost of _LP_METHODS on the call stack."""
    from safegov.geometry import lp as lp_module, polytope as polytope_module

    counts = dict.fromkeys(_LP_METHODS, 0)
    real = lp_module.lp_solve

    def counted(*args):
        frame = inspect.currentframe().f_back
        while frame.f_code.co_name not in counts:
            frame = frame.f_back
        counts[frame.f_code.co_name] += 1
        return real(*args)

    lp_module.lp_solve = polytope_module.lp_solve = counted
    try:
        yield counts
    finally:
        lp_module.lp_solve = polytope_module.lp_solve = real


def _build_digests(sys, spec, K):
    sets = compute_unrecoverable(sys, spec, K=K)
    art = build_safe_artifact(sets, sys, spec)
    return tuple(hashlib.sha256(jsonutil.dumps(obj.to_dict()).encode()).hexdigest()
                 for obj in [art, *sets.sets])


def _pinned_build(name):
    """The digests of a pinned build and its LPs by method."""
    problem, K, _, _ = PINNED_BUILDS[name]
    sys, spec = problem()
    with _lp_census() as counts:
        digests = _build_digests(sys, spec, K=K)
    return digests, counts


# SHA-256 of jsonutil.dumps of the ACC constraint spec on the default
# AccParams, and the LPs its construction solves: 37 before unsafe_union
# settled the operating box's boundedness ahead of its clips, so that their
# remove_redundancy read vertices instead of solving one LP per row.
ACC_SPEC_SHA256 = "45e182775a1b70304fac22212f6c360a2efe6d0cee43db1e3cc25b2846bb3369"
ACC_SPEC_LPS = 11


def _acc_spec():
    """The digest of the ACC constraint spec and its LPs by method."""
    with _lp_census() as counts:
        spec = envs.constraint_spec(envs.AccParams())
    return hashlib.sha256(jsonutil.dumps(spec.to_dict()).encode()).hexdigest(), counts


def _assert_pinned(name):
    _, _, pinned, lps = PINNED_BUILDS[name]
    digests, counts = _pinned_build(name)
    assert digests == pinned
    assert sum(counts.values()) == lps, counts


def test_2d_artifact_bytes_pinned():
    """The bytes of the 2-D K=2 artifact and of every X_k are pinned, so a
    speed-up that changes a single output bit fails here.  A change of
    these hashes is an intended artifact change and is logged as such in
    CHANGES.md.  Recorded with numpy 2.4.6 and scipy 1.17.1; another
    numpy or BLAS may round differently and change them too.  The same
    build pins its LP count, as each test below does."""
    _assert_pinned("2-D K=2")


def test_2d_k3_artifact_bytes_pinned():
    """As above for the 2-D build at K=3, whose step k=3 the K=2 pins do
    not reach."""
    _assert_pinned("2-D K=3")


def test_2d_k4_artifact_bytes_pinned():
    """As above for the 2-D build at K=4."""
    _assert_pinned("2-D K=4")


def test_acc_k1_artifact_bytes_pinned():
    """As above for the 3-D ACC case study at K=1 (the benchmark's
    acc_build problem), where merging and inflation see polytopes with
    more rows than in 2-D."""
    _assert_pinned("ACC K=1")


def test_acc_k2_artifact_bytes_pinned():
    """As above for the ACC case study at K=2, whose second step works on
    the most members of any pinned build."""
    _assert_pinned("ACC K=2")


def test_acc_spec_bytes_and_lps_pinned():
    """The ACC constraint spec keeps its bytes and solves exactly its
    pinned LPs, the emptiness tests of the four clipped headway members
    (twice each: unsafe_union clips them, ConstraintSpec clips them
    again) and of U, W and the box."""
    digest, counts = _acc_spec()
    assert digest == ACC_SPEC_SHA256
    assert sum(counts.values()) == ACC_SPEC_LPS, counts


def test_builds_without_vertices_keep_their_bytes(monkeypatch):
    """With no vertices for any region_diff piece or member, and none for
    remove_redundancy to enumerate, every question goes to its LP: the
    ACC K=1 and 2-D K=3 builds still give their pinned bytes."""
    from safegov.geometry import polytope as polytope_module

    monkeypatch.setattr(polytope_module, "_vertices_or_none", lambda P: None)
    assert _build_digests(*sys_acc(), K=1) == ARTIFACT_ACC_K1_SHA256
    assert _build_digests(*sys_2d(), K=3) == ARTIFACT_2D_K3_SHA256


def test_2d_reduced_against_dp_oracle_small():
    sys, spec = sys_2d()
    K = 4
    sets = compute_unrecoverable(sys, spec, K=K)
    for a, b in zip(sets.sets[:-1], sets.sets[1:]):
        assert union_subset(a, b)
    assert _dp_agreement(sets.final, dp_oracle(sys, spec, K, grid_resolution=100, n_u=13, n_w=5)) >= 0.99


def test_acc_k1_against_dp_oracle():
    """X_1 of the ACC K=1 build against a 3-D grid DP with 40 cells per
    axis.  The agreement was 0.9967 when written."""
    sys, spec = sys_acc()
    sets = compute_unrecoverable(sys, spec, K=1)
    assert _dp_agreement(sets.final, dp_oracle(sys, spec, 1, grid_resolution=40, n_u=13, n_w=5)) >= 0.99


def test_acc_k2_against_dp_oracle():
    """X_2 of the ACC K=2 build against the same 3-D grid DP, run to K=2.
    The agreement was 0.9920 when written, above the same 0.99 bar."""
    sys, spec = sys_acc()
    sets = compute_unrecoverable(sys, spec, K=2)
    assert _dp_agreement(sets.final, dp_oracle(sys, spec, 2, grid_resolution=40, n_u=13, n_w=5)) >= 0.99


def _dp_agreement(X, grid):
    """The share of grid cells whose DP label X's membership agrees with,
    over the cells off the label edges: a cell whose label differs from a
    neighbour's along any axis is left out, as in the benchmark's check."""
    lab = grid.labels
    ours = X.contains_many(grid.centers()).reshape(lab.shape)
    edge = np.zeros_like(lab)
    for axis in range(lab.ndim):
        differ = np.diff(lab, axis=axis)
        e = np.moveaxis(edge, axis, 0)      # a view: writes reach edge
        e[:-1] |= np.moveaxis(differ, axis, 0)
        e[1:] |= np.moveaxis(differ, axis, 0)
    return float((ours == lab)[~edge].mean())


# --------------------------------------------------------- safe artifacts


def test_safe_artifact_1d_band():
    sys, spec = sys_1d()
    sets = compute_unrecoverable(sys, spec, K=2)
    art = build_safe_artifact(sets, sys, spec)
    # X_2 reaches x <= 2; inflating by (-E)W = [-2, 2] pushes the safe
    # band to [2 + 2, 10].
    assert len(art.safe) == 1
    m = art.safe.members[0]
    assert m.support(np.array([1.0])) == pytest.approx(10.0, abs=1e-6)
    assert -m.support(np.array([-1.0])) == pytest.approx(4.0, abs=1e-6)


def test_safe_artifact_zero_disturbance_inflation_identity():
    sys = LinearSystem(np.eye(1), np.eye(1), np.eye(1))
    spec = ConstraintSpec(
        X0=PolyUnion([HPolytope(np.array([[1.0]]), np.array([0.0]))]),
        U=interval(-1, 1),
        W=HPolytope.from_point([0.0]),
        box=interval(-10, 10),
    )
    sets = compute_unrecoverable(sys, spec, K=3)
    art = build_safe_artifact(sets, sys, spec)
    assert len(art.inflated_unsafe) == len(art.unrecoverable)
    for a, b in zip(art.inflated_unsafe.members, art.unrecoverable.members):
        assert set_equal(a, b, tol=1e-8)


def test_safe_artifact_no_safe_region():
    sys, spec = sys_1d()
    bad = ConstraintSpec(
        X0=PolyUnion([interval(-10, 10)]),
        U=spec.U,
        W=spec.W,
        box=spec.box,
    )
    sets = compute_unrecoverable(sys, bad, K=0)
    with pytest.raises(NoSafeRegionError):
        build_safe_artifact(sets, sys, bad)


def test_inflated_complement_against_lp_oracle():
    sys, spec = sys_1d()
    sets = compute_unrecoverable(sys, spec, K=3)
    art = build_safe_artifact(sets, sys, spec)
    rng = np.random.default_rng(13)
    pts = rng.uniform(-9.5, 9.5, size=(500, 1))
    for z in pts:
        direct = not art.inflated_unsafe.contains(z, tol=0.0)
        oracle = inflated_complement_oracle(z, art.unrecoverable, sys.E, spec.W)
        near = art.inflated_unsafe.contains(z, tol=1e-5) and not art.inflated_unsafe.contains(z, tol=-1e-5)
        if not near:
            assert direct == oracle


def test_inflated_complement_oracle_2d():
    sys, spec = sys_2d()
    sets = compute_unrecoverable(sys, spec, K=3)
    art = build_safe_artifact(sets, sys, spec)
    rng = np.random.default_rng(29)
    pts = np.column_stack([rng.uniform(0, 120, 300), rng.uniform(-20, 20, 300)])
    checked = 0
    for z in pts:
        near = art.inflated_unsafe.contains(z, tol=1e-4) and not art.inflated_unsafe.contains(z, tol=-1e-4)
        if near:
            continue
        direct = not art.inflated_unsafe.contains(z, tol=0.0)
        assert direct == inflated_complement_oracle(z, art.unrecoverable, sys.E, spec.W)
        checked += 1
    assert checked > 200


def test_classify_1d():
    sys, spec = sys_1d()
    sets = compute_unrecoverable(sys, spec, K=2)
    art = build_safe_artifact(sets, sys, spec)
    assert classify([-5.0], art) == "unsafe"
    assert classify([1.0], art) == "unrecoverable"
    assert classify([3.0], art) == "unrecoverable"  # inside the disturbance margin
    assert classify([7.0], art) == "safe"
    with pytest.raises(OutOfDomainError):
        classify([11.0], art)


def test_classify_never_safe_inside_x0():
    sys, spec = sys_1d()
    sets = compute_unrecoverable(sys, spec, K=2)
    art = build_safe_artifact(sets, sys, spec)
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.uniform(-10, 0)
        assert classify([x], art) != "safe"


def test_fragment_budget_error_reports_k():
    sys, spec = sys_1d()
    with pytest.raises(FragmentBudgetError) as ei:
        compute_unrecoverable(sys, spec, K=5, member_budget=0)
    assert ei.value.k_reached == 0


def test_artifact_roundtrip(tmp_path):
    sys, spec = sys_1d()
    sets = compute_unrecoverable(sys, spec, K=2)
    art = build_safe_artifact(sets, sys, spec)
    p = tmp_path / "artifact.json"
    save_artifact(art, str(p))
    loaded = load_artifact(str(p))
    assert loaded.k_used == art.k_used
    assert loaded.content_hash == art.content_hash
    assert loaded.content_hash == artifact_hash(sys, spec, 2)
    for m1, m2 in zip(art.safe.members, loaded.safe.members):
        assert np.array_equal(m1.A, m2.A) and np.array_equal(m1.b, m2.b)
    # same inputs -> same hash; different depth -> different hash
    assert artifact_hash(sys, spec, 3) != art.content_hash


if __name__ == "__main__":
    # LP census: PYTHONPATH=src:tests python tests/test_safeset.py
    def report(name, counts, match):
        split = ", ".join(f"{method} {n}" for method, n in counts.items())
        print(f"{name}: {split}; total {sum(counts.values())}; digests {'match' if match else 'DIFFER'}")

    digest, counts = _acc_spec()
    report("ACC spec", counts, digest == ACC_SPEC_SHA256)
    for name, (_, _, pinned, _) in PINNED_BUILDS.items():
        digests, counts = _pinned_build(name)
        report(name, counts, digests == pinned)
