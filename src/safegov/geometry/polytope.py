"""Half-space polytope algebra: H/V conversion, Minkowski sum, Pontryagin
difference, affine maps and set differences over finite unions.

All sets are closed ({x : A x <= b}); membership and subset predicates are
evaluated up to FEAS_TOL.  Types are immutable after construction and all
operations are pure functions, so values can be shared freely.

An HPolytope caches what it learns about itself: emptiness, boundedness,
irredundancy, its Chebyshev ball, its vertices and the support values it
has been asked for (a memo per set, keyed on the direction's bytes, so it
never outlives the set).  Operations whose result provably shares a fact
carry it over instead of paying LPs for it again:

- ``intersect`` is bounded when either operand is known to be bounded;
- ``convex_hull`` is bounded, being the hull of finitely many points, and
  contains the centroid of its points, which it records as an interior
  point;
- ``inverse_affine_map`` (invertible map) keeps its input's boundedness
  and irredundancy;
- ``remove_redundancy`` describes the same set, so it keeps boundedness,
  the Chebyshev ball and the interior point; it is known to be nonempty
  and irredundant;
- each piece ``region_diff`` splits off a set R is bounded when R is;
- ``chebyshev`` settles emptiness as well when the ball's radius is
  above 10 FEAS_TOL.

Vertices are not carried over.  ``region_diff`` and ``merge_convex_members``
read a member's cached vertices to rule out a meeting without an LP.

Vertex enumeration works by solving every dim-subset of half-space rows,
which is exact and affordable in the dimensions this package targets
(<= 4; the bundled case study uses 3).
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .lp import FEAS_TOL, INFEASIBLE, OPTIMAL, UNBOUNDED, chebyshev_center, lp_solve

# Default fragment-volume floor for region differences: pieces whose
# Chebyshev-ball volume proxy falls below this are treated as empty.
VOLUME_TOL = 1e-10

# Fragment-volume floor of the subset tests.
_SUBSET_SLACK_VOLUME = 1e-8

# Members at or below this volume are never merged; also the least slack
# of the hull-volume merge test.
_MERGE_VOLUME_TOL = 1e-9

# Cap on half-space rows fed to d-subset vertex enumeration.
_VERTEX_ROW_CAP = 160


class GeometryError(ValueError):
    """Invalid geometric operation (dimension mismatch, empty input, ...)."""


class UnboundedSetError(GeometryError):
    """A bounded set was required (vertex enumeration, support, hull)."""


class RegionBudgetError(GeometryError):
    """region_diff exceeded its fragment budget; result would be unreliable."""


def _rows(A, b, dim):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    if A.size == 0:
        A = A.reshape(0, dim)
    if A.shape[1] != dim or A.shape[0] != b.size:
        raise GeometryError("inconsistent half-space data")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise GeometryError("non-finite half-space data")
    return A, b


class HPolytope:
    """Closed convex polyhedron {x : A x <= b} in R^dim."""

    __slots__ = ("A", "b", "dim", "_empty", "_bounded", "_irredundant", "_cheb", "_inner", "_verts",
                 "_support")

    def __init__(self, A, b, dim: int | None = None):
        if dim is None:
            A0 = np.atleast_2d(np.asarray(A, dtype=float))
            if A0.size == 0:
                raise GeometryError("dim required for polytopes with no rows")
            dim = A0.shape[1]
        if dim <= 0:
            raise GeometryError("dim must be positive")
        self.A, self.b = _rows(A, b, dim)
        self.dim = int(dim)
        self.A.setflags(write=False)
        self.b.setflags(write=False)
        self._empty: bool | None = None
        self._bounded: bool | None = None
        self._irredundant = False
        self._cheb: tuple[np.ndarray | None, float] | None = None
        self._inner: np.ndarray | None = None
        self._verts: np.ndarray | None = None
        self._support: dict[bytes, float] = {}

    # -- constructors -------------------------------------------------

    @classmethod
    def from_bounds(cls, lo, hi) -> "HPolytope":
        """Axis-aligned box [lo, hi] (scalars allowed for 1-D)."""
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.size != hi.size:
            raise GeometryError("bound length mismatch")
        d = lo.size
        A = np.vstack([np.eye(d), -np.eye(d)])
        b = np.concatenate([hi, -lo])
        return cls(A, b, d)

    @classmethod
    def from_point(cls, p) -> "HPolytope":
        p = np.atleast_1d(np.asarray(p, dtype=float))
        d = p.size
        A = np.vstack([np.eye(d), -np.eye(d)])
        b = np.concatenate([p, -p])
        return cls(A, b, d)

    @classmethod
    def empty(cls, dim: int) -> "HPolytope":
        return cls(np.zeros((1, dim)), np.array([-1.0]), dim)

    # -- predicates ---------------------------------------------------

    def contains(self, x, tol: float = FEAS_TOL) -> bool:
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.dim:
            raise GeometryError("point dimension mismatch")
        if self.A.shape[0] == 0:
            return True
        slack = self.A @ x - self.b
        scale = np.maximum(1.0, np.linalg.norm(self.A, axis=1))
        return bool(np.all(slack <= tol * scale))

    def is_empty(self) -> bool:
        if self._empty is None:
            res = lp_solve(np.zeros(self.dim), self.A, self.b)
            self._empty = res.status == INFEASIBLE
        return self._empty

    def is_bounded(self) -> bool:
        if self._bounded is None:
            if self.is_empty():
                self._bounded = True
            else:
                bounded = True
                for i in range(self.dim):
                    e = np.zeros(self.dim)
                    for s in (1.0, -1.0):
                        e[i] = s
                        if lp_solve(-e, self.A, self.b).status == UNBOUNDED:
                            bounded = False
                            break
                    e[i] = 0.0
                    if not bounded:
                        break
                self._bounded = bounded
        return self._bounded

    def chebyshev(self) -> tuple[np.ndarray | None, float]:
        """(center, radius) of the largest inscribed ball; radius < 0 if empty.

        A ball of radius above 10 FEAS_TOL also settles emptiness: the
        emptiness LP could not call a set with such a ball infeasible."""
        if self._cheb is None:
            self._cheb = chebyshev_center(self.A, self.b)
            if self._cheb[1] > 10 * FEAS_TOL:
                self._empty = False
        return self._cheb

    def support(self, a) -> float:
        """h_P(a) = max a'x over the set (raises on empty/unbounded).

        Values are memoised per set: a direction asked for again returns
        the value its LP gave the first time."""
        a = np.asarray(a, dtype=float).ravel()
        if a.size != self.dim:
            raise GeometryError("direction dimension mismatch")
        key = a.tobytes()
        h = self._support.get(key)
        if h is None:
            res = lp_solve(-a, self.A, self.b)
            if res.status == INFEASIBLE:
                raise GeometryError("support of an empty set")
            if res.status == UNBOUNDED:
                raise UnboundedSetError("support unbounded along requested direction")
            h = self._support[key] = -res.value
        return h

    # -- transformations ----------------------------------------------

    def intersect(self, other: "HPolytope") -> "HPolytope":
        if other.dim != self.dim:
            raise GeometryError("dimension mismatch")
        out = HPolytope(np.vstack([self.A, other.A]), np.concatenate([self.b, other.b]), self.dim)
        if self._bounded or other._bounded:
            out._bounded = True
        return out

    def normalized(self) -> "HPolytope":
        """Unit row normals; vacuous rows dropped, infeasible zero rows kept."""
        norms = np.linalg.norm(self.A, axis=1)
        keep_zero_infeasible = np.any((norms < 1e-12) & (self.b < -FEAS_TOL))
        if keep_zero_infeasible:
            return HPolytope.empty(self.dim)
        mask = norms >= 1e-12
        A = self.A[mask] / norms[mask, None]
        b = self.b[mask] / norms[mask]
        if A.shape[0] == 0:
            return HPolytope(np.zeros((0, self.dim)), np.zeros(0), self.dim)
        return HPolytope(A, b, self.dim)

    def _dedup(self) -> "HPolytope":
        """Drop duplicate rows, keeping the tightest offset per normal."""
        P = self.normalized()
        if P.A.shape[0] <= 1:
            return P
        key = np.round(P.A / 1e-9) * 1e-9
        # Sorted on the normal's key, then on the offset: each run of equal
        # keys starts with its tightest row.
        order = np.lexsort(np.column_stack([key, P.b]).T[::-1])
        A, b = P.A[order], P.b[order]
        key = key[order]
        first = np.ones(len(b), dtype=bool)
        first[1:] = np.any(key[1:] != key[:-1], axis=1)
        return HPolytope(A[first], b[first], self.dim)

    def remove_redundancy(self) -> "HPolytope":
        """Minimal-row representation: every remaining row is irredundant.

        Row i of the deduplicated rows is dropped when the LP max a_i'x,
        over the rows still kept and row i relaxed to b_i + 1, stays within
        b_i + FEAS_TOL.  Two exact shortcuts spare LPs:

        - a set already known irredundant returns its deduplicated rows;
        - with a point c known inside every row, row i is kept without its
          LP when the ray from c along a_i passes row i by more than
          10 FEAS_TOL before it meets any other row (Clarkson's
          ray-shooting test).  Any interior point serves as c: the cached
          Chebyshev center when there is one, otherwise the centroid that
          ``convex_hull`` records for its output.  A c that fails a row
          after rounding certifies nothing.  c is inside every row, so the
          ray's point at a_i'x = b_i + 10 FEAS_TOL meets every other row
          and the relaxed row a_i'x <= b_i + 1: it is feasible for row i's LP,
          whose rows are a subset of these.  The LP's maximum is then
          above b_i + FEAS_TOL by far more than its rounding, so the LP
          would keep row i too.  Redundant rows always get their LP, so
          no decision can change.

        The result is marked irredundant and nonempty; it keeps self's
        boundedness flag, Chebyshev ball and interior point.
        """
        if self._irredundant:
            out = self._dedup()
        else:
            if self.is_empty():
                return HPolytope.empty(self.dim)
            P = self._dedup()
            A, b = P.A, P.b
            keep = np.ones(len(b), dtype=bool)
            certified = np.zeros(len(b), dtype=bool)
            origin = self._inner
            if self._cheb is not None and self._cheb[0] is not None:
                origin = self._cheb[0]
            if origin is not None:
                certified = _ray_support(A, b, origin, A, skip_own=True) > b + 10 * FEAS_TOL
            for i in np.flatnonzero(~certified):
                keep[i] = False
                rows = keep.copy()
                # Relax the tested row instead of removing it so the LP stays bounded.
                Atest = np.vstack([A[rows], A[i:i + 1]])
                btest = np.concatenate([b[rows], [b[i] + 1.0]])
                res = lp_solve(-A[i], Atest, btest)
                redundant = res.status == OPTIMAL and -res.value <= b[i] + FEAS_TOL
                keep[i] = not redundant
            out = HPolytope(A[keep], b[keep], self.dim)
        out._empty = False
        out._bounded = self._bounded
        out._irredundant = True
        out._cheb = self._cheb
        out._inner = self._inner
        return out

    # -- vertex enumeration -------------------------------------------

    def vertices(self) -> np.ndarray:
        """All vertices, shape (k, dim).  Requires bounded and nonempty."""
        if self._verts is not None:
            return self._verts
        if self.is_empty():
            raise GeometryError("vertices of an empty set")
        if not self.is_bounded():
            raise UnboundedSetError("vertices of an unbounded set")
        P = self._dedup()
        A, b = P.A, P.b
        r, d = A.shape
        if r > _VERTEX_ROW_CAP:
            raise GeometryError(f"vertex enumeration row cap exceeded ({r} rows)")
        combos = np.array(list(itertools.combinations(range(r), d)), dtype=int)
        mats = A[combos]                      # (k, d, d)
        dets = np.abs(np.linalg.det(mats))
        ok = dets > 1e-8
        pts = []
        if np.any(ok):
            sols = np.linalg.solve(mats[ok], b[combos[ok]][..., None])[..., 0]
            scale = 1.0 + np.abs(b).max(initial=1.0)
            feas = np.all(sols @ A.T - b <= 1e-6 * scale, axis=1)
            finite = np.all(np.isfinite(sols), axis=1)
            pts = sols[feas & finite]
        if len(pts) == 0:
            raise GeometryError("no vertices found (degenerate numerics)")
        verts = _dedup_points(np.asarray(pts))
        self._verts = verts
        verts.setflags(write=False)
        return verts

    def volume(self) -> float:
        """Euclidean volume (0 for lower-dimensional sets)."""
        if self.is_empty():
            return 0.0
        v = self.vertices()
        return _point_cloud_volume(v)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {"A": self.A.tolist(), "b": self.b.tolist()}

    @classmethod
    def from_dict(cls, d: dict, dim: int | None = None) -> "HPolytope":
        return cls(np.asarray(d["A"], dtype=float), np.asarray(d["b"], dtype=float), dim)

    def __repr__(self) -> str:
        return f"HPolytope(dim={self.dim}, rows={self.A.shape[0]})"


class PolyUnion:
    """Finite union of same-dimension H-polytopes; empties pruned on build."""

    __slots__ = ("members", "dim")

    def __init__(self, members, dim: int | None = None):
        members = [m for m in members]
        if dim is None:
            if not members:
                raise GeometryError("dim required for an empty union")
            dim = members[0].dim
        for m in members:
            if m.dim != dim:
                raise GeometryError("union members have mixed dimensions")
        self.members = tuple(m for m in members if not m.is_empty())
        self.dim = int(dim)

    @classmethod
    def empty(cls, dim: int) -> "PolyUnion":
        return cls([], dim)

    def is_empty(self) -> bool:
        return len(self.members) == 0

    def contains(self, x, tol: float = FEAS_TOL) -> bool:
        return any(m.contains(x, tol) for m in self.members)

    def contains_many(self, X, tol: float = FEAS_TOL) -> np.ndarray:
        """Vectorized membership for a stack of points, shape (k, dim)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.zeros(X.shape[0], dtype=bool)
        for m in self.members:
            if m.A.shape[0] == 0:
                out[:] = True
                break
            scale = np.maximum(1.0, np.linalg.norm(m.A, axis=1))
            out |= np.all(X @ m.A.T - m.b <= tol * scale, axis=1)
        return out

    def to_dict(self) -> dict:
        return {"dim": self.dim, "members": [m.to_dict() for m in self.members]}

    @classmethod
    def from_dict(cls, d: dict) -> "PolyUnion":
        dim = int(d["dim"])
        return cls([HPolytope.from_dict(m, dim) for m in d["members"]], dim)

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"PolyUnion(dim={self.dim}, members={len(self.members)})"


def _ray_support(A: np.ndarray, b: np.ndarray, c: np.ndarray, D: np.ndarray,
                 skip_own: bool = False) -> np.ndarray:
    """Lower bounds on max d'x over {x : A x <= b}, one per row d of D.

    Each bound is d'x at the point where the ray c + t d, t >= 0, first
    meets a row (+inf if it never does).  That point lies in the set, so
    the maximum is at least the bound.  With skip_own the ray along D[k]
    ignores row k, which bounds the sets without each row (D = A).  All
    bounds are -inf unless c satisfies every row.
    """
    slack = b - A @ c
    if not np.all(slack >= 0.0):
        return np.full(len(D), -np.inf)
    rate = A @ D.T                       # rate[j, k] = a_j'd_k
    if skip_own:
        np.fill_diagonal(rate, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = np.where(rate > 0.0, slack[:, None] / rate, np.inf).min(axis=0, initial=np.inf)
    return D @ c + reach * np.einsum("ij,ij->i", D, D)


# ----------------------------------------------------------------------
# point-set helpers


def _dedup_points(pts: np.ndarray, tol: float = 1e-7) -> np.ndarray:
    if pts.shape[0] <= 1:
        return pts
    key = np.round(pts / tol).astype(np.int64)
    _, idx = np.unique(key, axis=0, return_index=True)
    return pts[np.sort(idx)]

def _point_cloud_volume(pts: np.ndarray) -> float:
    pts = _dedup_points(np.atleast_2d(pts))
    d = pts.shape[1]
    if pts.shape[0] <= d:
        return 0.0
    center = pts.mean(axis=0)
    _, s, _ = np.linalg.svd(pts - center, full_matrices=False)
    scale = max(s[0], 1.0)
    if s.size < d or s[-1] <= 1e-9 * scale:
        return 0.0
    if d == 1:
        return float(pts.max() - pts.min())
    try:
        return float(ConvexHull(pts).volume)
    except QhullError:
        return float(ConvexHull(pts, qhull_options="QJ").volume)


def convex_hull(points) -> HPolytope:
    """Irredundant H-form of the convex hull of a point cloud.

    Lower-dimensional clouds are supported: the flat directions are pinned
    with equality row pairs and the hull is taken inside the affine span.
    The result is marked bounded, and the centroid of the points is
    recorded as a point inside it (the ray origin of remove_redundancy).
    """
    out = _hull(points)
    out._bounded = True
    out._inner = np.atleast_2d(np.asarray(points, dtype=float)).mean(axis=0)
    return out


def _hull(points) -> HPolytope:
    pts = _dedup_points(np.atleast_2d(np.asarray(points, dtype=float)))
    if pts.size == 0:
        raise GeometryError("convex hull of no points")
    if not np.all(np.isfinite(pts)):
        raise GeometryError("non-finite points")
    d = pts.shape[1]
    if pts.shape[0] == 1:
        return HPolytope.from_point(pts[0])
    center = pts.mean(axis=0)
    Y = pts - center
    U, s, Vt = np.linalg.svd(Y, full_matrices=True)
    scale = max(float(s[0]), 1.0)
    rank = int(np.sum(s > 1e-9 * scale))
    if rank == 0:
        return HPolytope.from_point(pts[0])
    if rank < d:
        # Hull inside the affine span, then lift with equality pairs.
        V = Vt[:rank].T                       # (d, rank)
        N = Vt[rank:].T                       # (d, d-rank), orthonormal complement
        sub = _hull(Y @ V)
        A_sub = sub.A @ V.T
        b_sub = sub.b + A_sub @ center
        A_eq = np.vstack([N.T, -N.T])
        b_eq = np.concatenate([N.T @ center, -(N.T @ center)])
        return HPolytope(np.vstack([A_sub, A_eq]), np.concatenate([b_sub, b_eq]), d)
    if d == 1:
        return HPolytope.from_bounds([float(pts.min())], [float(pts.max())])
    try:
        hull = ConvexHull(pts)
    except QhullError:
        hull = ConvexHull(pts, qhull_options="QJ")
    A = hull.equations[:, :d]
    b = -hull.equations[:, d]
    return HPolytope(A, b, d)._dedup()


# ----------------------------------------------------------------------
# set algebra


def subset(P: HPolytope, Q: HPolytope, tol: float = FEAS_TOL) -> bool:
    """P <= Q, decided by support of P along every row of Q."""
    if P.dim != Q.dim:
        raise GeometryError("dimension mismatch")
    if P.is_empty():
        return True
    Qn = Q.normalized()
    if Qn.is_empty():
        return False
    for a, beta in zip(Qn.A, Qn.b):
        try:
            h = P.support(a)
        except UnboundedSetError:
            return False
        if h > beta + tol:
            return False
    return True


def set_equal(P: HPolytope, Q: HPolytope, tol: float = FEAS_TOL) -> bool:
    return subset(P, Q, tol) and subset(Q, P, tol)


def minkowski_sum(P: HPolytope, Q: HPolytope) -> HPolytope:
    """{p + q : p in P, q in Q}; exact for bounded polytopes via vertices."""
    if P.dim != Q.dim:
        raise GeometryError("dimension mismatch")
    vp = P.vertices()
    vq = Q.vertices()
    sums = (vp[:, None, :] + vq[None, :, :]).reshape(-1, P.dim)
    return convex_hull(sums)


def pontryagin_diff(P: HPolytope, Q: HPolytope) -> HPolytope:
    """{x : x + q in P for all q in Q}; row-wise support tightening."""
    if P.dim != Q.dim:
        raise GeometryError("dimension mismatch")
    if Q.is_empty():
        raise GeometryError("Pontryagin difference by an empty set")
    Pn = P.normalized()
    if Pn.A.shape[0] == 0:
        return Pn
    b_new = np.array([beta - Q.support(a) for a, beta in zip(Pn.A, Pn.b)])
    out = HPolytope(Pn.A, b_new, P.dim)
    if P._bounded:
        out._bounded = True  # P - Q lies in P - q for any q in Q
    return out


def affine_map(M, P: HPolytope) -> HPolytope:
    """Image {M x : x in P} for any conformable M (via vertices + hull)."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[1] != P.dim:
        raise GeometryError("matrix/polytope dimension mismatch")
    v = P.vertices()
    return convex_hull(v @ M.T)


def inverse_affine_map(M, P: HPolytope) -> HPolytope:
    """Preimage {y : M y in P} for invertible square M (no vertex work)."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] != M.shape[1] or M.shape[0] != P.dim:
        raise GeometryError("inverse affine map needs a square matrix of the set's dimension")
    if np.linalg.cond(M) > 1e12:
        raise GeometryError("matrix is singular or near-singular")
    out = HPolytope(P.A @ M, P.b, P.dim)
    out._bounded = P._bounded
    out._irredundant = P._irredundant
    return out


def convhull_union(U: PolyUnion) -> HPolytope:
    """Convex hull of a union, from the concatenated member vertices."""
    if U.is_empty():
        raise GeometryError("convex hull of an empty union")
    pts = np.vstack([m.vertices() for m in U.members])
    return convex_hull(pts)


def union_minkowski(U: PolyUnion, Q: HPolytope) -> PolyUnion:
    """Member-wise Minkowski sum: U (+) Q = union of (member (+) Q)."""
    return PolyUnion([minkowski_sum(m, Q) for m in U.members], U.dim)


def _min_radius_for(dim: int, volume_tol: float) -> float:
    return 0.5 * volume_tol ** (1.0 / dim)


def _separated(P: HPolytope, Q: HPolytope) -> bool:
    """True when some row of P has every vertex of Q strictly outside it,
    by more than FEAS_TOL times the row norm, so P and Q do not meet.

    Decided from Q's cached vertices without an LP.  An unbounded Q, or
    one whose vertex enumeration fails, is never reported separated.
    """
    if not Q.is_bounded():
        return False
    try:
        V = Q.vertices()
    except GeometryError:
        return False
    margin = FEAS_TOL * np.linalg.norm(P.A, axis=1)
    return bool(np.any(np.all(V @ P.A.T - P.b > margin, axis=0)))


def region_diff(
    P: HPolytope,
    U: PolyUnion,
    max_pieces: int = 20000,
    volume_tol: float = VOLUME_TOL,
) -> PolyUnion:
    """Closure of P minus a union of polytopes, as a union of polytopes.

    Recursive half-space splitting: pick a member that meets the current
    piece, partition the piece along that member's cutting rows, recurse
    on the parts outside.  Fragments whose Chebyshev-ball volume proxy
    (2r)^dim falls below volume_tol are dropped.  max_pieces bounds the
    number of recursion nodes visited, not the number of output pieces;
    exceeding it raises RegionBudgetError rather than returning a wrong
    answer.

    Exact shortcuts spare LPs without changing any decision:

    - a bounded member Q with every vertex strictly outside one row of the
      current piece R (by more than FEAS_TOL times the row norm) cannot
      meet R, so it is skipped before the intersection's Chebyshev LP;
    - a row (a, beta) of Q cuts R when a'c > beta + FEAS_TOL at R's
      Chebyshev center c, which lies inside R by more than the fragment
      radius, or when the ray from c along a reaches a'x > beta +
      10 FEAS_TOL before it leaves R (a point of R that far out puts
      R.support(a) above beta + FEAS_TOL by far more than the LP's
      rounding); R.support(a) is solved only when both tests fail.
    """
    if P.dim != U.dim:
        raise GeometryError("dimension mismatch")
    min_r = _min_radius_for(P.dim, volume_tol)
    out: list[HPolytope] = []
    counter = [0]

    def significant(R: HPolytope) -> bool:
        _, r = R.chebyshev()
        return r > min_r

    def rec(R: HPolytope, members: list[HPolytope]) -> None:
        counter[0] += 1
        if counter[0] > max_pieces:
            raise RegionBudgetError(f"region_diff exceeded {max_pieces} fragments")
        if not significant(R):
            return
        c, _ = R.chebyshev()
        # Pick the member that actually cuts R with the fewest rows.
        best = None
        for idx, Q in enumerate(members):
            if _separated(R, Q):
                continue
            inter = R.intersect(Q)
            if not significant(inter):
                continue
            Qn = Q.normalized()
            far = _ray_support(R.A, R.b, c, Qn.A) > Qn.b + 10 * FEAS_TOL
            cutting = [i for i, (a, beta) in enumerate(zip(Qn.A, Qn.b))
                       if a @ c > beta + FEAS_TOL or far[i] or R.support(a) > beta + FEAS_TOL]
            if not cutting:
                return  # R is inside Q entirely
            if best is None or len(cutting) < len(best[2]):
                best = (idx, Qn, cutting)
        if best is None:
            out.append(R.remove_redundancy())
            return
        idx, Qn, cutting = best
        rest = members[:idx] + members[idx + 1:]
        prefix_A: list[np.ndarray] = []
        prefix_b: list[float] = []
        for i in cutting:
            a, beta = Qn.A[i], Qn.b[i]
            piece = HPolytope(
                np.vstack([R.A] + prefix_A + [-a.reshape(1, -1)]),
                np.concatenate([R.b, np.asarray(prefix_b), [-beta]]),
                R.dim,
            )
            piece._bounded = R._bounded
            if significant(piece):
                rec(piece.remove_redundancy(), rest)
            prefix_A.append(a.reshape(1, -1))
            prefix_b.append(beta)

    if P.is_empty():
        return PolyUnion.empty(P.dim)
    if U.is_empty():
        return PolyUnion([P.remove_redundancy()], P.dim)
    rec(P.remove_redundancy(), list(U.members))
    return PolyUnion(out, P.dim)


def subset_of_union(P: HPolytope, U: PolyUnion) -> bool:
    """P <= union(U) up to fragments below the slack volume proxy."""
    return region_diff(P, U, volume_tol=_SUBSET_SLACK_VOLUME).is_empty()


def union_subset(U1: PolyUnion, U2: PolyUnion) -> bool:
    return all(subset_of_union(m, U2) for m in U1.members)


def merge_convex_members(U: PolyUnion) -> PolyUnion:
    """Pairwise-merge members whose union is convex (hull volume matches).

    Lower-dimensional members are left untouched; the volume test is only
    meaningful for full-dimensional pieces.  After each merge the pair
    scan restarts, and the merged member goes to the end of the list.  A
    pair found not mergeable stays so while both members are unchanged,
    so the rescans skip it; pairs are keyed on a serial number each member
    gets when it enters the list.

    A pair that ``_separated`` shows disjoint (either way round, from
    cached vertices) is marked apart before its hull volume is computed.
    Such a pair could pass the volume test only if its gap were within the
    volume tolerance.  With this shortcut the artifacts and every X_k stay
    byte-identical for the ACC build at K=1 and K=2 and for the 2-D system
    at K=2, K=3 and K=4; ACC K=1 and 2-D K=2 and K=3 are pinned in
    tests/test_safeset.py.
    """
    members = list(U.members)
    vols = [m.volume() for m in members]
    serials = list(range(len(members)))
    fresh = itertools.count(len(members))
    apart: set[tuple[int, int]] = set()
    changed = True
    while changed:
        changed = False
        n = len(members)
        for i in range(n):
            if changed:
                break
            for j in range(i + 1, n):
                if vols[i] <= _MERGE_VOLUME_TOL or vols[j] <= _MERGE_VOLUME_TOL:
                    continue
                pair = (serials[i], serials[j])
                if pair in apart:
                    continue
                if _separated(members[i], members[j]) or _separated(members[j], members[i]):
                    apart.add(pair)
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
                    merged = convex_hull(np.vstack([vi, vj])).remove_redundancy()
                    keep = [k for k in range(n) if k not in (i, j)]
                    members = [members[k] for k in keep] + [merged]
                    vols = [vols[k] for k in keep] + [vol_hull]
                    serials = [serials[k] for k in keep] + [next(fresh)]
                    changed = True
                    break
                apart.add(pair)
    return PolyUnion(members, U.dim)
