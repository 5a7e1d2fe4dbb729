"""Half-space polytope algebra: H/V conversion, Minkowski sum, Pontryagin
difference, affine maps and set differences over finite unions.

All sets are closed ({x : A x <= b}); membership and subset predicates are
evaluated up to FEAS_TOL.  Types are immutable after construction and all
operations are pure functions, so values can be shared freely.

An HPolytope caches what it learns about itself: emptiness, boundedness,
irredundancy, its Chebyshev ball, its vertices and the support values it
has been asked for (a memo per set, keyed on the direction's bytes, so it
never outlives the set).  It also computes each form of its rows once:
the membership row scale, the unit rows of ``normalized()`` and the
deduplicated rows of ``_dedup()``.  None of these can go stale: a set's
rows are read-only arrays that the set owns, fixed at construction.
``normalized()`` and ``_dedup()`` still return a new set on each call,
which shares the cached arrays but none of its flags, so a flag set on
one result (``remove_redundancy`` marks its ``_dedup()``) never reaches
the next.  A row form equal to the rows it was computed from shares their
arrays, so sets kept in an artifact hold little more.  Sets whose rows
are computed from rows already checked (intersections, the pieces of
``region_diff``, ``remove_redundancy`` output and the cached row forms)
are built without ``_rows``' conversions and checks.

Operations whose result provably shares a fact carry it over instead of
paying LPs for it again:

- ``intersect`` is bounded when either operand is known to be bounded;
- ``convex_hull`` is bounded and nonempty, being the hull of finitely
  many points;
- ``inverse_affine_map`` (invertible map) keeps its input's boundedness
  and irredundancy;
- ``remove_redundancy`` describes the same set, so it keeps boundedness
  and the Chebyshev ball; it is known to be nonempty and irredundant;
- each piece ``region_diff`` splits off a set R is bounded when R is; a
  piece shown significant by its vertices is nonempty;
- ``chebyshev`` settles emptiness as well when the ball's radius is
  above 10 FEAS_TOL;
- ``is_bounded`` needs no LP when the rows hold a positive multiple of
  every +e_i and -e_i (a box bounds the set).

Vertices are not carried over: vertices enumerated from one set's rows
can differ in the last bits from those of the same set written with
other rows, and the merge and the Minkowski sum hull vertices into the
artifact's bytes.

Vertex enumeration solves every dim-subset of half-space rows, which is
exact and affordable in the dimensions this package targets (<= 4; the
bundled case study uses 3).  The subsets come from index tables built
once per shape and kept in a small bounded cache; a large enumeration
builds and solves them a batch at a time instead, with the same points.

In these dimensions vertices answer most yes/no questions of the set
recursion at less cost than an LP.  They are the only witnesses that
spare an LP: a question they leave open, or one about a set whose
vertices are not at hand, goes to its LP.
Each shortcut below decides only outside a margin band around the LP's
own threshold and leaves the band to the LP, so every decision stays
the LP's:

- ``region_diff`` asks one question of a piece, of the set it starts
  from and of a piece's meet with a member: does it hold a ball of radius
  min_r?  Each goes to ``_significant``: the set's own vertices, then its
  Chebyshev LP.  Slab tests batched over all members and candidate points
  rule most members in or out before a meet is formed.  Vertices also
  decide whether a member's row cuts a piece (a row that only touches it
  is cleared by a normal-cone bound) and which of its rows are redundant;
  what these tests read of a piece is computed once per piece;
- ``remove_redundancy`` keeps rows by rays from the facets of its
  vertices, and drops rows slack at every vertex;
- ``merge_convex_members`` rules a pair out when a row of one member has
  every vertex of the other beyond it (``region_diff``'s batched slab
  test, ``_apart``), and closes a pair whose hull outgrows both volumes
  together by more than the tolerance before any intersection is formed.
  An intersection's volume is taken from the points enumerated from its
  rows, with no emptiness LP.
"""

from __future__ import annotations

import functools
import itertools
import math
import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .lp import FEAS_TOL, INFEASIBLE, OPTIMAL, UNBOUNDED, chebyshev_center, lp_solve, tightest_rows

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

# Row subsets solved per batch by vertex enumeration.  Index tables of at
# most this many subsets are cached per shape; larger enumerations build
# their subsets a batch at a time and keep none.
_VERTEX_BATCH = 4096


class GeometryError(ValueError):
    """Invalid geometric operation (dimension mismatch, empty input, ...)."""


class UnboundedSetError(GeometryError):
    """A bounded set was required (vertex enumeration, support, hull)."""


class RegionBudgetError(GeometryError):
    """region_diff exceeded its fragment budget; result would be unreliable."""


def _rows(A, b, dim):
    """Checked copies of the rows.  The set owns its rows, so no caller can
    write to the arrays its caches were computed from, and the caller's
    own arrays stay writable."""
    A = np.atleast_2d(np.array(A, dtype=float))
    b = np.array(b, dtype=float).ravel()
    if A.size == 0:
        A = A.reshape(0, dim)
    if A.shape[1] != dim or A.shape[0] != b.size:
        raise GeometryError("inconsistent half-space data")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise GeometryError("non-finite half-space data")
    return A, b


class HPolytope:
    """Closed convex polyhedron {x : A x <= b} in R^dim.

    A and b are read-only.  Everything derived from them alone is cached
    on first use and never recomputed: the row scale of the membership
    tolerance, the unit rows of ``normalized()``, the rows of ``_dedup()``,
    the vertices and the support values.  The facts in ``_empty``,
    ``_bounded``, ``_irredundant`` and ``_cheb`` may be set by the
    operation that built the set, when it knows them to hold.
    """

    __slots__ = ("A", "b", "dim", "_empty", "_bounded", "_irredundant", "_cheb", "_verts", "_support",
                 "_scale", "_unit", "_dedup_rows")

    def __init__(self, A, b, dim: int | None = None):
        if dim is None:
            A0 = np.atleast_2d(np.asarray(A, dtype=float))
            if A0.size == 0:
                raise GeometryError("dim required for polytopes with no rows")
            dim = A0.shape[1]
        if dim <= 0:
            raise GeometryError("dim must be positive")
        self._set_rows(*_rows(A, b, dim), int(dim))

    @classmethod
    def _derived(cls, A: np.ndarray, b: np.ndarray, dim: int) -> "HPolytope":
        """A set on rows computed from rows that were already validated:
        float arrays of shapes (r, dim) and (r,), finite, and owned by no
        caller that writes to them.  Skips ``_rows``' conversions and
        checks, which cost more than the small sets of the recursion."""
        out = cls.__new__(cls)
        out._set_rows(A, b, dim)
        return out

    def _set_rows(self, A: np.ndarray, b: np.ndarray, dim: int) -> None:
        self.A, self.b, self.dim = A, b, dim
        self.A.setflags(write=False)
        self.b.setflags(write=False)
        self._empty: bool | None = None
        self._bounded: bool | None = None
        self._irredundant = False
        self._cheb: tuple[np.ndarray | None, float] | None = None
        self._verts: np.ndarray | None = None
        self._support: dict[bytes, float] = {}
        self._scale: np.ndarray | None = None
        self._unit: tuple[np.ndarray, np.ndarray] | None = None
        self._dedup_rows: tuple[np.ndarray, np.ndarray] | None = None

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
        return cls.from_bounds(p, p)

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
        return bool((_slack(self.A, self.b, x) <= tol * self._row_scale()).all())

    def _row_scale(self) -> np.ndarray:
        """max(1, ||a_i||) per row, the scale of the membership tolerance.
        Cached: the rows are read-only, so it cannot go stale."""
        if self._scale is None:
            self._scale = np.maximum(1.0, np.linalg.norm(self.A, axis=1))
            self._scale.setflags(write=False)
        return self._scale

    def is_empty(self) -> bool:
        if self._empty is None:
            res = lp_solve(np.zeros(self.dim), self.A, self.b)
            self._empty = res.status == INFEASIBLE
        return self._empty

    def is_bounded(self) -> bool:
        """Whether the set is bounded (an empty set is).  Rows holding a
        positive multiple of every +e_i and -e_i bound the set in a box,
        empty or not, so such a set solves no LP."""
        if self._bounded is None:
            if _boxed(self.A):
                self._bounded = True
            elif self.is_empty():
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
        """(center, radius) of the largest inscribed ball; radius < 0 if empty,
        inf with no center when the set holds balls of any radius.

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
        out = HPolytope._derived(np.vstack([self.A, other.A]), np.concatenate([self.b, other.b]), self.dim)
        if self._bounded or other._bounded:
            out._bounded = True
        return out

    def normalized(self) -> "HPolytope":
        """Unit row normals; vacuous rows dropped, infeasible zero rows kept."""
        return HPolytope._derived(*self._unit_rows(), self.dim)

    def _unit_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows of ``normalized()``, computed once per set.  Rows whose
        norms are all exactly 1 are shared with the set itself."""
        if self._unit is None:
            norms = np.linalg.norm(self.A, axis=1)
            if ((norms < 1e-12) & (self.b < -FEAS_TOL)).any():
                self._unit = (np.zeros((1, self.dim)), np.array([-1.0]))
            elif (norms == 1.0).all():
                self._unit = (self.A, self.b)
            else:
                mask = norms >= 1e-12
                self._unit = (self.A[mask] / norms[mask, None], self.b[mask] / norms[mask])
            for rows in self._unit:
                rows.setflags(write=False)
        return self._unit

    def _dedup(self) -> "HPolytope":
        """Drop duplicate rows, keeping the tightest offset per normal."""
        return HPolytope._derived(*self._deduplicated_rows(), self.dim)

    def _deduplicated_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows of ``_dedup()``, computed once per set: the unit rows
        sorted on the normal's key, then on the offset, and the first row
        of each run of equal keys, its tightest.  Rows already in that
        order with no duplicate are shared with ``_unit_rows``."""
        if self._dedup_rows is None:
            A, b = self._unit_rows()
            if len(b) > 1:
                keep = tightest_rows(A, b)
                if len(keep) < len(b) or (keep[1:] < keep[:-1]).any():
                    A, b = A[keep], b[keep]
                    A.setflags(write=False)
                    b.setflags(write=False)
            self._dedup_rows = (A, b)
        return self._dedup_rows

    def remove_redundancy(self) -> "HPolytope":
        """Minimal-row representation: every remaining row is irredundant.

        Row i of the deduplicated rows is dropped when the LP max a_i'x,
        over the rows still kept and row i relaxed to b_i + 1, stays within
        b_i + FEAS_TOL.  The rows are decided in order, so the rows an LP
        sees are the ones it would see if every row had its LP.  Exact
        shortcuts spare LPs:

        - a set already known irredundant returns its deduplicated rows;
        - when the set's vertices are at hand, two vertex certificates
          decide rows; see ``_vertex_redundancy``.  A row inactive at every
          vertex by more than a margin is dropped: the set is the hull of
          its vertices, so the row is slack on all of it, and a row slack
          on the whole set can go without changing the set.  An active row
          is kept when a ray along a_i from the centroid of its active
          vertices, nudged toward the centroid of all of them, passes it by
          more than 10 FEAS_TOL before it meets any other row (Clarkson's
          ray-shooting test, started on row i's own facet).  The ray's
          point at a_i'x = b_i + 10 FEAS_TOL meets every other row and the
          relaxed row a_i'x <= b_i + 1: it is feasible for row i's LP,
          whose rows are a subset of these.  The LP's maximum is then above
          b_i + FEAS_TOL by far more than its rounding, so the LP would
          keep row i too.  The vertices are at hand when they are cached
          (``region_diff`` takes them for its pieces), and are enumerated
          for a set already known bounded, a ``convex_hull`` output among
          them (its emptiness is settled first, and boundedness is never
          tested for this).

        Rows neither test decides get their LP, as do all rows of a set
        whose vertices are not at hand.  The result is marked irredundant
        and nonempty; it keeps self's boundedness flag and Chebyshev ball,
        but not its vertices.
        """
        if self._irredundant:
            out = self._dedup()
        else:
            if self.is_empty():
                return HPolytope.empty(self.dim)
            A, b = self._deduplicated_rows()
            keep = np.ones(len(b), dtype=bool)
            certified = drop = np.zeros(len(b), dtype=bool)
            V = self._verts
            if V is None and self._bounded is True:
                V = _vertices_or_none(self)
            if V is not None:
                certified, drop = _vertex_redundancy(A, b, V)
            for i in np.flatnonzero(~certified):
                keep[i] = False
                if drop[i]:
                    continue
                rows = keep.copy()
                # Relax the tested row instead of removing it so the LP stays bounded.
                Atest = np.vstack([A[rows], A[i:i + 1]])
                btest = np.concatenate([b[rows], [b[i] + 1.0]])
                res = lp_solve(-A[i], Atest, btest)
                redundant = res.status == OPTIMAL and -res.value <= b[i] + FEAS_TOL
                keep[i] = not redundant
            out = HPolytope._derived(A[keep], b[keep], self.dim)
        out._empty = False
        out._bounded = self._bounded
        out._irredundant = True
        out._cheb = self._cheb
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
        verts = _enumerate_vertices(*self._deduplicated_rows())
        verts.setflags(write=False)
        self._verts = verts
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
            out |= (_slack(m.A, m.b, X) <= tol * m._row_scale()).all(axis=1)
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


def _boxed(A: np.ndarray) -> bool:
    """True when the rows A hold a positive multiple of every +e_i and
    -e_i, so that {x : A x <= b} lies in a box for every b."""
    d = A.shape[1]
    nz = A != 0.0
    axis = nz.sum(axis=1) == 1
    k = nz[axis].argmax(axis=1)
    seen = np.zeros((2, d), dtype=bool)
    seen[(A[axis][np.arange(len(k)), k] > 0.0).astype(int), k] = True
    return bool(seen.all())


def _slack(A: np.ndarray, b: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A x - b for one point x, shape (rows,), or for each row x of a stack
    X, shape (points, rows).

    The products are summed one column of A at a time, so every entry is
    the same sequence of rounded operations whatever the number of points:
    ``contains`` and ``contains_many`` give a point the same slack.  A
    matrix product need not, since BLAS rounds a batch apart from a single
    point (one in about 2,000 band-edge points then differed)."""
    cols = A.T
    terms = X.tolist() if X.ndim == 1 else X.T[:, :, None]
    S = terms[0] * cols[0]
    for j in range(1, len(cols)):
        S += terms[j] * cols[j]
    S -= b
    return S


def _ray_support(A: np.ndarray, b: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Lower bounds on max a_k'x over {x : A x <= b} without row k, one per
    row a_k of A.

    Each bound is a_k'x at the point where the ray C[k] + t a_k, t >= 0,
    first meets a row other than row k (+inf if it never does).  That point
    lies in the set without row k, so the maximum is at least the bound.
    A ray's bound is -inf unless its origin C[k] satisfies every row.
    """
    gap = b[:, None] - A @ C.T                  # gap[j, k] = b_j - a_j'C[k]
    rate = A @ A.T                              # rate[j, k] = a_j'a_k
    np.fill_diagonal(rate, 0.0)
    ratio = np.divide(gap, rate, out=np.full(rate.shape, np.inf), where=rate > 0.0)
    reach = ratio.min(axis=0, initial=np.inf)
    bound = np.einsum("ij,ij->i", A, C) + reach * np.einsum("ij,ij->i", A, A)
    return np.where((gap >= 0.0).all(axis=0), bound, -np.inf)


def _vertex_redundancy(A: np.ndarray, b: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(keep, drop) row masks of remove_redundancy's vertex certificates.

    V are the vertices of {x : A x <= b} (unit rows).  With delta =
    10 FEAS_TOL plus the residual of V against the rows (the largest
    violation of a row by a vertex, at least 0: vertex enumeration accepts
    a point that misses a row by up to 1e-6 (1 + max|b|)), row i is active
    at vertex v when a_i'v >= b_i - delta (1 + |b_i|).  A row active at no
    vertex is in drop.  An active row is in keep when the ray along a_i
    from the centroid of its active vertices, nudged 1e-3 of the way
    toward the centroid of all of V, passes b_i + 10 FEAS_TOL before it
    meets another row.  The nudge puts the origin strictly inside every
    row: the centroid itself lies on row i, and a rounding error there
    fails _ray_support's origin test.
    """
    VA = V @ A.T                                           # (points, rows)
    delta = 10 * FEAS_TOL + float(np.max(VA - b, initial=0.0))
    active = VA >= b - delta * (1.0 + np.abs(b))
    count = active.sum(axis=0)
    drop = count == 0
    keep = np.zeros(len(b), dtype=bool)
    if not drop.all():
        centroid = (active.T @ V) / np.maximum(count, 1)[:, None]
        start = centroid + 1e-3 * (V.mean(axis=0) - centroid)
        keep = (_ray_support(A, b, start) > b + 10 * FEAS_TOL) & ~drop
    return keep, drop


# ----------------------------------------------------------------------
# point-set helpers


def _dedup_points(pts: np.ndarray, tol: float = 1e-7) -> np.ndarray:
    """The points whose key round(p / tol) is new, in their input order."""
    if pts.shape[0] <= 1:
        return pts
    key = np.round(pts / tol).astype(np.int64)
    # lexsort is stable, so each run of equal keys starts with the first
    # occurrence of that key.
    order = np.lexsort(key.T)
    key = key[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (key[1:] != key[:-1]).any(axis=1)
    return pts[np.sort(order[first])]


@functools.lru_cache(maxsize=32)
def _subset_table(r: int, d: int) -> np.ndarray:
    """The d-subsets of range(r) in lexicographic order, shape
    (C(r, d), d), read-only.  Callers ask only for tables of at most
    _VERTEX_BATCH subsets, so the 32 cached hold at most 4 MB in 4-D."""
    table = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(r), d)),
                        dtype=np.intp, count=math.comb(r, d) * d).reshape(-1, d)
    table.setflags(write=False)
    return table


def _subset_batches(r: int, d: int):
    """The d-subsets of range(r) in lexicographic order, as index tables
    of at most _VERTEX_BATCH rows each."""
    if math.comb(r, d) <= _VERTEX_BATCH:
        yield _subset_table(r, d)
        return
    subsets = itertools.chain.from_iterable(itertools.combinations(range(r), d))
    while True:
        batch = np.fromiter(itertools.islice(subsets, _VERTEX_BATCH * d), dtype=np.intp)
        if not len(batch):
            return
        yield batch.reshape(-1, d)


def _enumerate_vertices(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The points where dim of the rows (A, b) meet and every row holds,
    up to 1e-6 (1 + max|b|), deduplicated: the vertices of a bounded,
    nonempty set given by its deduplicated rows.  Raises GeometryError
    past the row cap or when no such point exists.

    The row subsets are solved in batches (``_subset_batches``), which
    bounds the memory of a large enumeration: at the row cap in 3-D one
    batch would otherwise hold 16 MB of indices and 48 MB of matrices.
    Each subset's point and feasibility are computed on their own, so
    the points and their order do not depend on the batching."""
    r, d = A.shape
    if r > _VERTEX_ROW_CAP:
        raise GeometryError(f"vertex enumeration row cap exceeded ({r} rows)")
    scale = 1.0 + np.abs(b).max(initial=1.0)
    found = []
    for combos in _subset_batches(r, d):
        mats = A[combos]                      # (k, d, d)
        ok = np.abs(np.linalg.det(mats)) > 1e-8
        if ok.any():
            sols = np.linalg.solve(mats[ok], b[combos[ok]][..., None])[..., 0]
            feas = (_slack(A, b, sols) <= 1e-6 * scale).all(axis=1)
            finite = np.isfinite(sols).all(axis=1)
            found.append(sols[feas & finite])
    pts = np.concatenate(found) if found else np.zeros((0, d))
    if len(pts) == 0:
        raise GeometryError("no vertices found (degenerate numerics)")
    return _dedup_points(pts)


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
    The result is marked bounded and nonempty.
    """
    out = _hull(points)
    out._bounded = True
    out._empty = False
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
    """P <= Q, decided by support of P along every unit row of Q.

    The unit rows describe the same set as Q, so Q's own emptiness, settled
    once and kept on Q, stands for theirs."""
    if P.dim != Q.dim:
        raise GeometryError("dimension mismatch")
    if P.is_empty():
        return True
    if Q.is_empty():
        return False
    for a, beta in zip(*Q._unit_rows()):
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


def _vertices_or_none(P: HPolytope) -> np.ndarray | None:
    """P's vertices, or None when P is unbounded, when enumeration fails or
    when it would solve more row subsets than a 3-D set at the row cap,
    C(_VERTEX_ROW_CAP, 3): in 4-D, past 64 deduplicated rows.  Cached
    vertices are returned at any size.

    A set known bounded whose emptiness is not settled (a region_diff
    piece) is enumerated from its deduplicated rows without an LP, and
    nothing is cached: if the set is empty, the points are not vertices of
    it, and only ``_significance`` may judge them."""
    if not P.is_bounded():
        return None
    if P._verts is None and math.comb(len(P._deduplicated_rows()[1]), P.dim) > math.comb(_VERTEX_ROW_CAP, 3):
        return None
    try:
        if P._empty is None:
            return _enumerate_vertices(*P._deduplicated_rows())
        return P.vertices()
    except GeometryError:
        return None


def _significance(P: HPolytope, V: np.ndarray, min_r: float) -> bool | None:
    """Whether the Chebyshev radius of P exceeds min_r, from the points V
    that ``_vertices_or_none`` gives for P; P has unit rows.

    Returns True when the centroid c of V lies deeper than min_r +
    10 FEAS_TOL in P (depth: the least slack over the unit rows): the ball
    of that radius around c lies in P, so the LP's radius is above min_r
    by more than its rounding.  P is then marked nonempty.

    Returns False when a row (a, beta) and the least a'v over V leave a
    slab narrower than 2 (min_r - 10 FEAS_TOL).  If P is nonempty, V are
    its vertices and P, their hull, lies in the slab, so its radius is
    below min_r by more than the LP's rounding; if P is empty, the LP
    finds no ball at all.  This is ``_apart``'s slab rule.

    Returns None otherwise; the Chebyshev LP on P must decide.
    """
    c = V.mean(axis=0)
    if (P.b - P.A @ c).min() > min_r + 10 * FEAS_TOL:
        P._empty = False
        return True
    if (P.b - (V @ P.A.T).min(axis=0) < 2.0 * (min_r - 10 * FEAS_TOL)).any():
        return False
    return None


def _significant(P: HPolytope, min_r: float) -> tuple[bool, np.ndarray | None]:
    """(verdict, V): whether the Chebyshev radius of P exceeds min_r, and
    P's vertices if P is significant and nonempty, else None; P has unit
    rows.  ``region_diff`` asks this of every set whose significance it
    needs.

    ``_significance`` decides from the points ``_vertices_or_none`` gives
    for P; what it leaves open, and every P without such points, goes to
    the Chebyshev LP.  A significant P keeps V as its cached vertices,
    read-only, for its ``remove_redundancy``, once its emptiness is
    settled: that is free after either test found a ball above
    10 FEAS_TOL, and an LP otherwise (in 1-D, min_r is below 10 FEAS_TOL).
    """
    V = _vertices_or_none(P)
    verdict = None if V is None else _significance(P, V, min_r)
    if verdict is None:
        verdict = P.chebyshev()[1] > min_r
    if not verdict or V is None or P.is_empty():
        return verdict, None
    V.setflags(write=False)
    P._verts = V
    return True, V


def _stacked(members: list[tuple]) -> tuple:
    """Members (Q, Qn, VQ), with Qn the unit rows and VQ the vertices (or
    None), stacked once for ``_apart``: the rows, their offsets, the start
    of each member's rows, the mask of members with rows, the vertices,
    the start of each member's vertices and the mask of members with
    vertices.  ``region_diff`` stacks the members it subtracts, and
    ``merge_convex_members`` the members it may merge."""
    dim = members[0][1].dim
    rows = np.array([len(Qn.b) for _, Qn, _ in members])
    verts = np.array([0 if VQ is None else len(VQ) for _, _, VQ in members])
    A = np.vstack([Qn.A for _, Qn, _ in members])
    b = np.concatenate([Qn.b for _, Qn, _ in members])
    W = np.vstack([np.zeros((0, dim))] + [VQ for _, _, VQ in members if VQ is not None])
    has_rows, has_verts = rows > 0, verts > 0
    return (A, b, (np.cumsum(rows) - rows)[has_rows], has_rows,
            W, (np.cumsum(verts) - verts)[has_verts], has_verts)


def _apart(R: HPolytope, VR: np.ndarray, stack: tuple, thin: float) -> np.ndarray:
    """Mask over the stacked members (``_stacked``) that a row of R or of
    the member squeezes into a slab narrower than thin; R has unit rows
    and vertices VR.

    A member is apart when a row (a, beta) of R or of the member and the
    least a'v over the other set's vertices leave a slab narrower than
    thin: R & Q lies in that slab.  Both tests run on every member at
    once: one product with the stacked rows and one with the stacked
    vertices, reduced per member.

    ``region_diff`` passes thin = 2 (min_r - 10 FEAS_TOL), so that the
    Chebyshev radius of R & Q is below min_r by more than the LP's
    rounding; this covers sets apart and sets touching along a face.
    ``merge_convex_members`` passes thin = -FEAS_TOL: every vertex of one
    set lies beyond a unit row of the other by more than FEAS_TOL, so the
    two do not meet.
    """
    A, b, row_starts, has_rows, W, vert_starts, has_verts = stack
    out = np.zeros(len(has_rows), dtype=bool)
    if len(b):
        out[has_rows] = np.logical_or.reduceat(b - (VR @ A.T).min(axis=0) < thin, row_starts)
    if len(W):
        low = np.minimum.reduceat(W @ R.A.T, vert_starts, axis=0)     # (members, rows of R)
        out[has_verts] |= (R.b - low < thin).any(axis=1)
    return out


# Index pairs (i < j) of _meet_verdict's candidate points, which number at
# most five, by the number of points.
_PAIRS = tuple(np.triu_indices(n, 1) for n in range(6))


def _meet_verdict(R: HPolytope, VR: np.ndarray, Qn: HPolytope, VQ: np.ndarray | None,
                  c: np.ndarray, min_r: float) -> bool | None:
    """True when R & Q holds a ball of radius above min_r by the test
    below, else None; for a member that ``_apart`` has not ruled out.

    R has unit rows, vertices VR and their centroid c; Qn is Q with unit
    rows and VQ its vertices (None if unknown).

    Returns True when a candidate point lies deeper than min_r +
    10 FEAS_TOL in both sets (depth: the least slack over the unit rows):
    the ball of that radius around it lies in R & Q.  The candidates are
    c, the centroid of VQ, the centroid of VR inside Q, the centroid of VQ
    inside R, the centroid of both of these vertex sets, and the points at
    1/4, 1/2 and 3/4 of the way between any two of them.

    Returns None otherwise; R & Q's own vertices decide next, then its
    Chebyshev LP (``_significant``).
    """
    points = [c]
    shared = [VR[(VR @ Qn.A.T <= Qn.b).all(axis=1)]]
    if VQ is not None:
        points.append(VQ.mean(axis=0))
        shared.append(VQ[(VQ @ R.A.T <= R.b).all(axis=1)])
    points += [S.mean(axis=0) for S in shared if len(S)]
    shared = np.vstack(shared)
    if len(shared):
        points.append(shared.mean(axis=0))
    pts = np.array(points)
    i, j = _PAIRS[len(pts)]
    base = pts[i]
    step = pts[j] - base
    C = np.vstack([pts, base + 0.25 * step, base + 0.5 * step, base + 0.75 * step])
    depth = np.minimum((R.b - C @ R.A.T).min(axis=1, initial=np.inf),
                       (Qn.b - C @ Qn.A.T).min(axis=1, initial=np.inf))
    if (depth > min_r + 10 * FEAS_TOL).any():
        return True
    return None


def _cone_bounds(A: np.ndarray, b: np.ndarray, active: np.ndarray, which: np.ndarray, a: np.ndarray,
                 reach: float) -> np.ndarray:
    """Upper bounds on a_k'x over the points x of {x : A x <= b} with
    |x|_inf <= reach, by weak LP duality, or inf: one per row a_k of a
    (k, dim), from the rows of A that active[which[k]] marks.

    For every dim-subset S of those rows with |det A_S| > 1e-8, lam
    solves A_S'lam = a_k and is clipped at 0; with r = a_k - A_S'lam the
    rest, a_k'x = lam'(A_S x) + r'x <= lam'b_S + |r|_1 reach.  The least
    bound is kept (inf past _VERTEX_BATCH subsets).  Any rows give a
    valid bound.  When the rows are those active at a vertex v and a_k
    lies in their cone, some subset has lam >= 0 (Caratheodory), and its
    bound is a_k'v up to rounding.

    The subsets are formed once per mask and their determinants in one
    batch; every (matrix, right-hand side) pair of a row and a subset of
    its mask is then solved in one batch, each as a solve of its own.
    """
    dim = A.shape[1]
    subsets, masks = [], []
    for m, mask in enumerate(active):
        rows = np.flatnonzero(mask)
        if math.comb(len(rows), dim) <= _VERTEX_BATCH:
            subsets.append(rows[_subset_table(len(rows), dim)])
            masks += [m] * len(subsets[-1])
    bounds = np.full(len(a), np.inf)
    if subsets:
        subsets, masks = np.concatenate(subsets), np.array(masks)
        mats = A[subsets]                                   # (s, dim, dim)
        ok = np.abs(np.linalg.det(mats)) > 1e-8
        row, sub = np.nonzero(which[:, None] == masks[ok])
        mats, rhs = mats[ok][sub], a[row]
        lam = np.maximum(np.linalg.solve(mats.transpose(0, 2, 1), rhs[..., None])[..., 0], 0.0)
        rest = np.abs(rhs - np.einsum("ki,kij->kj", lam, mats)).sum(axis=1)
        np.minimum.at(bounds, row, np.einsum("ki,ki->k", lam, b[subsets[ok][sub]]) + rest * reach)
    return bounds


def _cut_verdicts(R: HPolytope, V: np.ndarray, residuals: np.ndarray, delta: float,
                  Qn: HPolytope) -> tuple[np.ndarray, np.ndarray]:
    """(cuts, clear) masks over the unit rows (a, beta) of Qn: the rows
    certified to cut R, R.support(a) > beta + FEAS_TOL, and those
    certified not to.  R has unit rows and vertices V, with residuals
    V A' - b against R's rows and margin delta = 10 FEAS_TOL plus the
    largest residual, at least 0 (as in ``_vertex_redundancy``).

    With h = max a'v over V, the row cuts when h > beta + FEAS_TOL + delta
    and does not when h < beta + FEAS_TOL - delta: R is the hull of its
    vertices, so h is R.support(a) up to the vertices' error, which delta
    bounds.

    A row left undecided is clear when a normal-cone bound is below
    beta + FEAS_TOL / 2: at the vertex v where a'v is largest, a is
    written as a nonnegative combination of dim rows of R active there,
    which bounds R.support(a) from above (``_cone_bounds``).  The bound
    needs no vertex to be exact: a weak-duality bound holds for any rows,
    and the error of the combination enters only scaled by a bound on |x|
    over R, twice 1 + max|V|.  v only picks the rows that make the bound
    tight, those with residual at least -FEAS_TOL (1 + |b_j|) there; a row
    slack by more would loosen it.  Such rows touch R without cutting it,
    a'v at beta to rounding, where no vertex margin can decide them.  A
    member's row that repeats a row of R, as the rows a piece was cut
    along often do, is one of them.  The undecided rows that share a top
    vertex share its mask, and their bounds are solved in one batch.
    """
    H = V @ Qn.A.T
    h = H.max(axis=0)
    cuts = h > Qn.b + FEAS_TOL + delta
    clear = h < Qn.b + FEAS_TOL - delta
    undecided = np.flatnonzero(~(cuts | clear))
    if len(undecided):
        reach = 2.0 * (1.0 + np.abs(V).max())
        band = -FEAS_TOL * (1.0 + np.abs(R.b))
        tops = {}
        which = np.array([tops.setdefault(v, len(tops)) for v in H[:, undecided].argmax(axis=0).tolist()])
        bounds = _cone_bounds(R.A, R.b, residuals[list(tops)] >= band, which, Qn.A[undecided], reach)
        clear[undecided] = bounds < Qn.b[undecided] + FEAS_TOL / 2
    return cuts, clear


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

    A member Q meets a piece R when the Chebyshev radius of R & Q exceeds
    the fragment radius min_r; a row (a, beta) of Q cuts R when
    R.support(a) > beta + FEAS_TOL.  Certificates decide most of these
    questions without an LP.  Each says what the LP would say: it decides
    only outside a margin band of at least 10 FEAS_TOL around the LP's
    threshold, and leaves the band to the LP.

    Every set whose significance is asked takes its vertices V first.
    This costs no LP: a piece, and a meet R & Q, is known bounded when R
    is, and enumeration needs no emptiness test (``_vertices_or_none``).
    P itself pays for its boundedness once if it is not known.  A piece
    whose enumeration fails goes without V and takes the LPs for every
    question below.

    - Significance, of P, of each piece and of each meet R & Q: one rule,
      ``_significant``.  A set whose vertex centroid lies deeper than
      min_r + 10 FEAS_TOL is significant; one that a row and its vertices
      squeeze into a slab narrower than 2 (min_r - 10 FEAS_TOL) is not
      (``_significance``).  Only the rest solve the Chebyshev LP.  A
      meet's vertices are enumerated only for a member that two cheaper
      filters leave open: ``_apart`` rules out, for all members at once,
      each member for which a row of R or of Q leaves the other set's
      vertices in a slab too thin for a ball of radius min_r, and
      ``_meet_verdict`` rules a member in when a candidate point, starting
      from R's vertex centroid, is deeper than min_r + 10 FEAS_TOL in both
      sets.
    - Cut: a row cuts R, or does not, when max a'v over V passes beta +
      FEAS_TOL, or stays below it, by more than the vertices' error; a
      row that only touches R at a vertex is cleared by a normal-cone
      bound (``_cut_verdicts``).  R.support(a) is solved only when these
      tests fail.
    - What these tests read of R alone (the vertex centroid and the
      vertices' residuals and margin) is computed once per piece, not
      once per member.
    - Redundancy: each significant piece keeps its vertices for its
      ``remove_redundancy``, which then uses them (see there).

    Vertices never stay on a set that leaves this function: the merge and
    the Minkowski sum hull the vertices of output members, so vertices
    enumerated from a piece's rows, rather than the output's own, would
    change the artifact's bytes.
    """
    if P.dim != U.dim:
        raise GeometryError("dimension mismatch")
    min_r = _min_radius_for(P.dim, volume_tol)
    thin = 2.0 * (min_r - 10 * FEAS_TOL)
    out: list[HPolytope] = []
    counter = [0]

    def rec(R: HPolytope, V: np.ndarray | None, members: list[int]) -> None:
        # R is significant and irredundant, V its vertices or None;
        # members index the entries not yet used on this branch.
        counter[0] += 1
        if counter[0] > max_pieces:
            raise RegionBudgetError(f"region_diff exceeded {max_pieces} fragments")
        if V is not None:
            # What the tests read of R alone, computed once per piece.
            apart = _apart(R, V, stack, thin)
            c = V.mean(axis=0)
            residuals = V @ R.A.T - R.b
            delta = 10 * FEAS_TOL + float(residuals.max(initial=0.0))
        # Pick the member that actually cuts R with the fewest rows.
        best = None
        for pos, k in enumerate(members):
            _, Qn, VQ = entries[k]
            if V is not None and apart[k]:
                continue
            meets = None if V is None else _meet_verdict(R, V, Qn, VQ, c, min_r)
            if meets is None:
                meets = _significant(R.intersect(Qn), min_r)[0]
            if not meets:
                continue
            if V is None:
                cuts = clear = np.zeros(len(Qn.b), dtype=bool)
            else:
                cuts, clear = _cut_verdicts(R, V, residuals, delta, Qn)
            cutting = [i for i, (a, beta) in enumerate(zip(Qn.A, Qn.b))
                       if cuts[i] or (not clear[i] and R.support(a) > beta + FEAS_TOL)]
            if not cutting:
                return  # R is inside Q entirely
            if best is None or len(cutting) < len(best[2]):
                best = (pos, Qn, cutting)
        if best is None:
            out.append(R.remove_redundancy())
            return
        pos, Qn, cutting = best
        rest = members[:pos] + members[pos + 1:]
        prefix_A: list[np.ndarray] = []
        prefix_b: list[float] = []
        for i in cutting:
            a, beta = Qn.A[i], Qn.b[i]
            piece = HPolytope._derived(
                np.vstack([R.A] + prefix_A + [-a.reshape(1, -1)]),
                np.concatenate([R.b, np.asarray(prefix_b), [-beta]]),
                R.dim,
            )
            piece._bounded = R._bounded
            prefix_A.append(a.reshape(1, -1))
            prefix_b.append(beta)
            keep, Vp = _significant(piece, min_r)
            if keep:
                rec(piece.remove_redundancy(), Vp, rest)

    if P.is_empty():
        return PolyUnion.empty(P.dim)
    if U.is_empty():
        return PolyUnion([P.remove_redundancy()], P.dim)
    P0 = P.remove_redundancy()
    keep, V0 = _significant(P0, min_r)
    if keep:
        entries = [(Q, Q.normalized(), _vertices_or_none(Q)) for Q in U.members]
        stack = _stacked(entries)
        rec(P0, V0, list(range(len(entries))))
    return PolyUnion(out, P.dim)


def subset_of_union(P: HPolytope, U: PolyUnion) -> bool:
    """P <= union(U) up to fragments below the slack volume proxy."""
    return region_diff(P, U, volume_tol=_SUBSET_SLACK_VOLUME).is_empty()


def union_subset(U1: PolyUnion, U2: PolyUnion) -> bool:
    return all(subset_of_union(m, U2) for m in U1.members)


def merge_convex_members(U: PolyUnion) -> PolyUnion:
    """Pairwise-merge members whose union is convex (hull volume matches).

    Order: a boolean upper-triangular matrix marks the pairs (i, j), i < j,
    of the current member list that are still open.  Each step tests the
    first open pair in row-major order and closes it, so no pair is tested
    twice.  A merge deletes rows and columns i and j and appends the merged
    member as the last row and column, open against each survivor that
    passes the two tests below.

    A pair is never opened when either volume is at most _MERGE_VOLUME_TOL
    (lower-dimensional members are left untouched: the volume test means
    nothing for them), or when every vertex of one member lies beyond a
    unit row of the other by more than FEAS_TOL (``_apart`` with thin =
    -FEAS_TOL, batched over the members).  Disjoint members are thus never
    merged, even where their gap holds less than the volume tolerance.

    An open pair merges when vol_hull <= vols[i] + vols[j] - vol_int + tol,
    with vol_hull the volume of the hull of both members' vertices, tol =
    max(_MERGE_VOLUME_TOL, 1e-9 vol_hull) and vol_int the volume of the
    points enumerated from the intersection's rows, 0 when there are none.
    The pair is closed before its intersection is formed when vol_hull >
    vols[i] + vols[j] + tol.  This bound is exact: vol_int >= 0 and
    rounding is monotone, so the merge test's right-hand side is at most
    the bound's.
    """
    if len(U) < 2:
        return U
    entries = [(m, m.normalized(), m.vertices()) for m in U.members]
    vols = [m.volume() for m in U.members]
    big = np.array(vols) > _MERGE_VOLUME_TOL
    stack = _stacked(entries)
    is_open = np.array([~_apart(Qn, VQ, stack, -FEAS_TOL) for _, Qn, VQ in entries])
    is_open = np.triu(is_open & np.outer(big, big), 1)
    while is_open.any():
        i, j = divmod(int(is_open.argmax()), len(entries))
        is_open[i, j] = False
        (P, _, vi), (Q, _, vj) = entries[i], entries[j]
        vol_hull = _point_cloud_volume(np.vstack([vi, vj]))
        tol = max(_MERGE_VOLUME_TOL, 1e-9 * vol_hull)
        if vol_hull > vols[i] + vols[j] + tol:
            continue
        try:
            vol_int = _point_cloud_volume(_enumerate_vertices(*P.intersect(Q)._deduplicated_rows()))
        except GeometryError:
            vol_int = 0.0
        if vol_hull > vols[i] + vols[j] - vol_int + tol:
            continue
        merged = convex_hull(np.vstack([vi, vj])).remove_redundancy()
        keep = [k for k in range(len(entries)) if k not in (i, j)]
        entries = [entries[k] for k in keep] + [(merged, merged.normalized(), merged.vertices())]
        vols = [vols[k] for k in keep] + [vol_hull]
        is_open = np.pad(is_open[np.ix_(keep, keep)], (0, 1))
        live = [k for k in range(len(keep)) if vols[k] > _MERGE_VOLUME_TOL]
        if live and vol_hull > _MERGE_VOLUME_TOL:
            _, Mn, VM = entries[-1]
            is_open[live, -1] = ~_apart(Mn, VM, _stacked([entries[k] for k in live]), -FEAS_TOL)
    return PolyUnion([m for m, _, _ in entries], U.dim)
