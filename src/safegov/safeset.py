r"""Offline computation of unrecoverable-set sequences and safe-set artifacts.

For the disturbed linear system x+ = A x + B u + E w with u in U, w in W
and a polytopic-union unsafe region X0, the k-step unrecoverable set X_k
collects the states from which every admissible control can be forced
into X0 by some disturbance sequence within k steps.  X_k is grown by the
set recursion

    X_k = X0  u  A^-1 [ (X_{k-1} (+) (-E)W)  (~)  B U ]

evaluated with exact polytope algebra; the Pontryagin difference of the
(generally non-convex) inflated union is computed through its convex hull
and the complement trick (hull ~ BU) \ ((hull \ inflated) (+) (-B)U).

The governor consumes the complement of the inflated set: a next nominal
state outside every member of X_k (+) (-E)W is robustly outside X_k for
all disturbances in W.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import jsonutil
from .geometry import (
    GeometryError,
    HPolytope,
    PolyUnion,
    affine_map,
    convhull_union,
    inverse_affine_map,
    merge_convex_members,
    pontryagin_diff,
    region_diff,
    union_minkowski,
    union_subset,
)

logger = logging.getLogger(__name__)

ARTIFACT_FORMAT = "safegov-artifact-v1"


class SafeSetError(ValueError):
    pass


class NoSafeRegionError(SafeSetError):
    """The safe region is empty at the requested depth."""


class FragmentBudgetError(SafeSetError):
    """Member count exploded; carries the last completed iteration."""

    def __init__(self, msg: str, k_reached: int):
        super().__init__(msg)
        self.k_reached = k_reached


class OutOfDomainError(SafeSetError):
    """Query point lies outside the operating box."""


@dataclass(frozen=True)
class LinearSystem:
    """x(k+1) = A x(k) + B u(k) + E w(k)."""

    A: np.ndarray
    B: np.ndarray
    E: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        E = np.atleast_2d(np.asarray(self.E, dtype=float))
        if A.shape[0] != A.shape[1]:
            raise SafeSetError("A must be square")
        if B.shape[0] != A.shape[0] or E.shape[0] != A.shape[0]:
            raise SafeSetError("B/E row count must match A")
        if np.linalg.cond(A) > 1e12:
            raise SafeSetError("A must be invertible (set recursion maps through A^-1)")
        for name, M in (("A", A), ("B", B), ("E", E)):
            M.setflags(write=False)
            object.__setattr__(self, name, M)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def n_w(self) -> int:
        return self.E.shape[1]

    def step(self, x, u, w) -> np.ndarray:
        return self.A @ np.asarray(x, float) + self.B @ np.atleast_1d(np.asarray(u, float)) \
            + self.E @ np.atleast_1d(np.asarray(w, float))

    def to_dict(self) -> dict:
        return {"A": self.A.tolist(), "B": self.B.tolist(), "E": self.E.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "LinearSystem":
        return cls(np.asarray(d["A"], float), np.asarray(d["B"], float), np.asarray(d["E"], float))


@dataclass(frozen=True)
class ConstraintSpec:
    """Unsafe union X0, input set U, disturbance set W and operating box.

    The box stands in for R^n: every X0 member is intersected with it on
    construction and all offline set work happens inside it.
    """

    X0: PolyUnion
    U: HPolytope
    W: HPolytope
    box: HPolytope

    def __post_init__(self):
        if self.box.dim != self.X0.dim:
            raise SafeSetError("X0/box dimension mismatch")
        for name, P in (("U", self.U), ("W", self.W)):
            if P.is_empty():
                raise SafeSetError(f"{name} must be nonempty")
            if not P.is_bounded():
                raise SafeSetError(f"{name} must be bounded")
        if self.box.is_empty() or not self.box.is_bounded():
            raise SafeSetError("operating box must be nonempty and bounded")
        clipped = PolyUnion(
            [m.intersect(self.box).remove_redundancy() for m in self.X0.members],
            self.X0.dim,
        )
        object.__setattr__(self, "X0", clipped)

    def to_dict(self) -> dict:
        return {
            "X0": self.X0.to_dict(),
            "U": self.U.to_dict(),
            "W": self.W.to_dict(),
            "box": self.box.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ConstraintSpec":
        dim = int(d["X0"]["dim"])
        return cls(
            X0=PolyUnion.from_dict(d["X0"]),
            U=HPolytope.from_dict(d["U"]),
            W=HPolytope.from_dict(d["W"]),
            box=HPolytope.from_dict(d["box"], dim),
        )


@dataclass
class UnrecoverableSets:
    """The monotone sequence X_0 .. X_K (each a PolyUnion)."""

    sets: list[PolyUnion]
    fixpoint_reached: bool

    @property
    def K(self) -> int:
        return len(self.sets) - 1

    @property
    def final(self) -> PolyUnion:
        return self.sets[-1]


@dataclass
class SafeSetArtifact:
    """Everything the online governor needs, persisted after offline work.

    safe            complement (within the box) of the inflated unsafe set;
                    states here keep a one-step robust feasibility margin.
    inflated_unsafe X_k (+) (-E)W, member rows (G_ij, g_ij) feed the MIQP.
    unrecoverable   X_k itself, kept for classification and audits.
    """

    system: LinearSystem
    spec: ConstraintSpec
    k_used: int
    safe: PolyUnion
    inflated_unsafe: PolyUnion
    unrecoverable: PolyUnion
    fixpoint_reached: bool
    content_hash: str = field(default="")

    def __post_init__(self):
        if not self.content_hash:
            self.content_hash = artifact_hash(self.system, self.spec, self.k_used)

    def to_dict(self) -> dict:
        return {
            "format": ARTIFACT_FORMAT,
            "content_hash": self.content_hash,
            "k_used": self.k_used,
            "fixpoint_reached": self.fixpoint_reached,
            "system": self.system.to_dict(),
            "spec": self.spec.to_dict(),
            "safe": self.safe.to_dict(),
            "inflated_unsafe": self.inflated_unsafe.to_dict(),
            "unrecoverable": self.unrecoverable.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SafeSetArtifact":
        if d.get("format") != ARTIFACT_FORMAT:
            raise SafeSetError(f"unknown artifact format {d.get('format')!r}")
        return cls(
            system=LinearSystem.from_dict(d["system"]),
            spec=ConstraintSpec.from_dict(d["spec"]),
            k_used=int(d["k_used"]),
            safe=PolyUnion.from_dict(d["safe"]),
            inflated_unsafe=PolyUnion.from_dict(d["inflated_unsafe"]),
            unrecoverable=PolyUnion.from_dict(d["unrecoverable"]),
            fixpoint_reached=bool(d["fixpoint_reached"]),
            content_hash=str(d["content_hash"]),
        )


def artifact_hash(sys: LinearSystem, spec: ConstraintSpec, k: int) -> str:
    return jsonutil.content_hash({"system": sys.to_dict(), "spec": spec.to_dict(), "k": k})


def compute_unrecoverable(
    sys: LinearSystem,
    spec: ConstraintSpec,
    K: int,
    member_budget: int = 400,
) -> UnrecoverableSets:
    """Grow X_0 .. X_K, stopping early at a fixpoint (X_k subset X_{k-1})."""
    if K < 0:
        raise SafeSetError("K must be >= 0")
    if spec.X0.dim != sys.n:
        raise SafeSetError("X0 dimension must match the system state dimension")

    X0 = spec.X0
    if X0.is_empty():
        logger.info("X0 empty: every X_k is empty")
        return UnrecoverableSets([PolyUnion.empty(sys.n)] * (K + 1), fixpoint_reached=True)

    EW = affine_map(-sys.E, spec.W)     # (-E) o W
    BU = affine_map(sys.B, spec.U)      # B o U
    nBU = affine_map(-sys.B, spec.U)    # (-B) o U

    sets = [X0]
    fixpoint = False
    for k in range(1, K + 1):
        prev = sets[-1]
        try:
            inflated = union_minkowski(prev, EW)
            H = convhull_union(inflated)
            D = pontryagin_diff(H, BU)
            holes = region_diff(H, inflated)
            if D.is_empty():
                G = PolyUnion.empty(sys.n)
            elif holes.is_empty():
                G = PolyUnion([D], sys.n)
            else:
                F = union_minkowski(holes, nBU)
                G = region_diff(D, F)
            pre = [inverse_affine_map(sys.A, g).remove_redundancy() for g in G.members]
            Xk = merge_convex_members(PolyUnion(list(X0.members) + pre, sys.n))
        except GeometryError as exc:
            raise FragmentBudgetError(
                f"set recursion failed at iteration {k}: {exc}", k_reached=k - 1
            ) from exc
        if len(Xk) > member_budget:
            raise FragmentBudgetError(
                f"member budget {member_budget} exceeded at iteration {k} ({len(Xk)} members)",
                k_reached=k - 1,
            )
        sets.append(Xk)
        logger.info("X_%d: %d members", k, len(Xk))
        if union_subset(Xk, prev):
            fixpoint = True
            logger.info("fixpoint at k=%d", k)
            break
    return UnrecoverableSets(sets, fixpoint_reached=fixpoint)


def build_safe_artifact(sets: UnrecoverableSets, sys: LinearSystem, spec: ConstraintSpec) -> SafeSetArtifact:
    """Inflate X_K by the disturbance image and carve the safe region.

    safe = box \\ (X_K (+) (-E)W): a state there admits next states that
    clear X_K for every disturbance, which is the margin the governor
    relies on.  Empty safe region raises NoSafeRegionError.
    """
    if not sets.sets:
        raise SafeSetError("empty unrecoverable sequence")
    Xk = sets.final
    if Xk.is_empty():
        inflated = PolyUnion.empty(sys.n)
        safe = PolyUnion([spec.box.remove_redundancy()], sys.n)
    else:
        EW = affine_map(-sys.E, spec.W)
        inflated = PolyUnion(
            [m.remove_redundancy() for m in union_minkowski(Xk, EW).members], sys.n
        )
        safe = region_diff(spec.box, inflated)
    if safe.is_empty():
        raise NoSafeRegionError(f"no safe region at k={sets.K}")
    return SafeSetArtifact(
        system=sys,
        spec=spec,
        k_used=sets.K,
        safe=safe,
        inflated_unsafe=inflated,
        unrecoverable=Xk,
        fixpoint_reached=sets.fixpoint_reached,
    )


SAFE = "safe"
UNSAFE = "unsafe"
UNRECOVERABLE = "unrecoverable"


def classify(x, artifact: SafeSetArtifact) -> str:
    """Label a state: inside X0 -> unsafe; in the safe region -> safe;
    otherwise unrecoverable (in X_k or its disturbance margin)."""
    x = np.asarray(x, dtype=float).ravel()
    if not artifact.spec.box.contains(x):
        raise OutOfDomainError(f"state {x.tolist()} outside the operating box")
    if artifact.spec.X0.contains(x):
        return UNSAFE
    if artifact.safe.contains(x):
        return SAFE
    return UNRECOVERABLE


def save_artifact(artifact: SafeSetArtifact, path: str) -> None:
    jsonutil.write_atomic(path, jsonutil.dumps(artifact.to_dict(), indent=1))


def load_artifact(path: str) -> SafeSetArtifact:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        return SafeSetArtifact.from_dict(json.load(fh))


# ----------------------------------------------------------------------
# independent brute-force oracle


@dataclass
class DpGrid:
    """Per-cell unrecoverable labels from backward grid dynamic programming."""

    labels: np.ndarray          # bool, shape (res,) * n
    axes: list[np.ndarray]      # cell-center coordinates per axis
    iterations: int

    def centers(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])


def _axis_bounds(P: HPolytope) -> list[tuple[float, float]]:
    out = []
    for i in range(P.dim):
        e = np.zeros(P.dim)
        e[i] = 1.0
        hi = P.support(e)
        lo = -P.support(-e)
        out.append((lo, hi))
    return out


def _grid_1d(lo: float, hi: float, n: int) -> np.ndarray:
    if hi - lo < 1e-12:
        return np.array([0.5 * (lo + hi)])
    return np.linspace(lo, hi, n)


def dp_oracle(
    sys: LinearSystem,
    spec: ConstraintSpec,
    K: int,
    grid_resolution: int = 200,
    n_u: int = 9,
    n_w: int = 5,
) -> DpGrid:
    """Grid-based backward reachability over the operating box.

    A cell is unrecoverable at step k when it sits in X0, or when for
    every gridded input some gridded disturbance maps its center into the
    step-(k-1) unrecoverable region.  Inputs and disturbances are gridded
    over their bounding boxes (exact for the box-shaped sets used in
    verification).  Any state dimension n works.  The cell index of every
    cell under every gridded input-disturbance pair is kept: for a scalar
    input and disturbance, about n_u * n_w * grid_resolution**n * 8 bytes
    (33 MB at n = 3 with resolution 40, n_u = 13 and n_w = 5).
    """
    n = sys.n
    box_bounds = _axis_bounds(spec.box)
    axes = [
        (np.arange(grid_resolution) + 0.5) * (hi - lo) / grid_resolution + lo
        for lo, hi in box_bounds
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.column_stack([m.ravel() for m in mesh])
    cell = np.array([(hi - lo) / grid_resolution for lo, hi in box_bounds])
    lows = np.array([lo for lo, _ in box_bounds])

    u_axes = [_grid_1d(lo, hi, n_u) for lo, hi in _axis_bounds(spec.U)]
    w_axes = [_grid_1d(lo, hi, n_w) for lo, hi in _axis_bounds(spec.W)]
    u_grid = np.column_stack([m.ravel() for m in np.meshgrid(*u_axes, indexing="ij")])
    w_grid = np.column_stack([m.ravel() for m in np.meshgrid(*w_axes, indexing="ij")])

    labels = spec.X0.contains_many(centers)
    base_next = centers @ sys.A.T

    def cell_index(pts: np.ndarray) -> np.ndarray:
        idx = np.floor((pts - lows) / cell).astype(int)
        np.clip(idx, 0, grid_resolution - 1, out=idx)
        flat = idx[:, 0]
        for d in range(1, n):
            flat = flat * grid_resolution + idx[:, d]
        return flat

    shifts = [
        [cell_index(base_next + sys.B @ u + sys.E @ w) for w in w_grid]
        for u in u_grid
    ]
    it = 0
    for it in range(1, K + 1):
        forced = np.ones(centers.shape[0], dtype=bool)
        for per_u in shifts:
            reach = np.zeros(centers.shape[0], dtype=bool)
            for idx in per_u:
                reach |= labels[idx]
            forced &= reach
        new_labels = labels | forced
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return DpGrid(labels.reshape([grid_resolution] * n), axes, it)
