"""merge_convex_members as it stood before it kept an open-pair matrix:
after each merge the pair scan restarted from (0, 1), pairs already found
not mergeable were skipped through a set keyed on a serial number per
member, each pair asked ``separated`` both ways round before its hull
volume, and a pair whose intersection was formed settled that
intersection's emptiness by a vertex of one member inside the other or by
an LP before taking its vertices.

Kept only as the reference of the bitwise differential test in
test_polytope.py: safegov.geometry.merge_convex_members must return the
same member bytes, in the same order.  It reads nothing from
safegov.geometry.polytope but its volume tolerance, the vertex and volume
helpers and convex_hull.
"""

import itertools

import numpy as np

from safegov.geometry.lp import FEAS_TOL
from safegov.geometry.polytope import (
    _MERGE_VOLUME_TOL, GeometryError, PolyUnion, _point_cloud_volume, _vertices_or_none, convex_hull,
)


def separated(P, Q) -> bool:
    """True when some row of P has every vertex of Q strictly outside it,
    by more than FEAS_TOL times the row norm, so P and Q do not meet.  An
    unbounded Q, or one whose vertex enumeration fails, is never reported
    separated."""
    V = _vertices_or_none(Q)
    if V is None:
        return False
    margin = FEAS_TOL * np.linalg.norm(P.A, axis=1)
    return bool((V @ P.A.T - P.b > margin).all(axis=0).any())


def vertex_inside(V: np.ndarray, P) -> bool:
    """Whether some row of V satisfies every row of P exactly."""
    return bool(np.any(np.all(V @ P.A.T <= P.b, axis=1)))


def merge_convex_members(U: PolyUnion) -> PolyUnion:
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
                if separated(members[i], members[j]) or separated(members[j], members[i]):
                    apart.add(pair)
                    continue
                vi, vj = members[i].vertices(), members[j].vertices()
                vol_hull = _point_cloud_volume(np.vstack([vi, vj]))
                tol = max(_MERGE_VOLUME_TOL, 1e-9 * vol_hull)
                if vol_hull > vols[i] + vols[j] + tol:
                    apart.add(pair)
                    continue
                vol_int = 0.0
                inter = members[i].intersect(members[j])
                if vertex_inside(vi, members[j]) or vertex_inside(vj, members[i]):
                    inter._empty = False
                if not inter.is_empty():
                    try:
                        vol_int = _point_cloud_volume(inter.vertices())
                    except GeometryError:
                        vol_int = 0.0
                if vol_hull <= vols[i] + vols[j] - vol_int + tol:
                    merged = convex_hull(np.vstack([vi, vj])).remove_redundancy()
                    keep = [k for k in range(n) if k not in (i, j)]
                    members = [members[k] for k in keep] + [merged]
                    vols = [vols[k] for k in keep] + [vol_hull]
                    serials = [serials[k] for k in keep] + [next(fresh)]
                    changed = True
                    break
                apart.add(pair)
    return PolyUnion(members, U.dim)
