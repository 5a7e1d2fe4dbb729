"""Dense two-phase simplex for small inequality-form linear programs.

Solves  min c'x  s.t.  A x <= b  with x free, via the classic split
x = x+ - x- plus slacks and per-row artificials.  Problem sizes in this
package are tiny (tens of rows), so a dense tableau with Dantzig pricing
and a Bland's-rule fallback for anti-cycling is both simple and robust.

Most of the time of such small solves goes to the interpreter, not to
arithmetic, so the code keeps the numpy calls per LP few:

- each objective row is priced out in one ``np.subtract.reduce`` over the
  tableau rows, which subtracts them one at a time in row order, exactly
  as a loop would;
- the artificial columns are dropped once phase 1 ends.  A pivot updates
  every column on its own, so the other columns keep their values bit for
  bit, and phase 2 never prices an artificial column;
- phase 1 (zero rows, row scaling, flips, the artificial simplex, the
  drive-out and the row drop) depends on (A, b) alone, never on c, and
  runs in ``_phase1``; ``lp_solve`` prices c out over its end state.

Neither verdict is taken on trust.  "infeasible" needs a Farkas
certificate read off the final phase-1 tableau (``_certified``): the
reduced costs of the slack columns are multipliers y >= 0 on the unit
rows with y'A ~ 0 and y'b below the phase-1 threshold -10 FEAS_TOL.  A
positive phase-1 objective without one may be rounding alone, and raises
LpError.  An "optimal" point must meet every row within 10 FEAS_TOL of
that row's own scale, the largest of |a_i|, |b_i| and |a_i| |x|, capped at
max(1, max |b|) (``_worst_miss``).

``chebyshev_center`` puts no cap on the radius: a large cap offset would
start the artificial sum near the cap and leave about 1e-6 of rounding in
the phase-1 objective of a feasible set.  A set that holds balls of any
radius makes its LP unbounded, and its radius is inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Feasibility tolerance shared across the geometry layer.
FEAS_TOL = 1e-7

# Internal pivot tolerances.
_PIVOT_TOL = 1e-9
_RC_TOL = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpError(RuntimeError):
    """Simplex safeguards exhausted (cycling / numerical breakdown)."""


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None = None
    value: float | None = None


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    # One rank-1 update.  Rows with a zero factor subtract exact zeros, so
    # the values equal those of a row-by-row elimination.
    T[row] /= T[row, col]
    f = T[:, col].copy()
    f[row] = 0.0
    T -= f[:, None] * T[row]


def _price_out(obj: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """obj - rows[0] - rows[1] - ..., subtracted one row at a time."""
    return np.subtract.reduce(np.vstack([obj, rows]), axis=0)


def _run_simplex(T: np.ndarray, basis: np.ndarray, ncols: int) -> str:
    """Drive the objective row of tableau T to optimality in place."""
    m = T.shape[0] - 1
    bland_after = 50 * (m + ncols) + 200
    hard_cap = 200 * (m + ncols) + 2000
    it = 0
    while True:
        it += 1
        if it > hard_cap:
            raise LpError("simplex iteration cap exceeded")
        rc = T[-1, :ncols]
        if it <= bland_after:
            col = int(rc.argmin())
            if rc[col] >= -_RC_TOL:
                return OPTIMAL
        else:
            # Bland's rule: smallest index with negative reduced cost.
            neg = (rc < -_RC_TOL).nonzero()[0]
            if neg.size == 0:
                return OPTIMAL
            col = int(neg[0])
        a = T[:m, col]
        pos = (a > _PIVOT_TOL).nonzero()[0]
        if pos.size == 0:
            return UNBOUNDED
        ratios = T[pos, -1] / a[pos]
        best = ratios.min()
        cand = pos[ratios <= best + 1e-12]
        # Tie-break on lowest basis index, which also de-cycles Bland steps.
        row = int(cand[basis[cand].argmin()])
        _pivot(T, row, col)
        basis[row] = col


def _phase1(A: np.ndarray, b: np.ndarray, norms: np.ndarray) -> tuple | None:
    """Phase 1 of lp_solve for {x : A x <= b}, which depends on (A, b) alone;
    norms holds the row norms of A.

    Returns None when the set is infeasible: a zero row's offset is
    negative, or the artificial simplex ends with a certified positive
    objective (_certified).  Raises LpError when it ends positive with no
    certificate.
    Otherwise returns the tableau and basis that phase 2 starts from:
    artificial columns gone, leftover artificials driven out or their rows
    dropped.  The tableau and basis are None when no row is left after the
    zero rows, whose offsets alone decide them.
    """
    n = A.shape[1]
    # A zero row is decided by its offset alone.  Left in, row scaling
    # would blow its offset up to ~1e12 and swamp the phase-1 test.
    zero = norms < 1e-12
    if zero.any():
        if (b[zero] < -FEAS_TOL).any():
            return None
        A, b, norms = A[~zero], b[~zero], norms[~zero]
    if A.shape[0] == 0:
        return None, None

    # Row scaling for conditioning; keeps the feasible set unchanged.
    As = A / norms[:, None]
    bs = b / norms
    T, basis = _artificial_simplex(As, bs)
    if -T[-1, -1] > FEAS_TOL * 10:
        if _certified(T, As, bs):
            return None
        raise LpError(f"phase 1 ended at {-T[-1, -1]:.3e} with no infeasibility certificate")
    return _drive_out(T, basis, n)


def _artificial_simplex(As: np.ndarray, bs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The phase-1 simplex over unit rows (As, bs): the final tableau, its
    artificial columns still in, and basis."""
    m, n = As.shape
    # Flip rows so the right-hand side is nonnegative, then add slacks and
    # one artificial per row.  Columns: [x+ (n) | x- (n) | s (m) | a (m)].
    flip = bs < 0.0
    As = np.where(flip[:, None], -As, As)
    bs = np.where(flip, -bs, bs)
    sgn = np.where(flip, -1.0, 1.0)

    ncols = 2 * n + 2 * m
    T = np.zeros((m + 1, ncols + 1))
    T[:m, :n] = As
    T[:m, n:2 * n] = -As
    r = np.arange(m)
    T[r, 2 * n + r] = sgn
    T[r, 2 * n + m + r] = 1.0
    T[:m, -1] = bs
    basis = 2 * n + m + r

    # Minimize the sum of artificials.
    T[-1, 2 * n + m:ncols] = 1.0
    T[-1] = _price_out(T[-1], T[:m])
    status = _run_simplex(T, basis, ncols)
    if status != OPTIMAL:  # pragma: no cover - phase 1 is always bounded
        raise LpError("phase-1 simplex did not terminate optimal")
    return T, basis


def _certified(T: np.ndarray, As: np.ndarray, bs: np.ndarray) -> bool:
    """Whether the final phase-1 tableau T over unit rows (As, bs) holds a
    Farkas certificate of infeasibility.

    Row i reads sgn_i (As_i x + s_i) + a_i = sgn_i bs_i, so with simplex
    multipliers w the reduced cost of slack s_i is y_i = -sgn_i w_i, and
    optimality (reduced costs >= 0 on x+, x- and s) makes y >= 0 and
    y'As = 0; the phase-1 objective is -y'bs.  Recomputed from the rows,
    y (negative entries, within the pricing tolerance, set to 0) must
    satisfy |y'As| <= _RC_TOL |y| and y'bs < -10 FEAS_TOL, the threshold
    phase 1 tests its objective -y'bs against, so a separation phase 1
    sees is certified at any offset scale.  Then no x meets every
    row: the y-weighted sum of the rows would give y'As x <= y'bs < 0, so
    such an x lies farther than 10 FEAS_TOL / |y'As| >= 1e3 / |y| from the
    origin.
    """
    m, n = As.shape
    y = np.maximum(T[-1, 2 * n:2 * n + m], 0.0)
    return bool(np.linalg.norm(y @ As) <= _RC_TOL * np.linalg.norm(y) and y @ bs < -FEAS_TOL * 10)


def tightest_rows(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Indices of the rows of (A, b) that deduplication keeps, in order of
    the normal, rounded to a 1e-9 grid, then of the offset: the first, so
    the tightest, of each run of equal rounded normals."""
    key = np.round(A / 1e-9) * 1e-9
    order = np.lexsort(np.column_stack([key, b]).T[::-1])
    key = key[order]
    first = np.ones(len(b), dtype=bool)
    first[1:] = (key[1:] != key[:-1]).any(axis=1)
    return order[first]


def _drive_out(T: np.ndarray, basis: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The phase-1 end state phase 2 starts from: the artificial columns of
    T dropped, leftover artificials driven out of the basis or, when their
    row has no other nonzero, their rows dropped."""
    m = basis.size
    ncols2 = 2 * n + m  # x+, x-, slacks
    T = np.concatenate([T[:, :ncols2], T[:, -1:]], axis=1)
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= ncols2:
            cols = (np.abs(T[i, :ncols2]) > 1e-8).nonzero()[0]
            if cols.size:
                _pivot(T, i, int(cols[0]))
                basis[i] = int(cols[0])
            else:
                keep[i] = False
    if not keep.all():
        rows = np.concatenate([keep.nonzero()[0], [m]])
        T = T[rows]
        basis = basis[keep]
    return T, basis


def lp_solve(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> LpResult:
    """Minimize c'x subject to A x <= b (x free).

    Returns an LpResult whose status is "optimal", "infeasible" or
    "unbounded".  On "optimal" the returned point meets every row within
    10 FEAS_TOL of the row's scale (_worst_miss), and no reduced cost of
    the row-scaled tableau is below -_RC_TOL (1e-9).  "infeasible" comes
    from a zero row with a negative offset or a Farkas certificate.
    LpError is raised when neither verdict can be checked.
    """
    c = np.asarray(c, dtype=float).ravel()
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    n = c.size
    if A.size == 0:
        A = A.reshape(0, n)
    if A.shape[1] != n or b.size != A.shape[0]:
        raise ValueError("lp_solve: inconsistent shapes")
    if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("lp_solve: non-finite input")

    norms = np.linalg.norm(A, axis=1)
    state = _phase1(A, b, norms)
    if state is None:
        return LpResult(INFEASIBLE)
    T, basis = state
    if T is None:
        if np.all(np.abs(c) <= _RC_TOL):
            return LpResult(OPTIMAL, np.zeros(n), 0.0)
        return LpResult(UNBOUNDED)
    m = basis.size

    # Phase 2: real objective over [x+, x-, s].  Basis columns are exact
    # unit columns, so pricing out row i subtracts obj[basis[i]] times it;
    # rows with a zero factor are skipped, as a loop would skip them.
    obj = np.zeros(T.shape[1])
    obj[:n] = c
    obj[n:2 * n] = -c
    f = obj[basis]
    nz = f != 0.0
    T[-1] = _price_out(obj, f[nz, None] * T[:m][nz])
    status = _run_simplex(T, basis, T.shape[1] - 1)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED)

    z = np.zeros(T.shape[1] - 1)
    z[basis] = T[:m, -1]
    x = z[:n] - z[n:2 * n]
    worst = _worst_miss(A, b, norms, x)
    if worst > FEAS_TOL * 10:
        raise LpError(f"simplex returned infeasible point (violation {worst:.3e} of a row's scale)")
    return LpResult(OPTIMAL, x, float(c @ x))


def _worst_miss(A: np.ndarray, b: np.ndarray, norms: np.ndarray, x: np.ndarray) -> float:
    """The largest miss A_i x - b_i of a row over its scale, 0 when x meets
    every row; norms holds the row norms of A.

    A row's scale is the largest of |a_i|, |b_i| and the terms |a_i| |x|
    it sums, capped at max(1, max |b|) so that a far point, |x| >> |b|, is
    held to the offsets' scale; a zero row's offset was checked in phase
    1, at scale 1.
    """
    scale = np.maximum(np.maximum(norms, np.abs(b)), np.abs(A) @ np.abs(x))
    scale = np.minimum(scale, max(1.0, float(np.abs(b).max(initial=1.0))))
    scale[norms < 1e-12] = 1.0
    return float(((A @ x - b) / scale).max(initial=0.0))


def chebyshev_center(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray | None, float]:
    """Largest inscribed ball of {x : A x <= b}.

    Returns (center, radius): (None, -1.0) when the set is empty, which
    lp_solve certifies, and (None, inf) when it holds balls of any radius
    (LpError when the LP cannot be settled).  The LP maximises r over
    A x + |a_i| r <= b and r >= 0, with no cap on r.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    m, n = A.shape
    Ac = np.zeros((m + 1, n + 1))
    Ac[:m, :n] = A
    Ac[:m, n] = np.linalg.norm(A, axis=1)
    Ac[m, n] = -1.0  # r >= 0
    cvec = np.zeros(n + 1)
    cvec[n] = -1.0
    res = lp_solve(cvec, Ac, np.append(b, 0.0))
    if res.status == UNBOUNDED:
        return None, np.inf
    if res.status != OPTIMAL:
        return None, -1.0
    return res.x[:n], float(res.x[n])
