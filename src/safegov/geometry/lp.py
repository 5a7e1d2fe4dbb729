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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Feasibility tolerance shared across the geometry layer.
FEAS_TOL = 1e-7

# Internal pivot tolerances.
_PIVOT_TOL = 1e-9
_RC_TOL = 1e-9
_CHEBYSHEV_RADIUS_CAP = 1e9

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


def _phase1(A: np.ndarray, b: np.ndarray) -> tuple | None:
    """Phase 1 of lp_solve for {x : A x <= b}, which depends on (A, b) alone.

    Returns None when the set is infeasible.  Otherwise returns the
    tableau and basis that phase 2 starts from: artificial columns gone,
    leftover artificials driven out or their rows dropped.  The tableau
    and basis are None when no row is left after the zero rows, whose
    offsets alone decide them.
    """
    n = A.shape[1]
    # A zero row is decided by its offset alone.  Left in, row scaling
    # would blow its offset up to ~1e12 and swamp the phase-1 test.
    norms = np.linalg.norm(A, axis=1)
    zero = norms < 1e-12
    if zero.any():
        if (b[zero] < -FEAS_TOL).any():
            return None
        A, b, norms = A[~zero], b[~zero], norms[~zero]
    m = A.shape[0]
    if m == 0:
        return None, None

    # Row scaling for conditioning; keeps the feasible set unchanged.
    As = A / norms[:, None]
    bs = b / norms

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
    if -T[-1, -1] > FEAS_TOL * 10:
        return None
    ncols2 = 2 * n + m  # x+, x-, slacks
    T = np.concatenate([T[:, :ncols2], T[:, -1:]], axis=1)

    # Drive leftover artificials out of the basis or drop redundant rows.
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
    "unbounded".  On "optimal" the returned point satisfies the
    constraints within FEAS_TOL, and no reduced cost of the row-scaled
    tableau is below -_RC_TOL (1e-9).
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

    state = _phase1(A, b)
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
    resid = A @ x - b
    viol = float(resid.max(initial=0.0))
    if viol > FEAS_TOL * max(1.0, float(np.abs(b).max(initial=1.0))) * 10:
        raise LpError(f"simplex returned infeasible point (violation {viol:.3e})")
    return LpResult(OPTIMAL, x, float(c @ x))


def chebyshev_center(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray | None, float]:
    """Largest inscribed ball of {x : A x <= b}.

    Returns (center, radius); (None, -1.0) when the set is empty.  The
    radius is capped so unbounded sets still yield a finite answer.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    m, n = A.shape
    norms = np.linalg.norm(A, axis=1)
    Ac = np.zeros((m + 2, n + 1))
    bc = np.zeros(m + 2)
    Ac[:m, :n] = A
    Ac[:m, n] = norms
    bc[:m] = b
    Ac[m, n] = -1.0  # r >= 0
    Ac[m + 1, n] = 1.0  # r <= cap
    bc[m + 1] = _CHEBYSHEV_RADIUS_CAP
    cvec = np.zeros(n + 1)
    cvec[n] = -1.0
    res = lp_solve(cvec, Ac, bc)
    if res.status != OPTIMAL:
        return None, -1.0
    return res.x[:n], float(res.x[n])
