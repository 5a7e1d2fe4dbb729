"""Online action governor: minimally modify a nominal action so the next
state robustly avoids the unrecoverable set.

The one-step constraint "A x + B u stays outside every member of the
inflated unsafe union" is a disjunction per member: at least one face of
the member must be violated.  Choosing one face per member makes this a
small mixed-integer QP.  The action is scalar, as in every system here
(build_miqp rejects more inputs), so the QP is the S-weighted projection
of the nominal action onto U less one open forbidden interval per member.
When the nominal action is not admissible, the optimum is an end of one of
these intervals or of U: a break point b_i / a_i of a row of U or of a
face.  The admissible break point with the least objective is the optimum.

Everything govern() reads of an artifact is one _FaceRows, prepared once
per artifact by _prepared: the face rows G y <= g of the inflated members
stacked group by group, the maps GA = G A and alpha = G B, and U.  The
face rows are also read group-major: slab r holds row r of every group,
padded where a group is shorter than the longest, so a group's largest
slack alpha_i u - beta_i is an elementwise max over the slabs.  The
offsets g are kept in that slab form, so one product GA x, one gather and
one subtraction give the slabs of beta = g - GA x with no per-call buffer
(_FaceRows.screen), and the nominal action's margins follow from them.

Most calls keep the nominal action, and nearly all of those are settled
before the screen, at a cost that does not grow with the rows, by the
artifact's cell table (_CellTable, prepared with the rows): a lookup over
the next nominal state, the point location of explicit MPC.  Its domain is
the box D that bounds A box (+) B U, widened by the margin and split into
at most _CELL_BUDGET equal cells.  A member clears a cell when it has a row
G_i y <= g_i whose least G_i y - g_i over the closed cell exceeds the
margin m_i = _CELL_MARGIN max(1, |D|) max(1, |G_i|): every next state in
the cell then lies strictly outside the member.  Each cell keeps its
candidate set, the members that do not clear it; a clear cell's set is
empty.  Take a nominal action u that passes U's rows as the screen tests
them, from a state x within the box's bounds whose next state A x + B u
falls in a cell.  When every member of the cell's set has a row with
GA_i x + alpha_i u > g_i + m_i, the screen admits u: the members outside
the set are cleared by the cell, those in it at the point.  The margin
dominates the rounding of the lookup, which may place a next state on a
cell's edge in its neighbour, that of GA_i x + alpha_i u and that of the
screen's slacks.  The table only accepts: any other call goes on to the
screen, so the table cannot change a governed action.

When the nominal action's margins pass at FEAS_TOL, govern() returns its
checked copy of the nominal action and builds no problem.  Otherwise
_FaceRows.problem builds one and hands it the rows, the offsets' slabs and
the margins the screen computed; build_miqp builds through the same path.
A problem built directly derives each of them on first use.  Either way a
problem holds them, and the evaluation of its break points, once (_once):
the break points in ascending objective order, with their U-row excesses
and their least group slack, which a solve only compares with its
tolerance.  A state or nominal action that
is not made of finite real numbers or has the wrong size raises
GovernorError before any of this; complex entries count as not real.

When no break point is admissible, govern() retries at a tenfold
tolerance, which only re-compares the kept margins, and then falls back to
the action in U with the least worst face violation, ties to the least
objective.  That fallback is a closed form over the break points of a
piecewise linear function.  Its data that depend on U and the face rows
alone are _FaceRows.closed_form, prepared once per artifact, and the worst
violations at the break points are read from the kept least slacks.  The
reason tag of GovernorResult counts the fallbacks; the governor logs only
one warning per artifact that is not a fixpoint of the recursion.
"""

from __future__ import annotations

import array
import functools
import itertools
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .geometry import FEAS_TOL
from .geometry.lp import INFEASIBLE, lp_solve
from .safeset import LinearSystem, SafeSetArtifact

logger = logging.getLogger(__name__)

QP_OPTIMAL = "optimal"
QP_INFEASIBLE = "infeasible"
QP_FAILED = "failed"

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_FALLBACK = "fallback"

_FLOAT = np.dtype(float)


class GovernorError(RuntimeError):
    pass


# The cell table of an artifact has at most this many cells, and its rows
# clear a cell by this times max(1, |D|) max(1, |a|).
_CELL_BUDGET = 2 ** 15
_CELL_MARGIN = 1e-8

# Worst violations within this of the least tie in the fallback; it absorbs
# the rounding of beta_i - alpha_i u at a break point.
VIOLATION_TIE = 1e-12


@dataclass(frozen=True)
class GovernorConfig:
    """Weight matrix of the governor's objective (u - u_nom)' S (u - u_nom):
    a finite, positive 1x1 matrix, as the action is scalar."""

    S: np.ndarray

    def __post_init__(self):
        S = np.atleast_2d(np.asarray(self.S, dtype=float))
        if S.shape != (1, 1) or not (np.isfinite(S[0, 0]) and S[0, 0] > 0.0):
            raise GovernorError(f"S must be a finite, positive 1x1 matrix, not {S.tolist()}")
        S.setflags(write=False)
        object.__setattr__(self, "S", S)


@dataclass
class QPResult:
    status: str
    u: np.ndarray | None = None
    value: float | None = None


def qp_solve(S, u_nom, G, h, eps_feas: float = FEAS_TOL) -> QPResult:
    """Minimize (u - u_nom)' S (u - u_nom) subject to G u <= h.

    Exact active-set search: every KKT candidate (working sets up to size
    m) is solved directly; the first primal-feasible candidate with
    nonnegative multipliers is the unique global minimizer.
    """
    S = np.atleast_2d(np.asarray(S, dtype=float))
    t = np.atleast_1d(np.asarray(u_nom, dtype=float))
    m = t.size
    G = np.asarray(G, dtype=float).reshape(-1, m)
    h = np.asarray(h, dtype=float).ravel()

    scale = np.maximum(1.0, np.linalg.norm(G, axis=1)) if G.size else np.zeros(0)

    def feasible(u):
        return G.size == 0 or np.all(G @ u - h <= eps_feas * scale)

    # zero rows constrain nothing or everything
    if G.size:
        zero = np.linalg.norm(G, axis=1) < 1e-12
        if np.any(zero) and np.any(h[zero] < -eps_feas):
            return QPResult(QP_INFEASIBLE)
        G, h, scale = G[~zero], h[~zero], scale[~zero]

    if feasible(t):
        return QPResult(QP_OPTIMAL, t.copy(), 0.0)

    r = G.shape[0]
    best: tuple[float, np.ndarray] | None = None
    for size in range(1, m + 1):
        for combo in itertools.combinations(range(r), size):
            GA = G[list(combo)]
            if np.linalg.matrix_rank(GA, tol=1e-10) < size:
                continue
            K = np.block([[2.0 * S, GA.T], [GA, np.zeros((size, size))]])
            rhs = np.concatenate([2.0 * S @ t, h[list(combo)]])
            try:
                sol = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError:
                continue
            u, lam = sol[:m], sol[m:]
            if np.any(lam < -1e-9):
                continue
            if not feasible(u):
                continue
            val = float((u - t) @ S @ (u - t))
            if best is None or val < best[0] - 1e-15:
                best = (val, u)
        if best is not None:
            break
    if best is not None:
        return QPResult(QP_OPTIMAL, best[1], best[0])

    # No KKT point: either infeasible or numerically degenerate.
    if lp_solve(np.zeros(m), G, h).status == INFEASIBLE:
        return QPResult(QP_INFEASIBLE)
    return QPResult(QP_FAILED)


class _once:
    """A method read as an attribute: computed at the first read and kept
    in the instance's __dict__, where an assignment may also put it
    beforehand.  functools.cached_property does the same, but takes a lock
    on each first read under Python 3.11."""

    def __init__(self, compute):
        self.compute, self.name, self.__doc__ = compute, compute.__name__, compute.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


@dataclass
class MIQPProblem:
    """min S (u - u_nom)^2 over U_A u <= U_b for a scalar action u, with one
    disjunction per group: some row i of the group must satisfy
    alpha_i u >= beta_i.  S is (1, 1), u_nom (1,) and U_A (U rows, 1); a
    problem with more inputs raises GovernorError at its first solve.

    The rows of all groups are stacked.  Group j owns rows
    starts[j]:starts[j + 1] of alpha (rows, 1) and beta (rows,); starts is
    an int array with one entry more than there are groups, starting at 0
    and ending at the row count.  A group with no rows can never be met.

    rows, beta_slabs, margins and evaluation are derived from these
    arrays, each once per problem, so the arrays are not changed after the
    first solve.  A problem that build_miqp or govern() builds is handed
    the first three (_FaceRows.problem); one built directly derives them
    on first use.
    """

    S: np.ndarray
    u_nom: np.ndarray
    U_A: np.ndarray
    U_b: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    starts: np.ndarray

    @_once
    def rows(self) -> _FaceRows:
        """What a solve reads of U and the face rows alone: those of a
        problem with no state, whose offsets g are beta."""
        return _FaceRows(self.beta, np.zeros((self.beta.size, 0)), self.alpha, self.starts, self.U_A, self.U_b)

    @_once
    def beta_slabs(self) -> np.ndarray:
        """beta laid out as the slabs of rows, (R, groups)."""
        return np.append(self.beta, np.inf)[self.rows.slabs]

    @_once
    def margins(self) -> tuple[list[float], float]:
        """The nominal action's margins (_FaceRows.margins)."""
        return self.rows.margins(self.u_nom.item(), self.beta_slabs)

    @_once
    def evaluation(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The break points in a stable ascending objective order (k,),
        their U-row excesses (k, U rows) and their least slacks (k,), from
        _evaluate."""
        return _evaluate(self)

    @property
    def n_groups(self) -> int:
        return len(self.starts) - 1

    def least_slack(self, u: np.ndarray) -> np.ndarray:
        """Least group max slack alpha_i u - beta_i of each action of u (k,):
        it meets some row of every group within eps exactly when this is
        >= -eps; inf with no groups.  The slacks are formed on the slabs, as
        an (R, groups, k) array whose group maxima are an elementwise max
        along axis 0."""
        slack = self.rows.alpha_slabs[..., None] * u - self.beta_slabs[..., None]
        return slack.max(axis=0).min(axis=0, initial=np.inf)


@dataclass
class GovernorResult:
    """Outcome of one governor solve.

    nodes_explored is 0 when the nominal action is admissible as it is;
    otherwise it counts the break points tried in ascending objective order,
    up to and including the one returned (all of them when none is
    admissible).  reason says why a "fallback" fell back: "relaxed_tol"
    when the retry at a tenfold tolerance found the action, "min_violation"
    when the least-violation action is used; it is "" otherwise.  The
    reason is the only record of a fallback: govern() logs none.
    """

    u_safe: np.ndarray | None
    modified: bool
    objective: float
    nodes_explored: int
    solve_time: float
    status: str
    reason: str = ""

    def to_dict(self) -> dict:
        return {
            "u_safe": None if self.u_safe is None else [float(v) for v in self.u_safe],
            "modified": self.modified,
            "objective": float(self.objective),
            "nodes_explored": int(self.nodes_explored),
            "solve_time": float(self.solve_time),
            "status": self.status,
            "reason": self.reason,
        }


class _FaceRows:
    """What govern() reads of an artifact, and a solve of U and the face
    rows alone: prepared once per artifact by _prepared, or derived by a
    problem built directly.

    The face rows G y <= g (rows,) are stacked group by group as starts
    says (as in MIQPProblem), with GA = G A (rows, n) and alpha = G B
    (rows, 1), so that a state x gives the offsets beta = g - GA x.  With
    no rows at all GA gets one zero row for the padding below to read;
    g - GA x is then still empty, as (0,) and (1,) broadcast to (0,).

    slabs is an (R, groups) index into the rows, R the size of the largest
    group and at least 1: slab r holds row r of every group.  A shorter
    group is padded with its first row, which leaves its max unchanged and
    its slack finite wherever the row's is; a group with no rows is padded
    with the index one past the last row, which stands for a row
    alpha = 0, beta = +inf, whose slack is -inf.  alpha_slabs and g_slabs
    hold alpha and g so laid out, (R, groups), and slab_rows is the slab
    index with the padding entry clipped to a real row, so that
    g_slabs - (GA x)[slab_rows] are the slabs of beta, +inf on the
    padding.  u_rows holds U's rows (a_i, b_i, max(1, |a_i|)) as Python
    floats, and keep and a_keep the rows of [U_A; alpha] with a break point
    and their coefficients.  cells is the artifact's _CellTable, which
    _prepared sets; the rows of a problem built directly have none.
    """

    def __init__(self, g: np.ndarray, GA: np.ndarray, alpha: np.ndarray, starts: np.ndarray, U_A: np.ndarray,
                 U_b: np.ndarray):
        if U_A.shape[1] != 1:
            raise GovernorError(f"the governor needs a scalar action, not {U_A.shape[1]} inputs")
        self.g, self.alpha, self.starts, self.U_A, self.U_b = g, alpha, starts, U_A, U_b
        self.GA = GA if g.size else np.zeros((1, GA.shape[1]))
        self.u_scale = np.maximum(1.0, np.linalg.norm(U_A, axis=1))
        sizes = np.diff(starts)
        self.has_empty_group = bool(np.any(sizes == 0))
        depth = np.arange(max(1, sizes.max(initial=0)))[:, None]
        first = np.where(sizes > 0, starts[:-1], alpha.shape[0])
        self.slabs = np.where(depth < sizes, starts[:-1] + depth, first)
        self.alpha_slabs = np.append(alpha[:, 0], 0.0)[self.slabs]
        self.g_slabs = np.append(g, np.inf)[self.slabs]
        self.slab_rows = np.minimum(self.slabs, self.GA.shape[0] - 1)
        self.u_rows = list(zip(U_A[:, 0].tolist(), U_b.tolist(), self.u_scale.tolist()))
        a = np.concatenate([U_A[:, 0], alpha[:, 0]])
        self.keep = np.abs(a) > 1e-12
        self.a_keep = a[self.keep]
        self.cells: _CellTable | None = None

    def screen(self, x: np.ndarray, u_nom: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[list[float], float]]:
        """GA x at the state x, the slabs of beta there and the margins of
        the nominal action u_nom (1,)."""
        GAx = self.GA.dot(x)        # the product GA @ x, with less dispatch
        beta_slabs = self.g_slabs - GAx[self.slab_rows]
        return GAx, beta_slabs, self.margins(u_nom.item(), beta_slabs)

    def problem(self, u_nom: np.ndarray, S: np.ndarray, GAx: np.ndarray, beta_slabs: np.ndarray,
                margins: tuple[list[float], float]) -> MIQPProblem:
        """The problem at the state whose screen gave GAx, beta_slabs and
        margins, handed those and these rows: the one path by which
        build_miqp and govern() build a problem."""
        prob = MIQPProblem(S, u_nom, self.U_A, self.U_b, self.alpha, self.g - GAx, self.starts)
        prob.rows, prob.beta_slabs, prob.margins = self, beta_slabs, margins
        return prob

    def margins(self, t: float, beta_slabs: np.ndarray) -> tuple[list[float], float]:
        """The margins of the nominal action t: its U-row excesses
        a_i t - b_i and its least group max slack over the offsets' slabs
        (R, groups), inf with no groups."""
        slack = self.alpha_slabs * t
        slack -= beta_slabs
        group_max = np.maximum.reduce(slack, axis=0)
        return [a * t - b for a, b, _ in self.u_rows], np.minimum.reduce(group_max, initial=np.inf)

    def admits(self, margins: tuple[list[float], float], eps_feas: float) -> bool:
        """Whether the margins lie in U and meet some row of every group,
        each within eps_feas (U's rows scaled by max(1, |a_i|))."""
        u_excess, least_slack = margins
        if not least_slack >= -eps_feas:
            return False
        for e, (_, _, s) in zip(u_excess, self.u_rows):
            if not e <= eps_feas * s:
                return False
        return True

    @_once
    def u_bounds(self) -> tuple[float, float]:
        """U's bounds lo and hi, -inf and inf where U has none."""
        a_u, b_u = self.U_A[:, 0], self.U_b
        lo = np.max(b_u[a_u < 0] / a_u[a_u < 0], initial=-np.inf)
        hi = np.min(b_u[a_u > 0] / a_u[a_u > 0], initial=np.inf)
        return lo, hi

    @_once
    def closed_form(self) -> tuple:
        """U's bounds lo and hi, and the crossings _min_violation_action
        tests, of the lines beta_i - alpha_i u of rows I with those of rows
        K, as an (I, K) matrix u = (beta_I - beta_K) / den whose entries
        pair marks: (lo, hi, I, K, alpha_I, edge, den, pair).

        I lists the falling rows (alpha_i > 0), then the rising ones
        (alpha_i < -1e-12); K lists the rising and flat rows.  A falling row
        pairs with every row of K and a rising one with the flat ones, so the
        marked entries in row-major order are the falling-by-rising-or-flat
        crossings, then the rising-by-flat ones.  den is alpha_I - alpha_K,
        1 where not marked.  Over U a falling line is lowest at hi and a
        rising one at lo; edge holds that bound per row of I.
        """
        lo, hi = self.u_bounds
        alpha = self.alpha[:, 0]
        fall, rise = alpha > 1e-12, alpha < -1e-12
        flat = ~(fall | rise)
        I = np.concatenate([np.flatnonzero(fall), np.flatnonzero(rise)])
        K = np.flatnonzero(~fall)
        pair = fall[I][:, None] | flat[K]
        den = np.where(pair, alpha[I][:, None] - alpha[K], 1.0)
        return lo, hi, I, K, alpha[I], np.where(fall[I], hi, lo), den, pair


@functools.lru_cache(maxsize=None)
def _row_test(n: int):
    """clears(rows, x_1, ..., x_n, t): whether some row (a_1, ..., a_n, b, c)
    of rows has a'x + b t + c > 0.  It is compiled once per state count n,
    from source built from n alone, with the sum written out in the order
    sum() over the row would take: sum(map(operator.mul, row, point))
    costs about three times as much per row."""
    xs, cs = ", ".join(f"x{i}" for i in range(n)), ", ".join(f"a{i}" for i in range(n))
    total = " + ".join([f"a{i} * x{i}" for i in range(n)] + ["b * t", "c"])
    scope = {}
    exec(f"def clears(rows, {xs}, t):\n"
         f"    for {cs}, b, c in rows:\n"
         f"        if {total} > 0.0:\n"
         f"            return True\n"
         f"    return False\n", scope)
    return scope["clears"]


class _CellTable:
    """The cells of the next nominal states A x + B u, x in the box with
    vertices V and u in U, each with its candidate set among the inflated
    members whose face rows G y <= g have the _FaceRows rows: govern()'s
    certificate that the nominal action is admissible (see the module
    docstring).

    D is the box that bounds A box (+) B U, widened on every side by
    margin = _CELL_MARGIN max(1, |D|); lo is its lower corner and h its
    cell widths.  D is split into N equal cells per axis, the most with
    N^n <= _CELL_BUDGET.  A member clears a cell when it has a row (a, g)
    whose least a'y - g over the closed cell exceeds margin max(1, |a|);
    a member with no rows clears no cell.  A cell's candidate set lists,
    in ascending order, the members that do not clear it, and a clear cell
    is one whose set is empty.  The sets are interned: sets holds each
    distinct set once as a tuple of member indices, and codes, in C order,
    the index in sets of each cell's set.  members holds each member's
    rows as Python floats, (GA_i, alpha_i, -(g_i + margin max(1, |G_i|))),
    so that a row clears the point x, u when GA_i x + alpha_i u plus its
    last entry is positive, which clears (from _row_test) tests.  They
    are kept in the order settles tries them: the rows that clear the
    centres of more of the cells whose set holds the member come first.

    A lookup takes only states within the box's bounds, so that the
    rounding of A x + B u, and that of GA_i x + alpha_i u, stays far
    below the margin.  A cell's index along axis i is the integer part of
    (A_i x + B_i u - lo_i) / h_i.  axes holds, per axis i, A_i / h_i as
    (j, entry) pairs of its nonzero entries, B_i / h_i, lo_i / h_i and the
    box's bounds on state i, all Python floats.  u_rows holds U's rows as
    (a_i, b_i, FEAS_TOL max(1, |a_i|)), so that u passes them exactly when
    _FaceRows.admits passes U's rows at FEAS_TOL.
    """

    def __init__(self, rows: _FaceRows, G: np.ndarray, V: np.ndarray, A: np.ndarray, B: np.ndarray):
        n, g, starts = A.shape[0], rows.g, rows.starts
        N = round(_CELL_BUDGET ** (1.0 / n))
        N -= N ** n > _CELL_BUDGET
        y, Bu = V @ A.T, B[:, 0] * np.array(rows.u_bounds)[:, None]
        lo, hi = y.min(axis=0) + Bu.min(axis=0), y.max(axis=0) + Bu.max(axis=0)
        margin = _CELL_MARGIN * max(1.0, float(np.abs([lo, hi]).max()))
        lo, hi = lo - margin, hi + margin
        h = (hi - lo) / N
        # Along axis i, the least a_i y_i over each cell's closed interval is
        # at one of its ends: least[i] is (rows, N).  The least a'y over a
        # cell is the sum over the axes, formed one row at a time.
        ends = [G[:, i:i + 1] * (lo[i] + h[i] * np.arange(N + 1)) for i in range(n)]
        least = [np.minimum(e[:, :-1], e[:, 1:]).reshape((-1,) + (1,) * i + (N,) + (1,) * (n - 1 - i))
                 for i, e in enumerate(ends)]
        offset = -(g + margin * np.maximum(1.0, np.linalg.norm(G, axis=1)))
        shape = (N,) * n
        member, hit, total = np.empty(shape, bool), np.empty(shape, bool), np.empty(shape)
        # node[k] is cell k's set so far, as a node of a trie: node 0 is the
        # empty set and node m > 0 the set of node parent[m] with member
        # owner[m] added.  Cells with one set share every node on its path.
        node = np.zeros(N ** n, np.intp)
        parent, owner = [0], [-1]
        face = np.column_stack([rows.GA[:g.size], rows.alpha, offset]).tolist()
        self.members = []
        for j, (a, b) in enumerate(zip(starts[:-1].tolist(), starts[1:].tolist())):
            member[...] = False
            for r in range(a, b):
                rest = offset[r]
                for i in range(1, n):
                    rest = rest + least[i][r]
                np.add(least[0][r], rest, out=total)
                member |= np.greater(total, 0.0, out=hit)
            miss = np.flatnonzero(~member)
            order = range(a, b)
            if len(miss):
                old = node[miss]
                seen = np.zeros(len(parent), bool)
                seen[old] = True
                node[miss] = len(parent) - 1 + np.cumsum(seen)[old]
                up = np.flatnonzero(seen).tolist()
                parent += up
                owner += [j] * len(up)
            if len(miss) and b - a > 1:
                # The member's rows go in descending order of the number of
                # these cells (at most 256 of them, evenly spread) at whose
                # centre they have the largest slack.
                some = miss[::-(-len(miss) // 256)]
                centre = lo + (np.column_stack(np.unravel_index(some, shape)) + 0.5) * h
                first = (centre @ G[a:b].T + offset[a:b]).argmax(axis=1)
                order = a + np.argsort(-np.bincount(first, minlength=b - a), kind="stable")
            self.members.append(tuple(tuple(face[r]) for r in order))
        used = np.zeros(len(parent), bool)
        used[node] = True
        leaves = np.flatnonzero(used)
        self.sets = []
        for m in leaves.tolist():
            path = []
            while m:
                path.append(owner[m])
                m = parent[m]
            self.sets.append(tuple(path[::-1]))
        self.codes = array.array("I", (np.cumsum(used) - 1)[node].astype(np.uint32).tobytes())
        self.clears = _row_test(n)
        self.N, self.margin, self.lo, self.h = N, margin, lo, h
        x_lo, x_hi = V.min(axis=0).tolist(), V.max(axis=0).tolist()
        self.axes = [([(j, a) for j, a in enumerate((A[i] / h[i]).tolist()) if a != 0.0],
                      float(B[i, 0] / h[i]), float(lo[i] / h[i]), x_lo[i], x_hi[i]) for i in range(n)]
        self.u_rows = [(a, b, FEAS_TOL * s) for a, b, s in rows.u_rows]

    def cell(self, x: list[float], t: float) -> int:
        """The index of the cell of A x + B t, -1 outside D or when x lies
        outside the box."""
        N, k = self.N, 0
        for (row, b, lo, x_lo, x_hi), v in zip(self.axes, x):
            if not x_lo <= v <= x_hi:
                return -1
            z = b * t - lo
            for j, a in row:
                z += a * x[j]
            if not 0.0 <= z < N:
                return -1
            k = k * N + int(z)
        return k

    def settles(self, x: list[float], t: float) -> bool:
        """Whether the action t passes U's rows as admits tests them, A x + B t
        lies in a cell, and each member of the cell's candidate set has a
        row that clears x, t by the margin: then the screen admits t at x."""
        for a, b, s in self.u_rows:
            if not a * t - b <= s:
                return False
        k = self.cell(x, t)
        if k < 0:
            return False
        for j in self.sets[self.codes[k]]:
            if not self.clears(self.members[j], *x, t):
                return False
        return True


def _prepared(artifact: SafeSetArtifact, sys: LinearSystem) -> _FaceRows:
    """The _FaceRows of the artifact's inflated members under sys (cached),
    with their _CellTable as cells when U is bounded.

    The cache is kept while the system's A and B equal the ones it was
    built from, compared by identity first; after an equal but distinct
    system it holds that system's arrays, so its next call compares by
    identity.  The first call for an artifact that is not a fixpoint of
    the recursion logs a warning: its safe set need not be invariant, so
    govern() may have to fall back."""
    cache = getattr(artifact, "_governor_cache", None)
    if cache is not None:
        A, B, rows = cache
        if A is sys.A and B is sys.B:
            return rows
        if np.array_equal(A, sys.A) and np.array_equal(B, sys.B):
            artifact._governor_cache = sys.A, sys.B, rows
            return rows
    elif not artifact.fixpoint_reached:
        logger.warning("governing with an artifact that is not a fixpoint (k_used=%d): "
                       "its safe set need not be invariant", artifact.k_used)
    members = artifact.inflated_unsafe.members
    G = np.vstack([mbr.A for mbr in members]) if members else np.zeros((0, sys.n))
    g = np.concatenate([mbr.b for mbr in members]) if members else np.zeros(0)
    starts = np.cumsum([0] + [mbr.A.shape[0] for mbr in members])
    rows = _FaceRows(g, G @ sys.A, G @ sys.B, starts, artifact.spec.U.A, artifact.spec.U.b)
    if all(map(math.isfinite, rows.u_bounds)):
        rows.cells = _CellTable(rows, G, artifact.spec.box.vertices(), sys.A, sys.B)
    artifact._governor_cache = sys.A, sys.B, rows
    return rows


def _real(a: np.ndarray) -> np.ndarray:
    """a flattened, cast to float when it is not; TypeError or ValueError
    when numpy cannot read it as real numbers.  Complex entries are not
    real, even with a zero imaginary part: numpy's cast to float would drop
    it with only a warning."""
    if a.dtype is not _FLOAT:
        if a.dtype.kind == "c":
            raise TypeError("complex entries")
        a = a.astype(float)
    return a.ravel()


def _checked(x, u_nom, sys: LinearSystem) -> tuple[np.ndarray, np.ndarray]:
    """x as a float vector of sys.n entries and u_nom as a new float array
    of one entry, both finite.  GovernorError names the input that is not,
    or the system's input count when it is not one.  The action array is
    always a copy (np.array), so an action returned as it is never shares
    the caller's memory."""
    if sys.m != 1:
        raise GovernorError(f"the governor needs a scalar action, not {sys.m} inputs")
    try:
        x = _real(np.asarray(x))
    except (TypeError, ValueError) as exc:
        raise GovernorError(f"x must be real numbers, not {x!r} ({exc})") from None
    if x.size != sys.n:
        raise GovernorError(f"x has {x.size} entries; the system has {sys.n} states")
    try:
        u_nom = _real(np.array(u_nom))
    except (TypeError, ValueError) as exc:
        raise GovernorError(f"u_nom must be a real number, not {u_nom!r} ({exc})") from None
    if u_nom.size != 1:
        raise GovernorError(f"u_nom has {u_nom.size} entries; the action is scalar")
    if not all(map(math.isfinite, x.tolist())):
        raise GovernorError(f"x must be finite, not {x.tolist()}")
    if not math.isfinite(u_nom[0]):
        raise GovernorError(f"u_nom must be finite, not {u_nom.tolist()}")
    return x, u_nom


def build_miqp(x, u_nom, artifact: SafeSetArtifact, sys: LinearSystem, cfg: GovernorConfig) -> MIQPProblem:
    """Assemble the disjunctive program for state x and nominal action u_nom.

    Per inflated member j with rows (G_ij, g_ij), the next nominal state
    A x + B u must violate at least one row: G_ij (A x + B u) >= g_ij.
    The state term folds into the offsets, leaving rows on u alone:
    alpha = G B and beta = g - G A x.  The system must have one input, x
    sys.n finite entries and u_nom one finite entry (GovernorError).  The
    problem is built as govern() builds it.
    """
    x, u_nom = _checked(x, u_nom, sys)
    rows = _prepared(artifact, sys)
    return rows.problem(u_nom, cfg.S, *rows.screen(x, u_nom))


def solve_miqp(prob: MIQPProblem, eps_feas: float = FEAS_TOL) -> GovernorResult:
    """Exact solve over the break points.

    If u_nom is not admissible, the optimum is the S-projection of u_nom
    onto U cut by one chosen face per group.  That set is an interval, so
    the projection is one of its ends, a break point b_i / a_i of a row
    of [U_A; alpha] u = [U_b; beta].  A break point is admissible when it
    lies in U and meets some row of every group, each within eps_feas;
    every admissible break point is feasible for the disjunctive program,
    so the admissible one with the least objective is the optimum.  Ties
    go to the first in a stable sort by objective.  Deterministic for
    fixed inputs.

    The nominal action's margins and the evaluation of the break points
    are computed once per problem, so a later solve of the same problem
    at another eps_feas, such as govern()'s relaxed retry, only
    re-compares them with its tolerance.  It gives the result a solve from
    scratch would.
    """
    t0 = time.perf_counter()
    rows = prob.rows
    t = prob.u_nom

    # Fast path: nominal action already admissible and group-feasible.
    if rows.admits(prob.margins, eps_feas):
        return GovernorResult(t.copy(), False, 0.0, 0, time.perf_counter() - t0, STATUS_OPTIMAL)

    C, u_excess, least_slack = prob.evaluation
    ok = (u_excess <= eps_feas * rows.u_scale).all(axis=1) & (least_slack >= -eps_feas)
    if ok.any():
        k = int(np.argmax(ok))
        u = C[k:k + 1]
        obj = float((u - t) @ prob.S @ (u - t))
        modified = bool(np.linalg.norm(u - t) > eps_feas)
        return GovernorResult(u, modified, obj, k + 1, time.perf_counter() - t0, STATUS_OPTIMAL)
    return GovernorResult(None, False, float("inf"), C.size, time.perf_counter() - t0, STATUS_INFEASIBLE)


def _evaluate(prob: MIQPProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The break points b_i / a_i of the rows of [U_A; alpha] u = [U_b; beta]
    with |a_i| > 1e-12, in a stable ascending objective order, with their
    U-row excesses and their least group max slack, from one least_slack
    call.

    A break point meets every group within eps exactly when its least slack
    is >= -eps, so the per-group maxima need not be kept.
    """
    h = np.concatenate([prob.U_b, prob.beta])
    C = h[prob.rows.keep] / prob.rows.a_keep
    d = C - prob.u_nom
    C = C[np.argsort(d * prob.S[0, 0] * d, kind="stable")]
    return C, C[:, None] * prob.U_A[:, 0] - prob.U_b, prob.least_slack(C)


def _min_violation_action(prob: MIQPProblem) -> np.ndarray | None:
    """Action in U with the least worst violation, ties (within
    VIOLATION_TIE) to the least objective, which is the nearest to u_nom;
    None when some group has no rows.

    The worst violation f(u) = max_j min_{i in j} (beta_i - alpha_i u)+ is
    piecewise linear in u, so its least-objective minimiser over U is one of
    these candidates: the U bounds, the nominal action clipped to U, each
    row's zero beta_i / alpha_i, and each crossing of a falling row line
    beta_i - alpha_i u (alpha_i > 0) with a rising or flat one, or of a
    rising one with a flat one.  At a local minimum of f the active line
    turns from falling or flat to rising or flat, so crossings of lines with
    the same slope sign are not needed.  A crossing whose level
    beta_i - alpha_i u exceeds the least f over the bound and clip
    candidates cannot beat them and is dropped, and so is each crossing
    outside U.  A row whose line stays above that level over all of U,
    tested at the bound where it is lowest, takes part in no crossing: as
    rounding is monotone, the level computed at any crossing in U is at
    least the one at that bound.

    f(u) is max(0, -least group max slack at u).  The zeros are
    solve_miqp's break points, so f there comes from the least slacks of
    prob.evaluation.  They come in ascending objective order, where zeros
    equally near u_nom keep their row order, and include U's rows' zeros,
    which lie outside U or repeat a U bound the candidates list first; so
    the nearest pick is the one a list of the face rows' zeros in row order
    would give.  U's bounds and the row pairs and denominators of the
    crossings depend on the artifact alone and come from
    _FaceRows.closed_form.
    """
    if prob.rows.has_empty_group:
        return None
    lo, hi, I, K, alpha_I, edge, den, pair = prob.rows.closed_form
    beta = prob.beta

    def worst(u):
        return np.maximum(0.0, -prob.least_slack(u))

    zeros, _, least = prob.evaluation
    base = np.array([lo, hi, min(max(prob.u_nom[0], lo), hi)])
    f_base = worst(base)
    cap = f_base.min() + VIOLATION_TIE
    b_I = beta[I]
    reach = b_I - alpha_I * edge <= cap
    a_i, b_i = alpha_I[reach][:, None], b_I[reach][:, None]
    u = (b_i - beta[K]) / den[reach]
    cross = u[pair[reach] & (b_i - a_i * u <= cap) & (u >= lo) & (u <= hi)]
    C = np.concatenate([base, zeros, cross])
    f = np.concatenate([f_base, np.maximum(0.0, -least), worst(cross)])
    keep = (C >= lo) & (C <= hi)
    C, f = C[keep], f[keep]
    C = C[f <= f.min() + VIOLATION_TIE]
    best = np.argmin(np.abs(C - prob.u_nom[0]))
    return C[best:best + 1]


def govern(x, u_nom, artifact: SafeSetArtifact, sys: LinearSystem, cfg: GovernorConfig) -> GovernorResult:
    """Filter a nominal action; never silently fails.

    On a numerically infeasible program (possible despite the safe-set
    margin) the row tolerances are relaxed tenfold and the solve retried
    on the same problem, which only re-compares the nominal action's and
    the break points' margins the first solve kept; a success there is a
    "fallback" with reason "relaxed_tol".
    If that also fails, _min_violation_action picks the action in U with
    the least worst face violation, ties to the least objective, and flags
    it with status "fallback" and reason "min_violation".  No fallback is
    logged: the reason tag is its record.

    The nominal action is tested before any problem is built: by the
    artifact's cell table (_CellTable.settles), then from its prepared
    rows (_FaceRows.screen).  When either admits it, it is returned as
    solve_miqp's fast path returns it, in an array of its own.  A system
    with more than one input, an x without sys.n finite real entries and a
    u_nom that is not one finite real number raise GovernorError.
    """
    t0 = time.perf_counter()
    x, u_nom = _checked(x, u_nom, sys)
    rows = _prepared(artifact, sys)
    cells = rows.cells
    if cells is not None and cells.settles(x.tolist(), u_nom.item()):
        return GovernorResult(u_nom, False, 0.0, 0, time.perf_counter() - t0, STATUS_OPTIMAL)
    GAx, beta_slabs, margins = rows.screen(x, u_nom)
    if rows.admits(margins, FEAS_TOL):
        return GovernorResult(u_nom, False, 0.0, 0, time.perf_counter() - t0, STATUS_OPTIMAL)
    prob = rows.problem(u_nom, cfg.S, GAx, beta_slabs, margins)
    res = solve_miqp(prob)
    if res.status == STATUS_INFEASIBLE:
        res = solve_miqp(prob, eps_feas=10 * FEAS_TOL)
        if res.status == STATUS_OPTIMAL:
            res.status, res.reason = STATUS_FALLBACK, "relaxed_tol"
        else:
            u = _min_violation_action(prob)
            t = prob.u_nom
            obj = float("inf") if u is None else float((u - t) @ prob.S @ (u - t))
            res = GovernorResult(
                u, u is not None and bool(np.linalg.norm(u - t) > FEAS_TOL),
                obj, res.nodes_explored, 0.0, STATUS_FALLBACK, "min_violation",
            )
    res.solve_time = time.perf_counter() - t0
    return res
