"""Online action governor: minimally modify a nominal action so the next
state robustly avoids the unrecoverable set.

The one-step constraint "A x + B u stays outside every member of the
inflated unsafe union" is a disjunction per member: at least one face of
the member must be violated.  Choosing one face per member makes this a
small mixed-integer QP, which is solved exactly by enumerating candidate
points.  The optimum is the S-weighted projection of the nominal action
onto U cut by one chosen face per member, so it is a KKT point of at most
m linearly independent rows taken from U's rows and the face rows.  Every
such point is a candidate; the admissible one with the least objective is
the optimum.  For a scalar action the candidates are the rows' break
points b_i / a_i, which makes this the closed-form interval projection.

A problem evaluates each candidate once: the candidates in ascending
objective order and, block by block, their U-row excesses and their least
group slack are kept on the MIQPProblem, and a solve only compares them
with its tolerance.  When no candidate is admissible, govern() retries at
a tenfold tolerance, which re-tests those margins and computes nothing
anew, and then falls back to the action in U with the least worst face
violation, ties to the least objective.  That fallback is a closed form
over the break points of a piecewise linear function, so it needs a
scalar action.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass, field

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


class GovernorError(RuntimeError):
    pass


# Candidates tested per admissibility block.  A solve that finds its action
# in the first block computes no margins for the rest.
CANDIDATE_BLOCK = 64

# Worst violations within this of the least tie in the fallback; it absorbs
# the rounding of beta_i - alpha_i u at a break point.
VIOLATION_TIE = 1e-12


@dataclass(frozen=True)
class GovernorConfig:
    """Weight matrix of the governor's objective (u - u_nom)' S (u - u_nom)."""

    S: np.ndarray

    def __post_init__(self):
        S = np.atleast_2d(np.asarray(self.S, dtype=float))
        if S.shape[0] != S.shape[1]:
            raise GovernorError("S must be square")
        if not np.allclose(S, S.T, atol=1e-12):
            raise GovernorError("S must be symmetric")
        try:
            np.linalg.cholesky(S)
        except np.linalg.LinAlgError as exc:
            raise GovernorError("S must be positive definite") from exc
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


@dataclass
class MIQPProblem:
    """min (u - u_nom)' S (u - u_nom) over U_A u <= U_b, with one disjunction
    per group: some row i of the group must satisfy alpha_i' u >= beta_i.

    The rows of all groups are stacked.  Group j owns rows
    starts[j]:starts[j + 1] of alpha (rows, m) and beta (rows,); starts is
    an int array with one entry more than there are groups, starting at 0
    and ending at the row count.  A group with no rows can never be met.

    The arrays are not changed after the first solve: it keeps the row
    scale of U and the candidate evaluation (_sorted_candidates,
    _block_margins) on the problem.
    """

    S: np.ndarray
    u_nom: np.ndarray
    U_A: np.ndarray
    U_b: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    starts: np.ndarray
    _u_scale: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _evaluation: tuple[np.ndarray, dict] | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def u_scale(self) -> np.ndarray:
        """Per-row scale max(1, |row|) of U's tolerance."""
        if self._u_scale is None:
            self._u_scale = _row_scale(self.U_A)
        return self._u_scale

    @property
    def m(self) -> int:
        return self.u_nom.size

    @property
    def n_groups(self) -> int:
        return len(self.starts) - 1

    def slacks(self, u: np.ndarray) -> np.ndarray:
        return self.alpha @ u - self.beta

    def group_max(self, slack: np.ndarray) -> np.ndarray:
        """Largest row slack per group along the last axis; -inf for a group
        with no rows."""
        out = np.full(slack.shape[:-1] + (self.n_groups,), -np.inf)
        if slack.size:
            full = self.starts[:-1] < self.starts[1:]
            out[..., full] = np.maximum.reduceat(slack, self.starts[:-1][full], axis=-1)
        return out


@dataclass
class GovernorResult:
    """Outcome of one governor solve.

    nodes_explored is 0 when the nominal action is admissible as it is;
    otherwise it counts the candidates tried in ascending objective order,
    up to and including the one returned (all of them when none is
    admissible).  reason says why a "fallback" fell back: "relaxed_tol"
    when the retry at a tenfold tolerance found the action, "min_violation"
    when the least-violation action is used; it is "" otherwise.
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


def _row_scale(A: np.ndarray) -> np.ndarray:
    return np.maximum(1.0, np.linalg.norm(A, axis=1)) if A.size else np.zeros(0)


def _prepared(artifact: SafeSetArtifact, sys: LinearSystem):
    """Stacked per-row data for the artifact's inflated members (cached)."""
    cache = getattr(artifact, "_governor_cache", None)
    if cache is not None and cache["sys"] is sys:
        return cache
    members = artifact.inflated_unsafe.members
    G_all = np.vstack([mbr.A for mbr in members]) if members else np.zeros((0, sys.n))
    g_all = np.concatenate([mbr.b for mbr in members]) if members else np.zeros(0)
    cache = {
        "sys": sys,
        "g": g_all,
        "starts": np.cumsum([0] + [mbr.A.shape[0] for mbr in members]),
        "GA": G_all @ sys.A,
        "GB": G_all @ sys.B,
        "U_A": artifact.spec.U.A,
        "U_b": artifact.spec.U.b,
        "u_scale": _row_scale(artifact.spec.U.A),
    }
    artifact._governor_cache = cache
    return cache


def build_miqp(x, u_nom, artifact: SafeSetArtifact, sys: LinearSystem, cfg: GovernorConfig) -> MIQPProblem:
    """Assemble the disjunctive program for state x and nominal action u_nom.

    Per inflated member j with rows (G_ij, g_ij), the next nominal state
    A x + B u must violate at least one row: G_ij (A x + B u) >= g_ij.
    The state term folds into the offsets, leaving rows on u alone:
    alpha = G B and beta = g - G A x.
    """
    x = np.asarray(x, dtype=float).ravel()
    u_nom = np.atleast_1d(np.asarray(u_nom, dtype=float))
    if u_nom.size != sys.m:
        raise GovernorError(f"u_nom has {u_nom.size} entries; the system has {sys.m} inputs")
    if cfg.S.shape != (sys.m, sys.m):
        raise GovernorError(f"S has shape {cfg.S.shape}; the system has {sys.m} inputs")
    pre = _prepared(artifact, sys)
    prob = MIQPProblem(S=cfg.S, u_nom=u_nom, U_A=pre["U_A"], U_b=pre["U_b"],
                       alpha=pre["GB"], beta=pre["g"] - pre["GA"] @ x, starts=pre["starts"])
    prob._u_scale = pre["u_scale"]
    return prob


def solve_miqp(prob: MIQPProblem, eps_feas: float = FEAS_TOL) -> GovernorResult:
    """Exact solve by enumerating KKT candidates.

    If u_nom is not admissible, the optimum is the S-projection of u_nom
    onto U cut by one chosen face per group.  That projection lies on the
    affine set of at most m linearly independent rows taken from U's rows
    and the face rows alpha_i'u = beta_i, so it is among the candidates
    below.  A candidate is admissible when it lies in U and meets some row
    of every group, each within eps_feas; every admissible candidate is
    feasible for the disjunctive program, so the admissible candidate with
    the least objective is the optimum.  Ties go to the first candidate in
    a stable sort by objective.  Deterministic for fixed inputs.

    The candidates and their margins depend on the problem alone, so the
    first solve that needs them computes them and keeps them on prob; a
    later solve of the same problem at another eps_feas, such as govern()'s
    relaxed retry, re-tests the kept margins against its tolerance and
    computes only the blocks no earlier solve reached.  It gives the
    result a solve from scratch would.
    """
    t0 = time.perf_counter()
    t = prob.u_nom
    u_tol = eps_feas * prob.u_scale

    # Fast path: nominal action already admissible and group-feasible.
    nom_ok = prob.U_A.size == 0 or np.all(prob.U_A @ t - prob.U_b <= u_tol)
    if nom_ok and np.all(prob.group_max(prob.slacks(t)) >= -eps_feas):
        return GovernorResult(t.copy(), False, 0.0, 0, time.perf_counter() - t0, STATUS_OPTIMAL)

    C = _sorted_candidates(prob)
    for lo in range(0, len(C), CANDIDATE_BLOCK):
        u_excess, least_slack = _block_margins(prob, lo)
        ok = np.all(u_excess <= u_tol, axis=1) & (least_slack >= -eps_feas)
        if ok.any():
            k = lo + int(np.argmax(ok))
            u = C[k]
            obj = float((u - t) @ prob.S @ (u - t))
            modified = bool(np.linalg.norm(u - t) > eps_feas)
            return GovernorResult(u, modified, obj, k + 1, time.perf_counter() - t0, STATUS_OPTIMAL)
    return GovernorResult(None, False, float("inf"), len(C), time.perf_counter() - t0, STATUS_INFEASIBLE)


def _sorted_candidates(prob: MIQPProblem) -> np.ndarray:
    """The candidates in a stable ascending objective order, one per row;
    computed on the first call and kept on prob."""
    if prob._evaluation is None:
        cands = _candidates(prob)
        d = cands - prob.u_nom
        prob._evaluation = (cands[np.argsort(((d @ prob.S) * d).sum(axis=1), kind="stable")], {})
    return prob._evaluation[0]


def _block_margins(prob: MIQPProblem, lo: int) -> tuple[np.ndarray, np.ndarray]:
    """U-row excesses C U_A' - U_b and least group max slack of the sorted
    candidates lo .. lo + CANDIDATE_BLOCK; computed on the first call for
    the block and kept on prob.

    A candidate meets every group within eps exactly when its least group
    max slack is >= -eps, so the per-group maxima need not be kept.
    """
    C, margins = _sorted_candidates(prob), prob._evaluation[1]
    if lo not in margins:
        B = C[lo:lo + CANDIDATE_BLOCK]
        least_slack = prob.group_max(B @ prob.alpha.T - prob.beta).min(axis=1, initial=np.inf)
        margins[lo] = (B @ prob.U_A.T - prob.U_b, least_slack)
    return margins[lo]


def _candidates(prob: MIQPProblem) -> np.ndarray:
    """KKT points of every linearly independent set of at most m rows of
    [U_A; alpha] u = [U_b; beta], one per row of the result.

    A set of k < m rows gives the S-weighted projection of u_nom onto its
    affine set; a set of k = m rows gives its vertex A_I^-1 b_I.  For a
    scalar action both reduce to the break points b_i / a_i.
    """
    m = prob.m
    R = np.vstack([prob.U_A, prob.alpha])
    h = np.concatenate([prob.U_b, prob.beta])
    if m == 1:
        a = R[:, 0]
        keep = np.abs(a) > 1e-12
        return (h[keep] / a[keep])[:, None]
    out = []
    for k in range(1, min(m, h.size) + 1):
        I = np.array(list(itertools.combinations(range(h.size), k)))
        I = I[np.linalg.matrix_rank(R[I], tol=1e-10) == k]
        A = R[I]
        K = np.zeros((len(I), m + k, m + k))
        K[:, :m, :m] = 2.0 * prob.S
        K[:, :m, m:] = A.transpose(0, 2, 1)
        K[:, m:, :m] = A
        rhs = np.concatenate([np.broadcast_to(2.0 * prob.S @ prob.u_nom, (len(I), m)), h[I]], axis=1)
        out.append(np.linalg.solve(K, rhs[..., None])[:, :m, 0])
    return np.vstack(out) if out else np.zeros((0, m))


def _min_violation_action(prob: MIQPProblem) -> np.ndarray | None:
    """Action in U with the least worst violation, ties (within
    VIOLATION_TIE) to the least objective, which for a scalar action is the
    nearest to u_nom; None when some group has no rows.  Scalar actions only.

    The worst violation f(u) = max_j min_{i in j} (beta_i - alpha_i u)+ is
    piecewise linear in u, so its least-objective minimiser over U is one of
    these candidates: the U bounds, the nominal action clipped to U, each
    row's zero beta_i / alpha_i, and each crossing of a falling row line
    beta_i - alpha_i u (alpha_i > 0) with a rising or flat one, or of a
    rising one with a flat one.  At a local minimum of f the active line turns from falling or flat
    to rising or flat, so crossings of lines with the same slope sign are not
    needed.  A crossing whose level beta_i - alpha_i u exceeds the least f
    over the bound and clip candidates cannot beat them and is dropped.
    """
    if prob.m != 1:
        raise GovernorError(f"the least-violation fallback needs a scalar action, not {prob.m} inputs")
    if np.any(np.diff(prob.starts) == 0):
        return None
    a_u, b_u = prob.U_A[:, 0], prob.U_b
    lo = np.max(b_u[a_u < 0] / a_u[a_u < 0], initial=-np.inf)
    hi = np.min(b_u[a_u > 0] / a_u[a_u > 0], initial=np.inf)
    alpha, beta = prob.alpha[:, 0], prob.beta

    def worst(u):
        g = prob.group_max(u[:, None] * alpha - beta)
        return np.maximum(0.0, -g.min(axis=1, initial=np.inf))

    base = np.array([lo, hi, min(max(prob.u_nom[0], lo), hi)])
    cap = worst(base).min() + VIOLATION_TIE
    fall, rise = alpha > 1e-12, alpha < -1e-12
    flat = ~(fall | rise)
    cands = [base, beta[fall | rise] / alpha[fall | rise]]
    for i, k in ((fall, rise | flat), (rise, flat)):
        ai, bi = alpha[i][:, None], beta[i][:, None]
        u = (bi - beta[k]) / (ai - alpha[k])
        cands.append(u[bi - ai * u <= cap])
    C = np.concatenate(cands)
    C = C[(C >= lo) & (C <= hi)]
    f = worst(C)
    C = C[f <= f.min() + VIOLATION_TIE]
    best = np.argmin(np.abs(C - prob.u_nom[0]))
    return C[best:best + 1]


def govern(x, u_nom, artifact: SafeSetArtifact, sys: LinearSystem, cfg: GovernorConfig) -> GovernorResult:
    """Filter a nominal action; never silently fails.

    On a numerically infeasible program (possible despite the safe-set
    margin) the row tolerances are relaxed tenfold and the solve retried
    on the same problem, which re-tests the first solve's candidate
    margins; a success there is a "fallback" with reason "relaxed_tol".
    If that also fails, _min_violation_action picks the action in U with
    the least worst face violation, ties to the least objective, and flags
    it with status "fallback" and reason "min_violation".  That last step
    needs a scalar action; with more inputs it raises GovernorError.
    """
    t0 = time.perf_counter()
    prob = build_miqp(x, u_nom, artifact, sys, cfg)
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
            logger.warning("governor fallback engaged at state %s", np.asarray(x).tolist())
    res.solve_time = time.perf_counter() - t0
    return res
