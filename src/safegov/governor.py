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
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass

import numpy as np

from .geometry import FEAS_TOL
from .geometry.lp import INFEASIBLE, OPTIMAL, lp_solve
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


# Candidates tested per admissibility block; bounds memory to block x rows.
CANDIDATE_BLOCK = 64

# Face assignments the least-violation fallback searches exhaustively.
MAX_ASSIGNMENTS = 4096


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
    nonnegative multipliers is the unique global minimizer.  Scalar
    problems reduce to an interval clip.
    """
    S = np.atleast_2d(np.asarray(S, dtype=float))
    t = np.atleast_1d(np.asarray(u_nom, dtype=float))
    m = t.size
    G = np.asarray(G, dtype=float).reshape(-1, m)
    h = np.asarray(h, dtype=float).ravel()

    if m == 1:
        return _qp_solve_scalar(float(S[0, 0]), float(t[0]), G.ravel(), h, eps_feas)

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


def _qp_solve_scalar(s: float, t: float, g: np.ndarray, h: np.ndarray, eps: float) -> QPResult:
    lo, hi = -np.inf, np.inf
    for gi, hi_i in zip(g, h):
        if gi > 1e-12:
            hi = min(hi, hi_i / gi)
        elif gi < -1e-12:
            lo = max(lo, hi_i / gi)
        elif hi_i < -eps:
            return QPResult(QP_INFEASIBLE)
    if lo > hi + eps:
        return QPResult(QP_INFEASIBLE)
    u = min(max(t, lo), hi)
    return QPResult(QP_OPTIMAL, np.array([u]), s * (u - t) ** 2)


@dataclass
class MIQPProblem:
    """min (u - u_nom)' S (u - u_nom) over U_A u <= U_b, with one disjunction
    per group: some row i of the group must satisfy alpha_i' u >= beta_i.

    The rows of all groups are stacked.  Group j owns rows
    starts[j]:starts[j + 1] of alpha (rows, m) and beta (rows,); starts is
    an int array with one entry more than there are groups, starting at 0
    and ending at the row count.  A group with no rows can never be met.
    """

    S: np.ndarray
    u_nom: np.ndarray
    U_A: np.ndarray
    U_b: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    starts: np.ndarray

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
    admissible).
    """

    u_safe: np.ndarray | None
    modified: bool
    objective: float
    nodes_explored: int
    solve_time: float
    status: str

    def to_dict(self) -> dict:
        return {
            "u_safe": None if self.u_safe is None else [float(v) for v in self.u_safe],
            "modified": self.modified,
            "objective": float(self.objective),
            "nodes_explored": int(self.nodes_explored),
            "solve_time": float(self.solve_time),
            "status": self.status,
        }


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
    return MIQPProblem(S=cfg.S, u_nom=u_nom, U_A=pre["U_A"], U_b=pre["U_b"],
                       alpha=pre["GB"], beta=pre["g"] - pre["GA"] @ x, starts=pre["starts"])


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
    """
    t0 = time.perf_counter()
    t = prob.u_nom

    # Fast path: nominal action already admissible and group-feasible.
    u_scale = np.maximum(1.0, np.linalg.norm(prob.U_A, axis=1)) if prob.U_A.size else np.zeros(0)
    nom_ok = prob.U_A.size == 0 or np.all(prob.U_A @ t - prob.U_b <= eps_feas * u_scale)
    if nom_ok and np.all(prob.group_max(prob.slacks(t)) >= -eps_feas):
        return GovernorResult(t.copy(), False, 0.0, 0, time.perf_counter() - t0, STATUS_OPTIMAL)

    cands = _candidates(prob)
    d = cands - t
    order = np.argsort(((d @ prob.S) * d).sum(axis=1), kind="stable")
    for lo in range(0, order.size, CANDIDATE_BLOCK):
        C = cands[order[lo:lo + CANDIDATE_BLOCK]]
        ok = np.all(C @ prob.U_A.T - prob.U_b <= eps_feas * u_scale, axis=1)
        ok &= np.all(prob.group_max(C @ prob.alpha.T - prob.beta) >= -eps_feas, axis=1)
        if ok.any():
            k = int(np.argmax(ok))
            u = C[k]
            obj = float((u - t) @ prob.S @ (u - t))
            modified = bool(np.linalg.norm(u - t) > eps_feas)
            return GovernorResult(u, modified, obj, lo + k + 1, time.perf_counter() - t0, STATUS_OPTIMAL)
    return GovernorResult(None, False, float("inf"), order.size, time.perf_counter() - t0, STATUS_INFEASIBLE)


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


def _min_violation_action(prob: MIQPProblem, eps_feas: float) -> np.ndarray | None:
    """Action in U with the least worst face-row violation for a chosen
    face per group (one LP per assignment).

    Up to MAX_ASSIGNMENTS assignments, every one is tried and the least
    worst violation wins.  Above that the choice is greedy: each group
    takes its best-slack row at the nominal action clipped to U, and only
    that assignment is solved, so the result need not be the least
    violating one.
    """
    m = prob.m
    heads = prob.starts[:-1]
    sizes = np.diff(prob.starts)
    total = int(np.prod(sizes)) if sizes.size else 0
    if total == 0:
        return None

    def assignment_lp(choice):
        rows = heads + np.asarray(choice)
        A = np.vstack([
            np.hstack([prob.U_A, np.zeros((prob.U_A.shape[0], 1))]),
            np.hstack([-prob.alpha[rows], np.full((rows.size, 1), -1.0)]),
            np.hstack([np.zeros((1, m)), [[-1.0]]]),
        ])
        b = np.concatenate([prob.U_b, -prob.beta[rows], np.zeros(1)])
        c = np.zeros(m + 1)
        c[m] = 1.0
        res = lp_solve(c, A, b)
        if res.status != OPTIMAL:
            return None
        return res.value, res.x[:m]

    best = None
    if total <= MAX_ASSIGNMENTS:
        choices = itertools.product(*[range(s) for s in sizes])
    else:
        # greedy: best-slack row per group at the clipped nominal
        clip = qp_solve(prob.S, prob.u_nom, prob.U_A, prob.U_b, eps_feas)
        u0 = clip.u if clip.status == QP_OPTIMAL else prob.u_nom
        slack = prob.slacks(u0)
        choices = [tuple(int(np.argmax(slack[lo:hi])) for lo, hi in zip(heads, prob.starts[1:]))]
    for choice in choices:
        out = assignment_lp(choice)
        if out is None:
            continue
        if best is None or out[0] < best[0] - 1e-12:
            best = out
    return None if best is None else best[1]


def govern(x, u_nom, artifact: SafeSetArtifact, sys: LinearSystem, cfg: GovernorConfig) -> GovernorResult:
    """Filter a nominal action; never silently fails.

    On a numerically infeasible program (possible despite the safe-set
    margin) the row tolerances are relaxed tenfold and the solve retried;
    if that also fails, _min_violation_action picks the action, always
    flagged with status "fallback".  That action has the least worst face
    violation over all face assignments when there are at most
    MAX_ASSIGNMENTS of them; above that it is the best for one greedy
    assignment (each group's best-slack row at the nominal action clipped
    to U), which need not be the least violating.
    """
    t0 = time.perf_counter()
    prob = build_miqp(x, u_nom, artifact, sys, cfg)
    res = solve_miqp(prob)
    if res.status == STATUS_INFEASIBLE:
        res = solve_miqp(prob, eps_feas=10 * FEAS_TOL)
        if res.status == STATUS_OPTIMAL:
            res.status = STATUS_FALLBACK
        else:
            u = _min_violation_action(prob, FEAS_TOL)
            t = prob.u_nom
            obj = float("inf") if u is None else float((u - t) @ prob.S @ (u - t))
            res = GovernorResult(
                u, u is not None and bool(np.linalg.norm(u - t) > FEAS_TOL),
                obj, res.nodes_explored, 0.0, STATUS_FALLBACK,
            )
            logger.warning("governor fallback engaged at state %s", np.asarray(x).tolist())
    res.solve_time = time.perf_counter() - t0
    return res
