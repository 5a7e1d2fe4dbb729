"""The governor as it stood before a problem kept its candidate
evaluation, its face rows group-major or its closed-form data: every
solve, the relaxed retry included, rebuilt the candidates, sorted them and
recomputed their margins block by block, group maxima came from
np.maximum.reduceat over the stacked rows, and the least-violation
fallback derived everything from the problem at each call.

Kept only as the reference of the bitwise differential tests in
test_governor.py: safegov.governor.govern and solve_miqp must reproduce
its status, modified flag, node count, action and objective byte for byte.
It reads nothing from safegov.governor but its constants, the result type
and build_miqp, whose problem arrays (alpha, beta, starts, U) it uses.
"""

import time

import numpy as np

from safegov.governor import (
    FEAS_TOL, STATUS_FALLBACK, STATUS_INFEASIBLE, STATUS_OPTIMAL, GovernorResult,
    build_miqp,
)

# Candidates tested per admissibility block; bounds memory to block x rows.
CANDIDATE_BLOCK = 64

# Worst violations within this of the least tie in the fallback.
VIOLATION_TIE = 1e-12


def group_max(prob, slack: np.ndarray) -> np.ndarray:
    """Largest row slack per group along the last axis; -inf for a group
    with no rows."""
    n_groups = len(prob.starts) - 1
    out = np.full(slack.shape[:-1] + (n_groups,), -np.inf)
    if slack.size:
        full = prob.starts[:-1] < prob.starts[1:]
        out[..., full] = np.maximum.reduceat(slack, prob.starts[:-1][full], axis=-1)
    return out


def candidates(prob) -> np.ndarray:
    """The KKT points of a scalar action: h_i / a_i for every row a_i u = h_i
    of [U_A; alpha] u = [U_b; beta] with |a_i| > 1e-12, one per row of the
    result."""
    R = np.vstack([prob.U_A, prob.alpha])
    h = np.concatenate([prob.U_b, prob.beta])
    a = R[:, 0]
    keep = np.abs(a) > 1e-12
    return (h[keep] / a[keep])[:, None]


def min_violation_action(prob) -> np.ndarray | None:
    """Action in U with the least worst violation, ties (within
    VIOLATION_TIE) to the nearest to u_nom; None when some group has no
    rows.  Scalar actions only."""
    if np.any(np.diff(prob.starts) == 0):
        return None
    a_u, b_u = prob.U_A[:, 0], prob.U_b
    lo = np.max(b_u[a_u < 0] / a_u[a_u < 0], initial=-np.inf)
    hi = np.min(b_u[a_u > 0] / a_u[a_u > 0], initial=np.inf)
    alpha, beta = prob.alpha[:, 0], prob.beta

    def worst(u):
        g = group_max(prob, u[:, None] * alpha - beta)
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


def solve_miqp(prob, eps_feas: float = FEAS_TOL) -> GovernorResult:
    t0 = time.perf_counter()
    t = prob.u_nom

    # Fast path: nominal action already admissible and group-feasible.
    u_scale = np.maximum(1.0, np.linalg.norm(prob.U_A, axis=1)) if prob.U_A.size else np.zeros(0)
    nom_ok = prob.U_A.size == 0 or np.all(prob.U_A @ t - prob.U_b <= eps_feas * u_scale)
    if nom_ok and np.all(group_max(prob, prob.alpha @ t - prob.beta) >= -eps_feas):
        return GovernorResult(t.copy(), False, 0.0, 0, time.perf_counter() - t0, STATUS_OPTIMAL)

    cands = candidates(prob)
    d = cands - t
    order = np.argsort(((d @ prob.S) * d).sum(axis=1), kind="stable")
    for lo in range(0, order.size, CANDIDATE_BLOCK):
        C = cands[order[lo:lo + CANDIDATE_BLOCK]]
        ok = np.all(C @ prob.U_A.T - prob.U_b <= eps_feas * u_scale, axis=1)
        ok &= np.all(group_max(prob, C @ prob.alpha.T - prob.beta) >= -eps_feas, axis=1)
        if ok.any():
            k = int(np.argmax(ok))
            u = C[k]
            obj = float((u - t) @ prob.S @ (u - t))
            modified = bool(np.linalg.norm(u - t) > eps_feas)
            return GovernorResult(u, modified, obj, lo + k + 1, time.perf_counter() - t0, STATUS_OPTIMAL)
    return GovernorResult(None, False, float("inf"), order.size, time.perf_counter() - t0, STATUS_INFEASIBLE)


def govern(x, u_nom, artifact, sys, cfg) -> GovernorResult:
    t0 = time.perf_counter()
    prob = build_miqp(x, u_nom, artifact, sys, cfg)
    res = solve_miqp(prob)
    if res.status == STATUS_INFEASIBLE:
        res = solve_miqp(prob, eps_feas=10 * FEAS_TOL)
        if res.status == STATUS_OPTIMAL:
            res.status, res.reason = STATUS_FALLBACK, "relaxed_tol"
        else:
            u = min_violation_action(prob)
            t = prob.u_nom
            obj = float("inf") if u is None else float((u - t) @ prob.S @ (u - t))
            res = GovernorResult(
                u, u is not None and bool(np.linalg.norm(u - t) > FEAS_TOL),
                obj, res.nodes_explored, 0.0, STATUS_FALLBACK, "min_violation",
            )
    res.solve_time = time.perf_counter() - t0
    return res
