"""The governor's solve as it stood before a problem kept its candidate
evaluation: every solve, the relaxed retry included, rebuilt the
candidates, sorted them and recomputed their margins block by block.

Kept only as the reference of the bitwise differential test in
test_governor.py: safegov.governor.govern and solve_miqp must reproduce
its status, modified flag, node count, action and objective byte for byte.
"""

import time

import numpy as np

from safegov.governor import (
    FEAS_TOL, STATUS_FALLBACK, STATUS_INFEASIBLE, STATUS_OPTIMAL, GovernorResult,
    _candidates, _min_violation_action, build_miqp,
)

# Candidates tested per admissibility block; bounds memory to block x rows.
CANDIDATE_BLOCK = 64


def solve_miqp(prob, eps_feas: float = FEAS_TOL) -> GovernorResult:
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


def govern(x, u_nom, artifact, sys, cfg) -> GovernorResult:
    t0 = time.perf_counter()
    prob = build_miqp(x, u_nom, artifact, sys, cfg)
    res = solve_miqp(prob)
    if res.status == STATUS_INFEASIBLE:
        res = solve_miqp(prob, eps_feas=10 * FEAS_TOL)
        if res.status == STATUS_OPTIMAL:
            res.status = STATUS_FALLBACK
        else:
            u = _min_violation_action(prob)
            t = prob.u_nom
            obj = float("inf") if u is None else float((u - t) @ prob.S @ (u - t))
            res = GovernorResult(
                u, u is not None and bool(np.linalg.norm(u - t) > FEAS_TOL),
                obj, res.nodes_explored, 0.0, STATUS_FALLBACK,
            )
    res.solve_time = time.perf_counter() - t0
    return res
