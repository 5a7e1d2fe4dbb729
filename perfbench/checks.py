"""Independent output checks: a closed-form governor oracle for scalar
actions and label comparison against reference artifacts.

Nothing here calls safegov: the oracle and the reference labels work on
plain arrays, so a defect in the package cannot hide in its own check.
"""

from __future__ import annotations

import json
import os

import numpy as np

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# Membership tolerance of the package (FEAS_TOL), scaled per row as it does.
FEAS_TOL = 1e-7
# Probes this close to a reference boundary have no reliable label.
BOUNDARY_MARGIN = 1e-6
# Agreement the governor oracle demands on optimal actions.
ACTION_TOL = 1e-6


# ----------------------------------------------------------------- governor


class GovernorOracle:
    """Closed-form governor for a scalar action, from the artifact's rows.

    The next nominal state A x + B u must leave every inflated member,
    i.e. satisfy G_i (A x + B u) >= g_i, or alpha_i u >= beta_i with
    alpha = G B and beta = g - G A x, on at least one row i of each
    member.  A row with alpha_i > 0 allows [beta_i/alpha_i, inf), one
    with alpha_i < 0 allows (-inf, beta_i/alpha_i], and a zero row allows
    everything or nothing.  So member j forbids one open interval
    (d_j, c_j), and the allowed set is U minus their union: a union of
    closed intervals whose endpoints are among U's bounds, the c_j and
    the d_j.  The projection of u_nom onto it is u_nom itself or the
    nearest allowed endpoint.

    A row counts as met when alpha_i u >= beta_i - FEAS_TOL, the
    governor's own test, so a candidate is blocked by member j only when
    it lies inside the interval that tolerance leaves forbidden.  Without
    it, two members that share a face give endpoints a few ulps apart,
    and a point where forbidden intervals touch would read as blocked or
    free by rounding alone.
    """

    def __init__(self, A, B, members, u_lo: float, u_hi: float):
        B = np.asarray(B, dtype=float)
        if B.shape[1] != 1:
            raise ValueError("the closed-form oracle covers scalar actions only")
        G = np.vstack([np.asarray(m["A"], dtype=float) for m in members])
        self.g = np.concatenate([np.asarray(m["b"], dtype=float) for m in members])
        self.GA = G @ np.asarray(A, dtype=float)
        self.alpha = (G @ B)[:, 0]
        self.starts = np.cumsum([0] + [len(m["b"]) for m in members])[:-1]
        self.u_lo, self.u_hi = float(u_lo), float(u_hi)

    def forbidden(self, X, tol: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """Per state and member, the open interval (d, c) of actions
        that leave some row of the member short by more than tol."""
        beta = self.g[None, :] - tol - np.atleast_2d(X) @ self.GA.T    # (calls, rows)
        a = self.alpha[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = beta / a
        c_row = np.where(a > 1e-12, ratio, np.inf)
        d_row = np.where(a < -1e-12, ratio, -np.inf)
        vacuous_row = (np.abs(a) <= 1e-12) & (beta <= 0.0)
        c = np.minimum.reduceat(c_row, self.starts, axis=1)
        d = np.maximum.reduceat(d_row, self.starts, axis=1)
        vacuous = np.logical_or.reduceat(vacuous_row, self.starts, axis=1)
        return np.where(vacuous, np.inf, d), np.where(vacuous, -np.inf, c)

    def govern_many(self, X, u_nom) -> np.ndarray:
        """Governed actions, NaN where the allowed set is empty."""
        u_nom = np.asarray(u_nom, dtype=float).ravel()
        d, c = self.forbidden(X)
        d_tol, c_tol = self.forbidden(X, FEAS_TOL)
        n = u_nom.size
        cand = np.hstack([u_nom[:, None], np.full((n, 1), self.u_lo), np.full((n, 1), self.u_hi), c, d])
        cand = np.clip(cand, self.u_lo, self.u_hi)
        blocked = np.any((d_tol[:, None, :] < cand[:, :, None]) & (cand[:, :, None] < c_tol[:, None, :]), axis=2)
        dist = np.where(blocked, np.inf, np.abs(cand - u_nom[:, None]))
        best = np.argmin(dist, axis=1)
        u = cand[np.arange(n), best]
        return np.where(np.isfinite(dist[np.arange(n), best]), u, np.nan)


def check_governed(oracle: GovernorOracle, X, u_nom, statuses, u_safe) -> np.ndarray:
    """Per call: optimal results match the oracle within ACTION_TOL,
    fallbacks occur exactly where its set is empty, and every action lies
    in U.  u_safe holds NaN where the governor returned no action."""
    u_safe = np.asarray(u_safe, dtype=float)
    statuses = np.asarray(statuses)
    expected = oracle.govern_many(X, u_nom)
    empty = np.isnan(expected)
    in_u = (u_safe >= oracle.u_lo - FEAS_TOL) & (u_safe <= oracle.u_hi + FEAS_TOL)
    matches = (statuses == "optimal") & (np.abs(u_safe - np.where(empty, 0.0, expected)) <= ACTION_TOL)
    return in_u & np.where(empty, statuses == "fallback", matches & ~empty)


# --------------------------------------------------------------- artifacts


def load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _inside(members, X, tol: float) -> np.ndarray:
    out = np.zeros(X.shape[0], dtype=bool)
    for m in members:
        A = np.asarray(m["A"], dtype=float)
        b = np.asarray(m["b"], dtype=float)
        scale = np.maximum(1.0, np.linalg.norm(A, axis=1))
        out |= np.all(X @ A.T - b <= tol * scale, axis=1)
    return out


def reference_labels(ref: dict, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels (unsafe / safe / unrecoverable) of points X under the
    reference sets, and a mask of the points far enough from every
    reference boundary to carry a reliable label."""
    labels = []
    for tol in (FEAS_TOL, FEAS_TOL + BOUNDARY_MARGIN, FEAS_TOL - BOUNDARY_MARGIN):
        unsafe = _inside(ref["X0"], X, tol)
        safe = _inside(ref["safe"], X, tol)
        labels.append(np.where(unsafe, "unsafe", np.where(safe, "safe", "unrecoverable")))
    reliable = (labels[0] == labels[1]) & (labels[0] == labels[2])
    return labels[0], reliable

