"""Adaptive cruise control case study: gap/relative-speed/ego-speed
dynamics, headway reward and safety band, driving cycles, and the
pre-training headway tracker.

State x = (ds, dv, v_ego): longitudinal gap [m], relative speed
(lead minus ego) [m/s], ego speed [m/s].  The ego acceleration u is the
control; the lead acceleration w is the disturbance.  The safety band
requires the headway time ds / max(v_ego, 5) to stay in [1, 2] s.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .geometry import FEAS_TOL, HPolytope, PolyUnion
from .safeset import ConstraintSpec, LinearSystem, SafeSetArtifact, classify

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class AccParams:
    ts: float = 0.5                   # sampling period [s]
    u_min: float = -3.0               # ego acceleration bounds [m/s^2]
    u_max: float = 3.0
    w_min: float = -1.5               # lead acceleration bounds [m/s^2]
    w_max: float = 1.5
    headway_target: float = 1.5       # reward target [s]
    headway_min: float = 1.0          # safety band [s]
    headway_max: float = 2.0
    low_speed_threshold: float = 5.0  # [m/s]
    low_speed_gap_target: float = 7.5  # [m] (= target headway x threshold)


# Operating region standing in for R^3: gap, relative speed, ego speed.
BOX_LO = np.array([0.0, -20.0, 0.0])
BOX_HI = np.array([120.0, 20.0, 40.0])


def operating_box() -> HPolytope:
    return HPolytope.from_bounds(BOX_LO, BOX_HI)


def system_matrices(p: AccParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ts = p.ts
    A = np.array([[1.0, ts, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    B = np.array([[-ts * ts / 2.0], [-ts], [ts]])
    E = np.array([[ts * ts / 2.0], [ts], [0.0]])
    return A, B, E


def linear_system(p: AccParams) -> LinearSystem:
    return LinearSystem(*system_matrices(p))


def step(x, u: float, w: float, p: AccParams) -> np.ndarray:
    """One dynamics update; out-of-bound inputs are clipped with a warning."""
    x = np.asarray(x, dtype=float).ravel()
    uc = min(max(float(u), p.u_min), p.u_max)
    wc = min(max(float(w), p.w_min), p.w_max)
    if abs(uc - float(u)) > 1e-6 or abs(wc - float(w)) > 1e-6:
        logger.warning("step(): clipped inputs u=%.4g w=%.4g", float(u), float(w))
    A, B, E = system_matrices(p)
    return A @ x + B[:, 0] * uc + E[:, 0] * wc


def reward(x, p: AccParams) -> float:
    """Headway tracking cost: zero on target, negative elsewhere."""
    x = np.asarray(x, dtype=float).ravel()
    ds, v = x[0], x[2]
    if v >= p.low_speed_threshold:
        return -float((ds / v - p.headway_target) ** 2)
    return -float((ds - p.low_speed_gap_target) ** 2)


def violates(x, p: AccParams, tol: float = FEAS_TOL) -> bool:
    """True when the headway band 1 <= ds / max(v, 5) <= 2 fails."""
    x = np.asarray(x, dtype=float).ravel()
    denom = max(x[2], p.low_speed_threshold)
    hw = x[0] / denom
    return bool(hw < p.headway_min - tol or hw > p.headway_max + tol)


def unsafe_union(p: AccParams, box: HPolytope | None = None) -> PolyUnion:
    """Complement of the headway band as four polytopes (dv free).

    Split at the v = 5 kink: for v >= 5 the band is v <= ds <= 2v, below
    it the band is a fixed 5..10 m gap window.
    """
    box = box or operating_box()
    thr = p.low_speed_threshold
    lo_gap = p.headway_min * thr
    hi_gap = p.headway_max * thr
    members = [
        # v >= thr, ds <= v  (too close at speed)
        HPolytope(np.array([[0.0, 0.0, -1.0], [1.0, 0.0, -p.headway_min]]), np.array([-thr, 0.0])),
        # v >= thr, ds >= 2v (too far at speed)
        HPolytope(np.array([[0.0, 0.0, -1.0], [-1.0, 0.0, p.headway_max]]), np.array([-thr, 0.0])),
        # v <= thr, ds <= lo_gap
        HPolytope(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]), np.array([thr, lo_gap])),
        # v <= thr, ds >= hi_gap
        HPolytope(np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]]), np.array([thr, -hi_gap])),
    ]
    return PolyUnion([m.intersect(box).remove_redundancy() for m in members], 3)


def constraint_spec(p: AccParams) -> ConstraintSpec:
    box = operating_box()
    return ConstraintSpec(
        X0=unsafe_union(p, box),
        U=HPolytope.from_bounds([p.u_min], [p.u_max]),
        W=HPolytope.from_bounds([p.w_min], [p.w_max]),
        box=box,
    )


# ---------------------------------------------------------------- cycles


class CycleError(ValueError):
    pass


@dataclass(frozen=True)
class DrivingCycle:
    """Lead-vehicle speed trace, uniformly sampled at the control period."""

    v: np.ndarray
    ts: float
    source: str = "synthetic"

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float).ravel()
        v.setflags(write=False)
        object.__setattr__(self, "v", v)

    @property
    def duration(self) -> float:
        return (len(self.v) - 1) * self.ts

    def accelerations(self) -> np.ndarray:
        return np.diff(self.v) / self.ts


def _clip_speed_trace(v: np.ndarray, ts: float, p: AccParams, v_cap: float = 30.0) -> np.ndarray:
    """Force implied accelerations into [w_min, w_max] and speeds >= 0."""
    out = np.empty_like(v)
    out[0] = min(max(v[0], 0.0), v_cap)
    for i in range(1, len(v)):
        lo = out[i - 1] + ts * p.w_min
        hi = out[i - 1] + ts * p.w_max
        out[i] = min(max(min(max(v[i], lo), hi), 0.0), v_cap)
    return out


def load_cycle(path: str, p: AccParams) -> DrivingCycle:
    """Read a `t,v` CSV (SI units) and resample onto the control period."""
    ts_list: list[float] = []
    vs_list: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if lineno == 1:
                cols = [c.strip().lower() for c in line.split(",")]
                if cols != ["t", "v"]:
                    raise CycleError(f"{path}:{lineno}: expected header 't,v', got {line!r}")
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise CycleError(f"{path}:{lineno}: expected two comma-separated values")
            try:
                t = float(parts[0])
                v = float(parts[1])
            except ValueError as exc:
                raise CycleError(f"{path}:{lineno}: {exc}") from None
            if not (np.isfinite(t) and np.isfinite(v)):
                raise CycleError(f"{path}:{lineno}: non-finite value")
            if v < 0:
                raise CycleError(f"{path}:{lineno}: negative speed")
            if ts_list and t <= ts_list[-1]:
                raise CycleError(f"{path}:{lineno}: time not strictly increasing")
            ts_list.append(t)
            vs_list.append(v)
    if len(ts_list) < 2:
        raise CycleError(f"{path}: need at least two samples")
    t = np.asarray(ts_list)
    v = np.asarray(vs_list)
    grid = np.arange(t[0], t[-1] + 1e-9, p.ts)
    resampled = np.interp(grid, t, v)
    return DrivingCycle(v=_clip_speed_trace(resampled, p.ts, p), ts=p.ts, source="csv")


def synth_cycle(seed: int, duration: float, p: AccParams, v_ref: float = 15.0) -> DrivingCycle:
    """Seeded mean-reverting random cycle: bounded accelerations, mid-range speeds."""
    rng = np.random.default_rng(seed)
    n = int(round(duration / p.ts)) + 1
    v = np.empty(n)
    v[0] = rng.uniform(8.0, 22.0)
    a = 0.0
    for i in range(1, n):
        a = 0.85 * a + 0.45 * rng.standard_normal() + 0.03 * (v_ref - v[i - 1])
        a = min(max(a, p.w_min), p.w_max)
        v[i] = min(max(v[i - 1] + p.ts * a, 0.0), 30.0)
    return DrivingCycle(v=v, ts=p.ts, source="synthetic")


def sample_segment(cycle: DrivingCycle, T_seconds: float, rng: np.random.Generator) -> DrivingCycle:
    """Uniform random contiguous slice of the cycle, T_seconds long."""
    n_steps = int(round(T_seconds / cycle.ts))
    if n_steps + 1 > len(cycle.v):
        raise CycleError(f"segment of {T_seconds}s exceeds cycle duration {cycle.duration}s")
    start = int(rng.integers(0, len(cycle.v) - n_steps))
    return DrivingCycle(v=cycle.v[start:start + n_steps + 1], ts=cycle.ts, source=cycle.source)


def derive_disturbance(segment: DrivingCycle, p: AccParams) -> np.ndarray:
    """Lead accelerations from the speed trace, clipped into W."""
    return np.clip(segment.accelerations(), p.w_min, p.w_max)


# ----------------------------------------------------- pre-training policy

NOMINAL_HEADWAY = 2.5
NOMINAL_K1 = 0.2
NOMINAL_K2 = 0.6


def nominal_policy(x, p: AccParams) -> float:
    """Proportional tracker of a 2.5 s headway (deliberately off-band)."""
    x = np.asarray(x, dtype=float).ravel()
    u = NOMINAL_K1 * (x[0] - NOMINAL_HEADWAY * x[2]) + NOMINAL_K2 * x[1]
    return float(min(max(u, p.u_min), p.u_max))


def nominal_error_matrix(p: AccParams) -> np.ndarray:
    """Closed-loop matrix of the (headway-distance error, dv) subsystem.

    The full 3-state loop keeps a unit eigenvalue along the equilibrium
    family (any speed with ds = 2.5 v); stability lives in these error
    coordinates.
    """
    ts = p.ts
    c = ts * ts / 2.0 + NOMINAL_HEADWAY * ts
    return np.array([
        [1.0 - c * NOMINAL_K1, ts - c * NOMINAL_K2],
        [-ts * NOMINAL_K1, 1.0 - ts * NOMINAL_K2],
    ])


# ----------------------------------------------------------- environment


class AccEnv:
    """Bundles parameters, a driving cycle and the linear system for runs."""

    def __init__(self, params: AccParams | None = None, cycle: DrivingCycle | None = None,
                 cycle_seed: int = 1900, cycle_duration: float = 1900.0):
        self.params = params or AccParams()
        self.cycle = cycle or synth_cycle(cycle_seed, cycle_duration, self.params)
        self.system = linear_system(self.params)
        self.box = operating_box()

    def in_box(self, x) -> bool:
        return self.box.contains(x)

    def sample_safe_state(self, rng: np.random.Generator, artifact: SafeSetArtifact,
                          max_tries: int = 2000) -> np.ndarray:
        for _ in range(max_tries):
            x = rng.uniform(BOX_LO, BOX_HI)
            if classify(x, artifact) == "safe":
                return x
        raise RuntimeError("could not sample a safe initial state")

    def segment_disturbance(self, rng: np.random.Generator, n_steps: int) -> np.ndarray:
        seg = sample_segment(self.cycle, n_steps * self.params.ts, rng)
        w = derive_disturbance(seg, self.params)
        return w[:n_steps]

    def step(self, x, u: float, w: float) -> np.ndarray:
        return step(x, u, w, self.params)
