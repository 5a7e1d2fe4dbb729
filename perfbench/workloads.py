"""The benchmark's workloads, driven through safegov's public API.

Each workload has a `setup()` (the set-up a user pays once; timed), an
`inputs(ctx, seed)` (seeded inputs; not timed) and a
`run(ctx, inp, seconds, iterations)` that repeats the workload's unit
operation in a closed loop, one call waiting for the previous, until its
operations have taken `seconds` (or for exactly `iterations` loop
passes), and checks every output.  A traced run makes `trace_iterations`
loop passes, a fixed amount of work, so its per-layer counts repeat.
Calls go through module attributes (`safeset.compute_unrecoverable`,
...) so the tracer's wrappers apply.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from safegov import envs, governor, learner, safeset
from safegov.geometry import HPolytope, PolyUnion

import checks
from tracer import LogCounter

ACC_K = 1
REDUCED2D_K = 3
PROBES = 1000
MIN_BUILDS = 3
GOVERN_POOL = 1 << 16
GOVERN_CHUNK = 1024
WARMUP_CALLS = 200
TRAIN_SEED = 0
TRAIN_EPISODES = 8
MIN_TRAINS = 2
DP_AGREEMENT = 0.99
# The learner's per-episode log message, logged as each episode ends.
EPISODE_RECORD = "episode %d: viol_rate=%.3f mean_reward=%.4f"


@dataclass
class Chunk:
    """One loop pass: a build, a train() call or GOVERN_CHUNK govern() calls.

    Spans are (start, end) perf_counter pairs, so times can be rescaled
    by the host probe afterwards."""

    ops: np.ndarray         # (n, 2): each timed unit operation
    calls: np.ndarray       # (m, 2): each measured call into safegov
    completed: int          # unit operations completed

    def __post_init__(self):
        self.ops = np.asarray(self.ops, dtype=float).reshape(-1, 2)
        self.calls = np.asarray(self.calls, dtype=float).reshape(-1, 2)

    @property
    def busy_s(self) -> float:
        return float(np.sum(self.calls[:, 1] - self.calls[:, 0]))


@dataclass
class RunResult:
    """What one measured run did and how its outputs checked out."""

    chunks: list[Chunk] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def busy_s(self) -> float:
        return sum(c.busy_s for c in self.chunks)


def _report(exc: BaseException) -> None:
    traceback.print_exception(exc, file=sys.stderr)


def _loop(res: RunResult, op, seconds: float, iterations: int | None, min_iterations: int) -> None:
    """Append op(i)'s chunks to res until they have taken `seconds` (and
    number at least `min_iterations`), or until there are `iterations`."""
    while True:
        done = len(res.chunks)
        if iterations is not None:
            if done >= iterations:
                return
        elif done >= min_iterations and res.busy_s >= seconds:
            return
        res.chunks.append(op(done))


# ------------------------------------------------------------------ problems


def acc_problem():
    p = envs.AccParams()
    return envs.linear_system(p), envs.constraint_spec(p)


def reduced2d_problem(v_fixed: float = 20.0, ts: float = 0.5):
    """Gap/relative-speed subsystem at a frozen ego speed: unsafe when
    the gap is below v_fixed or above 2 v_fixed."""
    A = np.array([[1.0, ts], [0.0, 1.0]])
    B = np.array([[-ts * ts / 2.0], [-ts]])
    E = np.array([[ts * ts / 2.0], [ts]])
    spec = safeset.ConstraintSpec(
        X0=PolyUnion([
            HPolytope(np.array([[1.0, 0.0]]), np.array([v_fixed])),
            HPolytope(np.array([[-1.0, 0.0]]), np.array([-2.0 * v_fixed])),
        ]),
        U=HPolytope.from_bounds([-3.0], [3.0]),
        W=HPolytope.from_bounds([-1.5], [1.5]),
        box=HPolytope.from_bounds([0.0, -20.0], [120.0, 20.0]),
    )
    return safeset.LinearSystem(A, B, E), spec


def build(sys_, spec, K: int):
    sets = safeset.compute_unrecoverable(sys_, spec, K=K)
    return sets, safeset.build_safe_artifact(sets, sys_, spec)


def _box_bounds(P: HPolytope) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of an axis-aligned box given as +-unit rows."""
    hi = np.full(P.dim, np.inf)
    lo = np.full(P.dim, -np.inf)
    for a, b in zip(P.A, P.b):
        i = int(np.argmax(np.abs(a)))
        if a[i] > 0:
            hi[i] = min(hi[i], b / a[i])
        else:
            lo[i] = max(lo[i], b / a[i])
    return lo, hi


# ------------------------------------------------------------------- builds


class BuildWorkload:
    """Repeated offline builds: compute_unrecoverable + build_safe_artifact."""

    trace_iterations = 1

    def __init__(self, problem, K: int, reference: str, dp_oracle: bool):
        self.problem, self.K, self.reference, self.dp_oracle = problem, K, reference, dp_oracle

    def setup(self):
        sys_, spec = self.problem()
        return {"sys": sys_, "spec": spec}

    def inputs(self, ctx, seed: int):
        lo, hi = _box_bounds(ctx["spec"].box)
        probes = np.random.default_rng([seed, 1]).uniform(lo, hi, size=(PROBES, lo.size))
        labels, reliable = checks.reference_labels(checks.load_reference(self.reference), probes)
        return {"probes": probes, "labels": labels, "reliable": reliable}

    def run(self, ctx, inp, seconds: float, iterations: int | None = None) -> RunResult:
        res = RunResult()
        built = []

        def op(i):
            t0 = time.perf_counter()
            try:
                built.append(build(ctx["sys"], ctx["spec"], self.K))
            except Exception as exc:  # a failed build is counted, not fatal
                _report(exc)
                built.append(None)
            span = (t0, time.perf_counter())
            return Chunk([span], [span], 1)

        _loop(res, op, seconds, iterations, MIN_BUILDS)
        grid = self._dp_grid(ctx) if self.dp_oracle else None
        for out in built:
            res.attempted += 1
            res.failed += not (out is not None and self._check(out, inp, grid))
        return res

    def _check(self, out, inp, grid) -> bool:
        sets, art = out
        if art.k_used != self.K:
            return False
        got = np.array([safeset.classify(x, art) for x in inp["probes"]])
        if np.any(got[inp["reliable"]] != inp["labels"][inp["reliable"]]):
            return False
        if grid is None:
            return True
        ours = sets.final.contains_many(grid.centers()).reshape(grid.labels.shape)
        lab = grid.labels
        edge = np.zeros_like(lab)
        edge[:-1] |= lab[1:] != lab[:-1]
        edge[1:] |= lab[1:] != lab[:-1]
        edge[:, :-1] |= lab[:, 1:] != lab[:, :-1]
        edge[:, 1:] |= lab[:, 1:] != lab[:, :-1]
        return float((ours == lab)[~edge].mean()) >= DP_AGREEMENT

    def _dp_grid(self, ctx):
        return safeset.dp_oracle(ctx["sys"], ctx["spec"], self.K, grid_resolution=100, n_u=13, n_w=5)


# ------------------------------------------------------------ ACC governor


def _acc_artifact_setup():
    sys_, spec = acc_problem()
    _, art = build(sys_, spec, ACC_K)
    cfg = governor.GovernorConfig(S=np.eye(1))
    # The governor caches per-artifact row data on first use.
    rng = np.random.default_rng(0)
    for x, u in zip(*_safe_inputs(art, rng, WARMUP_CALLS)):
        governor.govern(x, [u], art, sys_, cfg)
    return {"sys": sys_, "spec": spec, "art": art, "cfg": cfg}


def _safe_inputs(art, rng: np.random.Generator, n: int):
    """n uniform box states inside the safe region, each with a uniform
    nominal action from U."""
    u_lo, u_hi = _box_bounds(art.spec.U)
    got = []
    while sum(len(s) for s in got) < n:
        X = rng.uniform(envs.BOX_LO, envs.BOX_HI, size=(8192, 3))
        got.append(X[art.safe.contains_many(X)])
    X = np.vstack(got)[:n]
    return X, rng.uniform(u_lo[0], u_hi[0], size=n)


class GovernWorkload:
    """Closed-loop govern() calls on the ACC K=1 artifact."""

    trace_iterations = 8

    def setup(self):
        return _acc_artifact_setup()

    def inputs(self, ctx, seed: int):
        X, U = _safe_inputs(ctx["art"], np.random.default_rng([seed, 2]), GOVERN_POOL)
        return {"X": X, "U": U}

    def run(self, ctx, inp, seconds: float, iterations: int | None = None) -> RunResult:
        art, sys_, cfg = ctx["art"], ctx["sys"], ctx["cfg"]
        X, U = inp["X"], inp["U"]
        oracle = _oracle(art)
        res = RunResult()
        clock = time.perf_counter

        def op(i):
            idx = np.arange(i * GOVERN_CHUNK, (i + 1) * GOVERN_CHUNK) % GOVERN_POOL
            spans, statuses, u_safe = [], [], []
            for k in idx:
                t0 = clock()
                try:
                    r = governor.govern(X[k], [U[k]], art, sys_, cfg)
                except Exception as exc:  # counted as a failed call
                    _report(exc)
                    r = None
                spans.append((t0, clock()))
                statuses.append("raised" if r is None else r.status)
                u_safe.append(np.nan if r is None or r.u_safe is None else float(r.u_safe[0]))
            # Checked per chunk, outside the timed calls, so memory stays flat.
            ok = checks.check_governed(oracle, X[idx], U[idx], statuses, u_safe)
            res.attempted += ok.size
            res.failed += int(np.count_nonzero(~ok))
            return Chunk(spans, spans, len(spans))

        _loop(res, op, seconds, iterations, 1)
        return res


def _oracle(art) -> checks.GovernorOracle:
    u_lo, u_hi = _box_bounds(art.spec.U)
    members = art.inflated_unsafe.to_dict()["members"]
    return checks.GovernorOracle(art.system.A, art.system.B, members, u_lo[0], u_hi[0])


# ---------------------------------------------------------- safe training


class TrainWorkload:
    """learner.train(mode="safe") with a fixed seed on the ACC K=1 artifact.

    The unit operation is a training episode.  Episode boundaries come
    from the learner's own per-episode log record, timestamped by a
    LogCounter handler, so the untraced run needs no wrapper.  The first
    episode of each call is not timed: its start is hidden behind the
    Q-function pre-training.
    """

    trace_iterations = 1

    def setup(self):
        ctx = _acc_artifact_setup()
        ctx["env"] = envs.AccEnv()
        return ctx

    def inputs(self, ctx, seed: int):
        return {"cfg": learner.TrainConfig(episodes=TRAIN_EPISODES, seed=TRAIN_SEED, mode="safe")}

    def run(self, ctx, inp, seconds: float, iterations: int | None = None) -> RunResult:
        res = RunResult()
        counts = []
        u_lo, u_hi = _box_bounds(ctx["spec"].U)

        def op(i):
            with LogCounter() as marks:
                t0 = time.perf_counter()
                try:
                    _, logs = learner.train(ctx["env"], inp["cfg"], ctx["art"])
                except Exception as exc:  # counted as a failed call
                    _report(exc)
                    logs = None
                call = (t0, time.perf_counter())
            ends = [t for t, _ in marks.records.get(EPISODE_RECORD, [])]
            chunk = Chunk(list(zip(ends[:-1], ends[1:])), [call], len(ends))
            res.attempted += 1
            if logs is None or len(logs) != TRAIN_EPISODES:
                res.failed += 1
                return chunk
            u_safe = np.concatenate([log.u_safe for log in logs])
            c = (sum(log.step.size for log in logs), sum(int(log.violations.sum()) for log in logs),
                 sum(int(log.modified.sum()) for log in logs))
            counts.append(c)
            in_u = np.all((u_safe >= u_lo[0] - checks.FEAS_TOL) & (u_safe <= u_hi[0] + checks.FEAS_TOL))
            res.failed += not (in_u and c == counts[0])
            return chunk

        _loop(res, op, seconds, iterations, MIN_TRAINS)
        if counts:
            res.extra["steps"], res.extra["violations"], res.extra["modified"] = counts[0]
        return res
