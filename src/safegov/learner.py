"""Neural fitted Q-learning with an optional safety governor in the loop.

The Q-function is a small fully-connected network over the concatenated
(state, action) vector.  Actions are drawn from a uniform grid for the
epsilon-greedy argmax; the governor (safe mode) then modifies the chosen
action in the continuous input set before it reaches the environment.

Replay tuples are retargeted online: the buffer stores the *nominal*
action together with a Q-target built from the reward the *governed*
action actually earned, so the agent never perceives the modification
and keeps exploring its full action grid.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .envs import AccEnv, reward as acc_reward, nominal_policy, violates
from .governor import GovernorConfig, govern
from .safeset import SafeSetArtifact

logger = logging.getLogger(__name__)


class LearnerError(RuntimeError):
    pass


# ----------------------------------------------------------------- network


class QFunction:
    """MLP approximation of Q(x, u); inputs min-max normalized to [-1, 1]."""

    def __init__(self, weights, biases, in_lo, in_hi):
        self.weights = [np.asarray(W, dtype=float) for W in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        self.in_lo = np.asarray(in_lo, dtype=float)
        self.in_hi = np.asarray(in_hi, dtype=float)
        self._span = np.maximum(self.in_hi - self.in_lo, 1e-12)

    @classmethod
    def create(cls, in_lo, in_hi, hidden=(64, 64), rng: np.random.Generator | None = None) -> "QFunction":
        rng = rng or np.random.default_rng(0)
        in_lo = np.asarray(in_lo, dtype=float)
        sizes = [in_lo.size, *hidden, 1]
        weights, biases = [], []
        for a, b in zip(sizes[:-1], sizes[1:]):
            scale = np.sqrt(6.0 / (a + b))
            weights.append(rng.uniform(-scale, scale, size=(a, b)))
            biases.append(np.zeros(b))
        return cls(weights, biases, in_lo, in_hi)

    @property
    def hidden(self) -> tuple[int, ...]:
        return tuple(W.shape[1] for W in self.weights[:-1])

    def copy(self) -> "QFunction":
        return QFunction([W.copy() for W in self.weights], [b.copy() for b in self.biases],
                         self.in_lo.copy(), self.in_hi.copy())

    def _normalize(self, X: np.ndarray) -> np.ndarray:
        return (X - self.in_lo) / self._span * 2.0 - 1.0

    def forward(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        h = self._normalize(X)
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.tanh(h @ W + b)
        out = h @ self.weights[-1] + self.biases[-1]
        return out[:, 0]

    def q_values(self, x, actions: np.ndarray) -> np.ndarray:
        """Q(x, u) over an action grid (actions shape (k,) for scalar input)."""
        actions = np.atleast_2d(np.asarray(actions, dtype=float).reshape(len(actions), -1))
        x = np.asarray(x, dtype=float).ravel()
        X = np.hstack([np.tile(x, (actions.shape[0], 1)), actions])
        return self.forward(X)

    def loss_and_grads(self, X, y):
        """Mean squared error and its gradients by backprop."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        acts = [self._normalize(X)]
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            acts.append(np.tanh(acts[-1] @ W + b))
        pred = (acts[-1] @ self.weights[-1] + self.biases[-1])[:, 0]
        err = pred - y
        n = y.size
        loss = float(err @ err / n)
        delta = (2.0 * err / n)[:, None]
        gW = [None] * len(self.weights)
        gb = [None] * len(self.biases)
        for li in range(len(self.weights) - 1, -1, -1):
            gW[li] = acts[li].T @ delta
            gb[li] = delta.sum(axis=0)
            if li > 0:
                delta = (delta @ self.weights[li].T) * (1.0 - acts[li] ** 2)
        return loss, gW, gb

    def loss(self, X, y) -> float:
        pred = self.forward(X)
        err = pred - np.asarray(y, dtype=float).ravel()
        return float(err @ err / err.size)

    # flat parameter access (used by the finite-difference gradient check)

    def get_flat(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in (*self.weights, *self.biases)])

    def set_flat(self, flat: np.ndarray) -> None:
        i = 0
        for plist in (self.weights, self.biases):
            for j, p in enumerate(plist):
                plist[j] = flat[i:i + p.size].reshape(p.shape).copy()
                i += p.size

    def to_dict(self) -> dict:
        return {
            "in_lo": self.in_lo.tolist(),
            "in_hi": self.in_hi.tolist(),
            "weights": [W.tolist() for W in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "QFunction":
        return cls(d["weights"], d["biases"], d["in_lo"], d["in_hi"])


# ------------------------------------------------------------------ buffer


class ReplayBuffer:
    """Append-only store of (state, nominal action, Q-target) tuples."""

    def __init__(self):
        self._x: list[np.ndarray] = []
        self._u: list[float] = []
        self._t: list[float] = []

    def push(self, x, u: float, target: float) -> None:
        self._x.append(np.asarray(x, dtype=float).copy())
        self._u.append(float(u))
        self._t.append(float(target))

    def __len__(self) -> int:
        return len(self._x)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        X = np.hstack([np.vstack(self._x), np.asarray(self._u)[:, None]])
        return X, np.asarray(self._t)


# -------------------------------------------------------------- primitives


def q_target(q_old: float, reward_value: float, v_next: float, lam: float, gamma: float) -> float:
    """Blend of the old estimate and the one-step bootstrapped return."""
    return lam * q_old + (1.0 - lam) * (reward_value + gamma * v_next)


def value_of(q: QFunction, x, actions: np.ndarray) -> float:
    """max_u Q(x, u) over the action grid (first index wins ties)."""
    return float(q.q_values(x, actions).max())


def select_action(q: QFunction, x, eps: float, actions: np.ndarray, rng: np.random.Generator) -> float:
    """Epsilon-greedy over the grid; greedy ties break to the lowest index."""
    if rng.random() < eps:
        return float(actions[rng.integers(len(actions))])
    return float(actions[int(np.argmax(q.q_values(x, actions)))])


def action_grid(u_min: float, u_max: float, step: float) -> np.ndarray:
    """u_min, u_min + step, ... up to u_max; a step that does not divide the
    range stops short of u_max rather than stepping past it."""
    if step <= 0:
        raise LearnerError("action discretization step must be positive")
    n = int(np.floor((u_max - u_min) / step + 1e-9))
    return u_min + step * np.arange(n + 1)


# ------------------------------------------------------------------ config


@dataclass
class TrainConfig:
    lam: float = 0.5                 # old-estimate weight in the Q update
    gamma: float = 0.95
    eps_start: float = 0.5
    eps_end: float = 0.05
    action_step: float = 0.5         # grid spacing over the input set
    n_trajectories: int = 10         # trajectories per episode
    horizon: int = 60                # steps per trajectory (30 s at 0.5 s)
    episodes: int = 100
    hidden: tuple = (64, 64)
    fit_epochs: int = 120
    batch_size: int = 64
    fit_lr: float = 3e-3
    seed: int = 0
    mode: str = "safe"               # "safe" | "conventional"
    pretrain_states: int = 1200
    pretrain_epochs: int = 40
    node_budget: int = 20000

    def __post_init__(self):
        if not (0.0 < self.lam < 1.0):
            raise LearnerError("lam must be in (0, 1)")
        if not (0.0 < self.gamma < 1.0):
            raise LearnerError("gamma must be in (0, 1)")
        if self.action_step <= 0:
            raise LearnerError("action_step must be positive")
        if self.horizon < 1 or self.n_trajectories < 1:
            raise LearnerError("horizon and n_trajectories must be >= 1")
        if self.mode not in ("safe", "conventional"):
            raise LearnerError(f"unknown mode {self.mode!r}")

    def epsilon(self, episode: int) -> float:
        if self.episodes <= 1:
            return self.eps_start
        frac = episode / (self.episodes - 1)
        return float(self.eps_start * (self.eps_end / self.eps_start) ** frac)


# -------------------------------------------------------------------- logs


@dataclass
class EpisodeLog:
    episode: int
    trajectory: np.ndarray       # (n,)
    step: np.ndarray             # (n,)
    states: np.ndarray           # (n, 3)
    u_nom: np.ndarray
    u_safe: np.ndarray
    modified: np.ndarray         # bool
    rewards: np.ndarray
    violations: np.ndarray       # bool
    solve_times: np.ndarray
    field_names = ("episode", "trajectory", "step", "ds", "dv", "v_ego",
                   "u_nom", "u_safe", "modified", "reward", "violation")

    @property
    def violation_rate(self) -> float:
        return float(self.violations.mean()) if self.violations.size else 0.0

    @property
    def mean_reward(self) -> float:
        return float(self.rewards.mean()) if self.rewards.size else 0.0

    @property
    def reward_std(self) -> float:
        return float(self.rewards.std()) if self.rewards.size else 0.0

    def rows(self):
        for i in range(self.step.size):
            yield (
                self.episode, int(self.trajectory[i]), int(self.step[i]),
                self.states[i, 0], self.states[i, 1], self.states[i, 2],
                self.u_nom[i], self.u_safe[i], int(self.modified[i]),
                self.rewards[i], int(self.violations[i]),
            )


def write_episode_csv(logs: list[EpisodeLog], path: str) -> None:
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EpisodeLog.field_names)
        for log in logs:
            for row in log.rows():
                writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def summarize_logs(logs: list[EpisodeLog]) -> dict:
    return {
        "episodes": [
            {
                "episode": log.episode,
                "violation_rate": log.violation_rate,
                "mean_reward": log.mean_reward,
                "reward_std": log.reward_std,
                "steps": int(log.step.size),
                "modified_rate": float(log.modified.mean()) if log.modified.size else 0.0,
            }
            for log in logs
        ],
        "total_violations": int(sum(log.violations.sum() for log in logs)),
    }


# ----------------------------------------------------------------- fitting


def _adam_run(q: QFunction, X, y, train_idx, epochs, batch, lr, rng):
    mW = [np.zeros_like(W) for W in q.weights]
    vW = [np.zeros_like(W) for W in q.weights]
    mb = [np.zeros_like(b) for b in q.biases]
    vb = [np.zeros_like(b) for b in q.biases]
    b1, b2, eps = 0.9, 0.999, 1e-8
    t = 0
    idx = np.array(train_idx)
    for _ in range(epochs):
        rng.shuffle(idx)
        for s in range(0, idx.size, batch):
            sel = idx[s:s + batch]
            loss, gW, gb = q.loss_and_grads(X[sel], y[sel])
            if not np.isfinite(loss):
                raise LearnerError(f"non-finite training loss {loss!r} (batch of {sel.size})")
            t += 1
            corr = np.sqrt(1 - b2 ** t) / (1 - b1 ** t)
            for li in range(len(q.weights)):
                mW[li] = b1 * mW[li] + (1 - b1) * gW[li]
                vW[li] = b2 * vW[li] + (1 - b2) * gW[li] ** 2
                q.weights[li] -= lr * corr * mW[li] / (np.sqrt(vW[li]) + eps)
                mb[li] = b1 * mb[li] + (1 - b1) * gb[li]
                vb[li] = b2 * vb[li] + (1 - b2) * gb[li] ** 2
                q.biases[li] -= lr * corr * mb[li] / (np.sqrt(vb[li]) + eps)


def fit(q: QFunction, buffer: ReplayBuffer, epochs: int, batch: int,
        rng: np.random.Generator, lr: float = 3e-3) -> QFunction:
    """Regress the network onto the stored targets.

    A held-out slice guards against divergence: if its loss grows by more
    than 10% the update is reverted and retried once at half the step
    size.
    """
    if len(buffer) == 0:
        raise LearnerError("cannot fit on an empty replay buffer")
    X, y = buffer.arrays()
    n = y.size
    out = q.copy()
    if n >= 20:
        perm = rng.permutation(n)
        n_hold = max(1, n // 10)
        hold, train_idx = perm[:n_hold], perm[n_hold:]
    else:
        hold, train_idx = np.zeros(0, dtype=int), np.arange(n)

    before = out.loss(X[hold], y[hold]) if hold.size else None
    saved = out.get_flat()
    _adam_run(out, X, y, train_idx, epochs, batch, lr, rng)
    if hold.size:
        after = out.loss(X[hold], y[hold])
        if after > 1.1 * before + 1e-12:
            logger.info("fit(): held-out loss grew (%.4g -> %.4g); retrying at lr/2", before, after)
            out.set_flat(saved)
            _adam_run(out, X, y, train_idx, epochs, batch, lr * 0.5, rng)
    return out


def pretrain_to_policy(q: QFunction, env: AccEnv, actions: np.ndarray, cfg: TrainConfig,
                       rng: np.random.Generator) -> QFunction:
    """Shape Q so its greedy action imitates the headway tracker.

    Fits Q(x, u) ~ -(u - pi(x))^2 on box-uniform states and the full
    action grid, which makes the initial greedy policy the nearest grid
    action to the tracker output.
    """
    from .envs import BOX_LO, BOX_HI

    states = rng.uniform(BOX_LO, BOX_HI, size=(cfg.pretrain_states, 3))
    targets_u = np.array([nominal_policy(x, env.params) for x in states])
    k = len(actions)
    X = np.hstack([np.repeat(states, k, axis=0), np.tile(actions, len(states))[:, None]])
    y = -((X[:, 3] - np.repeat(targets_u, k)) ** 2)
    out = q.copy()
    _adam_run(out, X, y, np.arange(len(y)), cfg.pretrain_epochs, 256, 5e-3, rng)
    return out


# ------------------------------------------------------------- trajectories


def run_trajectory(
    env: AccEnv,
    q: QFunction,
    cfg: TrainConfig,
    rng: np.random.Generator,
    buffer: ReplayBuffer,
    actions: np.ndarray,
    eps: float,
    artifact: SafeSetArtifact | None = None,
    gov_cfg: GovernorConfig | None = None,
    x0: np.ndarray | None = None,
    disturbance: np.ndarray | None = None,
):
    """Roll one trajectory, pushing retargeted tuples into the buffer.

    Safe mode routes every nominal action through the governor; the tuple
    stored is (x, u_nominal, target-with-governed-reward).  Leaving the
    operating box ends the trajectory early.
    """
    safe_mode = cfg.mode == "safe"
    if safe_mode and artifact is None:
        raise LearnerError("safe mode requires a safe-set artifact")
    if safe_mode and gov_cfg is None:
        gov_cfg = GovernorConfig(S=np.eye(1), node_budget=cfg.node_budget)
    if x0 is None:
        x0 = env.sample_safe_state(rng, artifact) if safe_mode else _sample_band_state(env, rng)
    w_seq = disturbance if disturbance is not None else env.segment_disturbance(rng, cfg.horizon)

    x = np.asarray(x0, dtype=float).copy()
    rows = []
    for t in range(cfg.horizon):
        u_nom = select_action(q, x, eps, actions, rng)
        solve_time = 0.0
        if safe_mode:
            res = govern(x, [u_nom], artifact, env.system, gov_cfg)
            u_safe = float(res.u_safe[0])
            modified = res.modified
            solve_time = res.solve_time
        else:
            u_safe, modified = u_nom, False
        x_next = env.step(x, u_safe, float(w_seq[t]))
        r = acc_reward(x_next, env.params)
        viol = violates(x_next, env.params)
        q_old = float(q.q_values(x, np.array([u_nom]))[0])
        v_next = value_of(q, x_next, actions)
        buffer.push(x, u_nom, q_target(q_old, r, v_next, cfg.lam, cfg.gamma))
        rows.append((t, x.copy(), u_nom, u_safe, modified, r, viol, solve_time))
        if not env.in_box(x_next):
            logger.debug("trajectory left the operating box at step %d", t)
            break
        x = x_next
    return rows


def _sample_band_state(env: AccEnv, rng: np.random.Generator, max_tries: int = 2000) -> np.ndarray:
    """Conventional mode: uniform in-box state inside the headway band."""
    from .envs import BOX_LO, BOX_HI

    for _ in range(max_tries):
        x = rng.uniform(BOX_LO, BOX_HI)
        if not violates(x, env.params):
            return x
    raise RuntimeError("could not sample an in-band initial state")


def _make_episode_log(episode: int, traj_rows: list[list]) -> EpisodeLog:
    flat = [(ti, *row) for ti, rows in enumerate(traj_rows) for row in rows]
    return EpisodeLog(
        episode=episode,
        trajectory=np.array([f[0] for f in flat], dtype=int),
        step=np.array([f[1] for f in flat], dtype=int),
        states=np.array([f[2] for f in flat]) if flat else np.zeros((0, 3)),
        u_nom=np.array([f[3] for f in flat]),
        u_safe=np.array([f[4] for f in flat]),
        modified=np.array([f[5] for f in flat], dtype=bool),
        rewards=np.array([f[6] for f in flat]),
        violations=np.array([f[7] for f in flat], dtype=bool),
        solve_times=np.array([f[8] for f in flat]),
    )


def train(env: AccEnv, cfg: TrainConfig, artifact: SafeSetArtifact | None = None):
    """Algorithm: episodes of fresh-buffer trajectories, refit after each.

    Returns (QFunction, [EpisodeLog]).  Fully deterministic for a fixed
    config seed.
    """
    rng = np.random.default_rng(cfg.seed)
    actions = action_grid(env.params.u_min, env.params.u_max, cfg.action_step)
    from .envs import BOX_LO, BOX_HI

    in_lo = np.concatenate([BOX_LO, [env.params.u_min]])
    in_hi = np.concatenate([BOX_HI, [env.params.u_max]])
    q = QFunction.create(in_lo, in_hi, hidden=tuple(cfg.hidden), rng=rng)
    logs: list[EpisodeLog] = []
    if cfg.episodes == 0:
        return q, logs
    q = pretrain_to_policy(q, env, actions, cfg, rng)
    gov_cfg = GovernorConfig(S=np.eye(1), node_budget=cfg.node_budget) if cfg.mode == "safe" else None
    for e in range(cfg.episodes):
        eps = cfg.epsilon(e)
        buffer = ReplayBuffer()
        traj_rows = []
        for _ in range(cfg.n_trajectories):
            traj_rows.append(run_trajectory(
                env, q, cfg, rng, buffer, actions, eps,
                artifact=artifact, gov_cfg=gov_cfg,
            ))
        q = fit(q, buffer, cfg.fit_epochs, cfg.batch_size, rng, lr=cfg.fit_lr)
        log = _make_episode_log(e, traj_rows)
        logs.append(log)
        logger.info("episode %d: viol_rate=%.3f mean_reward=%.4f", e, log.violation_rate, log.mean_reward)
    return q, logs
