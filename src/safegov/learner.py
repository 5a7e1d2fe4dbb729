"""Neural fitted Q-learning with an optional safety governor in the loop.

The Q-function is a small fully-connected network over the concatenated
(state, action) vector.  Its parameters live in one flat vector `theta`:
every weight matrix (layer order, C order), then every bias vector.
Actions are drawn from a uniform grid for the epsilon-greedy argmax; the
governor (safe mode) then modifies the chosen action in the continuous
input set before it reaches the environment.

A trajectory evaluates Q over the action grid once per visited state:
the values at x_next give both the bootstrap value max_u Q(x_next, u)
and the next step's greedy choice.

Replay tuples are retargeted online: the buffer stores the *nominal*
action together with a Q-target built from the reward the *governed*
action actually earned, so the agent never perceives the modification
and keeps exploring its full action grid.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .envs import BOX_HI, BOX_LO, AccEnv, reward as acc_reward, nominal_policy, violates
from .governor import STATUS_FALLBACK, GovernorConfig, govern
from .safeset import SafeSetArtifact

logger = logging.getLogger(__name__)


class LearnerError(RuntimeError):
    pass


# ----------------------------------------------------------------- network


class QFunction:
    """MLP approximation of Q(x, u); inputs min-max normalized to [-1, 1].

    `theta` holds every parameter: the weight matrices of `sizes` (layer
    order, C order), then the bias vectors.  `weights` and `biases` are
    views into it, so an in-place update of `theta` updates the network.

    `forward` and `loss_and_grads` are the per-step calls: every Q
    evaluation goes through the first and every training step through the
    second, so a tracer that wraps them by name sees all of the network's
    work.  Both run the layers in place (one array per layer, bias add and
    tanh into it); each floating-point operation is the one a plain
    ``np.tanh(h @ W + b)`` would do, in the same order.
    """

    def __init__(self, theta, sizes, in_lo, in_hi):
        self.theta = np.asarray(theta, dtype=float)
        self.sizes = tuple(sizes)
        self.in_lo = np.asarray(in_lo, dtype=float)
        self.in_hi = np.asarray(in_hi, dtype=float)
        self._span = np.maximum(self.in_hi - self.in_lo, 1e-12)
        # Per layer: its weight slice of theta, the weight shape, its bias slice.
        layers = list(zip(self.sizes[:-1], self.sizes[1:]))
        w, i = 0, sum(a * b for a, b in layers)
        self._grad_slices = []
        for a, b in layers:
            self._grad_slices.append((slice(w, w + a * b), (a, b), slice(i, i + b)))
            w, i = w + a * b, i + b
        self.weights = [self.theta[ws].reshape(shape) for ws, shape, _ in self._grad_slices]
        self.biases = [self.theta[bs] for _, _, bs in self._grad_slices]

    @classmethod
    def create(cls, in_lo, in_hi, hidden=(64, 64), rng: np.random.Generator | None = None) -> "QFunction":
        rng = rng or np.random.default_rng(0)
        in_lo = np.asarray(in_lo, dtype=float)
        sizes = [in_lo.size, *hidden, 1]
        weights = []
        for a, b in zip(sizes[:-1], sizes[1:]):
            scale = np.sqrt(6.0 / (a + b))
            weights.append(rng.uniform(-scale, scale, size=(a, b)).ravel())
        theta = np.concatenate([*weights, np.zeros(sum(sizes[1:]))])
        return cls(theta, sizes, in_lo, in_hi)

    def copy(self) -> "QFunction":
        return QFunction(self.theta.copy(), self.sizes, self.in_lo, self.in_hi)

    def _normalize(self, X: np.ndarray) -> np.ndarray:
        h = X - self.in_lo
        h /= self._span
        h *= 2.0
        h -= 1.0
        return h

    def _hidden(self, h: np.ndarray) -> list[np.ndarray]:
        """Activations of every layer but the output, the input's first."""
        acts = [h]
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            h = h @ W
            h += b
            np.tanh(h, out=h)
            acts.append(h)
        return acts

    def _output(self, h: np.ndarray) -> np.ndarray:
        out = h @ self.weights[-1]
        out += self.biases[-1]
        return out[:, 0]

    def forward(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self._output(self._hidden(self._normalize(X))[-1])

    def q_values(self, x, actions: np.ndarray) -> np.ndarray:
        """Q(x, u) over an action grid (actions shape (k,) for scalar input)."""
        actions = np.asarray(actions, dtype=float).reshape(len(actions), -1)
        x = np.asarray(x, dtype=float).ravel()
        X = np.empty((actions.shape[0], x.size + actions.shape[1]))
        X[:, :x.size] = x
        X[:, x.size:] = actions
        return self.forward(X)

    def loss_and_grads(self, X, y) -> tuple[float, np.ndarray]:
        """Mean squared error and its gradient by backprop, laid out as theta.

        Each layer's gradient is written straight into its slice of the
        returned vector.  The width-1 output layer back-propagates by a
        broadcast multiply, delta * W[:, 0], which gives the bytes of the
        k=1 product delta @ W.T at a fraction of its cost.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        acts = self._hidden(self._normalize(X))
        err = self._output(acts[-1]) - y
        n = y.size
        loss = float(err @ err / n)
        err *= 2.0
        err /= n
        delta = err[:, None]
        grad = np.empty_like(self.theta)
        for li in range(len(self.weights) - 1, -1, -1):
            w_slice, shape, b_slice = self._grad_slices[li]
            np.matmul(acts[li].T, delta, out=grad[w_slice].reshape(shape))
            delta.sum(axis=0, out=grad[b_slice])
            if li > 0:
                W = self.weights[li]
                delta = delta * W[:, 0] if W.shape[1] == 1 else delta @ W.T
                a = acts[li]                    # spent: becomes 1 - a**2 in place
                a *= a
                np.subtract(1.0, a, out=a)
                delta *= a
        return loss, grad

    def loss(self, X, y) -> float:
        pred = self.forward(X)
        err = pred - np.asarray(y, dtype=float).ravel()
        return float(err @ err / err.size)


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


def select_action(q_x: np.ndarray, eps: float, actions: np.ndarray, rng: np.random.Generator) -> float:
    """Epsilon-greedy over the grid, given q_x = Q(x, actions); greedy ties
    break to the lowest index."""
    if rng.random() < eps:
        return float(actions[rng.integers(len(actions))])
    return float(actions[int(np.argmax(q_x))])


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
        # episodes = 0 is a run with no logs; the others must be positive.
        if self.episodes < 0:
            raise LearnerError(f"episodes must be >= 0, not {self.episodes}")
        for name in ("fit_epochs", "batch_size", "pretrain_states"):
            if getattr(self, name) < 1:
                raise LearnerError(f"{name} must be >= 1, not {getattr(self, name)}")
        if any(width < 1 for width in self.hidden):
            raise LearnerError(f"hidden layer widths must be >= 1, not {tuple(self.hidden)}")

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
    fallback: np.ndarray         # bool: govern() returned status "fallback"
    rewards: np.ndarray
    violations: np.ndarray       # bool
    solve_times: np.ndarray

    @property
    def violation_rate(self) -> float:
        return float(self.violations.mean()) if self.violations.size else 0.0

    @property
    def mean_reward(self) -> float:
        return float(self.rewards.mean()) if self.rewards.size else 0.0


# ----------------------------------------------------------------- fitting


def _adam_run(q: QFunction, X, y, train_idx, epochs, batch, lr, rng):
    """Adam (Kingma & Ba 2015) on minibatches of the rows `train_idx`.

    Each epoch gathers its shuffled rows once and takes the batches as
    views.  The moments and one work vector are allocated once and
    updated in place; each update is the same sequence of IEEE operations
    as m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
    theta -= (lr corr) m / (sqrt(v) + eps).
    """
    m = np.zeros_like(q.theta)
    v = np.zeros_like(q.theta)
    tmp = np.empty_like(q.theta)
    b1, b2, eps = 0.9, 0.999, 1e-8
    t = 0
    idx = np.array(train_idx)
    for _ in range(epochs):
        rng.shuffle(idx)
        Xe, ye = X[idx], y[idx]
        for s in range(0, idx.size, batch):
            yb = ye[s:s + batch]
            loss, g = q.loss_and_grads(Xe[s:s + batch], yb)
            if not math.isfinite(loss):
                raise LearnerError(f"non-finite training loss {loss!r} (batch of {yb.size})")
            t += 1
            corr = math.sqrt(1 - b2 ** t) / (1 - b1 ** t)
            m *= b1
            np.multiply(g, 1 - b1, out=tmp)
            m += tmp
            np.multiply(g, g, out=tmp)
            tmp *= 1 - b2
            v *= b2
            v += tmp
            np.multiply(m, lr * corr, out=g)    # g is spent: it holds the step
            np.sqrt(v, out=tmp)
            tmp += eps
            g /= tmp
            q.theta -= g


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
    saved = out.theta.copy()
    _adam_run(out, X, y, train_idx, epochs, batch, lr, rng)
    if hold.size:
        after = out.loss(X[hold], y[hold])
        if after > 1.1 * before + 1e-12:
            logger.info("fit(): held-out loss grew (%.4g -> %.4g); retrying at lr/2", before, after)
            out.theta[:] = saved
            _adam_run(out, X, y, train_idx, epochs, batch, lr * 0.5, rng)
    return out


def pretrain_to_policy(q: QFunction, env: AccEnv, actions: np.ndarray, cfg: TrainConfig,
                       rng: np.random.Generator) -> QFunction:
    """Shape Q so its greedy action imitates the headway tracker.

    Fits Q(x, u) ~ -(u - pi(x))^2 on box-uniform states and the full
    action grid, which makes the initial greedy policy the nearest grid
    action to the tracker output.
    """
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
        gov_cfg = GovernorConfig(S=np.eye(1))
    if x0 is None:
        x0 = env.sample_safe_state(rng, artifact) if safe_mode else _sample_band_state(env, rng)
    w_seq = disturbance if disturbance is not None else env.segment_disturbance(rng, cfg.horizon)

    x = np.asarray(x0, dtype=float).copy()
    q_x = q.q_values(x, actions)
    rows = []
    for t in range(cfg.horizon):
        u_nom = select_action(q_x, eps, actions, rng)
        solve_time = 0.0
        if safe_mode:
            res = govern(x, [u_nom], artifact, env.system, gov_cfg)
            u_safe = float(res.u_safe[0])
            modified = res.modified
            fallback = res.status == STATUS_FALLBACK
            solve_time = res.solve_time
        else:
            u_safe, modified, fallback = u_nom, False, False
        x_next = env.step(x, u_safe, float(w_seq[t]))
        r = acc_reward(x_next, env.params)
        viol = violates(x_next, env.params)
        # A one-row forward, not q_x: row k of the grid evaluation differs
        # from it in the last bits, because BLAS takes another path.
        q_old = float(q.q_values(x, np.array([u_nom]))[0])
        q_x_next = q.q_values(x_next, actions)
        buffer.push(x, u_nom, q_target(q_old, r, float(q_x_next.max()), cfg.lam, cfg.gamma))
        rows.append((t, x.copy(), u_nom, u_safe, modified, fallback, r, viol, solve_time))
        if not env.in_box(x_next):
            logger.debug("trajectory left the operating box at step %d", t)
            break
        x, q_x = x_next, q_x_next
    return rows


def _sample_band_state(env: AccEnv, rng: np.random.Generator, max_tries: int = 2000) -> np.ndarray:
    """Conventional mode: uniform in-box state inside the headway band."""
    for _ in range(max_tries):
        x = rng.uniform(BOX_LO, BOX_HI)
        if not violates(x, env.params):
            return x
    raise RuntimeError("could not sample an in-band initial state")


def _make_episode_log(episode: int, traj_rows: list[list]) -> EpisodeLog:
    flat = [(ti, *row) for ti, rows in enumerate(traj_rows) for row in rows]
    traj, step, states, u_nom, u_safe, modified, fallback, rewards, violations, solve_times = zip(*flat)
    return EpisodeLog(
        episode=episode,
        trajectory=np.array(traj, dtype=int),
        step=np.array(step, dtype=int),
        states=np.array(states),
        u_nom=np.array(u_nom),
        u_safe=np.array(u_safe),
        modified=np.array(modified, dtype=bool),
        fallback=np.array(fallback, dtype=bool),
        rewards=np.array(rewards),
        violations=np.array(violations, dtype=bool),
        solve_times=np.array(solve_times),
    )


def train(env: AccEnv, cfg: TrainConfig, artifact: SafeSetArtifact | None = None):
    """Algorithm: episodes of fresh-buffer trajectories, refit after each.

    Returns (QFunction, [EpisodeLog]).  Fully deterministic for a fixed
    config seed.
    """
    rng = np.random.default_rng(cfg.seed)
    actions = action_grid(env.params.u_min, env.params.u_max, cfg.action_step)
    in_lo = np.concatenate([BOX_LO, [env.params.u_min]])
    in_hi = np.concatenate([BOX_HI, [env.params.u_max]])
    q = QFunction.create(in_lo, in_hi, hidden=tuple(cfg.hidden), rng=rng)
    logs: list[EpisodeLog] = []
    if cfg.episodes == 0:
        return q, logs
    q = pretrain_to_policy(q, env, actions, cfg, rng)
    gov_cfg = GovernorConfig(S=np.eye(1)) if cfg.mode == "safe" else None
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
