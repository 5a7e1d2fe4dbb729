import logging

import numpy as np
import pytest

from safegov.envs import BOX_HI, BOX_LO, AccEnv, constraint_spec, reward
from safegov.geometry import FEAS_TOL
from safegov.governor import GovernorConfig, govern
from safegov.learner import (
    QFunction,
    ReplayBuffer,
    TrainConfig,
    action_grid,
    fit,
    q_target,
    run_trajectory,
    train,
)
from safegov.safeset import build_safe_artifact, compute_unrecoverable

LOG_ARRAYS = ("trajectory", "step", "states", "u_nom", "u_safe", "modified", "fallback", "rewards",
              "violations")
TINY = dict(episodes=2, n_trajectories=2, horizon=12, hidden=(8,), fit_epochs=2, batch_size=8,
            pretrain_states=20, pretrain_epochs=1)


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    q = QFunction.create([-1.0, 0.0, 2.0], [1.0, 3.0, 5.0], hidden=(5, 4), rng=rng)
    X = rng.uniform([-1.0, 0.0, 2.0], [1.0, 3.0, 5.0], size=(9, 3))
    y = rng.normal(size=9)
    loss, grad = q.loss_and_grads(X, y)
    assert loss == pytest.approx(q.loss(X, y), rel=1e-12)
    assert grad.shape == q.theta.shape

    theta = q.theta.copy()
    h = 1e-6
    fd = np.empty_like(theta)
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h
        q.theta[:] = theta + step
        up = q.loss(X, y)
        q.theta[:] = theta - step
        down = q.loss(X, y)
        fd[i] = (up - down) / (2 * h)
    q.theta[:] = theta
    assert np.allclose(grad, fd, rtol=1e-5, atol=1e-8)


def test_replay_buffer_arrays_keep_push_order():
    buf = ReplayBuffer()
    tuples = [([1.0, 2.0, 3.0], -1.5, 0.25), ([4.0, 5.0, 6.0], 0.0, -2.0), ([7.0, 8.0, 9.0], 2.5, 1.0)]
    for x, u, t in tuples:
        buf.push(x, u, t)
    X, y = buf.arrays()
    assert len(buf) == 3
    assert np.array_equal(X, [[*x, u] for x, u, _ in tuples])
    assert np.array_equal(y, [t for _, _, t in tuples])


def test_action_grid_default_and_non_dividing_steps():
    assert np.array_equal(action_grid(-3.0, 3.0, 0.5), -3.0 + 0.5 * np.arange(13))
    for lo, hi, step in [(-3.0, 3.0, 0.7), (-3.0, 3.0, 0.4), (0.0, 1.0, 0.3), (-1.0, 2.5, 2.0)]:
        grid = action_grid(lo, hi, step)
        assert grid[0] == lo
        assert np.all((grid >= lo) & (grid <= hi)), (lo, hi, step, grid)
        assert hi - grid[-1] < step


def test_train_is_deterministic_per_seed():
    env = AccEnv()
    runs = [train(env, TrainConfig(seed=seed, mode="conventional", **TINY)) for seed in (4, 4, 5)]
    (q1, logs1), (q2, logs2), (q3, _) = runs
    assert np.array_equal(q1.theta, q2.theta)
    assert len(logs1) == len(logs2) == 2
    for a, b in zip(logs1, logs2):
        for name in LOG_ARRAYS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert not any(log.fallback.any() for log in logs1)
    assert not np.array_equal(q1.theta, q3.theta)


def test_safe_training_is_deterministic_and_governed():
    env = AccEnv()
    spec = constraint_spec(env.params)
    art = build_safe_artifact(compute_unrecoverable(env.system, spec, K=0), env.system, spec)
    cfg = TrainConfig(seed=4, mode="safe", **TINY)
    (q1, logs1), (q2, logs2) = train(env, cfg, art), train(env, cfg, art)
    assert np.array_equal(q1.theta, q2.theta)
    for a, b in zip(logs1, logs2):
        for name in LOG_ARRAYS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    states = np.vstack([log.states for log in logs1])
    u_nom = np.concatenate([log.u_nom for log in logs1])
    u_safe = np.concatenate([log.u_safe for log in logs1])
    fallback = np.concatenate([log.fallback for log in logs1])
    assert np.all((u_safe >= env.params.u_min - FEAS_TOL) & (u_safe <= env.params.u_max + FEAS_TOL))
    assert any(log.modified.any() for log in logs1)
    assert fallback.any()
    gov_cfg = GovernorConfig(S=np.eye(1))
    for x, u, us, fb in zip(states, u_nom, u_safe, fallback):
        res = govern(x, [u], art, env.system, gov_cfg)
        assert res.u_safe[0] == us
        assert fb == (res.status == "fallback")


def test_trajectory_targets_bootstrap_from_the_next_state():
    env = AccEnv()
    cfg = TrainConfig(mode="conventional", horizon=15)
    rng = np.random.default_rng(3)
    actions = action_grid(env.params.u_min, env.params.u_max, cfg.action_step)
    q = QFunction.create([*BOX_LO, env.params.u_min], [*BOX_HI, env.params.u_max], hidden=(2,), rng=rng)
    # A bump in u that moves with the gap, so the greedy action changes
    # along the trajectory and a stale Q(x, grid) would show.
    k = 10.0
    q.weights[0][:] = [[-4 * k, -4 * k], [0.0, 0.0], [0.0, 0.0], [k, k]]
    q.biases[0][:] = [0.0, -0.3 * k]
    q.weights[1][:] = [[1.0], [-1.0]]
    w = rng.uniform(-1.0, 1.0, size=cfg.horizon)
    buf = ReplayBuffer()
    rows = run_trajectory(env, q, cfg, rng, buf, actions, eps=0.0,
                          x0=np.array([50.0, 0.5, 20.0]), disturbance=w)
    X, y = buf.arrays()
    assert len(rows) == len(buf) == cfg.horizon
    assert np.unique(X[:, 3]).size > 3
    for t, (row, target) in enumerate(zip(X, y)):
        x, u = row[:3], row[3]
        assert u == actions[np.argmax(q.q_values(x, actions))]
        x_next = env.step(x, u, w[t])
        q_old = q.q_values(x, np.array([u]))[0]
        v_next = q.q_values(x_next, actions).max()
        assert target == q_target(q_old, reward(x_next, env.params), v_next, cfg.lam, cfg.gamma), t


def test_fit_reverts_when_held_out_loss_grows(caplog):
    rng = np.random.default_rng(1)
    q = QFunction.create([0.0] * 4, [1.0] * 4, hidden=(8,), rng=rng)
    buf = ReplayBuffer()
    for x, t in zip(rng.uniform(size=(40, 4)), rng.normal(size=40)):
        buf.push(x[:3], x[3], t)
    theta = q.theta.copy()
    with caplog.at_level(logging.INFO, logger="safegov.learner"):
        out = fit(q, buf, epochs=20, batch=8, rng=rng, lr=3e-3)
    assert any("held-out loss grew" in r.getMessage() for r in caplog.records)
    assert np.array_equal(q.theta, theta)
    assert np.all(np.isfinite(out.theta))


def test_q_target_blend():
    # 0.5 * 2 + 0.5 * (-1 + 0.9 * 4)
    assert q_target(2.0, -1.0, 4.0, 0.5, 0.9) == pytest.approx(2.3, abs=1e-12)
