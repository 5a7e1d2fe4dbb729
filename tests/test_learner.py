import logging
import math

import numpy as np
import pytest

import learner_reference as ref
from safegov import learner
from safegov.envs import BOX_HI, BOX_LO, AccEnv, constraint_spec, reward
from safegov.geometry import FEAS_TOL
from safegov.governor import GovernorConfig, govern
from safegov.learner import (
    LearnerError,
    QFunction,
    ReplayBuffer,
    TrainConfig,
    action_grid,
    fit,
    pretrain_to_policy,
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


def _random_net(rng, sizes):
    lo = -rng.uniform(1.0, 3.0, size=sizes[0])
    hi = rng.uniform(1.0, 3.0, size=sizes[0])
    q = QFunction.create(lo, hi, hidden=sizes[1:-1], rng=rng)
    for b in q.biases:
        b[:] = rng.normal(scale=0.3, size=b.size)
    return q


@pytest.mark.parametrize("sizes", [(4, 64, 64, 1), (3, 8, 1), (5, 16, 12, 9, 1)])
def test_network_matches_reference_bitwise(sizes):
    """Forward, q-values, loss and gradient, and theta after 50 Adam steps,
    are the bytes of the allocate-per-operation reference."""
    rng = np.random.default_rng(sum(sizes))
    for trial in range(3):
        q = _random_net(rng, sizes)
        for n in (1, 3, 64, 256):
            pool = rng.uniform(q.in_lo * 1.2, q.in_hi * 1.2, size=(2 * n + 5, sizes[0]))
            X = pool[rng.permutation(pool.shape[0])[:n]]        # fancy-indexed, as a batch is
            y = rng.normal(size=n)
            loss, grad = q.loss_and_grads(X, y)
            loss_ref, grad_ref = ref.loss_and_grads(q, X, y)
            assert loss == loss_ref
            assert grad.tobytes() == grad_ref.tobytes()
            assert q.forward(X).tobytes() == ref.forward(q, X).tobytes()
            actions = rng.uniform(-3.0, 3.0, size=n)
            x = X[0, :-1]
            assert q.q_values(x, actions).tobytes() == ref.q_values(q, x, actions).tobytes()

        X = rng.uniform(q.in_lo, q.in_hi, size=(130, sizes[0]))
        y = rng.normal(size=130)
        train_idx = rng.permutation(130)[:100]
        for batch, epochs in ((10, 5), (64, 25), (256, 50)):          # 50 steps each
            a, b = q.copy(), q.copy()
            rng_a, rng_b = np.random.default_rng(trial), np.random.default_rng(trial)
            learner._adam_run(a, X, y, train_idx, epochs, batch, 3e-3, rng_a)
            ref._adam_run(b, X, y, train_idx, epochs, batch, 3e-3, rng_b)
            assert not np.array_equal(a.theta, q.theta)
            assert a.theta.tobytes() == b.theta.tobytes()
            assert rng_a.random() == rng_b.random()


def _reference_train(monkeypatch, env, cfg, art=None):
    with monkeypatch.context() as m:
        m.setattr(QFunction, "forward", ref.forward)
        m.setattr(QFunction, "q_values", ref.q_values)
        m.setattr(QFunction, "loss_and_grads", ref.loss_and_grads)
        m.setattr(learner, "_adam_run", ref._adam_run)
        return train(env, cfg, art)


@pytest.mark.parametrize("mode", ["conventional", "safe"])
def test_train_matches_reference_bitwise(monkeypatch, mode):
    env = AccEnv()
    art = None
    if mode == "safe":
        spec = constraint_spec(env.params)
        art = build_safe_artifact(compute_unrecoverable(env.system, spec, K=0), env.system, spec)
    cfg = TrainConfig(seed=7, mode=mode, **TINY)
    q, logs = train(env, cfg, art)
    q_ref, logs_ref = _reference_train(monkeypatch, env, cfg, art)
    assert q.theta.tobytes() == q_ref.theta.tobytes()
    assert len(logs) == len(logs_ref) == cfg.episodes
    for a, b in zip(logs, logs_ref):
        for name in LOG_ARRAYS:
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def _count_batches(monkeypatch):
    sizes = []
    real = QFunction.loss_and_grads

    def counted(self, X, y):
        sizes.append(len(y))
        return real(self, X, y)

    monkeypatch.setattr(QFunction, "loss_and_grads", counted)
    return sizes


def _expected_batches(n_train, epochs, batch):
    per_epoch = [batch] * (n_train // batch) + ([n_train % batch] if n_train % batch else [])
    assert len(per_epoch) == math.ceil(n_train / batch)
    return per_epoch * epochs


@pytest.mark.parametrize("n, epochs, batch", [(45, 3, 8), (64, 2, 64), (12, 4, 5), (200, 2, 64)])
def test_fit_takes_one_step_per_batch(monkeypatch, caplog, n, epochs, batch):
    rng = np.random.default_rng(n)
    q = QFunction.create([0.0] * 4, [1.0] * 4, hidden=(6,), rng=rng)
    buf = ReplayBuffer()
    for x, t in zip(rng.uniform(size=(n, 4)), rng.normal(size=n)):
        buf.push(x[:3], x[3], t)
    sizes = _count_batches(monkeypatch)
    with caplog.at_level(logging.INFO, logger="safegov.learner"):
        fit(q, buf, epochs=epochs, batch=batch, rng=rng, lr=1e-4)
    reverted = any("held-out loss grew" in r.getMessage() for r in caplog.records)
    n_train = n - max(1, n // 10) if n >= 20 else n
    assert sizes == _expected_batches(n_train, epochs, batch) * (2 if reverted else 1)


def test_pretrain_takes_one_step_per_batch(monkeypatch):
    env = AccEnv()
    cfg = TrainConfig(pretrain_states=30, pretrain_epochs=3)
    actions = action_grid(env.params.u_min, env.params.u_max, cfg.action_step)
    rng = np.random.default_rng(0)
    q = QFunction.create([*BOX_LO, env.params.u_min], [*BOX_HI, env.params.u_max], hidden=(4,), rng=rng)
    sizes = _count_batches(monkeypatch)
    pretrain_to_policy(q, env, actions, cfg, rng)
    assert sizes == _expected_batches(cfg.pretrain_states * len(actions), cfg.pretrain_epochs, 256)


@pytest.mark.parametrize("field, value", [("batch_size", 0), ("fit_epochs", -1), ("episodes", -2),
                                          ("pretrain_states", 0), ("hidden", (0,))])
def test_train_config_rejects_a_run_that_cannot_train(field, value):
    # batch_size = 0 failed only after pretraining, inside range(); the
    # others trained silently with no fit, no episode, no pretraining rows
    # or a zero-width layer.
    with pytest.raises(LearnerError, match=rf"^{field}"):
        TrainConfig(**{**TINY, field: value})


def test_train_config_with_no_episodes_trains_nothing():
    q, logs = train(AccEnv(), TrainConfig(**{**TINY, "episodes": 0}))
    assert logs == [] and np.isfinite(q.theta).all()


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
