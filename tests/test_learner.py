import numpy as np
import pytest

from safegov.envs import AccEnv
from safegov.learner import QFunction, ReplayBuffer, TrainConfig, action_grid, train


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    q = QFunction.create([-1.0, 0.0, 2.0], [1.0, 3.0, 5.0], hidden=(5, 4), rng=rng)
    X = rng.uniform([-1.0, 0.0, 2.0], [1.0, 3.0, 5.0], size=(9, 3))
    y = rng.normal(size=9)
    loss, gW, gb = q.loss_and_grads(X, y)
    assert loss == pytest.approx(q.loss(X, y), rel=1e-12)
    grad = np.concatenate([g.ravel() for g in (*gW, *gb)])

    theta = q.get_flat()
    h = 1e-6
    fd = np.empty_like(theta)
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h
        q.set_flat(theta + step)
        up = q.loss(X, y)
        q.set_flat(theta - step)
        down = q.loss(X, y)
        fd[i] = (up - down) / (2 * h)
    q.set_flat(theta)
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
    cfg = dict(episodes=2, n_trajectories=2, horizon=12, hidden=(8,), fit_epochs=2, batch_size=8,
               pretrain_states=20, pretrain_epochs=1, mode="conventional")
    runs = [train(env, TrainConfig(seed=seed, **cfg)) for seed in (4, 4, 5)]
    (q1, logs1), (q2, logs2), (q3, _) = runs
    assert np.array_equal(q1.get_flat(), q2.get_flat())
    assert len(logs1) == len(logs2) == 2
    for a, b in zip(logs1, logs2):
        for name in ("trajectory", "step", "states", "u_nom", "u_safe", "modified", "rewards", "violations"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert not np.array_equal(q1.get_flat(), q3.get_flat())
