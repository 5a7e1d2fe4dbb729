import numpy as np
import pytest

from safegov.envs import (
    AccEnv,
    AccParams,
    CycleError,
    DrivingCycle,
    derive_disturbance,
    linear_system,
    load_cycle,
    nominal_error_matrix,
    nominal_policy,
    operating_box,
    reward,
    sample_segment,
    step,
    synth_cycle,
    unsafe_union,
    violates,
)

P = AccParams()


# ---------------------------------------------------------------- dynamics


def test_step_equilibrium():
    x = step([50.0, 0.0, 20.0], 0.0, 0.0, P)
    assert np.allclose(x, [50.0, 0.0, 20.0])


def test_step_acceleration():
    x = step([50.0, 0.0, 20.0], 2.0, 0.0, P)
    assert np.allclose(x, [49.75, -1.0, 21.0])


def test_step_disturbance():
    x = step([50.0, 0.0, 20.0], 0.0, 1.5, P)
    assert np.allclose(x, [50.1875, 0.75, 20.0])


def test_step_superposition():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x1, x2 = rng.normal(size=3) * 5, rng.normal(size=3) * 5
        u1, u2 = rng.uniform(-1.5, 1.5, size=2)
        w1, w2 = rng.uniform(-0.75, 0.75, size=2)
        lhs = step(x1 + x2, u1 + u2, w1 + w2, P)
        rhs = step(x1, u1, w1, P) + step(x2, u2, w2, P) - step(np.zeros(3), 0.0, 0.0, P)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_step_clips_out_of_bound_inputs():
    x = step([50.0, 0.0, 20.0], 10.0, 0.0, P)
    assert np.allclose(x, step([50.0, 0.0, 20.0], 3.0, 0.0, P))


# ----------------------------------------------------------------- reward


def test_reward_zeros_on_targets():
    assert reward([30.0, 0.0, 20.0], P) == pytest.approx(0.0, abs=1e-12)
    assert reward([7.5, 0.0, 4.0], P) == pytest.approx(0.0, abs=1e-12)


def test_reward_quadratic_value():
    assert reward([10.0, 0.0, 10.0], P) == pytest.approx(-0.25, abs=1e-12)


def test_reward_nonpositive_everywhere():
    rng = np.random.default_rng(1)
    for _ in range(500):
        x = rng.uniform([0, -20, 0], [120, 20, 40])
        assert reward(x, P) <= 0.0


def test_reward_threshold_uses_high_speed_branch():
    # at v = 5 both branches exist; the headway form governs
    assert reward([7.5, 0.0, 5.0], P) == pytest.approx(0.0, abs=1e-12)
    assert reward([9.0, 0.0, 5.0], P) == pytest.approx(-((9.0 / 5.0) - 1.5) ** 2, abs=1e-12)


# -------------------------------------------------------------- violation


def test_violates_basic():
    assert not violates([25.0, 0.0, 20.0], P)
    assert violates([10.0, 0.0, 20.0], P)
    assert violates([12.0, 0.0, 2.0], P)  # 12 / max(2,5) = 2.4 > 2


def test_unsafe_union_matches_violates_sampled():
    box = operating_box()
    X0 = unsafe_union(P, box)
    rng = np.random.default_rng(3)
    pts = rng.uniform([0, -20, 0], [120, 20, 40], size=(100_000, 3))
    member = X0.contains_many(pts, tol=0.0)
    hw = pts[:, 0] / np.maximum(pts[:, 2], 5.0)
    viol = (hw < 1.0) | (hw > 2.0)
    near = (np.abs(hw - 1.0) < 1e-4) | (np.abs(hw - 2.0) < 1e-4) | (np.abs(pts[:, 2] - 5.0) < 1e-4)
    assert np.all(member[~near] == viol[~near])


def test_unsafe_union_examples():
    X0 = unsafe_union(P)
    assert not X0.contains([30.0, 0.0, 20.0])
    assert X0.contains([10.0, 0.0, 20.0])


# ----------------------------------------------------------------- cycles


def test_load_cycle_constant_speed(tmp_path):
    f = tmp_path / "c.csv"
    f.write_text("t,v\n0.0,10.0\n1.0,10.0\n2.0,10.0\n")
    cyc = load_cycle(str(f), P)
    assert cyc.source == "csv"
    assert np.allclose(cyc.accelerations(), 0.0)
    # 1 Hz trace resampled at 2 Hz doubles the sample count (+- 1)
    assert abs(len(cyc.v) - 5) <= 1


def test_load_cycle_errors_carry_line_numbers(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("t,v\n0.0,10.0\n1.0,oops\n")
    with pytest.raises(CycleError, match=":3:"):
        load_cycle(str(f), P)
    f.write_text("speed,time\n0,1\n")
    with pytest.raises(CycleError, match="header"):
        load_cycle(str(f), P)
    f.write_text("t,v\n1.0,5.0\n0.5,6.0\n")
    with pytest.raises(CycleError, match="increasing"):
        load_cycle(str(f), P)


def test_synth_cycle_bounded_accelerations():
    cyc = synth_cycle(seed=4, duration=600.0, p=P)
    acc = cyc.accelerations()
    assert np.all(acc >= P.w_min - 1e-12)
    assert np.all(acc <= P.w_max + 1e-12)
    assert np.all(cyc.v >= 0.0)
    assert np.all(cyc.v <= 30.0)


def test_sample_segment_and_disturbance():
    cyc = synth_cycle(seed=5, duration=300.0, p=P)
    rng = np.random.default_rng(0)
    seg = sample_segment(cyc, 30.0, rng)
    assert len(seg.v) == 61
    w = derive_disturbance(seg, P)
    assert w.shape == (60,)
    assert np.all((w >= P.w_min) & (w <= P.w_max))
    full = sample_segment(cyc, cyc.duration, rng)
    assert np.array_equal(full.v, cyc.v)
    with pytest.raises(CycleError):
        sample_segment(cyc, cyc.duration + 1.0, rng)
    const = DrivingCycle(v=np.full(11, 7.0), ts=P.ts)
    assert np.allclose(derive_disturbance(const, P), 0.0)


# --------------------------------------------------------- nominal policy


def test_nominal_policy_equilibrium_and_clip():
    assert nominal_policy([50.0, 0.0, 20.0], P) == pytest.approx(0.0, abs=1e-12)
    assert nominal_policy([30.0, 0.0, 20.0], P) == pytest.approx(-3.0, abs=1e-12)


def test_nominal_error_dynamics_stable():
    M = nominal_error_matrix(P)
    eig = np.abs(np.linalg.eigvals(M))
    assert eig.max() < 1.0


def test_nominal_policy_converges_to_its_headway():
    x = np.array([60.0, 0.0, 20.0])
    for _ in range(120):  # 60 s
        x = step(x, nominal_policy(x, P), 0.0, P)
    assert abs(x[0] / x[2] - 2.5) < 0.1


def test_env_helpers():
    env = AccEnv(cycle_seed=2, cycle_duration=120.0)
    rng = np.random.default_rng(8)
    w = env.segment_disturbance(rng, 60)
    assert w.shape == (60,)
    assert env.in_box([50.0, 0.0, 20.0])
    assert not env.in_box([130.0, 0.0, 20.0])
    sys = linear_system(P)
    assert np.allclose(sys.step([50, 0, 20], [2.0], [0.0]), [49.75, -1.0, 21.0])
