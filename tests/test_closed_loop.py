"""Closed-loop invariance of governed trajectories on a fixpoint artifact.

The 1-D system x+ = x + u + w with X0 = {x <= 0}, U = [-1, 1],
W = [-0.5, 0.5] and box [-10, 10] reaches its fixpoint at K = 1: X_1 = X0,
the inflated set is {x <= 0.5} and the safe region [0.5, 10].  From any
safe state, whatever the nominal actions and the disturbances, the
governor must never fall back and no successor may enter X0 beyond
FEAS_TOL.  A bang-bang w = -0.5 after the least modification lands on the
closed boundary x = 0 itself, which counts as outside; the governor keeps
states in [0, 0.5) outside X0 too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safegov.geometry import FEAS_TOL, HPolytope, PolyUnion
from safegov.governor import GovernorConfig, govern
from safegov.safeset import ConstraintSpec, LinearSystem, build_safe_artifact, compute_unrecoverable


@pytest.fixture(scope="module")
def fixpoint_1d():
    sys = LinearSystem(np.eye(1), np.eye(1), np.eye(1))
    spec = ConstraintSpec(
        X0=PolyUnion([HPolytope(np.array([[1.0]]), np.array([0.0]))]),
        U=HPolytope.from_bounds([-1.0], [1.0]),
        W=HPolytope.from_bounds([-0.5], [0.5]),
        box=HPolytope.from_bounds([-10.0], [10.0]),
    )
    sets = compute_unrecoverable(sys, spec, K=3)
    assert sets.fixpoint_reached
    return build_safe_artifact(sets, sys, spec), sys, spec


disturbance = st.floats(-0.5, 0.5) | st.sampled_from([-0.5, 0.5])


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(x0=st.floats(0.5, 10.0), steps=st.lists(st.tuples(st.floats(-1.0, 1.0), disturbance),
                                               min_size=1, max_size=40))
def test_governed_trajectories_never_enter_X0(fixpoint_1d, x0, steps):
    art, sys, spec = fixpoint_1d
    cfg = GovernorConfig(S=np.eye(1))
    x = np.array([x0])
    assert art.safe.contains(x)
    for u_nom, w in steps:
        res = govern(x, [u_nom], art, sys, cfg)
        assert res.status == "optimal", (x, u_nom)
        x = sys.step(x, res.u_safe, [w])
        assert x[0] >= -FEAS_TOL, (u_nom, w, res.u_safe)
        # Leaving the box is not prevented by the governor; the trajectory
        # ends there.
        if not spec.box.contains(x):
            break
