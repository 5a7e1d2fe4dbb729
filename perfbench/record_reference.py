"""Record the reference sets the build workloads' labels are checked against.

    python3 perfbench/record_reference.py

Builds the ACC K=1 and reduced 2-D K=3 artifacts with the current
sources and writes X0 and the safe region of each to
perfbench/reference/.  Probe labels (unsafe / safe / unrecoverable) are
derived from these sets, so rerun this only when a change to the
artifacts is intended, and say so with the change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from run import _commit  # noqa: E402


def main() -> None:
    cases = {
        "acc_k1": (workloads.acc_problem, workloads.ACC_K),
        "reduced2d_k3": (workloads.reduced2d_problem, workloads.REDUCED2D_K),
    }
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    for name, (problem, K) in cases.items():
        sys_, spec = problem()
        sets, art = workloads.build(sys_, spec, K)
        ref = {
            "commit": _commit(),
            "k_used": art.k_used,
            "fixpoint_reached": art.fixpoint_reached,
            "members_per_k": [len(s) for s in sets.sets],
            "X0": art.spec.X0.to_dict()["members"],
            "safe": art.safe.to_dict()["members"],
        }
        with open(os.path.join(HERE, "reference", f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1)
        print(name, ref["members_per_k"], len(ref["safe"]), "safe members")


if __name__ == "__main__":
    main()
