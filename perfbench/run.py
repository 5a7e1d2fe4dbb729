"""safegov benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload acc_govern --seed 1 --seconds 10 --trace 0

--trace 0 measures the end-to-end metrics with no wrapper installed.
--trace 1 makes the untraced run, then runs the set-up and a fixed number
of the workload's loop passes with every traced function wrapped, and
reports the per-layer metrics plus the tracing overhead: the traced loop
passes' time minus as many median untraced passes.  The run is single-process and single-threaded,
with BLAS pinned to one thread.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the run record, with the
environment, goes to perfbench_out/ together with the spans of a
traced run.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, "perfbench_out")
# Set-up runs at least SETUP_REPEATS times, and more while the set-ups
# so far took under SETUP_MIN_S, so a cheap set-up is still a stable median.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 100
WORKLOADS = ("acc_build", "reduced2d_build", "acc_govern", "acc_train_safe")


def _fail(msg: str, code: int = 2) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _commit() -> str:
    """HEAD of the checkout's git metadata, or "unknown" without one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _src_hash() -> str:
    """SHA-256 over the package sources, naming the code where there is no commit."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "src_sha256": _src_hash(),
        "seed": seed,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _declared(kind: str) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def _timed_setup(wl):
    t0 = time.perf_counter()
    ctx = wl.setup()
    return ctx, (t0, time.perf_counter())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "safegov", "__init__.py")):
        _fail(f"no safegov sources under {src}; run from a full checkout")
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        _fail("BENCHMARK.json missing at the checkout root")
    sys.path.insert(0, src)

    import numpy as np
    import safegov
    if os.path.dirname(os.path.abspath(safegov.__file__)) != os.path.join(src, "safegov"):
        _fail(f"imported safegov from {safegov.__file__}, not from {src}")
    import metrics
    import workloads
    from hostprobe import HostProbe
    from tracer import LogCounter, Tracer, TARGETS

    wl = {
        "acc_build": lambda: workloads.BuildWorkload(workloads.acc_problem, workloads.ACC_K, "acc_k1", False),
        "reduced2d_build": lambda: workloads.BuildWorkload(
            workloads.reduced2d_problem, workloads.REDUCED2D_K, "reduced2d_k3", True),
        "acc_govern": workloads.GovernWorkload,
        "acc_train_safe": workloads.TrainWorkload,
    }[args.workload]()

    def assert_untraced():
        for _, modname, clsname, attr in TARGETS:
            owner = sys.modules[modname]
            owner = getattr(owner, clsname) if clsname else owner
            if hasattr(getattr(owner, attr), "__wrapped_by_perfbench__"):
                _fail(f"{modname}.{attr} is still wrapped before an untraced run", 3)

    env = _environment(args.seed)
    probe = HostProbe()
    with probe:
        with LogCounter():
            setups = []
            while not setups or (args.trace == 0 and len(setups) < SETUP_MAX_REPEATS and (
                    len(setups) < SETUP_REPEATS or sum(b - a for a, b in setups) < SETUP_MIN_S)):
                ctx, span = _timed_setup(wl)
                setups.append(span)
            inp = wl.inputs(ctx, args.seed)
            assert_untraced()
            res = wl.run(ctx, inp, args.seconds)
        if args.trace:
            tracer = Tracer()
            with LogCounter() as logs, tracer:
                ctx_t, setup_t = _timed_setup(wl)
                inp_t = wl.inputs(ctx_t, args.seed)
                res_t = wl.run(ctx_t, inp_t, args.seconds, iterations=wl.trace_iterations)
            assert_untraced()
    env["host_slow_share"] = probe.slow_share()
    attempted, failed = res.attempted, res.failed

    if args.trace == 0:
        result = metrics.end_to_end(setups, res, probe.corrected)
        kind = "end_to_end"
    else:
        attempted += res_t.attempted
        failed += res_t.failed

        def pass_s(chunk):
            return float(probe.corrected(chunk.calls[:, 0], chunk.calls[:, 1]).sum())

        # Loop passes only: the first untraced set-up also pays one-off costs.
        overhead = (sum(pass_s(c) for c in res_t.chunks)
                    - len(res_t.chunks) * float(np.median([pass_s(c) for c in res.chunks])))
        result = metrics.per_layer(tracer, logs, res_t, overhead)
        kind = "per_layer"
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.save(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz"))

    declared = _declared(kind)
    if sorted(result) != sorted(declared):
        missing = sorted(set(declared) - set(result))
        extra = sorted(set(result) - set(declared))
        _fail(f"{kind} metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}", 3)

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / max(attempted, 1),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} env={json.dumps(env, sort_keys=True)}")
    for name in declared:
        value, unit = result[name]
        print(f"{name:45s} {value:>16.6g} {unit}")
    print(f"{'failed_frac':45s} {record['failed_frac']:>16.6g} frac ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
