"""One fresh process of the benchmark: set up, optionally run one workload,
and print one JSON line of measurements.

    python3 bench/child.py --workload delta-q3 --seed 1 --mode run --t0 <monotonic>

`--t0` is the parent's `time.monotonic()` just before it started this
process, so `setup_s` covers interpreter start, the hallforge import and
field construction.  Modes: `probe` stops after set-up, `run` also runs the
workload, `trace` runs it with the per-layer tracer installed.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, Checks  # noqa: E402


def peak_rss_mb():
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**20 if sys.platform == "darwin" else rss / 2**10


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--size", choices=sorted(WORKLOADS), default="full")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()

    workload = WORKLOADS[args.size][args.workload]
    state = workload.setup()
    out = {"setup_s": time.monotonic() - args.t0}
    if args.mode != "probe":
        tracer = None
        if args.mode == "trace":
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        checks = Checks(workload.check_names())
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            workload.run(state, args.seed, checks)
        except Exception:  # a raising run fails its remaining checks
            traceback.print_exc()
        out["wall_s"] = time.perf_counter() - wall0
        out["cpu_s"] = time.process_time() - cpu0
        out.update(attempted=checks.attempted, failed=checks.failed,
                   failures=checks.failures())
        if tracer is not None:
            out["trace"] = tracer.snapshot()
    out["peak_rss_mb"] = peak_rss_mb()
    out["numpy"] = sys.modules["numpy"].__version__
    print(json.dumps(out, default=repr))


if __name__ == "__main__":
    main()
