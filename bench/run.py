"""hallforge benchmark: time to certified exact results, end to end and by layer.

    python3 bench/run.py --workload delta-q3 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every measurement is taken in a fresh
child process (`bench/child.py`), one at a time, because every hallforge
process starts with cold registry and census caches.  Children get one
BLAS/OpenMP thread each and PYTHONHASHSEED=0.

--trace 0  runs set-up probes, then whole workload iterations until
           --seconds is used up (at least one), and reports wall_s and cpu_s
           per iteration over the run, and the medians of setup_s and
           peak_rss_mb.
--trace 1  runs a traced iteration between two untraced ones and reports
           the per-layer metrics of the traced one (see bench/tracing.py).

Every iteration checks its outputs exactly.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
`--record FILE` also appends the run, with its iterations and a machine
record, to a JSON-lines file that bench/compare.py reads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 9     # set-up-only processes per untraced run, for setup_s
RUN_LIMIT_S = 170.0  # a run that would take longer fails
# one BLAS/OpenMP thread, and a fixed string-hash seed so that repeated
# iterations allocate alike (peak RSS moved by up to 6% without it)
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    pass


def machine_record():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": sys.version.split()[0], "loadavg_start": os.getloadavg()}


class Runner:
    def __init__(self, workload, size, seed, deadline):
        self.argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
                     "--size", size, "--seed", str(seed)]
        self.env = {**os.environ, **CHILD_ENV}
        self.deadline = deadline

    def child(self, mode):
        """Run one child process to completion and return its measurements."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a process")
        t0 = time.monotonic()
        proc = subprocess.Popen(self.argv + ["--mode", mode, "--t0", repr(t0)],
                                cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} process ran past the run's time limit")
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited with code {proc.returncode}")
        lines = stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"{mode} process printed no result")
        out = json.loads(lines[-1])
        out["elapsed_s"] = time.monotonic() - t0
        return out


def untraced(runner, seconds):
    start = time.monotonic()
    probes = [runner.child("probe") for _ in range(SETUP_PROBES)]
    iterations = [runner.child("run")]
    while time.monotonic() - start + iterations[-1]["elapsed_s"] <= seconds:
        iterations.append(runner.child("run"))
    # times are means: they average swings in machine speed over the whole
    # run, and spread less from run to run than a median of a few iterations
    metrics = {
        "wall_s": (statistics.fmean(it["wall_s"] for it in iterations), "s"),
        "cpu_s": (statistics.fmean(it["cpu_s"] for it in iterations), "s"),
        "setup_s": (statistics.median(c["setup_s"] for c in probes + iterations), "s"),
        "peak_rss_mb": (statistics.median(it["peak_rss_mb"] for it in iterations), "MB"),
    }
    return iterations, probes, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def traced(runner):
    before = runner.child("run")
    with_spans = runner.child("trace")
    after = runner.child("run")
    # untraced iterations on both sides cancel a steady drift in machine speed
    untraced_wall_s = (before["wall_s"] + after["wall_s"]) / 2
    metrics = layer_metrics(with_spans.pop("trace"), with_spans["wall_s"], untraced_wall_s)
    return [before, with_spans, after], [], metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS["full"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=sorted(WORKLOADS), default="full",
                    help="smoke: the seconds-long variant used by bench/test_bench.py")
    ap.add_argument("--record", type=Path, help="append the run to this JSON-lines file")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hallforge" / "__init__.py").is_file():
        print(f"bench: no hallforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    machine = machine_record()
    runner = Runner(args.workload, args.size, args.seed, time.monotonic() + RUN_LIMIT_S)
    try:
        if args.trace:
            iterations, probes, metrics = traced(runner)
        else:
            iterations, probes, metrics = untraced(runner, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    machine["loadavg_end"] = os.getloadavg()
    machine["numpy"] = iterations[0]["numpy"]

    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    print(json.dumps({"machine": machine}))
    for i, it in enumerate(iterations, 1):
        print(f"iteration {i}: wall {it['wall_s']:.3f} s, cpu {it['cpu_s']:.3f} s, "
              f"setup {it['setup_s']:.3f} s, peak rss {it['peak_rss_mb']:.1f} MB, "
              f"checks failed {it['failed']}/{it['attempted']}"
              + (f" {json.dumps(it['failures'])}" if it["failed"] else ""))
    print(f"runs: {len(iterations)} iterations, {len(probes)} set-up probes; "
          f"check_fail_ratio {failed}/{attempted} = {failed / attempted:g}; "
          f"seed {WORKLOADS[args.size][args.workload].seed_use}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.record:
        with args.record.open("a") as f:
            f.write(json.dumps({
                "workload": args.workload, "size": args.size, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace, "machine": machine,
                "iterations": iterations, "probes": probes, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
