"""Summarise one set of recorded benchmark runs, or compare two.

    python3 bench/run.py --workload ext-q4 --seed 1 --seconds 35 --trace 0 --record base.jsonl
    python3 bench/compare.py base.jsonl             # medians, quartiles, tail, run count
    python3 bench/compare.py base.jsonl new.jsonl   # one verdict per workload x metric

A verdict follows the bounds in BENCHMARK.json:

* worse: the new median is worse than the base median by more than the bound;
* better: the new side wins at least nine tenths of the runs paired by seed
  (ties count for neither) and the medians differ by more than the base
  side's quartile distance;
* unresolved: neither.  The note says whether the base side's spread
  (quartile distance over median) is within the bound; where it is not, the
  metric cannot be called unchanged either.

Per-layer metrics from the traced runs of each side are listed with their
change; they carry no verdict.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """{(workload, size): {"runs": [record, ...], "traced": [record, ...]}}."""
    sets = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        entry = sets.setdefault((rec["workload"], rec["size"]), {"runs": [], "traced": []})
        entry["traced" if rec["trace"] else "runs"].append(rec)
    return sets


def values(records, metric):
    return [r["result"]["metrics"][metric]["value"] for r in records]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def tail(xs, better):
    """The highest percentile with at least ten runs beyond it, worse side."""
    n = len(xs)
    if n < 11:
        return "n<11"
    ordered = sorted(xs, reverse=(better == "higher"))
    return f"p{100 * (n - 10) / n:.0f}={ordered[n - 11]:.4g}"


def fail_ratio(records):
    att = sum(r["result"]["attempted"] for r in records)
    bad = sum(r["result"]["failed"] for r in records)
    return f"{bad}/{att}"


def summarise(sets, spec):
    print(f"{'workload':<16}{'metric':<13}{'runs':>5}{'q1':>11}{'median':>11}{'q3':>11}"
          f"{'spread':>9}  tail")
    for (wl, size), entry in sorted(sets.items()):
        runs = entry["runs"]
        if not runs:
            continue
        name = wl if size == "full" else f"{wl}/{size}"
        for m in spec["end_to_end"]:
            xs = values(runs, m["name"])
            q1, med, q3 = quartiles(xs)
            print(f"{name:<16}{m['name']:<13}{len(xs):>5}{q1:>11.4g}{med:>11.4g}{q3:>11.4g}"
                  f"{(q3 - q1) / med:>9.2%}  {tail(xs, m['better'])}")
        print(f"{name:<16}check_fail_ratio {fail_ratio(runs)}")


def paired(base, new):
    by_seed = {r["seed"]: r for r in base}
    pairs = [(by_seed[r["seed"]], r) for r in new if r["seed"] in by_seed]
    return pairs or list(zip(base, new))


def verdict(base, new, metric):
    sign = 1 if metric["better"] == "lower" else -1
    bq1, bmed, bq3 = quartiles(values(base, metric["name"]))
    _, nmed, _ = quartiles(values(new, metric["name"]))
    worse_by = sign * (nmed - bmed) / bmed
    note = ("within bound" if (bq3 - bq1) / bmed <= metric["bound"]
            else "spread > bound")
    if worse_by > metric["bound"]:
        return "worse", note
    pairs = paired(base, new)
    wins = sum(sign * (n["result"]["metrics"][metric["name"]]["value"]
                       - b["result"]["metrics"][metric["name"]]["value"]) < 0
               for b, n in pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (bmed - nmed) > bq3 - bq1:
        return "better", note
    return "unresolved", note


def compare(base, new, spec):
    print(f"{'workload':<16}{'metric':<13}{'base q1/med/q3':>30}{'new q1/med/q3':>30}"
          f"{'change':>9}  verdict")
    for key in sorted(set(base) & set(new)):
        wl, size = key
        name = wl if size == "full" else f"{wl}/{size}"
        b, n = base[key]["runs"], new[key]["runs"]
        if b and n:
            for m in spec["end_to_end"]:
                bq = quartiles(values(b, m["name"]))
                nq = quartiles(values(n, m["name"]))
                v, note = verdict(b, n, m)
                print(f"{name:<16}{m['name']:<13}"
                      f"{'/'.join(f'{x:.4g}' for x in bq):>30}"
                      f"{'/'.join(f'{x:.4g}' for x in nq):>30}"
                      f"{(nq[1] - bq[1]) / bq[1]:>+9.2%}  {v} ({note}; bound {m['bound']:.0%},"
                      f" runs {len(b)}/{len(n)})")
            print(f"{name:<16}check_fail_ratio {fail_ratio(b)} -> {fail_ratio(n)}")
        bt, nt = base[key]["traced"], new[key]["traced"]
        if bt and nt:
            print(f"{name:<16}per-layer, traced runs {len(bt)}/{len(nt)} (medians)")
            for m in spec["per_layer"]:
                bv = statistics.median(values(bt, m["name"]))
                nv = statistics.median(values(nt, m["name"]))
                change = f"{(nv - bv) / bv:+.1%}" if bv else ""
                print(f"  {m['name']:<36}{bv:>14.6g}{nv:>14.6g} {m['unit']:<6}{change:>9}")


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load(p) for p in argv]
    if len(sets) == 1:
        summarise(sets[0], spec)
    else:
        compare(sets[0], sets[1], spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
