"""How steady the benchmark is: repeat workloads interleaved, summarize.

    python3 perfbench/steady.py --repeat 10 [--seed-base 1] [--out FILE]
    python3 perfbench/steady.py --compare FIRST.json SECOND.json

The first form runs rounds of runs of BENCHMARK.json's run_seconds, each
round every workload once with the round's seed (seed-base + round), so
slow drift of the host spreads over all workloads alike. With --repeat 1
it is the one command that prints every end-to-end metric of every
workload, with its unit and the operations attempted and failed. It
prints, per workload and end-to-end metric, the median, quartiles, range
and the spread (interquartile distance over the median) next to the
metric's bound in BENCHMARK.json, and saves every run to FILE (default
perfbench/work/steady-<time>.json).

The second form compares two saved sets taken apart in time: for each
metric, how much worse the second median is than the first, against the
bound, and whether the failed share of operations is identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(runs: dict) -> str:
    """One line per workload and metric: median, quartiles, range, spread."""
    metrics = {m["name"]: m for m in _spec()["end_to_end"]}
    lines = [f"{'workload':13s} {'metric':16s} {'unit':6s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
             f"{'min':>11s} {'max':>11s} {'spread':>7s} {'bound':>6s}"]
    for workload, results in runs.items():
        for name, meta in metrics.items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            lines.append(f"{workload:13s} {name:16s} {meta['unit']:6s} {med:11.4g} {q1:11.4g} {q3:11.4g} "
                         f"{min(values):11.4g} {max(values):11.4g} {spread:7.3f} {meta['bound']:6.2f}")
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        lines.append(f"{workload:13s} attempted {attempted}, failed {failed}, failed shares {shares}, "
                     f"correct {all(r['correct'] for r in results)}")
    return "\n".join(lines)


def compare(first: dict, second: dict) -> str:
    """Second set's median against the first's, as a share, per metric."""
    lines = []
    for meta in _spec()["end_to_end"]:
        name, bound = meta["name"], meta["bound"]
        for workload in first:
            a = statistics.median(r["metrics"][name]["value"] for r in first[workload])
            b = statistics.median(r["metrics"][name]["value"] for r in second[workload])
            worse = (b - a) / a if meta["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= bound else "WORSE THAN BOUND"
            lines.append(f"{workload:13s} {name:16s} {a:11.4g} -> {b:11.4g} "
                         f"worse by {worse:+.3f} (bound {bound}) {verdict}")
    for workload in first:
        shares = [{r["failed"] / r["attempted"] for r in s[workload]} for s in (first, second)]
        lines.append(f"{workload:13s} failed shares {sorted(shares[0])} vs {sorted(shares[1])}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--out", default=None)
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args(argv)

    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        print(compare(first["runs"], second["runs"]))
        return 0

    spec = _spec()
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in workloads}
    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    for i in range(args.repeat):
        for workload in workloads:
            seed = args.seed_base + i
            result = run_once(workload, seed, seconds)
            runs[workload].append(result)
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"[{time.strftime('%H:%M:%S')}] {workload} seed {seed}: {shown}",
                  file=sys.stderr, flush=True)
    out = Path(args.out) if args.out else HERE / "work" / f"steady-{started.replace(':', '')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"started": started, "seconds": seconds,
                               "seed_base": args.seed_base, "runs": runs}, indent=1))
    print(summarize(runs))
    print(f"saved {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
