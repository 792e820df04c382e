"""The repository's benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It generates the workload's planted
instances from the seed (perfbench/gen.py), writes them as instance files
under perfbench/work/, and measures degkit from the checkout's src/ in
fresh single-threaded processes:

- `--trace 0`: set-up (`import degkit` plus reading and parsing every
  input) is timed in SETUP_SAMPLES fresh probe processes (perfbench/probe.py)
  and reported as their median; then the worker (perfbench/worker.py)
  runs the closed loop for S seconds and reports the other end-to-end
  metrics.
- `--trace 1`: the same loop, half untraced and half with spans around
  every layer function; reports per-layer figures and the tracing
  overhead, and prints a per-layer table on standard error.

Times are wall clock scaled to a reference host speed measured by a
calibration loop around each timed span (see probe.py); the unscaled
figures go to standard error. The worker writes the first answer of every
operation to a file, and this process checks each one (perfbench/checks.py).
The last line of standard output is {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import gen  # noqa: E402

SETUP_SAMPLES = 3


def _last_line(script: str, args: list[str]) -> str:
    """Run a benchmark script in a fresh process; its last output line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run([sys.executable, str(HERE / script), *args],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{script} exited with code {done.returncode}")
    return done.stdout.strip().splitlines()[-1]


def _check(entries: list[dict], answers: list) -> str | None:
    """The first wrong answer, as a message, or None."""
    for entry, answer in zip(entries, answers):
        if answer is None:  # the operation failed on every pass
            continue
        try:
            checks.check_answer(entry, answer)
        except checks.CheckError as exc:
            return f"{entry['name']}: {exc}"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "degkit" / "__init__.py").is_file():
        print(f"error: no degkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = HERE / "work"
    work.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}"
    entries = gen.build(args.workload, args.seed)
    (work / stem).mkdir(exist_ok=True)
    listed, files = [], []
    for index, entry in enumerate(entries):
        name = f"{stem}/{index:03d}.txt"
        (work / name).write_text(entry["text"])
        files.append(str(work / name))
        listed.append({**{k: v for k, v in entry.items() if k != "text"}, "file": name})
    inputs = work / f"{stem}.json"
    inputs.write_text(json.dumps(listed))
    worker_args = [str(inputs), "--seconds", str(args.seconds), "--trace", str(args.trace)]

    if args.trace:
        result = json.loads(_last_line("worker.py", worker_args))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["layers"].items()}
    else:
        probes = [_last_line("probe.py", files).split() for _ in range(SETUP_SAMPLES)]
        setups = [float(p[0]) for p in probes]
        raw_setups = [float(p[1]) for p in probes]
        result = json.loads(_last_line("worker.py", worker_args))
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": result["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": result["op_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "kernel_vertices": {"value": result["kernel_vertices"], "unit": "count"},
        }
        print(f"unscaled wall clock: setup_s {statistics.median(raw_setups):.4f}, "
              f"ops_per_s {result['raw_ops_per_s']:.4f}, op_p50_ms {result['raw_op_p50_ms']:.4f}",
              file=sys.stderr)
    answers = json.loads((work / result["answers"]).read_text())
    wrong = result["wrong"] or _check(entries, answers)
    for key, text in (("error", result["error"]), ("wrong", wrong)):
        if text:
            print(f"{key}: {text}", file=sys.stderr)
    print(json.dumps({
        "correct": wrong is None,
        "attempted": result["passes"] * result["ops_per_pass"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
