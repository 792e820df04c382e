"""Set-up probe: `import degkit` plus reading and parsing instance files.

    python3 perfbench/probe.py FILE...

Set-up is what a command-line user pays before the first answer. It is
timed here, in a process that has imported nothing but sys and time when
the timer starts, so every module degkit imports is paid inside the timer.
Prints the scaled and the unscaled seconds on its last line.

This module also holds the host-speed calibration that worker.py uses, so
it imports nothing beyond sys and time.
"""

import sys
import time

# Host speed. The host shares its cores with other tenants, and the same
# interpreter loop runs up to twice as fast at some moments as at others.
# Each timed span is therefore bracketed by a fixed calibration loop that
# allocates and drops small tuples and sets, as the library's own code
# does, and its wall time is scaled to the host speed at which that loop
# takes CAL_REF_S. Figures are thus wall-clock times at a reference speed.
CAL_REF_S = 0.0006


def _calibration_loop():
    start = time.perf_counter()
    kept = []
    for i in range(3000):
        kept.append(((i, i + 1), {i, i + 1}))
    return time.perf_counter() - start


def calibration():
    """Best of three loops, so that an interrupt does not read as slowness."""
    return min(_calibration_loop() for _ in range(3))


def scaled(seconds, before, after):
    """Wall time scaled to the reference host speed."""
    return seconds * CAL_REF_S * 2 / (before + after)


def main(paths):
    sys.path.insert(0, sys.path[0] + "/../src")
    before = calibration()
    start = time.perf_counter()
    import degkit

    parsed = []
    for path in paths:
        with open(path) as fh:
            parsed.append(degkit.parse_instance(fh.read()))
    elapsed = time.perf_counter() - start
    print(scaled(elapsed, before, calibration()), elapsed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
