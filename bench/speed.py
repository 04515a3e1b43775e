"""Machine-speed calibration, so that timings on a shared host can be compared.

On a shared 2-vCPU KVM host each vCPU switches, every few seconds, between a
fast and a slow state about 1.45x apart (a bytecode-heavy kernel took 3.6 ms
or 5.3 ms per pass), and two processes on the two vCPUs did not slow
together (their 1-second medians had a correlation of -0.14). Wall time
alone then spreads by a quarter of its median between runs of the same
code. The benchmark therefore times a fixed kernel in the same process just
before and just after the work it measures, and scales the work's wall time
to the speed at which the kernel takes ``REFERENCE_PASS_S``:

    normalised_s = wall_s * REFERENCE_PASS_S / mean(pass_before, pass_after)

The kernel is benchmark code and never changes with the program, so a change
to the program moves the normalised time as it moves wall time at a fixed
machine speed.

Run as a script, this module is the calibrated form of the ``ultratts``
command:

    python3 bench/speed.py TIMES.json run-all --config exp.cfg --output run

times the kernel, runs ``ultratts.cli.main`` on the remaining arguments,
times the kernel again and writes both calibrations to ``TIMES.json``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

# Median pass of ``kernel`` on the machine the bounds were set on (Intel Xeon
# KVM guest, 2 vCPUs, one BLAS thread), between its fast and slow states.
REFERENCE_PASS_S = 0.0072
PASSES = 15  # about 0.1 s per calibration

_RNG = np.random.default_rng(0)
_GEMM = _RNG.normal(size=(256, 256))
_SVD = _RNG.normal(size=(80, 256))
_VECTOR = _RNG.normal(size=4000)


def kernel() -> int:
    """One pass of the program's mix: a third bytecode and small numpy calls, two thirds LAPACK/BLAS.

    Bytecode and BLAS slow by different amounts in the host's slow state:
    against a bytecode-only kernel a pure-Python block slowed 0.94 times as
    much and a thin SVD 0.75 times; against this one, 1.11 and 0.95 times,
    so the kernel holds both.
    """
    total = 0
    for i in range(10000):
        total += (i * i) % 7
    names = {}
    for i in range(1500):
        names[str(i)] = i
    for _ in range(20):
        np.sort(_VECTOR)
        _VECTOR.cumsum()
    for _ in range(2):
        _GEMM @ _GEMM
    np.linalg.svd(_SVD, full_matrices=False)
    return total + len(names)


@dataclass
class Calibration:
    pass_s: float  # median pass time
    spent_s: float  # wall time the calibration itself took


def calibrate(passes: int = PASSES) -> Calibration:
    start = time.perf_counter()
    times = []
    for _ in range(passes):
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    return Calibration(statistics.median(times), time.perf_counter() - start)


def slowdown(before: Calibration, after: Calibration) -> float:
    """How much slower than the reference the machine ran between two calibrations."""
    return (before.pass_s + after.pass_s) / (2.0 * REFERENCE_PASS_S)


def read_times(path: Path) -> tuple[float, float]:
    """Calibration time spent in a calibrated run, and how much slower than the reference it ran."""
    data = json.loads(Path(path).read_text())
    before, after = Calibration(**data["before"]), Calibration(**data["after"])
    return before.spent_s + after.spent_s, slowdown(before, after)


def main(argv: list[str]) -> int:
    times_path, cli_args = Path(argv[0]), argv[1:]
    before = calibrate()
    from ultratts import cli

    code = cli.main(cli_args)
    after = calibrate()
    times_path.write_text(json.dumps({"before": asdict(before), "after": asdict(after)}))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
