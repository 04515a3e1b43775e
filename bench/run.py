"""Benchmark of the ultratts pipeline, driven from outside through its CLI.

    python3 bench/run.py --workload paper-ult --seed 1 --seconds 20 --trace 0

A workload (see ``corpus.WORKLOADS``) is a corpus recipe and the systems run
over it. Set-up builds a reference speaker with a fixed corpus seed once,
and the ``--seed`` speaker at least twice, until set-up has taken two
seconds; the seed builds must be identical. ``setup_s`` is the median build
time. Then rounds alternate
between the two speakers until ``--seconds`` have passed, with at least two
rounds per speaker. A round runs ``ultratts run-all`` once per system, one
call after another in a fresh interpreter (closed loop, one client,
``--workers 1``, one BLAS thread). ``wall_s`` and ``written_mb`` are medians
over rounds.

``setup_s`` and ``wall_s`` are wall times scaled to a reference machine speed
(see ``speed.py``): each corpus build and each untraced ``run-all`` call is
bracketed by a calibration kernel in the same process, and its wall time,
less the calibration's own, is divided by how much slower than the reference
the kernel ran. The raw wall times are printed above the result line.

Quality metrics come from the reference speaker, so they repeat exactly on
every run and any numerical change to the program shows in them; the
``--seed`` speaker varies the inputs that are timed.

With ``--trace 1`` every round also runs once more under ``spans.py`` (at
least one round per speaker), and the per-layer metrics are medians over the
traced rounds.

Every ``run-all`` call passes the correctness gate or counts as failed: exit
code 0, a report row for each split and variant, finite values, the same
report as the speaker's first round, and, on ``sweep-desk``, the lowest
test MCD for ``txt+ult2wav``. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Numbers are taken on whatever machine runs this, without pinning or other
machine-level control; the ``machine:`` line records it. Per-layer times are
raw wall-clock times.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

REFERENCE_SEED = 0
SPLITS = ("dev", "test")
VARIANTS = ("mlpg", "static")
QUALITY = ("mcd_db", "bap_db", "f0_rmse_hz", "f0_corr", "vuv_error_pct")
# f0_corr is printed but not part of the result: on an under-trained net it
# sits near zero with either sign, where a relative bound means nothing.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "written_mb": "MB",
    "mcd_db": "dB",
    "bap_db": "dB",
    "f0_rmse_hz": "Hz",
    "vuv_error_pct": "%",
}
CALL_TIMEOUT_S = 150.0
SETUP_MIN_S = 2.0
SETUP_MAX_BUILDS = 20
# One BLAS thread. With two on a shared 2-vCPU machine, paper-net's wall_s
# spread (IQR/median over 5 seeds) was 0.17; with one it was 0.03.
BLAS_THREADS = "1"
MB = 1e6


@dataclass
class Call:
    """One ``run-all`` invocation and what the gate found."""

    speaker: int
    system: str
    traced: bool
    wall_s: float  # raw, less the calibration's own time
    slowdown: float  # how much slower than the reference the machine ran; 1.0 if traced
    rss_mb: float
    written: int
    report: str | None
    problems: list[str] = field(default_factory=list)


def machine_facts() -> dict:
    import numpy
    import scipy

    def first(path: str, prefix: str) -> str:
        try:
            for line in Path(path).read_text().splitlines():
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unknown"
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": first("/proc/cpuinfo", "model name"),
        "l3": l3,
        "ram": first("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Run a child to completion; return exit code, wall seconds, peak RSS in MB."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=child_env())
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / MB


def parse_report(text: str) -> dict[tuple[str, str, str], dict[str, float]]:
    """``report.csv`` rows keyed by (system, split, variant)."""
    rows = csv.DictReader(io.StringIO("".join(l for l in text.splitlines(True) if not l.startswith("#"))))
    return {(r["system"], r["split"], r["variant"]): {k: float(r[k]) for k in QUALITY} for r in rows}


def report_problems(text: str | None, system: str) -> list[str]:
    """Problems the gate finds in one ``report.csv``: missing rows, non-finite values."""
    if text is None:
        return ["no report.csv"]
    try:
        rows = parse_report(text)
    except (KeyError, TypeError, ValueError) as e:
        return [f"unreadable report.csv: {e!r}"]
    problems = []
    for split in SPLITS:
        for variant in VARIANTS:
            row = rows.get((system, split, variant))
            if row is None:
                problems.append(f"no row for {split}/{variant}")
                continue
            problems.extend(
                f"{split}/{variant} {k} = {v!r}" for k, v in row.items() if not math.isfinite(v)
            )
    return problems


def mlpg_test_mcd(call: Call) -> float:
    return parse_report(call.report)[(call.system, "test", "mlpg")]["mcd_db"]


class Bench:
    def __init__(self, workload, seed: int, seconds: float, trace: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.configs: list[Path] = []
        self.calls: list[Call] = []
        self.round_walls: dict[bool, list[float]] = {False: [], True: []}
        self.round_normalised: list[float] = []
        self.round_written: list[int] = []
        self.layer_rounds: list[dict[str, float]] = []
        self.setup_times: list[float] = []
        self.setup_normalised: list[float] = []
        self.setup_problems: list[str] = []
        self.corpus_spans: list[list] = []

    def setup(self) -> None:
        """Build the reference corpus once and the seed corpus until set-up has
        taken ``SETUP_MIN_S`` (at least twice); every seed build must match."""
        import corpus
        import spans
        import speed

        tracer = spans.Tracer() if self.trace else None
        if tracer:
            tracer.install({"synthetic": ("generate_corpus",)})
        try:
            for i in itertools.count():
                before = speed.calibrate()
                start = time.perf_counter()
                cfg = corpus.build_corpus(
                    self.workload, REFERENCE_SEED if i == 0 else self.seed, self.work / f"corpus{i}"
                )
                self.setup_times.append(time.perf_counter() - start)
                self.setup_normalised.append(self.setup_times[-1] / speed.slowdown(before, speed.calibrate()))
                self.configs.append(cfg)
                if i >= 2 and (sum(self.setup_times) >= SETUP_MIN_S or i >= SETUP_MAX_BUILDS):
                    break
        finally:
            if tracer:
                tracer.uninstall()
                self.corpus_spans = tracer.spans
        digests = {_tree_digest(cfg.parent) for cfg in self.configs[1:]}
        if len(digests) != 1:
            self.setup_problems.append("corpus builder is not deterministic for one seed")
        for cfg in self.configs[2:]:
            shutil.rmtree(cfg.parent)
        del self.configs[2:]

    def run_round(self, number: int, speaker: int, traced: bool) -> None:
        import spans
        import speed

        cfg = self.configs[speaker]
        round_calls, round_spans, written = [], [], 0
        for system in self.workload.systems:
            out = self.work / f"run{number}-{int(traced)}-{system.replace('+', '_')}"
            cli = ["run-all", "--config", str(cfg), "--output", str(out), "--system", system, "--workers", "1"]
            if traced:
                spans_file = out.with_suffix(".spans.json")
                argv = [sys.executable, str(BENCH_DIR / "spans.py"), str(spans_file), *cli]
            else:
                times_file = out.with_suffix(".times.json")
                argv = [sys.executable, str(BENCH_DIR / "speed.py"), str(times_file), *cli]
            log = out.with_suffix(".log")
            code, wall, rss = run_child(argv, log)
            slowdown = 1.0
            if not traced and times_file.exists():
                spent, slowdown = speed.read_times(times_file)
                wall -= spent
            report_path = out / "evaluate" / "report.csv"
            report = report_path.read_text() if report_path.exists() else None
            call = Call(speaker, system, traced, wall, slowdown, rss, spans.tree_bytes(out), report)
            if code != 0:
                call.problems.append(f"exit code {code}: {log.read_text()[-400:].strip()}")
            call.problems.extend(report_problems(report, system))
            first = next(
                (c for c in self.calls if (c.speaker, c.system) == (speaker, system) and c.report), None
            )
            if first is not None and report is not None and report != first.report:
                call.problems.append("report.csv differs from the first run at this seed")
            if traced:
                round_spans.extend(json.loads(spans_file.read_text()) if spans_file.exists() else [])
            written += call.written
            round_calls.append(call)
            shutil.rmtree(out, ignore_errors=True)
        if self.workload.name == "sweep-desk" and all(not c.problems for c in round_calls):
            best = min(round_calls, key=mlpg_test_mcd)
            if best.system != "txt+ult2wav":
                combined = next(c for c in round_calls if c.system == "txt+ult2wav")
                combined.problems.append(f"lowest test MCD is {best.system}, not txt+ult2wav")
        self.calls.extend(round_calls)
        self.round_walls[traced].append(sum(c.wall_s for c in round_calls))
        if traced:
            self.layer_rounds.append(spans.layer_metrics(round_spans))
        else:
            self.round_normalised.append(sum(c.wall_s / c.slowdown for c in round_calls))
            self.round_written.append(written)

    def measure(self) -> None:
        start = time.perf_counter()
        number = 0
        while True:
            speaker = number % 2
            self.run_round(number, speaker, traced=False)
            if self.trace:
                self.run_round(number, speaker, traced=True)
            number += 1
            elapsed = time.perf_counter() - start
            per_round = elapsed / number
            if number >= (2 if self.trace else 4) and elapsed + per_round > self.seconds:
                break

    def quality(self) -> dict[str, float]:
        """Reference speaker, first round: test/mlpg values averaged over systems."""
        out = {}
        firsts = [c for c in self.calls if c.speaker == 0 and not c.traced][: len(self.workload.systems)]
        for key in QUALITY:
            values = [parse_report(c.report)[(c.system, "test", "mlpg")][key] for c in firsts if c.report]
            out[key] = sum(values) / len(values) if values else math.nan
        return out

    def end_to_end(self) -> dict[str, float]:
        untraced = [c for c in self.calls if not c.traced]
        metrics = {
            "setup_s": statistics.median(self.setup_normalised),
            "wall_s": statistics.median(self.round_normalised),
            "peak_rss_mb": max(c.rss_mb for c in untraced),
            "written_mb": statistics.median(self.round_written) / MB,
        }
        metrics.update(self.quality())
        return metrics

    def per_layer(self) -> dict[str, float]:
        import spans

        metrics = {
            key: statistics.median(r[key] for r in self.layer_rounds) for key in self.layer_rounds[0]
        }
        if self.corpus_spans:
            own = spans.self_times(self.corpus_spans)
            metrics["synthetic.generate_corpus.self_s"] = statistics.median(own)
        metrics["trace.overhead_frac"] = (
            statistics.median(self.round_walls[True]) / statistics.median(self.round_walls[False]) - 1.0
        )
        return metrics


def _tree_digest(path: Path) -> str:
    import hashlib

    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file() and p.name != "experiment.cfg":
            h.update(p.relative_to(path).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import corpus
    import spans

    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(corpus.WORKLOADS[name], seed, seconds, trace, work)
        bench.setup()
        bench.measure()
        e2e = bench.end_to_end()
        layers = bench.per_layer() if trace else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    failed = [c for c in bench.calls if c.problems]
    print(f"workload {name} seed {seed}: {len(bench.calls)} run-all calls, "
          f"{sum(len(w) for w in bench.round_walls.values())} rounds")
    for problem in bench.setup_problems:
        print(f"  GATE setup: {problem}")
    for c in failed:
        print(f"  GATE {c.system} speaker {c.speaker}{' traced' if c.traced else ''}: {'; '.join(c.problems)}")
    print(f"  gate: {'pass' if not failed and not bench.setup_problems else 'FAIL'}, "
          f"failed_frac {len(failed) / len(bench.calls):.4f}")
    print(f"  rounds wall_s: {[round(w, 3) for w in bench.round_normalised]}"
          f" raw {[round(w, 3) for w in bench.round_walls[False]]}"
          f"{f' traced raw {[round(w, 3) for w in bench.round_walls[True]]}' if trace else ''}")
    print(f"  raw setup_s {statistics.median(bench.setup_times):.6g}, raw wall_s "
          f"{statistics.median(bench.round_walls[False]):.6g}")
    print(f"  untraced calls (raw wall_s, slowdown): "
          f"{[(round(c.wall_s, 3), round(c.slowdown, 3)) for c in bench.calls if not c.traced]}")
    for key, value in e2e.items():
        print(f"  {key:44s} {value:14.6g} {END_TO_END.get(key, '')}")
    for key, value in layers.items():
        print(f"  {key:44s} {value:14.6g} {spans.unit_of(key)}")

    chosen = {k: (v, spans.unit_of(k)) for k, v in layers.items()} if trace else {
        k: (e2e[k], unit) for k, unit in END_TO_END.items()
    }
    return {
        "correct": not failed and not bench.setup_problems,
        "attempted": len(bench.calls),
        "failed": len(failed),
        # a value that is not finite has no JSON form; it only occurs after a failed call
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u} for k, (v, u) in chosen.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so a running child is killed and work/ removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "ultratts" / "cli.py").is_file():
        print(f"error: no ultratts sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({k: v for k, v in child_env().items() if k.endswith("_NUM_THREADS")})
    sys.path.insert(0, str(SRC))
    import corpus

    names = list(corpus.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in corpus.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {list(corpus.WORKLOADS)}", file=sys.stderr)
        return 2
    print("machine: " + json.dumps(machine_facts()))
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
