"""Call spans around the package's public functions, and the metrics built from them.

``Tracer.install`` replaces module attributes of ``ultratts`` with timing
wrappers. The pipeline looks these functions up as module attributes at call
time, so no source change is needed. Each call records one span: name,
start, end, the index of the enclosing span, and counters computed from the
call's arguments and result. Spans stay in memory until the run ends.

Run as a script, this module is the traced form of the ``ultratts`` command:

    python3 bench/spans.py SPANS.json run-all --config exp.cfg --output run

installs the tracer, runs ``ultratts.cli.main`` on the remaining arguments
and writes the spans to ``SPANS.json``.

Operation counts (``gflop``, ``gflop_per_s``, ``input_mb``, ``mb_read``) are
computed from array shapes, not measured; the formula is next to each one.
"""

from __future__ import annotations

import importlib
import inspect
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from ultratts import ultra

MB = 1e6


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def tree_bytes(path: Path) -> int:
    """Bytes in the files under ``path``; 0 if it does not exist."""
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


# Counters per traced function: (args bound to parameter names, result) -> dict.


def _fit_pca(a, model) -> dict:
    rows, dim = np.shape(a["frames"])
    m, n = max(rows, dim), min(rows, dim)
    return {
        "rows": rows,
        "dim": dim,
        "k": model.n_components,
        "variance_retained": model.variance_retained,
        # float64 frame matrix: rows * dim * 8 bytes
        "input_mb": rows * dim * 8 / MB,
        # thin SVD, Golub & Van Loan R-SVD count for U1, S, V: 6 m n^2 + 20 n^3
        "gflop": (6 * m * n * n + 20 * n**3) / 1e9,
    }


def _resampled(a, _) -> dict:
    indices = ultra.resample_to_frame_clock(a["seq"], a["frame_shift"], a["n_target"])
    return {"unique": int(np.unique(indices).size), "targets": int(a["n_target"])}


def _backward(a, _) -> dict:
    sizes = a["model"].layer_sizes
    batch = np.shape(np.atleast_2d(a["batch"]))[0]
    # forward GEMMs plus weight- and input-gradient GEMMs: 6 * batch * sum(fan_in * fan_out)
    return {"gflop": 6 * batch * sum(i * o for i, o in zip(sizes[:-1], sizes[1:])) / 1e9}


def _n_questions(q) -> int:
    return len(q.binary) + len(q.numeric)


COUNTERS = {
    "ultra.read_utterance": lambda a, seq: {"mb_read": seq.frames.nbytes / MB},  # raw uint8 frames
    "ultra.resampled_resized_frames": _resampled,
    "labels.parse_questions": lambda a, q: {"n_questions": _n_questions(q)},
    "labels.extract_features": lambda a, _: {"n_questions": _n_questions(a["questions"])},
    "eigentongues.fit_pca": _fit_pca,
    "mlp.train": lambda a, r: {"epochs": len(r[1])},
    "mlp.backward": _backward,
    "acoustic.mlpg": lambda a, r: {"frames": int(np.shape(r)[0])},
    "misalign.build_matrix": lambda a, m: {"pairs": m.n * (m.n - 1) // 2},
}

# Functions wrapped in a traced run-all. Leaf helpers called once per pattern,
# pixel pair or frame (labels.match_question, misalign.mse, ultra.resize_bicubic)
# are left out: their call counts would make tracing cost dominate the run.
TRACED = {
    "pipeline": ("run_stage",),
    "ultra": ("read_utterance", "resampled_resized_frames"),
    "labels": ("parse_questions", "extract_features"),
    "acoustic": ("read_streams", "build_targets", "save_stream", "mlpg"),
    "eigentongues": ("fit_pca", "transform"),
    "mlp": ("train", "backward", "forward", "predict_utterance"),
    "metrics": ("evaluate_utterance",),
    "misalign": ("mean_image", "build_matrix", "render_heatmap"),
}


class Tracer:
    """Collects spans as ``[name, start, end, parent, counters]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str) -> None:
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        signature = inspect.signature(fn)
        counters = COUNTERS.get(name)
        is_stage = name == "pipeline.run_stage"

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            parent = self._open[-1] if self._open else -1
            span = [f"pipeline.{bound['stage']}" if is_stage else name, 0.0, 0.0, parent, {}]
            self._open.append(len(self.spans))
            self.spans.append(span)
            rss_before = peak_rss_mb() if is_stage else 0.0
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if is_stage:
                stage_dir = Path(bound["run_dir"]) / bound["stage"]
                span[4] = {
                    "rss_growth_mb": peak_rss_mb() - rss_before,
                    "written_mb": tree_bytes(stage_dir) / MB,
                }
            elif counters is not None:
                span[4] = counters(bound, result)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, fn))

    def install(self, targets: dict[str, tuple[str, ...]] = TRACED) -> None:
        for module_name, attrs in targets.items():
            module = importlib.import_module(f"ultratts.{module_name}")
            for attr in attrs:
                self.wrap(module, attr)

    def uninstall(self) -> None:
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


STAGES = ("prepare", "pca", "train", "generate", "evaluate", "misalign")

# Unit of a per-layer metric, by the last part of its name.
UNITS = {
    "self_s": "s",
    "wall_s": "s",
    "rss_growth_mb": "MB",
    "written_mb": "MB",
    "input_mb": "MB",
    "mb_read": "MB",
    "gflop": "GFLOP",
    "gflop_per_s": "GFLOP/s",
    "ms_per_call": "ms",
    "variance_retained": "fraction",
    "unique_frac": "fraction",
    "overhead_frac": "fraction",
}


def unit_of(metric: str) -> str:
    return UNITS.get(metric.rsplit(".", 1)[-1], "count")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced round, summed over the round's calls.

    Counts, times and volumes add up over calls (a sweep runs each stage once
    per system); shapes and peaks (rows, dim, k, retained variance, input
    size, question count, RSS growth) take the largest call.
    """
    total: dict[str, float] = {}
    peak: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, counters = span
        for key, value in (("self_s", own), ("wall_s", end - start), ("calls", 1)):
            total[f"{name}.{key}"] = total.get(f"{name}.{key}", 0.0) + value
        for key, value in counters.items():
            metric = f"{name}.{key}"
            if key in ("rows", "dim", "k", "variance_retained", "input_mb", "n_questions", "rss_growth_mb"):
                peak[metric] = max(peak.get(metric, value), value)
            else:
                total[metric] = total.get(metric, 0.0) + value

    def get(metric: str) -> float:
        return peak.get(metric, total.get(metric, 0.0))

    out = {}
    for stage in STAGES:
        out[f"pipeline.{stage}.wall_s"] = get(f"pipeline.{stage}.wall_s")
        out[f"pipeline.{stage}.calls"] = get(f"pipeline.{stage}.calls")
    for stage in ("prepare", "pca", "train"):
        out[f"pipeline.{stage}.rss_growth_mb"] = get(f"pipeline.{stage}.rss_growth_mb")
    for stage in ("prepare", "pca", "generate"):
        out[f"pipeline.{stage}.written_mb"] = get(f"pipeline.{stage}.written_mb")
    for key in ("self_s", "rows", "dim", "k", "variance_retained", "input_mb", "gflop"):
        out[f"eigentongues.fit_pca.{key}"] = get(f"eigentongues.fit_pca.{key}")
    for fn, keys in (
        ("eigentongues.transform", ("self_s", "calls")),
        ("ultra.read_utterance", ("self_s", "calls", "mb_read")),
        ("ultra.resampled_resized_frames", ("self_s", "calls")),
        ("labels.extract_features", ("self_s", "calls")),
        ("mlp.train", ("self_s", "epochs")),
        ("mlp.backward", ("self_s", "calls")),
        ("mlp.forward", ("self_s", "calls")),
        ("mlp.predict_utterance", ("self_s",)),
        ("acoustic.mlpg", ("self_s", "calls", "frames")),
        ("acoustic.read_streams", ("self_s", "calls")),
        ("acoustic.build_targets", ("self_s", "calls")),
        ("acoustic.save_stream", ("self_s", "calls")),
        ("metrics.evaluate_utterance", ("self_s", "calls")),
        ("misalign.mean_image", ("self_s",)),
        ("misalign.build_matrix", ("self_s", "pairs")),
        ("misalign.render_heatmap", ("self_s",)),
    ):
        for key in keys:
            out[f"{fn}.{key}"] = get(f"{fn}.{key}")
    targets = get("ultra.resampled_resized_frames.targets")
    out["ultra.resampled_resized_frames.unique_frac"] = (
        get("ultra.resampled_resized_frames.unique") / targets if targets else 0.0
    )
    # one labels figure that is never 0: ult2wav calls only extract_features
    out["labels.self_s"] = get("labels.parse_questions.self_s") + get("labels.extract_features.self_s")
    out["labels.n_questions"] = max(
        get("labels.extract_features.n_questions"), get("labels.parse_questions.n_questions")
    )
    calls = get("mlp.backward.calls")
    busy = get("mlp.backward.wall_s")
    out["mlp.backward.ms_per_call"] = 1000.0 * busy / calls if calls else 0.0
    out["mlp.backward.gflop_per_s"] = get("mlp.backward.gflop") / busy if busy else 0.0
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    tracer.install()
    from ultratts import cli

    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
        spans_path.write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
