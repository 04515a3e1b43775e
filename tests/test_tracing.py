"""Contracts between the package and the benchmark (bench/).

The call tracer (bench/spans.py) wraps package functions by module attribute
name and computes its counters from their parameter names and results.
Renaming or folding away any of them would silently drop a per-layer
benchmark metric, so a traced ``run-all`` must produce a span for every traced
name and a counter set for every counter entry.

Each workload of bench/corpus.py writes an ExperimentConfig; a config check
that rejected one would fail every benchmark call on that workload.
"""

import importlib.util
import sys
from pathlib import Path

from conftest import config_for
from ultratts import cli
from ultratts.config import PATH_FIELDS, ExperimentConfig, read_config, write_config

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_bench_workload_configs_are_valid_and_round_trip(tmp_path):
    paths = {name: tmp_path / name for name in PATH_FIELDS}
    for name, workload in load_bench_module("corpus").WORKLOADS.items():
        cfg = ExperimentConfig(**paths, **workload.config)
        write_config(cfg, tmp_path / f"{name}.cfg")
        assert read_config(tmp_path / f"{name}.cfg") == cfg, name


def test_traced_run_all_fires_every_span_and_counter(tiny_corpus, tmp_path):
    spans = load_bench_module("spans")
    cfg = config_for(tiny_corpus, system="txt+ult2wav", seed=5, max_epochs=2, warmup_epochs=1)
    cfg_file = tmp_path / "exp.cfg"
    write_config(cfg, cfg_file)

    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(["run-all", "--config", str(cfg_file), "--output", str(tmp_path / "run")])
    finally:
        tracer.uninstall()
    assert code == 0

    expected = {f"pipeline.{stage}" for stage in spans.STAGES}
    expected |= {
        f"{module}.{attr}"
        for module, attrs in spans.TRACED.items()
        if module != "pipeline"
        for attr in attrs
    }
    seen = {name for name, *_ in tracer.spans}
    assert expected <= seen, f"no span for {sorted(expected - seen)}"

    with_counters = {name for name, _, _, _, counters in tracer.spans if counters}
    missing = set(spans.COUNTERS) - with_counters
    assert not missing, f"counters never fired for {sorted(missing)}"
    # the per-layer metrics are computed from the same spans without error
    assert spans.layer_metrics(tracer.spans)["misalign.build_matrix.pairs"] > 0
