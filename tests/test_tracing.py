"""Contracts between the package and the benchmark (bench/).

The call tracer (bench/spans.py) wraps package functions by module attribute
name and computes its counters from their parameter names and results.
Renaming or folding away any of them would silently drop a per-layer
benchmark metric, so a traced ``run-all`` must produce a span for every traced
name and a counter set for every counter entry. The benchmark also fails a
call whose report differs from the first call on its corpus, so a traced and
an untraced ``run-all`` of one config must write the same report.

Each workload of bench/corpus.py writes an ExperimentConfig; a config check
that rejected one would fail every benchmark call on that workload.
"""

from pathlib import Path

import pytest

from conftest import config_for, load_bench_module
from ultratts import cli, eigentongues
from ultratts.config import PATH_FIELDS, ExperimentConfig, read_config, write_config


def test_bench_workload_configs_are_valid_and_round_trip(tmp_path):
    paths = {name: tmp_path / name for name in PATH_FIELDS}
    for name, workload in load_bench_module("corpus").WORKLOADS.items():
        cfg = ExperimentConfig(**paths, **workload.config)
        write_config(cfg, tmp_path / f"{name}.cfg")
        assert read_config(tmp_path / f"{name}.cfg") == cfg, name


def traced_run_all(cfg, tmp_path):
    """``run-all`` of ``cfg`` under the tracer: its config file, run
    directory, exit code and tracer."""
    cfg_file = tmp_path / "exp.cfg"
    write_config(cfg, cfg_file)

    tracer = load_bench_module("spans").Tracer()
    tracer.install()
    try:
        code = cli.main(["run-all", "--config", str(cfg_file), "--output", str(tmp_path / "run")])
    finally:
        tracer.uninstall()
    return cfg_file, tmp_path / "run", code, tracer


@pytest.fixture(scope="module")
def traced_run(tiny_corpus, tmp_path_factory):
    cfg = config_for(tiny_corpus, system="txt+ult2wav", seed=5, max_epochs=2, warmup_epochs=1)
    return traced_run_all(cfg, tmp_path_factory.mktemp("traced"))


def test_traced_run_all_fires_every_span_and_counter(traced_run):
    spans = load_bench_module("spans")
    _, _, code, tracer = traced_run
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


def test_untraced_run_all_writes_the_traced_report(traced_run, tmp_path):
    # the benchmark fails any call whose report differs from the first call
    # on its corpus, traced or not
    cfg_file, traced_dir, _, _ = traced_run
    untraced_dir = tmp_path / "run"
    assert cli.main(["run-all", "--config", str(cfg_file), "--output", str(untraced_dir)]) == 0
    report = Path("evaluate") / "report.csv"
    assert (untraced_dir / report).read_bytes() == (traced_dir / report).read_bytes()


def test_traced_scatter_fit_counts_its_spilled_rows(tiny_corpus, tmp_path):
    # at 8x16 frames (d = 128) the training block's distinct rows reach d, so
    # the pca stage hands the fit a row source read back from a file
    cfg = config_for(
        tiny_corpus, system="ult2wav", resize_rows=8, resize_cols=16, max_epochs=2, warmup_epochs=1
    )
    _, run_dir, code, tracer = traced_run_all(cfg, tmp_path)
    assert code == 0
    [counters] = [c for name, _, _, _, c in tracer.spans if name == "eigentongues.fit_pca"]
    assert counters["dim"] == 128 <= counters["rows"]
    assert counters["input_mb"] == counters["rows"] * 128 * 8 / 1e6
    assert counters["k"] == eigentongues.load_model(run_dir / "pca" / "model.bin").n_components
