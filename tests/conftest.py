import importlib.util
import sys
from pathlib import Path

import pytest

from ultratts import synthetic
from ultratts.config import ExperimentConfig

_acceptance_results = []

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def synth_corpus(tmp_path_factory):
    """30-utterance corpus used by the end-to-end ordering checks."""
    root = tmp_path_factory.mktemp("corpus")
    return synthetic.generate_corpus(root, n_utterances=30, seed=7)


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """Small corpus for fast pipeline/determinism runs."""
    root = tmp_path_factory.mktemp("tiny_corpus")
    return synthetic.generate_corpus(
        root, n_utterances=12, seed=11, min_frames=60, max_frames=90
    )


def config_for(layout, system="txt+ult2wav", seed=1, **overrides) -> ExperimentConfig:
    """Desk-scale experiment config over a synthetic corpus layout."""
    defaults = dict(
        ultrasound_dir=layout.ultrasound_dir,
        label_dir=layout.label_dir,
        acoustic_dir=layout.acoustic_dir,
        question_file=layout.question_file,
        system=system,
        seed=seed,
        resize_rows=16,
        resize_cols=32,
        variance_target=0.70,
        max_components=16,
        hidden_layers=2,
        hidden_units=64,
        max_epochs=18,
        warmup_epochs=6,
        base_lr=0.05,
        lr_decay=0.85,
        batch_size=256,
        patience=5,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    if report.when == "call" or (report.when == "setup" and report.skipped):
        _acceptance_results.append((report.nodeid.split("::", 1)[1], report.outcome.upper()))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name, outcome in _acceptance_results:
        terminalreporter.write_line(f"  {outcome:7s} {name}")
