"""Tests of the benchmark's own code: span self time, metric names, the correctness gate.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from ultratts import acoustic, mlp  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_subtracts_children_and_their_overlap():
    tree = [
        ["mlp.train", 0.0, 10.0, -1, {}],
        ["mlp.backward", 1.0, 3.0, 0, {}],
        ["mlp.backward", 4.0, 5.0, 0, {}],
        ["mlp.predict_utterance", 11.0, 20.0, -1, {}],
        ["acoustic.mlpg", 12.0, 14.0, 3, {}],
        ["acoustic.mlpg", 13.0, 15.0, 3, {}],  # overlaps its sibling: counted once
    ]
    assert spans.self_times(tree) == [7.0, 2.0, 1.0, 6.0, 2.0, 2.0]
    layers = spans.layer_metrics(tree)
    assert layers["mlp.train.self_s"] == 7.0
    assert layers["mlp.backward.calls"] == 2
    assert layers["mlp.backward.ms_per_call"] == 1500.0
    assert layers["mlp.predict_utterance.self_s"] == 6.0
    assert layers["acoustic.mlpg.self_s"] == 4.0


def test_traced_train_and_predict_nest_their_callees():
    rng = np.random.default_rng(0)
    mgc_dim, bap_dim = 4, 2
    width = acoustic.target_width(mgc_dim, bap_dim)
    x, y = rng.uniform(size=(64, 5)), rng.normal(size=(64, width))
    model = mlp.init_model(5, 0, hidden_sizes=(8,), output_dim=width)
    schedule = mlp.TrainingSchedule(max_epochs=2, warmup_epochs=1, batch_size=16, seed=0)
    stats = acoustic.fit_normalization(y, "meanvar")

    tracer = spans.Tracer()
    tracer.install({"mlp": ("train", "backward", "forward", "predict_utterance"), "acoustic": ("mlpg",)})
    try:
        best, _ = mlp.train(model, (x, y), (x, y), schedule)
        mlp.predict_utterance(best, x[:20], stats, mgc_dim, bap_dim)
    finally:
        tracer.uninstall()
    assert mlp.train.__name__ == "train"  # originals restored

    own = spans.self_times(tracer.spans)
    names = [s[0] for s in tracer.spans]
    for parent, child in (("mlp.train", "mlp.backward"), ("mlp.predict_utterance", "acoustic.mlpg")):
        p = names.index(parent)
        kids = [s for s in tracer.spans if s[3] == p]
        assert child in {s[0] for s in kids}
        duration = tracer.spans[p][2] - tracer.spans[p][1]
        assert own[p] == pytest.approx(duration - sum(s[2] - s[1] for s in kids), abs=1e-9)
        assert 0.0 <= own[p] < duration
    assert names.count("mlp.backward") == 2 * 4  # 2 epochs x 64 / 16 batches
    assert names.count("acoustic.mlpg") == 3  # mgc, bap and lf0 streams
    assert all(s[4]["gflop"] > 0 for s in tracer.spans if s[0] == "mlp.backward")


def test_metric_names_are_well_formed_and_match_the_benchmark_file():
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in declared["end_to_end"]]
    per_layer = [m["name"] for m in declared["per_layer"]]
    workloads = [w["name"] for w in declared["workloads"]]
    for name in end_to_end + per_layer + workloads:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(end_to_end + per_layer)) == len(end_to_end) + len(per_layer)

    produced = set(spans.layer_metrics([])) | {"synthetic.generate_corpus.self_s", "trace.overhead_frac"}
    assert set(per_layer) == produced
    assert end_to_end == list(run.END_TO_END)
    assert workloads == list(corpus.WORKLOADS)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    assert all(units[n] == spans.unit_of(n) for n in per_layer)
    assert all(units[n] == u for n, u in run.END_TO_END.items())


def test_calibration_scales_by_the_mean_pass_time(tmp_path):
    cal = speed.calibrate(passes=3)
    assert 0.0 < cal.pass_s < cal.spent_s
    ref = speed.REFERENCE_PASS_S
    fast, slow = speed.Calibration(ref, 0.1), speed.Calibration(2.0 * ref, 0.2)
    assert speed.slowdown(fast, fast) == pytest.approx(1.0)
    assert speed.slowdown(fast, slow) == pytest.approx(1.5)
    times = tmp_path / "times.json"
    times.write_text(json.dumps({"before": vars(fast), "after": vars(slow)}))
    spent, slowdown = speed.read_times(times)
    assert spent == pytest.approx(0.3) and slowdown == pytest.approx(1.5)


def _report(system="txt2wav", value="1.5"):
    lines = [
        "# conventions",
        "speaker,system,split,variant,mcd_db,bap_db,f0_rmse_hz,f0_corr,vuv_error_pct,n_frames,n_voiced_both",
    ]
    for split in ("dev", "test"):
        for variant in ("mlpg", "static"):
            lines.append(f"spk,{system},{split},{variant},5.0,0.1,{value},0.9,3.0,100,60")
    return "\n".join(lines) + "\n"


def test_gate_accepts_a_complete_finite_report():
    assert run.report_problems(_report(), "txt2wav") == []


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
def test_gate_rejects_non_finite_values(bad):
    problems = run.report_problems(_report(value=bad), "txt2wav")
    assert len(problems) == 4 and all("f0_rmse_hz" in p for p in problems)


def test_gate_rejects_missing_rows_and_missing_report():
    text = "".join(line + "\n" for line in _report().splitlines() if ",test,static," not in line)
    assert run.report_problems(text, "txt2wav") == ["no row for test/static"]
    assert run.report_problems(_report(), "ult2wav") != []
    assert run.report_problems(None, "txt2wav") == ["no report.csv"]
