"""No ``ultratts`` run imports scipy: the runtime needs numpy alone.

scipy is a test extra, for the tests' ``subspace_angles`` oracle; the PCA fit
takes its eigenpairs from numpy. Every ``ultratts`` run is a fresh process,
so a child in which importing scipy raises runs ``run-all`` for each system.
The same child checks that ``run-all`` leaves the corpus generator, which
only ``synth-corpus`` needs, unimported.
"""

import os
import subprocess
import sys
from pathlib import Path

from conftest import config_for
from ultratts.config import write_config

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy is not installed")
        return None


sys.meta_path.insert(0, NoScipy())
from ultratts import cli

config, out = sys.argv[1:]
for system in ("txt2wav", "ult2wav", "txt+ult2wav"):
    argv = ["run-all", "--config", config, "--output", f"{out}/{system}", "--system", system]
    assert cli.main(argv) == 0, system
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m == "ultratts.synthetic"))
"""


def test_run_all_needs_no_scipy(tiny_corpus, tmp_path):
    config = tmp_path / "experiment.cfg"
    write_config(config_for(tiny_corpus, max_epochs=2, warmup_epochs=1), config)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(config), str(tmp_path / "runs")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "runs" / "txt+ult2wav" / "pca" / "model.bin").exists()
