"""scipy stays off the import path of a desk-scale run.

Every ``ultratts`` run is a fresh process, and importing ``scipy.linalg``
costs it about a quarter of a second. Only a PCA fit on a Gram matrix above
``eigentongues.DENSE_EIGH_MAX_GRAM`` may import scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
import numpy as np
import ultratts.cli
from ultratts import acoustic, eigentongues

rng = np.random.default_rng(0)
# sweep-desk's fit: 16x32 frames, so a 512 x 512 scatter Gram matrix
eigentongues.fit_pca(rng.normal(size=(600, 512)), 0.7, 128)
acoustic.mlpg(rng.normal(size=(50, 9)), np.ones(9))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cli_desk_fit_and_mlpg_do_not_import_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
