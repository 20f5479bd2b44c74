"""A fresh interpreter imports the package with numpy alone: scipy and
the process pool load only when the LP oracle or ``--jobs`` > 1 asks."""

import json
import os
import subprocess
import sys
from pathlib import Path

import ilfo_lab

SRC = str(Path(ilfo_lab.__file__).resolve().parents[1])

SCRIPT = """
import json, sys
import numpy as np
import ilfo_lab, ilfo_lab.cli
from ilfo_lab.discriminators import rff_featurize

rng = np.random.default_rng(0)
fmap, _ = rff_featurize(rng.normal(size=(20, 3)), m=4, bandwidth="auto",
                        rng=rng)
heavy = sorted(m for m in sys.modules
               if m.startswith(("scipy", "multiprocessing"))
               or m == "concurrent.futures.process")

from ilfo_lab.models import TabularModel
from ilfo_lab.planner import game_value_lp

# H=1 pins the occupancy at state 0: value 1 - max_a b(0, a) = 0.4
model = TabularModel(p_hat=np.full((2, 2, 2), 0.5),
                     sigma_table=np.zeros((2, 2)))
value = game_value_lp(model, np.array([[0.2, 0.6], [0.0, 0.0]]),
                      np.array([0.0, 1.0]), horizon=1, init_state=0)
print(json.dumps({"bandwidth": fmap.bandwidth, "heavy": heavy,
                  "value": value,
                  "lp_loaded": "scipy.optimize" in sys.modules}))
"""


def test_import_loads_no_scipy_or_process_pool():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    got = json.loads(done.stdout.splitlines()[-1])
    assert got["bandwidth"] > 0
    assert got["heavy"] == []
    assert abs(got["value"] - 0.4) < 1e-9
    assert got["lp_loaded"]
