"""Which scipy modules a command loads.

Each command runs in a fresh interpreter, because this one has loaded
scipy.integrate already (pytest's warning filters name its
IntegrationWarning).  The circle commands and the rag1 sweep must not
load scipy.integrate, scipy.special, scipy.spatial or the process pool:
each costs set-up time in every process and none of them is used there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import gbmlab

SRC = str(Path(gbmlab.__file__).resolve().parents[1])
DEFERRED = ("scipy.integrate", "scipy.special", "scipy.spatial", "concurrent.futures.process")

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from gbmlab import cli
codes = [cli.run(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({"codes": codes, "loaded": [m for m in json.loads(sys.argv[3]) if m in sys.modules]}))
"""


def run_fresh(commands) -> dict:
    """Exit codes of `cli.run` on each argv in one new interpreter, and which of DEFERRED it loaded."""
    proc = subprocess.run([sys.executable, "-c", SCRIPT, SRC, json.dumps(commands),
                           json.dumps(DEFERRED)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_circle_commands_load_none_of_the_deferred_modules(tmp_path):
    p = str(tmp_path / "c")
    ab = ["--a", "5", "--b", "1"]
    res = run_fresh([
        ["gen", "--n", "200", *ab, "--seed", "1", "--out", p],
        ["recover", "--in", p + ".graph.txt", *ab, "--out", str(tmp_path / "r.json")],
        ["eval", "--pred", p + ".truth.txt", "--truth", p + ".truth.txt",
         "--out", str(tmp_path / "e.json")],
        ["recover-loc", "--in", p + ".graph.txt", "--embeddings", p + ".embeddings.txt", *ab,
         "--out", str(tmp_path / "l.json")],
        ["phase", "--n", "500", "--points", "1.6:1.0", "--family", "rag1", "--trials", "2",
         "--out", str(tmp_path / "ph.csv")],
    ])
    assert res == {"codes": [0] * 5, "loaded": []}


def test_sphere_commands_load_what_they_use(tmp_path):
    p = str(tmp_path / "s")
    ab = ["--t", "2", "--a", "12", "--b", "3"]
    res = run_fresh([
        ["gen", "--n", "300", *ab, "--seed", "1", "--out", p],
        ["recover-hd", "--in", p + ".graph.txt", *ab, "--out", str(tmp_path / "r.json")],
    ])
    assert res["codes"] == [0, 0]
    # the sphere sampler's ndtri, the k-d tree and the cap areas' betainc
    assert {"scipy.special", "scipy.spatial"} <= set(res["loaded"])
    assert "concurrent.futures.process" not in res["loaded"]
