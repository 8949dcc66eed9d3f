"""Which scipy modules a command loads.

Each command runs in a fresh interpreter, because this one has loaded
scipy.integrate already (pytest's warning filters name its
IntegrationWarning).  The circle commands and the rag1 sweep must not
load scipy.integrate, scipy.special, scipy.spatial, the process pool or
the thread pool: each costs set-up time in every process and none of
them is used there.  (The circle commands start threads only on inputs
of about a megabyte or more, far above the graphs here.)  The sphere commands `gen` and `recover-hd` use no
pool either, and a sweep on two jobs loads the thread pool and never the
process pool.  `dense` never loads the process pool; its plan's cap
areas load scipy.integrate, which loads scipy.spatial and scipy.special
with it (`python3 -c "import scipy.integrate, sys; print('scipy.spatial'
in sys.modules)"` prints True).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gbmlab

SRC = str(Path(gbmlab.__file__).resolve().parents[1])
DEFERRED = ("scipy.integrate", "scipy.special", "scipy.spatial", "concurrent.futures.process",
            "concurrent.futures.thread")

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
    assert not {"concurrent.futures.process", "concurrent.futures.thread"} & set(res["loaded"])


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="phase --jobs 2 needs 2 usable cores")
def test_parallel_sweep_loads_the_thread_pool_only(tmp_path):
    res = run_fresh([["phase", "--n", "500", "--points", "1.6:1.0", "--family", "rag1",
                      "--trials", "4", "--jobs", "2", "--out", str(tmp_path / "ph.csv")]])
    assert res == {"codes": [0], "loaded": ["concurrent.futures.thread"]}


def test_dense_loads_no_process_pool(tmp_path):
    res = run_fresh([["dense", "--n", "1500", "--t", "2", "--rs", "0.6", "--rd", "0.4",
                      "--seed", "19", "--out", str(tmp_path / "d.json")]])
    assert res["codes"] == [0]
    assert "scipy.integrate" in res["loaded"]
    assert "concurrent.futures.process" not in res["loaded"]
