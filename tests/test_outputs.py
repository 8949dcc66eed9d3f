"""Byte-identical CLI output for fixed seeds.

A fixed list of small commands runs through `cli.run` in a temporary
directory; each file it writes, with that directory's path replaced by
`<dir>`, must have the sha256 digest recorded below.  Numbers from numpy
and scipy may differ in the last bit between releases, so the digests
hold only for the versions in VERSIONS; elsewhere the test skips.  After
a change that is meant to alter output, print the new digests with
`PYTHONPATH=src python tests/test_outputs.py`.
"""

import hashlib
import json
import pathlib
import tempfile

import numpy as np
import pytest
import scipy

from gbmlab import cli, dense
from gbmlab import graph as gr

VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}

COMMANDS = [
    ["gen", "--n", "400", "--a", "9", "--b", "1", "--seed", "7", "--out", "{d}/c"],
    ["gen", "--n", "300", "--t", "2", "--a", "12", "--b", "3", "--seed", "4", "--out", "{d}/s"],
    ["thresholds", "--n", "5000", "--a", "13", "--b", "1", "--out", "{d}/thresholds.json"],
    ["table1", "--out", "{d}/table1.csv"],
    ["table1", "--format", "json", "--out", "{d}/table1.json"],
    ["recover", "--in", "{d}/c.graph.txt", "--a", "9", "--b", "1",
     "--decisions-csv", "{d}/decisions.csv", "--out", "{d}/recover.json"],
    ["recover-hd", "--in", "{d}/s.graph.txt", "--t", "2", "--a", "12", "--b", "3",
     "--out", "{d}/recover_hd.json"],
    ["recover-loc", "--in", "{d}/c.graph.txt", "--embeddings", "{d}/c.embeddings.txt",
     "--a", "9", "--b", "1", "--out", "{d}/recover_loc.json"],
    ["eval", "--pred", "{d}/pred.txt", "--truth", "{d}/c.truth.txt", "--out", "{d}/eval.json"],
    ["dense", "--n", "600", "--t", "2", "--rs", "0.8", "--rd", "0.4", "--seed", "2",
     "--out", "{d}/dense_even.json"],
    ["dense", "--n", "601", "--t", "3", "--rs", "0.8", "--rd", "0.4", "--seed", "3",
     "--out", "{d}/dense_odd.json"],
    ["phase", "--n", "1200", "--points", "1.6:1.0,0.9:0.0", "--trials", "3", "--seed", "1",
     "--out", "{d}/phase_rag1.csv"],
    ["phase", "--n", "1200", "--points", "1.6:1.0,0.9:0.0", "--trials", "3", "--seed", "1",
     "--format", "json", "--out", "{d}/phase_rag1.json"],
    ["phase", "--n", "500", "--points", "6:2", "--family", "rag_t", "--t", "2", "--trials", "2",
     "--out", "{d}/phase_rag_t.csv"],
]

DIGESTS = {
    'c.embeddings.txt': 'f00064619c6b71866428ddafa4c6071fcced40db0582bb579c2556936c8e21f8',
    'c.graph.txt': 'b4fc23961a5eeeb8b045c8820316eb3b90799562d64f6dbae93c976628f80a1d',
    'c.meta.json': 'fe898ca5c4b1aa117c5945eaa0cc61d709d903ad09ea2bcd519ed89db94f452a',
    'c.truth.txt': '2fa7d47b9f69a4032155327ce117675555d81ef5e515e0b27e2fee39ff7f8585',
    'decisions.csv': '245220918221287926fda98173b69dc0cdf0637fcdd16a6ced979a38f3bd0032',
    'dense_even.json': '2ea34ac21661899099101cd9d43f3fd86cb5dfaf76ecc90edbb808b0b92c8812',
    'dense_odd.json': '828d65cb4af35eefe57f640f8fe0711608c35fa5496eb35ad5c50ed4f57816a6',
    'eval.json': '9d2c41b1281ceebbf039afe35f58124b7c3e519b97a548830c4733a7f9d44e69',
    'phase_rag1.csv': 'ea0cb2445ec50bbfaa5b838bfb029c6d112016f9f6de5e4524fde5af856017ff',
    'phase_rag1.json': 'a6da01bc2bd60516f0100e8a4d4bbc80bd90196706530b600c6e41aee7fca43d',
    'phase_rag_t.csv': 'd1374884937b8fa5004236a7c7f216da0d135944676d6fd6d637fe02c9edcbae',
    'pred.txt': '557739a8a771d38ebf87737eaf0a57238b35fc0d73704c791be6202ed3aaff9b',
    'recover.json': 'fd195f1804e8f2961dd59a0fa926dd0b5a741676a73016f6ed3d7db1306283b3',
    'recover_hd.json': '6ecf83cbf705cb1ff74d9dce31155caa52a97d390fecd462baab223af3827ad1',
    'recover_loc.json': '7da1d4039c9557c3a6e7f5db8e469dfd8aae7aec201614c31b3759626ef7aab8',
    's.embeddings.txt': '0fd653dddd7bf972506464e2bea38c9e86bf937d8e0057c995245ee7f34e3e9f',
    's.graph.txt': '8ca20636d009c30efd88d9d113a2d3a956b232e8c58f3904e8f8b92e9071a2b4',
    's.meta.json': '998d2cee1f2c90ec7f9ec054e80c7d3a36ed94045c93e9cba09be30284be432b',
    's.truth.txt': '93af414ca337dc54efa39adc2049854039fddb8594f22f5881501f2a967c2dd9',
    'table1.csv': '666fd03cfe417b978c88a8a11744dfe0310db39dbb96571517df209ff5f08e79',
    'table1.json': '8937b7a669859d75f0c8623276f2e082cdbf59775aaca389b7ecadb2ce4c0a0a',
    'thresholds.json': 'a0ee80320d461e2f5e5ef4e7fd2a271161c6b08c71db4b4483f187c3b87a02e3',
}


def run_commands(d) -> dict:
    """{file name: sha256 of its bytes with d replaced by <dir>} after every command."""
    for argv in COMMANDS:
        if argv[0] == "eval":
            # the prediction is recover's labels with some vertices unassigned or moved
            with open(f"{d}/recover.json") as fh:
                labels = np.array(json.load(fh)["labels"])
            labels[::7], labels[::11] = -1, 5
            gr.write_labels(f"{d}/pred.txt", labels)
        assert cli.run([x.format(d=d) for x in argv]) == 0, argv
    prefix = str(d).encode()
    return {p.name: hashlib.sha256(p.read_bytes().replace(prefix, b"<dir>")).hexdigest()
            for p in sorted(d.iterdir())}


def skip_other_versions():
    versions = {"numpy": np.__version__, "scipy": scipy.__version__}
    if versions != VERSIONS:
        pytest.skip(f"digests were recorded with {VERSIONS}, this is {versions}")


def test_outputs_are_byte_identical(tmp_path):
    skip_other_versions()
    assert run_commands(tmp_path) == DIGESTS


@pytest.mark.parametrize("threads", [1, 2])
def test_outputs_are_byte_identical_at_each_thread_count(tmp_path, monkeypatch, threads):
    # the dense commands answer and count their blocks on `dense.THREADS` threads,
    # and the circle commands count their edges, write their graph files in
    # rounds of 1000-row chunks and read them in halves on as many
    skip_other_versions()
    monkeypatch.setattr(dense, "THREADS", threads)
    monkeypatch.setattr(gr, "_WRITE_CHUNK", 1000)
    monkeypatch.setattr(gr, "_READ_HALVES", 0)
    assert run_commands(tmp_path) == DIGESTS


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        for name, digest in run_commands(pathlib.Path(d)).items():
            print(f"    {name!r}: {digest!r},")
