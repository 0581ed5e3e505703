"""Frozen bundle bytes on the hierarchy fixture.

One ``run --jobs 1`` each with ``OC``, ``OC+PP1`` (a given pair predicate,
bound once per run) and ``OC+PP2`` (a learned pair predicate, so fold models
hold two weight blocks), under the default ``unsupervised`` scope, and one
with ``OC+PP2`` under ``constraint_scope = all``, where every fold trains
against the one rule set grounded for the run.  The sha256 of the fold-0
model, both prediction files and the metrics report are pinned, with the
dataset directory masked out of the echoed paths: any change to what a run
computes or how it writes it, down to the last bit of a weight, fails here.
"""

import hashlib
import os

import pytest

import hierarchy_fixture
from fungo import cli

FILES = ("fold_0/model.txt", "predictions.tsv", "bound_predictions.tsv", "metrics.txt")

# (rules, constraint scope) -> {file: sha256}; a missing file hashes as None
FROZEN = {
    ("OC", "unsupervised"): {
        "fold_0/model.txt": "2f6ac05c2bad90d38d1e68ef285d7c990908d40f848b80434df007f8b83355cf",
        "predictions.tsv": "c836b8924d9c240f56a685f11cb80895512140dc077d4811a04cf2f098c50d15",
        "bound_predictions.tsv": None,
        "metrics.txt": "428fa656a7e05a42d44dd400d7ec0062c5bd9f50ccf0a9975760373c2d278147",
    },
    ("OC+PP2", "unsupervised"): {
        "fold_0/model.txt": "58696e0e0da9dcde80fb9f085fe0dae339197b2ce5a39401c6780d74c90b27a4",
        "predictions.tsv": "8bccf948d96be953297e5bcdf748592bd4e4b78786ca4e3e3ff84a7300f277e9",
        "bound_predictions.tsv": "3610e7f86a33ca1523c5ae506a743a461fec81ce43717f4b4c0f1ea6ae9c7e1a",
        "metrics.txt": "b0cf85433c1f31def6f64bb86cc829db63cfa9600bbe4e0a21adaae4fdee8ab1",
    },
    ("OC+PP1", "unsupervised"): {
        "fold_0/model.txt": "1d5474109b41d24201b9dd7f314d7d6a7aac0f5490921b44dcc57b94424e482e",
        "predictions.tsv": "8bccf948d96be953297e5bcdf748592bd4e4b78786ca4e3e3ff84a7300f277e9",
        "bound_predictions.tsv": None,
        "metrics.txt": "428fa656a7e05a42d44dd400d7ec0062c5bd9f50ccf0a9975760373c2d278147",
    },
    ("OC+PP2", "all"): {
        "fold_0/model.txt": "13f6c13f91607cec2c8f8213e5097e9d90a017fb1466928d366f283033ed581f",
        "predictions.tsv": "87307c04810873b5ab3e3325716e963a90bbcb0acf0ae33d6d27fe3dc66b8bc0",
        "bound_predictions.tsv": "060109152ce83d037d51ac1989035d393794fa85c5e139eb2a1d75adb40c7349",
        "metrics.txt": "582791776e9c097100e125b8ef236be687eb00c9ff7afef16d275855047b04b8",
    },
}


def _digest(path: str, root: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        data = handle.read()
    return hashlib.sha256(data.replace(os.path.abspath(root).encode(), b"<root>")).hexdigest()


@pytest.mark.parametrize("rules, scope", sorted(FROZEN), ids=[
    rules if scope == "unsupervised" else f"{rules}-{scope}" for rules, scope in sorted(FROZEN)])
def test_bundle_bytes_are_frozen(tmp_path, rules, scope):
    root = str(tmp_path)
    hierarchy_fixture.write_dataset(root)
    hierarchy_fixture.write_pair_files(root)
    cfg = hierarchy_fixture.write_config(root, "out", rules=rules, ppi="ppi.tsv",
                                         pair_gram="pairs.csv", constraint_scope=scope)
    assert cli.main(["run", "--config", cfg, "--jobs", "1"]) == 0
    out = os.path.join(root, "out")
    assert {name: _digest(os.path.join(out, name), root) for name in FILES} == FROZEN[rules, scope]
