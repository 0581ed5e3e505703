"""Frozen bundle bytes on the hierarchy fixture.

One ``run --jobs 1`` with ``OC`` and one with ``OC+PP2`` (a learned pair
predicate, so fold models hold two weight blocks).  The sha256 of the fold-0
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

# rules -> {file: sha256}; a missing file hashes as None
FROZEN = {
    "OC": {
        "fold_0/model.txt": "2f3630d964d4e9f979af04dd61fc00071349a07d0b2dc41a898cab3d256c3df6",
        "predictions.tsv": "44e34369601cc9eea16776c7bcce7717cf4d817a943888b98b043731d82c711a",
        "bound_predictions.tsv": None,
        "metrics.txt": "428fa656a7e05a42d44dd400d7ec0062c5bd9f50ccf0a9975760373c2d278147",
    },
    "OC+PP2": {
        "fold_0/model.txt": "2d342012a8d3afac6d07f2fc191f933d82ba0a6767c1cb3f8ca1071d7fc17af9",
        "predictions.tsv": "a383c7256e66540ba906ead3e448263fec112a971a9fe735256e9ad56842003c",
        "bound_predictions.tsv": "f8c0303144fdcd39e5bae4ba41e3269f40e1d8d70ee4d5fe1f9d59f81c00a826",
        "metrics.txt": "b0cf85433c1f31def6f64bb86cc829db63cfa9600bbe4e0a21adaae4fdee8ab1",
    },
}


def _digest(path: str, root: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        data = handle.read()
    return hashlib.sha256(data.replace(os.path.abspath(root).encode(), b"<root>")).hexdigest()


@pytest.mark.parametrize("rules", sorted(FROZEN))
def test_bundle_bytes_are_frozen(tmp_path, rules):
    root = str(tmp_path)
    hierarchy_fixture.write_dataset(root)
    hierarchy_fixture.write_pair_files(root)
    cfg = hierarchy_fixture.write_config(root, "out", rules=rules, ppi="ppi.tsv",
                                         pair_gram="pairs.csv")
    assert cli.main(["run", "--config", cfg, "--jobs", "1"]) == 0
    out = os.path.join(root, "out")
    assert {name: _digest(os.path.join(out, name), root) for name in FILES} == FROZEN[rules]
