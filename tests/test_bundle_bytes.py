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
        "fold_0/model.txt": "ee5215d9518a494b780977dae4f95fc49f825fe1395dbf5d66f1bbf45ded7bc1",
        "predictions.tsv": "10b2832a814ce49d6d31f9b88dce588a23ab906368b2294fcc60121758883ed4",
        "bound_predictions.tsv": None,
        "metrics.txt": "428fa656a7e05a42d44dd400d7ec0062c5bd9f50ccf0a9975760373c2d278147",
    },
    "OC+PP2": {
        "fold_0/model.txt": "215785f96c4832f004312a80474eeaf5edd85c41aa28984bf09b53e0758ab689",
        "predictions.tsv": "9f03a384a623f46a1ba9c6fff3c165e7c0ac239e27e7fb923e93cb31a3374819",
        "bound_predictions.tsv": "4df07440670821c5cc6c6ef055809c62fbc2c720da95253e1a464a72c97ea58c",
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
