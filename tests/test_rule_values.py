"""Frozen rule-set values on the hierarchy fixture.

Fold 0's rule set, as a run hands it to training, is evaluated at seeded
truths.  Each penalty and a checksum of the gradient are pinned as
``float.hex`` strings, so any change to how the rules are grounded that
moves a single bit, including the order in which groundings are summed,
fails here.
"""

import numpy as np
import pytest

import hierarchy_fixture
from fungo import cli

# rules, constraint_scope, tnorm -> (penalties, gradient checksum)
FROZEN = {
    ("OC", "all", "minimum"): (
        ["0x1.160ee1c9c5f63p+4", "0x1.22a5d62c083fap+4", "0x1.05798f1bc3a45p+4",
         "0x1.c761aab59f50ep+3"],
        "0x1.458df13272f32p+2",
    ),
    ("OC+PP1", "all", "minimum"): (
        ["0x1.160ee1c9c5f63p+4", "0x1.22a5d62c083fap+4", "0x1.05798f1bc3a45p+4",
         "0x1.c761aab59f50ep+3", "0x1.3583843bdaecbp+7", "0x1.2b69ec00cb4f7p+7",
         "0x1.21aaaa964f344p+7"],
        "0x1.cc0284e57eb0fp+5",
    ),
    ("OC+PP1", "unsupervised", "lukasiewicz"): (
        ["0x1.fcf94187c065ap-1", "0x1.6ed8b67a73c4dp+1", "0x1.58eed1446f740p+0",
         "0x1.c6de2ca0de276p-2", "0x1.01ef3c66cd64fp+1", "0x1.03fcf846231dep+1",
         "0x1.6b3523023bcdcp+1"],
        "-0x1.5e92e6caa7b56p+3",
    ),
    ("OC+PP2", "unsupervised", "product"): (
        ["0x1.0329ca3abe2e7p+1", "0x1.f652adfe23758p+1", "0x1.6ff89290519d6p+1",
         "0x1.3a0db47371befp-1", "0x1.118a5947390fbp+1", "0x1.352cc885b1a4ap+0",
         "0x1.5d24cc3dc3398p-1"],
        "0x1.6de6618e16a49p+3",
    ),
}


def _fold_zero_problem(root, monkeypatch, rules, scope, tnorm):
    """The tasks and rule set that a run hands to training in fold 0."""
    hierarchy_fixture.write_dataset(str(root))
    hierarchy_fixture.write_pair_files(str(root))
    cfg = hierarchy_fixture.write_config(
        str(root), "out", rules=rules, ppi="ppi.tsv", pair_gram="pairs.csv",
        constraint_scope=scope, tnorm=tnorm, max_iterations=1,
    )
    seen = []
    train = cli.train

    def record(tasks, rule_set, config):
        seen.append((tasks, rule_set))
        return train(tasks, rule_set, config)

    monkeypatch.setattr(cli, "train", record)
    assert cli.main(["run", "--config", cfg, "--jobs", "1"]) == 0
    return seen[0]


@pytest.mark.parametrize("case", sorted(FROZEN))
def test_rule_set_values_are_frozen(tmp_path, monkeypatch, case):
    tasks, rule_set = _fold_zero_problem(tmp_path, monkeypatch, *case)
    rng = np.random.default_rng(17)
    truths = [rng.uniform(0.0, 1.0, (len(t.predicates), t.size)) for t in tasks]
    probes = [rng.uniform(-1.0, 1.0, t.shape) for t in truths]
    phis, grads = rule_set.penalties_and_gradients(truths)
    assert np.array_equal(rule_set.penalties(truths), phis)
    checksum = sum(float(np.vdot(g, p)) for g, p in zip(grads, probes))
    penalties, want = FROZEN[case]
    assert [phi.hex() for phi in phis.tolist()] == penalties
    assert checksum.hex() == want
