"""The bundle comparison's report on how far two versions of a file are."""

import sweep

MODEL = b"""[config]
out = <out>

[coefficients]
A: 1 0 -2
B: 0.5

[trace]
stage=1 step=0 objective=3
stage=1 step=1 objective=2
stage=2 step=0 objective=2.5
stage=2 step=1 objective=2.25
stage=2 step=2 objective=2.125
"""


def test_a_model_reports_its_weight_gap_and_stage2_steps():
    moved = MODEL.replace(b"A: 1 0 -2", b"A: 1 0 -2.5").replace(
        b"stage=2 step=2 objective=2.125\n", b"")
    assert sweep.weights(MODEL) == {"A": [1.0, 0.0, -2.0], "B": [0.5]}
    assert sweep.stage2_steps(MODEL) == 2 and sweep.stage2_steps(b"[trace]\n") == 0
    assert sweep.describe("fold_0/model.txt", MODEL, moved) == (
        "weights: largest relative difference 0.2; stage-2 steps 2 here, 1 there")
    fewer = MODEL.replace(b"B: 0.5\n", b"")
    assert sweep.describe("model.txt", MODEL, fewer).startswith(
        "weights: the two sides cover different entries")


def test_predictions_and_metrics_report_their_numbers():
    here = b"p1\tGO_1\t0.5\tneg\t0\np1\tGO_2\t0\tneg\t0\n"
    there = b"p1\tGO_1\t0.25\tneg\t0\np1\tGO_2\t0\tneg\t0\n"
    assert sweep.describe("predictions.tsv", here, there) == (
        "truths: largest relative difference 0.5")
    metrics = b"auc_average = 0.9\nconsistency = 0.8\nexample_f1 = 0.7\nlabel_macro_f1 = 0.6\n"
    assert sweep.describe("metrics.txt", metrics, metrics.replace(b"0.9", b"0.95")) == (
        "here example_f1=0.7 label_macro_f1=0.6 consistency=0.8 auc_average=0.9; "
        "there example_f1=0.7 label_macro_f1=0.6 consistency=0.8 auc_average=0.95")
    assert sweep.describe("per_node.tsv", here, there) == ""
