import numpy as np
import numpy.testing as npt
import pytest

from groupact.errors import DataError, ParseError
from groupact.evaluation import (
    ACTION_CONFUSION_FILE,
    GROUP_CONFUSION_FILE,
    SUMMARY_FILE,
    EvalReport,
    evaluate_model,
    read_report,
    write_report,
)
from groupact.model import Prediction, branch_inputs
from groupact.scenes import SceneConfig, generate
from groupact.tensor import Tensor

from helpers import oracle_key_actor_predict


class OracleModel:
    """Test stand-in that reads labels straight off the generating rule."""

    def __init__(self, dataset):
        self.prototypes = dataset.prototypes
        self.num_base = dataset.config.num_base
        self.num_actions = dataset.config.num_actions
        self.num_activities = dataset.config.num_activities
        self.by_key = {
            tuple(np.round(s.centers[:, 0], 12)): s for s in dataset.scenes
        }

    def forward(self, inputs, mode=None, rng=None, record_attention=False):
        branch = sorted(inputs)[0]
        scene = self.by_key[tuple(np.round(inputs[branch].centers[:, 0], 12))]
        activity, actions = oracle_key_actor_predict(scene, self.prototypes, self.num_base)
        action_logits = np.zeros((len(actions), self.num_actions))
        action_logits[np.arange(len(actions)), actions] = 1.0
        activity_logits = np.zeros(self.num_activities)
        activity_logits[activity] = 1.0
        return Prediction(Tensor(action_logits), Tensor(activity_logits))

    def forward_batch(self, batch, mode=None, rng=None, record_attention=False):
        preds = [self.forward(branch_inputs(scene)) for scene in batch]
        return Prediction(Tensor(np.concatenate([p.action_logits.data for p in preds])),
                          Tensor(np.stack([p.activity_logits.data for p in preds])),
                          sizes=tuple(p.action_logits.shape[0] for p in preds))


def _dataset(noise, count=60, seed=0):
    cfg = SceneConfig(rule="key-actor-side", num_actions=5, num_activities=4,
                      n_actors=6, branch_dims={"static": 8}, noise=noise, seed=seed)
    return generate(cfg, count)


def test_perfect_predictor_scores_one():
    ds = _dataset(noise=0.0)
    report = evaluate_model(OracleModel(ds), ds.scenes, 5, 4)
    assert report.group_accuracy == 1.0
    assert report.action_accuracy == 1.0
    assert np.all(report.group_confusion == np.diag(report.group_confusion.diagonal()))


def test_confusion_totals_match_scene_counts():
    ds = _dataset(noise=1.5, count=80, seed=1)
    report = evaluate_model(OracleModel(ds), ds.scenes, 5, 4)
    assert report.n_scenes == 80
    assert report.group_confusion.sum() == 80
    assert report.action_confusion.sum() == sum(s.n_actors for s in ds.scenes)
    assert report.group_accuracy < 1.0  # heavy noise must cost something


def test_accuracies_are_trace_over_total():
    report = EvalReport(
        10,
        np.array([[3, 1], [2, 4]]),
        np.array([[5, 0, 0], [1, 6, 1], [0, 2, 5]]),
    )
    assert report.group_accuracy == 7 / 10
    assert report.action_accuracy == 16 / 20


def test_report_round_trip(tmp_path):
    ds = _dataset(noise=1.0, seed=2)
    report = evaluate_model(OracleModel(ds), ds.scenes, 5, 4)
    write_report(report, tmp_path)
    assert read_report(tmp_path) == report
    # same report written twice is byte-identical
    other = tmp_path / "again"
    write_report(report, other)
    for name in (SUMMARY_FILE, GROUP_CONFUSION_FILE, ACTION_CONFUSION_FILE):
        assert (tmp_path / name).read_bytes() == (other / name).read_bytes()


def test_tampered_summary_is_rejected(tmp_path):
    ds = _dataset(noise=1.0, seed=3)
    report = evaluate_model(OracleModel(ds), ds.scenes, 5, 4)
    write_report(report, tmp_path)
    summary = tmp_path / SUMMARY_FILE
    text = summary.read_text().replace(
        f"group_accuracy,{report.group_accuracy:.17g}", "group_accuracy,0.5"
    )
    assert "0.5" in text
    summary.write_text(text)
    with pytest.raises(ParseError, match="disagrees"):
        read_report(tmp_path)


def test_corrupt_confusion_matrix_is_rejected(tmp_path):
    ds = _dataset(noise=0.5, seed=4)
    write_report(evaluate_model(OracleModel(ds), ds.scenes, 5, 4), tmp_path)
    conf = tmp_path / GROUP_CONFUSION_FILE
    lines = conf.read_text().splitlines()
    conf.write_text("\n".join(lines[:-1]) + "\n")  # drop the last row
    with pytest.raises(ParseError):
        read_report(tmp_path)


@pytest.mark.parametrize("num_actions", [4, 6], ids=["fewer", "more"])
def test_class_counts_other_than_the_models_are_refused(num_actions):
    ds = _dataset(noise=0.0, count=8)
    with pytest.raises(DataError, match="predicts 5 actions and 4 activities, "
                                        f"the scenes have {num_actions} and 4"):
        evaluate_model(OracleModel(ds), ds.scenes, num_actions, 4)
