"""Accuracy reports over a scene list.

Predictions are argmax over the model outputs. Confusion matrices index
rows by true label and columns by prediction; both accuracies are defined
as trace over total of the corresponding matrix, and the summary values are
computed exactly that way so the emitted files can never disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ParseError, UsageError
from .fileio import atomic_write_text, f17, meta_decode, read_text
# branch_inputs stays bound here, where perfbench/spans.py wraps it
from .model import branch_inputs, predict  # noqa: F401
from .tensor import MODE_INFER

SUMMARY_FILE = "summary.csv"
GROUP_CONFUSION_FILE = "group_confusion.csv"
ACTION_CONFUSION_FILE = "action_confusion.csv"
# Scenes per packed forward pass. Larger chunks save little time and cost
# memory: on the README quick-start model, evaluating 1,000 scenes in one
# chunk raised peak RSS by 33 MB, in chunks of 64 by 2 MB.
EVAL_CHUNK = 64


@dataclass(eq=False)
class EvalReport:
    n_scenes: int
    group_confusion: np.ndarray  # (num_activities, num_activities) int
    action_confusion: np.ndarray  # (num_actions, num_actions) int

    @property
    def group_accuracy(self) -> float:
        return float(np.trace(self.group_confusion) / self.group_confusion.sum())

    @property
    def action_accuracy(self) -> float:
        return float(np.trace(self.action_confusion) / self.action_confusion.sum())

    def __eq__(self, other):
        if not isinstance(other, EvalReport):
            return NotImplemented
        return (
            self.n_scenes == other.n_scenes
            and np.array_equal(self.group_confusion, other.group_confusion)
            and np.array_equal(self.action_confusion, other.action_confusion)
        )


def evaluate_model(model, scenes, num_actions: int, num_activities: int) -> EvalReport:
    """Confusion matrices of model.forward_batch over the scenes, run in
    packed chunks of EVAL_CHUNK scenes. The model must predict num_actions
    actions and num_activities activities, the scenes' class counts."""
    if not scenes:
        raise UsageError("evaluate_model needs at least one scene")
    group_conf = np.zeros((num_activities, num_activities), dtype=np.int64)
    action_conf = np.zeros((num_actions, num_actions), dtype=np.int64)
    for start in range(0, len(scenes), EVAL_CHUNK):
        chunk = scenes[start:start + EVAL_CHUNK]
        pred = model.forward_batch(chunk, MODE_INFER)
        counts = (pred.action_logits.shape[1], pred.activity_logits.shape[1])
        if counts != (num_actions, num_activities):
            raise DataError(f"the model predicts {counts[0]} actions and {counts[1]} activities, "
                            f"the scenes have {num_actions} and {num_activities}")
        groups, actions = predict(pred)
        np.add.at(group_conf, ([scene.activity for scene in chunk], groups), 1)
        np.add.at(action_conf, (np.concatenate([scene.actions for scene in chunk]), actions), 1)
    return EvalReport(len(scenes), group_conf, action_conf)


def _confusion_csv(matrix: np.ndarray) -> str:
    n = matrix.shape[1]
    lines = ["true\\pred," + ",".join(str(c) for c in range(n))]
    for r, row in enumerate(matrix):
        lines.append(f"{r}," + ",".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def _parse_confusion(path) -> np.ndarray:
    lines = read_text(path).splitlines()
    width = len(lines[0].split(",")) - 1 if lines else 0
    if not lines or lines[0] != "true\\pred," + ",".join(map(str, range(width))):
        raise ParseError(path, 1, "bad confusion-matrix header")
    rows = []
    for no, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != width + 1:
            raise ParseError(path, no, f"expected {width + 1} columns, got {len(cells)}")
        if cells[0] != str(no - 2):
            raise ParseError(path, no, f"expected row label {no - 2}, got {cells[0]!r}")
        try:
            rows.append(np.array([meta_decode("int", c) for c in cells[1:]], dtype=np.int64))
        except (ValueError, OverflowError):
            raise ParseError(path, no, "bad count") from None
        if (rows[-1] < 0).any():
            raise ParseError(path, no, "negative count")
    if len(rows) != width:
        raise ParseError(path, len(lines), f"expected {width} rows, got {len(rows)}")
    return np.array(rows, dtype=np.int64)


def write_report(report: EvalReport, out_dir) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = "\n".join(
        [
            "metric,value",
            f"scenes,{report.n_scenes}",
            f"group_accuracy,{f17(report.group_accuracy)}",
            f"action_accuracy,{f17(report.action_accuracy)}",
        ]
    )
    atomic_write_text(out_dir / SUMMARY_FILE, summary + "\n")
    atomic_write_text(out_dir / GROUP_CONFUSION_FILE, _confusion_csv(report.group_confusion))
    atomic_write_text(out_dir / ACTION_CONFUSION_FILE, _confusion_csv(report.action_confusion))


def read_report(out_dir) -> EvalReport:
    out_dir = Path(out_dir)
    path = out_dir / SUMMARY_FILE
    lines = read_text(path).splitlines()
    if not lines or lines[0] != "metric,value":
        raise ParseError(path, 1, "bad summary header")
    values = {}
    for no, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 2:
            raise ParseError(path, no, "expected metric,value")
        values[cells[0]] = (no, cells[1])
    for needed in ("scenes", "group_accuracy", "action_accuracy"):
        if needed not in values:
            raise ParseError(path, 1, f"summary is missing {needed!r}")
    group = _parse_confusion(out_dir / GROUP_CONFUSION_FILE)
    action = _parse_confusion(out_dir / ACTION_CONFUSION_FILE)
    no, scenes = values["scenes"]
    # The stored lines must agree with the matrices they sit next to: one
    # count per scene in group, at least one actor per scene in action.
    if scenes != str(group.sum()) or not 1 <= group.sum() <= action.sum():
        raise ParseError(path, no, "scene count disagrees with the confusion matrices")
    report = EvalReport(int(scenes), group, action)
    for name in ("group_accuracy", "action_accuracy"):
        no, text = values[name]
        if text != f17(getattr(report, name)):
            raise ParseError(path, no, f"{name} disagrees with the confusion matrix")
    return report
