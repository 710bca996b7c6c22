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
from .fileio import atomic_write_text, check_lines, f17, read_text
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
    text = read_text(path)
    rows = []
    for no, line in enumerate(text.splitlines()[1:], start=2):
        try:
            rows.append(np.array([int(cell) for cell in line.split(",")[1:]], dtype=np.int64))
        except (ValueError, OverflowError):
            raise ParseError(path, no, "bad count") from None
        if (rows[-1] < 0).any():
            raise ParseError(path, no, "negative count")
    for no, row in enumerate(rows, start=2):
        if len(row) != len(rows):
            raise ParseError(path, no, f"a {len(rows)}-row matrix needs {len(rows)} counts a row")
    matrix = np.array(rows, dtype=np.int64).reshape(len(rows), len(rows))
    check_lines(path, text, _confusion_csv(matrix))
    return matrix


def _summary_csv(report: EvalReport) -> str:
    return (f"metric,value\nscenes,{report.n_scenes}\n"
            f"group_accuracy,{f17(report.group_accuracy)}\n"
            f"action_accuracy,{f17(report.action_accuracy)}\n")


def write_report(report: EvalReport, out_dir) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out_dir / SUMMARY_FILE, _summary_csv(report))
    atomic_write_text(out_dir / GROUP_CONFUSION_FILE, _confusion_csv(report.group_confusion))
    atomic_write_text(out_dir / ACTION_CONFUSION_FILE, _confusion_csv(report.action_confusion))


def read_report(out_dir) -> EvalReport:
    """The report in out_dir, whose summary must be the one write_report writes."""
    out_dir = Path(out_dir)
    path = out_dir / SUMMARY_FILE
    text = read_text(path)
    group = _parse_confusion(out_dir / GROUP_CONFUSION_FILE)
    action = _parse_confusion(out_dir / ACTION_CONFUSION_FILE)
    # one count per scene in group, one per actor in action
    if not 1 <= group.sum() <= action.sum():
        raise ParseError(path, 2, f"need 1 <= scenes <= actors, got {group.sum()} and {action.sum()}")
    report = EvalReport(int(group.sum()), group, action)
    check_lines(path, text, _summary_csv(report))
    return report
