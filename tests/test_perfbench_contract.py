"""What the benchmark under perfbench/ relies on in the package.

The tracer wraps names as their callers bind them and the checks call the
models directly, so a refactor that renames or unbinds one of them breaks
the traced or checked benchmark. These tests import perfbench/ and change
nothing in it.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import groupact.training as gtraining  # noqa: E402


def test_every_traced_binding_resolves():
    bindings = {**spans._MODULE_BINDINGS, **spans._CLASS_BINDINGS}
    for owner, attrs in bindings.items():
        for attr in attrs:
            assert callable(owner.__dict__.get(attr)), f"{owner.__name__}.{attr}"
    # the tracer swaps in a counting Graph by assigning the module global
    assert gtraining.__dict__.get("Graph") is not None


def _tiny_state(name):
    w = replace(WORKLOADS[name], scenes=40, held_out=8)
    return harness.build_state(harness.workload_config(w, 0), w)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_pass_on_a_tiny_model_of_each_workload(name):
    st = _tiny_state(name)
    assert checks.check_forward(st.model, st.held_out[:4]) == []
    assert checks.check_gradients(st.model, st.train[:4], 0) == []
    if name == "io-late-fusion":
        assert checks.check_late_mix(st.model, st.held_out[:4]) == []


def test_traced_training_runs_one_encode_per_step():
    st = _tiny_state("train-quickstart")
    tracer = spans.Tracer()
    steps = 3
    with tracer.installed(), tracer.span("train"):
        gtraining.train(st.model, st.train, st.cfg.train_config(total_iterations=steps))
    summary = tracer.summary([(0.0, 0.0, 1.0)])
    assert summary.count(".encode", "train") == steps
    assert 0 < tracer.tape_nodes["train"] <= 3 * steps * st.cfg.batch_size
