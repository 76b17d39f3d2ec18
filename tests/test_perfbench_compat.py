"""perfbench's tracer wraps program functions where their callers look them
up, so a refactor that moves a call off one of those names blinds a layer
without failing anything else.  These tests pin the names and, at a tiny
size, the call counts the ebm and train closed forms expect."""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, PERFBENCH)
    try:
        yield importlib.import_module("tracer"), importlib.import_module("workloads")
    finally:
        sys.path.remove(PERFBENCH)


def test_every_traced_site_resolves(perfbench):
    tracer, _ = perfbench
    for layer, sites in tracer.LAYERS:
        for owner, attr in sites:
            if isinstance(owner, type):
                assert attr in owner.__dict__, f"{layer}: {owner.__name__}.{attr}"
            else:
                assert callable(getattr(owner, attr, None)), f"{layer}: {owner.__name__}.{attr}"


def traced_counts(perfbench, workload, calls):
    """Run ``calls`` operations under the tracer; return the op-time call counts."""
    tracer_mod, _ = perfbench
    tracer = tracer_mod.Tracer(workload.op_boundary)
    with tracer.installed():
        workload.setup()
        tracer.begin_ops()
        for pos in range(calls):
            workload.call(pos)
    return {name: tracer.op_calls(name) for name in tracer_mod.LAYER_NAMES}


def test_ebm_closed_form(perfbench, tmp_path):
    _, workloads = perfbench
    size = {"T": 4, "chains": 5, "langevin": 3}
    ebm = workloads.Ebm(0, size, str(tmp_path))
    got = traced_counts(perfbench, ebm, 1)
    want = ebm.closed_forms(1, size["T"])
    runs = 2  # one experiment per default prior
    assert want == {
        "grid.spawn": runs * (size["chains"] + 3),
        "denoiser.gmm_chain_eps": runs * size["T"],
        "denoiser.grad_chain": runs * size["langevin"],
    }
    assert {layer: got[layer] for layer in want} == want


def test_train_closed_form(perfbench, tmp_path):
    _, workloads = perfbench
    size = {"T": 6, "steps": 4}
    wl = workloads.Train(0, size, str(tmp_path))
    got = traced_counts(perfbench, wl, 2)
    want = wl.closed_forms(2, size["T"])
    assert want == {"training.loss_and_grad": 2 * size["steps"], "training.train": 2}
    assert {layer: got[layer] for layer in want} == want
