import dataclasses
import sys

import numpy as np
import pytest

from fedmoe.numerics import Tensor


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion, printed outside capture.
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        outcome = "PASS" if report.passed else "FAIL"
        sys.stderr.write(f"\n[acceptance] {name}: {outcome}\n")
    elif report.when == "setup" and report.skipped:
        sys.stderr.write(f"\n[acceptance] {name}: SKIP\n")


def zero_gate(dim):
    """A gate ``{"weight": (dim, 1), "bias": (1,)}`` of zeros: g = 0.5 on every input."""
    return {"weight": Tensor(np.zeros((dim, 1))), "bias": Tensor(np.zeros(1))}


@pytest.fixture
def clamp_gate():
    """``clamp_gate(client, g)``: the mixture client with a gate that gives
    g = 1 or g = 0 exactly on every input. Its weight is zero and its bias
    +1000 or -1000, where the sigmoid saturates."""
    def clamp(client, g):
        weight = np.zeros(client.gate["weight"].shape)
        bias = np.array([{1: 1000.0, 0: -1000.0}[g]])
        return dataclasses.replace(client, gate={"weight": Tensor(weight), "bias": Tensor(bias)})

    return clamp
