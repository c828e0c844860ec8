import dataclasses

import numpy as np
import pytest

from spdc_ng import distributions


@pytest.fixture
def kernel_points(monkeypatch):
    """A one-item list that counts the points every sinc and sint kernel
    that distributions builds from now on is evaluated on."""
    points = [0]

    def counting(shape):
        def counted(y):
            points[0] += np.size(y)
            return shape(y)
        return counted

    for name in ("sinc", "sint"):
        monkeypatch.setattr(distributions, name,
                            counting(getattr(distributions, name)))
    return points


@pytest.fixture
def kernel_nodes():
    """``(nodes, record)``: ``record(joint)`` is ``joint`` with a kernel that
    appends a copy of every array of points it is evaluated on to the list
    ``nodes``, so that densities built from it show their kernel nodes."""
    nodes = []

    def record(joint):
        def kernel(v):
            nodes.append(np.array(v, float))
            return joint.kernel(v)
        return dataclasses.replace(joint, kernel=kernel)

    return nodes, record
