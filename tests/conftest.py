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
