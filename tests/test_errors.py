import math

import numpy as np
import pytest

from casimirchip.errors import DomainError, require_nonnegative, require_positive


def test_positivity_checks_accept_finite_reals():
    for value in (1e-300, 3, np.float64(2.5), np.float32(1.0)):
        require_positive("x", value)
        require_nonnegative("x", value)
    require_nonnegative("x", 0.0)


@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, -math.inf, math.nan, "1", None, 1j])
def test_require_positive_rejects(value):
    with pytest.raises(DomainError) as excinfo:
        require_positive("gap", value)
    assert str(excinfo.value) == f"gap must be finite and > 0, got {value!r}"


@pytest.mark.parametrize("value", [-1e-300, math.inf, math.nan, "0", None])
def test_require_nonnegative_rejects(value):
    with pytest.raises(DomainError) as excinfo:
        require_nonnegative("temperature", value)
    assert str(excinfo.value) == f"temperature must be finite and >= 0, got {value!r}"
