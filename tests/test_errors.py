import dataclasses
import math

import numpy as np
import pytest

from casimirchip import ReadoutCalibration
from casimirchip.errors import (
    DomainError,
    require_nonnegative,
    require_positive,
    require_positive_fields,
)


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


def test_require_positive_fields_reports_the_first_bad_field_in_field_order():
    @dataclasses.dataclass
    class Record:
        a: float
        b: float
        c: float

    require_positive_fields(Record(1e-300, 3, np.float64(2.5)))
    with pytest.raises(DomainError) as excinfo:
        require_positive_fields(Record(1.0, -2.0, math.nan))
    assert str(excinfo.value) == "b must be finite and > 0, got -2.0"
    with pytest.raises(DomainError) as excinfo:
        ReadoutCalibration(2.5e-11, 10e6, 0.0, -1.0)
    assert str(excinfo.value) == "drift_bound must be finite and > 0, got 0.0"
