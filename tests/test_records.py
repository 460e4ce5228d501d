"""records.record against a stdlib frozen dataclass of the same class body."""

import dataclasses
import inspect
import math

import pytest

from casimirchip import DeviceGeometry, DomainError, IdealMetal
from casimirchip.records import fields, record, replace


def sample_class():
    """A fresh class body with defaults, a non-float field and a check."""

    class Sample:
        """Sample record."""

        gap: float
        label: str
        terms: int = 3
        scale: float = 1.5

        def __post_init__(self):
            if not self.gap > 0:
                raise DomainError(f"gap must be > 0, got {self.gap!r}")

    return Sample


def empty_class():
    """A class body with no fields, named as materials.IdealMetal."""
    return type("IdealMetal", (), {"__doc__": "No fields."})


def parameters(cls):
    """(name, kind, default) of each constructor parameter; the dataclass's
    also carry annotations, which the record's do not."""
    return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]


def test_a_record_behaves_as_a_frozen_dataclass_of_the_same_body():
    rec, dc = record(sample_class()), dataclasses.dataclass(frozen=True)(sample_class())
    assert parameters(rec) == parameters(dc)
    assert fields(rec) == tuple(field.name for field in dataclasses.fields(dc))
    for args, kwargs in [((1e-7, "a"), {}), ((2e-7, "b", 5), {"scale": math.nan}),
                         ((), {"label": "c", "gap": 3.0, "terms": -1}),
                         ((4.0, ("x", 1)), {"scale": float("inf")})]:
        r, d = rec(*args, **kwargs), dc(*args, **kwargs)
        assert repr(r) == repr(d)
        assert [getattr(r, name) for name in fields(rec)] == [
            getattr(d, name) for name in fields(rec)]
        assert vars(r) == vars(d)
        assert r == rec(*args, **kwargs)
        assert hash(r) == hash(d) == hash(rec(*args, **kwargs))
        assert r != d and d != r
        for name in (*fields(rec), "other"):
            with pytest.raises(AttributeError):
                setattr(r, name, 1.0)
            with pytest.raises(AttributeError):
                delattr(r, name)
        assert vars(r) == vars(d)
        changed = replace(r, gap=9.0)
        assert (changed.gap, changed.label) == (9.0, r.label)
        assert vars(changed) == vars(dataclasses.replace(d, gap=9.0))
        for bad in (replace, dataclasses.replace):
            with pytest.raises(DomainError, match="gap must be > 0"):
                bad(r if bad is replace else d, gap=-1.0)
    # a NaN field is equal only to itself, as in a tuple
    nan = math.nan
    for first, second in [((1.0, "a"), (1.0, "b")), ((1.0, "a", 3), (1.0, "a", 3.0)),
                          ((1.0, "a", 3, nan), (1.0, "a", 3, nan)),
                          ((1.0, "a", 3, nan), (1.0, "a", 3, float("nan")))]:
        assert (rec(*first) == rec(*second)) is (dc(*first) == dc(*second))
        assert (rec(*first) != rec(*second)) is (dc(*first) != dc(*second))
    with pytest.raises(TypeError):
        rec(1.0)
    with pytest.raises(TypeError):
        replace(rec(1.0, "a"), no_such_field=1)

    geometry = DeviceGeometry(384e-6, 340e-6, 926e-9, 300e-9, 18e-9, 220e-6, 350e-9,
                              100e-9, 1.3e9, 3100.0, 2700.0)
    assert replace(geometry) == geometry
    with pytest.raises(DomainError):
        replace(geometry, film_stress=-1.0)

    empty = dataclasses.dataclass(frozen=True)(empty_class())
    assert parameters(IdealMetal) == parameters(empty) == []
    assert fields(IdealMetal) == ()
    assert repr(IdealMetal()) == repr(empty()) == "IdealMetal()"
    assert IdealMetal() == IdealMetal() and IdealMetal() != empty()
    assert hash(IdealMetal()) == hash(empty()) == hash(())
    with pytest.raises(AttributeError):
        IdealMetal().omega_p = 1.0
