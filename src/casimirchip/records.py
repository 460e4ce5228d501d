"""Frozen value records: the class decorator behind every record type of
the package, and the two functions that read and rebuild a record.

``@record`` makes a class whose body annotates its fields (in order, some
with defaults) a frozen value type, as ``@dataclass(frozen=True)`` would:

- ``__init__`` takes the fields in order, positionally or by keyword, with
  the class body's defaults, and calls ``__post_init__`` last if the class
  defines one;
- ``repr`` is ``Name(field=value, ...)``;
- two records are equal when they are of one class and their fields are
  equal, and a record hashes as the tuple of its field values;
- assigning or deleting an attribute raises ``FrozenRecordError``, an
  ``AttributeError``.

Inheritance, slots, ordering and default factories are not supported: no
record of the package uses them.  ``__init__`` and ``__hash__`` are
compiled for each class, by one ``exec`` in the defining module's
namespace, so a warning that ``__post_init__`` issues with stacklevel=2 is
attributed to that module.  The other methods are shared by every record
and read the instance's ``__dict__``, which holds the fields alone, in
field order.  (A shared ``__hash__`` would have to build a view of the
``__dict__``, which made it about 1.6 times slower than the dataclass one.)

The module imports neither ``dataclasses`` nor ``inspect``, so importing
the package and loading a config do not pay for them.
"""

import sys


class FrozenRecordError(AttributeError):
    """An attribute of a record was assigned or deleted."""


def _repr(self):
    fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
    return f"{type(self).__qualname__}({fields})"


def _eq(self, other):
    if other.__class__ is self.__class__:
        return self.__dict__ == other.__dict__
    return NotImplemented


def _setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields (see the module)."""
    names = tuple(cls.__annotations__)
    # the defs read their defaults from the namespace they run in
    namespace = {f"_default_{name}": cls.__dict__[name] for name in names if name in cls.__dict__}
    params = "".join(f", {name}=_default_{name}" if f"_default_{name}" in namespace
                     else f", {name}" for name in names)
    source = (
        f"def __init__(self{params}):\n"
        f"    self.__dict__.update({', '.join(f'{name}={name}' for name in names)})\n"
        + ("    self.__post_init__()\n" if hasattr(cls, "__post_init__") else "")
        + "def __hash__(self):\n"
        f"    return hash(({''.join(f'self.{name}, ' for name in names)}))\n"
    )
    exec(source, sys.modules[cls.__module__].__dict__, namespace)
    for name in ("__init__", "__hash__"):
        method = namespace[name]
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls.__repr__ = _repr
    cls.__eq__ = _eq
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    cls._fields = names
    return cls


def fields(rec):
    """The field names of a record or record class, in field order."""
    return rec._fields


def replace(rec, **changes):
    """A new record of ``rec``'s class with ``changes`` applied to its
    fields; its ``__init__`` and ``__post_init__`` run again."""
    return type(rec)(**{**rec.__dict__, **changes})
