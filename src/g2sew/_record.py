"""The one base class of the package's records: sewing points, period
matrices, moment objects, tolerances, domain checks and generators.

A record is a plain ``__slots__`` class.  Its ``__slots__`` name its fields
in order, and its own ``__init__`` sets them with ``_set`` and then runs its
checks.  Everything else comes from the base, read off ``__slots__``, so a
record costs no generated code to define (a frozen dataclass compiles six
methods per class on every import).
"""

from __future__ import annotations

# sets a field from a record's own __init__, past the base's refusal
_set = object.__setattr__


class Record:
    """Immutable value over the fields named by ``__slots__``: assignment
    and deletion raise AttributeError, ``==`` holds only between records of
    one type with equal field tuples, the hash is the field tuple's, the
    repr is ``Name(field=value, ...)``, and pickling and deep copy rebuild
    the record through its ``__init__``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls.__slots__

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields()
