"""The base of the package's immutable value records.

A record lists its fields in ``__slots__`` and sets them in ``__init__``
with ``object.__setattr__``; afterwards every assignment raises
AttributeError.  Two records are equal when they are of the same class and
their fields are equal, a record hashes as the tuple of its fields, and its
repr reads ``Params(a=2, b=2)``.  A subclass may define its own ``__eq__``,
``__hash__`` or ``__repr__`` (LaurentPoly and NgonType define all three).
"""
from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the field values, as a tuple when there are two or more fields
        cls._values = attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"
