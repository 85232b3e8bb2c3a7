"""Immutable value records with named fields.

A :class:`Record` subclass names its fields in ``__slots__`` and is built
from them positionally or by keyword.  Records compare and hash by their
field values, print as ``Name(field=value, ...)``, pickle and copy through
the constructor, and refuse assignment.  A subclass validates its fields in
``_check``, which runs at the end of every construction.

The base is written out by hand rather than taken from ``dataclasses``,
whose import (and the source it generates and compiles for each class) costs
more than most CLI calls spend solving.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Record"]


class Record:
    """Base of the immutable value records; subclasses set ``__slots__``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # The field tuple of a record, for equality, hashing and pickling
        # (given one name, attrgetter returns the bare value).
        names = cls.__slots__
        get = attrgetter(*names)
        cls._fields_of = get if len(names) > 1 else staticmethod(lambda record: (get(record),))

    def __init__(self, *args, **kwargs):
        if kwargs:
            args = self._bind(args, kwargs)
        names = self.__slots__
        if len(args) != len(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self._check()

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """``args`` followed by the keyword values of the fields after them."""
        try:
            args += tuple(map(kwargs.pop, self.__slots__[len(args):]))
        except KeyError as missing:
            raise TypeError(f"{type(self).__name__}() missing field {missing}") from None
        if kwargs:
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(self.__slots__)}")
        return args

    def _check(self) -> None:
        """Validate the fields; raise to reject the record."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields_of(self)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields_of(self) == other._fields_of(other)

    def __hash__(self) -> int:
        return hash(self._fields_of(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
