"""Base for the records that validate their fields or change after creation.

Records that are never validated are ``typing.NamedTuple``s. The rest are
plain ``__slots__`` classes whose ``__init__`` assigns and checks each
field; this base gives them value equality and a repr over their slots.
Neither kind imports ``dataclasses``, whose import and per-class code
generation every short-lived c4run process would otherwise pay.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _asdict(self) -> dict:
        """The fields by name, in slot order; like NamedTuple._asdict, a
        shallow copy."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._asdict() == other._asdict()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__name__}({fields})"
