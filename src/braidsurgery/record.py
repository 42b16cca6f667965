"""Frozen value records whose fields are the parameters of ``__init__``.

A record class writes one ``__init__`` that checks and normalises its
arguments and ends in ``self._store(locals())``.  Its parameter list is
the field list, written once, so ``__init__`` binds no other name (no
assignment to a new local, no comprehension, no closure over a
parameter); the class statement fails otherwise.  Records compare and
hash by their fields, and only against the same class.  They print as
``Name(field=value, ...)`` and refuse assignment to an attribute.
:func:`replace` copies one through ``__init__``, so its checks run again.
``vars(record)`` holds the fields in order (plus any
``functools.cached_property`` value it has computed), and copy and
pickle restore that dict.  This is the part of :mod:`dataclasses` the
package uses, without importing it or generating code per class.
"""

from __future__ import annotations

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a record."""


class Record:
    """Base of the package's frozen value classes."""

    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        fields = code.co_varnames[1 : code.co_argcount + code.co_kwonlyargcount]
        if code.co_nlocals != 1 + len(fields) or code.co_cellvars or code.co_freevars:
            raise TypeError(f"{cls.__qualname__}.__init__ binds more than its fields")
        get = attrgetter(*fields)
        cls._fields = fields
        # ``self._values(record)``: the field values of ``record`` as a tuple.
        cls._values = staticmethod(get if len(fields) > 1 else lambda r: (get(r),))

    def _store(self, values: dict) -> None:
        """Set the fields from the ``locals()`` of ``__init__``."""
        fields = self.__dict__
        fields.update(values)
        del fields["self"]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = zip(self._fields, self._values(self))
        text = ", ".join(f"{name}={value!r}" for name, value in fields)
        return f"{self.__class__.__qualname__}({text})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def replace(record: Record, /, **changes) -> Record:
    """A copy of ``record`` with ``changes``, built and checked by ``__init__``."""
    fields = dict(zip(record._fields, record._values(record)))
    return record.__class__(**{**fields, **changes})
