"""Base classes for the plain record classes.

A value record is a ``collections.namedtuple`` subclass; a record that is
mutable, caches a property, keeps a field out of equality or needs its
``__dict__`` subclasses ``Record`` or ``FrozenRecord``.  None is made by
the standard library's record decorator: its module, with the ``inspect``
it loads, took about a third of the time of ``import qspectra``.
"""


class Record:
    """Equality and repr over the attributes named in ``_fields``, in
    order; a name starting with an underscore stays out of the repr.
    Mutable, so unhashable."""

    _fields: tuple[str, ...] = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields
            if not f.startswith("_")))


class FrozenRecord(Record):
    """A Record whose ``_fields`` are set once, in order, by ``__init__``
    through ``object.__setattr__`` (a ``__dict__`` write would slow every
    later read); assignment raises AttributeError.  Hashed by its fields."""

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
