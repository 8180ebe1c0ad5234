"""Immutable records: the base every record of the package derives from,
and the outcome of a verification command."""

from __future__ import annotations


class Record:
    """Frozen value record on plain ``__slots__``, with nothing generated at
    import time (a CLI process imports every record class).

    A subclass lists its stored fields in ``__slots__``, in order, and sets
    them in ``__init__`` (the default takes them all positionally) through
    ``object.__setattr__``.  Equality (within one class), hash, copy and
    pickle run on the stored fields; every stored field is immutable, so a
    deep copy is the record itself.  Assigning or deleting an attribute
    raises AttributeError.  The repr is ``Name(field=value, ...)`` over the
    constructor's fields: ``__match_args__`` where the class names them.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    @classmethod
    def _restored(cls, *values):  # the record of its stored fields, unchecked
        record = cls.__new__(cls)
        Record.__init__(record, *values)
        return record

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        names = getattr(self, "__match_args__", self.__slots__)
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self._restored, self._values()

    def __deepcopy__(self, memo):
        return self


class CheckReport(Record):
    """Outcome of a numeric or symbolic verification.

    ``value`` is what was computed, ``expected`` what the identity predicts,
    and ``passed`` records whether |value - expected| met ``tolerance``
    (symbolic checks use value/expected 1.0/0.0 as a boolean flag).
    """

    __slots__ = ("name", "passed", "value", "expected", "tolerance", "detail")

    def __init__(self, name: str, passed: bool, value: float, expected: float,
                 tolerance: float, detail: str = ""):
        super().__init__(name, passed, value, expected, tolerance, detail)

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        line = (f"{self.name}: {verdict} (value={self.value!r}, "
                f"expected={self.expected!r}, tol={self.tolerance!r})")
        if self.detail:
            line += f" -- {self.detail}"
        return line
