"""Field-wise equality and a dataclass-style repr for the package's value classes.

A subclass lists its fields in `_fields` and sets them in its own
`__init__`.  A `Value` is unhashable; a `Frozen` one hashes by field and
refuses assignment, so its `__init__`, like `functools.cached_property`,
writes `self.__dict__` directly.  `dataclasses` would generate these
methods by exec on every import.
"""


class Value:
    _fields: tuple[str, ...] = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Value):
    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
