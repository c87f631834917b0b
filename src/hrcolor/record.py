"""Immutable value records built without runtime code generation.

A subclass of `Record` declares its fields as class annotations, in
order, with optional defaults, and may add `__post_init__` to validate
them. It gets the behaviour of `@dataclass(frozen=True, slots=True)`:
positional, keyword and default construction; `__slots__` and
`__match_args__` in field order; `dataclasses.FrozenInstanceError` on
assignment and deletion; equality only between instances of the same
class; a hash equal to the hash of the field tuple; the dataclass repr
text; and pickling and copying, here through `__reduce__`, which rebuilds
a record with its constructor and so re-runs `__post_init__`.

Why not `dataclasses.dataclass`: every command-line run imports the whole
package, and the decorator writes and `exec`-compiles five or six methods
per class at every import, 65 string `exec` calls for the package's eleven
records. That was about 6.5 ms of a 24.5 ms import without a bytecode
cache, and 6 of 9 ms with one. Here the methods are ordinary functions,
compiled once with this module. A call that passes every field
positionally and no keywords sets the slots straight from its arguments;
only keyword or default construction goes through `_bind`.

Rejected alternatives:

* `typing.NamedTuple`: its records compare equal to plain tuples and
  unpack like them, it has no validation hook, and it still `eval`s each
  class's `__new__`.
* Importing `search` and `lemmas` lazily: that moves their import into the
  first op that needs them, and adds a second import path.
* Dropping dataclass flags: that changes behaviour, and the dataclass
  `__init__` is still compiled at run time.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any

_set = object.__setattr__


def _frozen(message: str) -> AttributeError:
    # imported here, not at the top: `dataclasses` brings in `inspect`,
    # about 6 ms of a command-line start, and only this error needs it
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)


class _RecordMeta(type):
    """Turns a class body's annotations into slots, match args and defaults.

    It reads the body's `__annotations__` dict, which a module with
    `from __future__ import annotations` gets on every Python version.
    """

    def __new__(mcls, name: str, bases: tuple[type, ...], ns: dict[str, Any]):
        fields = tuple(ns.get("__annotations__", ()))
        # a class attribute may not share a slot's name, so defaults move
        # into a map that `_bind` reads
        ns["_defaults"] = {f: ns.pop(f) for f in fields if f in ns}
        ns["__slots__"] = fields
        ns["__match_args__"] = fields
        # the field tuple; attrgetter of one name returns the bare value
        ns["_values"] = staticmethod(
            attrgetter(*fields) if len(fields) > 1
            else lambda r: tuple(getattr(r, f) for f in fields)
        )
        return super().__new__(mcls, name, bases, ns)


class Record(metaclass=_RecordMeta):
    """Base of the package's immutable records; see the module docstring."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        names = self.__match_args__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple[Any, ...], kwargs: dict[str, Any]) -> list[Any]:
        """The field values of a call with keywords or omitted fields, in
        field order, with the TypeError a Python signature would raise."""
        names = cls.__match_args__
        call = f"{cls.__qualname__}.__init__()"
        if len(args) > len(names):
            raise TypeError(
                f"{call} takes {len(names)} positional arguments but {len(args)} were given"
            )
        for name in names[:len(args)]:
            if name in kwargs:
                raise TypeError(f"{call} got multiple values for argument {name!r}")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{call} missing required argument: {name!r}")
        for name in kwargs:
            raise TypeError(f"{call} got an unexpected keyword argument {name!r}")
        return values

    def __post_init__(self) -> None:
        """Validate the fields; a record with checks overrides this."""

    def __setattr__(self, name: str, value: Any) -> None:
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise _frozen(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__match_args__, self._values(self))
        )
        return f"{self.__class__.__qualname__}({pairs})"

    def __reduce__(self) -> tuple[type, tuple[Any, ...]]:
        return self.__class__, self._values(self)
