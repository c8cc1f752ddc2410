"""Value records without ``dataclasses``: the package's one record idiom.

A record derives from :class:`Record`; its annotated class attributes
are its fields, in order (a parent's first), and a class attribute is a
field's default (a :class:`factory` builds a fresh one per instance).
Records construct by position or keyword and then run
``__post_init__``; they compare and hash by field values (against
their own class only), print as ``Name(field=value, ...)``, pickle by
``__dict__`` and are frozen unless declared ``frozen=False``;
``order=True`` adds the ordering operators.  :func:`replace` rebuilds
(and so revalidates) a changed copy, :func:`asdict` gives the nested
``dict`` form, fields in order.

On Python 3.11 a dataclass runs ``exec`` per generated method (about
1 ms per class) and ``dataclasses`` imports ``inspect``, ``ast``,
``dis`` and ``tokenize``: on every cold CLI call.  Records share the
methods below, and ``__init_subclass__`` only reads the annotations.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple, TypeVar

R = TypeVar("R", bound="Record")

_MISSING = object()


class factory:
    """A field default built afresh for each instance by ``make()``."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[], Any]) -> None:
        self.make = make


class FrozenRecordError(AttributeError):
    """An assignment to (or deletion of) a field of a frozen record."""


class Record:
    """Base of the package's value records (see the module docstring)."""

    __slots__ = ()

    #: The field names, in order.
    _fields: Tuple[str, ...] = ()
    #: Field name -> its default (a value or a :class:`factory`).
    _defaults: Dict[str, Any] = {}

    def __init_subclass__(cls, frozen: bool = True, order: bool = False, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        fields = list(cls._fields)
        defaults = dict(cls._defaults)
        for name in cls.__dict__.get("__annotations__", {}):
            if name not in fields:
                fields.append(name)
            default = cls.__dict__.get(name, _MISSING)
            if default is _MISSING:
                defaults.pop(name, None)
                continue
            defaults[name] = default
            if isinstance(default, factory):
                delattr(cls, name)
        seen_default = None
        for name in fields:
            if name in defaults:
                seen_default = name
            elif seen_default is not None:
                raise TypeError(
                    f"non-default field {name!r} follows default field {seen_default!r}"
                )
        cls._fields = tuple(fields)
        cls._defaults = defaults
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None  # type: ignore[assignment]
        elif cls.__dict__.get("__hash__", _MISSING) is None:
            # Defining ``__eq__`` in the body resets ``__hash__``; a
            # frozen record keeps hashing by value.
            cls.__hash__ = Record.__hash__  # type: ignore[assignment]
        if order:
            cls.__lt__ = _ordering(tuple.__lt__)
            cls.__le__ = _ordering(tuple.__le__)
            cls.__gt__ = _ordering(tuple.__gt__)
            cls.__ge__ = _ordering(tuple.__ge__)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        names = self._fields
        if kwargs or len(args) != len(names):
            values = self._bind(args, kwargs)
        else:
            values = dict(zip(names, args))
        object.__setattr__(self, "__dict__", values)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Dict[str, Any]:
        """The field values of a call with ``args`` and ``kwargs``, with
        defaults filled in; a ``TypeError`` as a function call raises."""
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__name__}() takes {len(names)} positional arguments "
                f"but {len(args)} were given"
            )
        values = dict(zip(names, args))
        for name in kwargs:
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            if name not in names:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
        values.update(kwargs)
        if len(values) < len(names):
            defaults = cls._defaults
            for name in names:
                if name not in values:
                    default = defaults.get(name, _MISSING)
                    if default is _MISSING:
                        raise TypeError(f"{cls.__name__}() missing required argument: {name!r}")
                    values[name] = default.make() if isinstance(default, factory) else default
        return values

    def __post_init__(self) -> None:
        """Validate or normalise the fields; a record overrides it."""

    def _astuple(self) -> Tuple[Any, ...]:
        values = self.__dict__
        return tuple([values[name] for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        values = self.__dict__
        body = ", ".join(f"{name}={values[name]!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenRecordError(f"cannot delete field {name!r}")


def _ordering(compare: Callable[[tuple, tuple], bool]) -> Callable[[Record, object], bool]:
    def method(self: Record, other: object) -> bool:
        if other.__class__ is self.__class__:
            return compare(self._astuple(), other._astuple())  # type: ignore[attr-defined]
        return NotImplemented

    return method


def replace(record: R, **changes: Any) -> R:
    """A copy of ``record`` with ``changes`` applied, built (and so
    validated) through the constructor again."""
    values = record.__dict__
    fields = {name: values[name] for name in record._fields}
    fields.update(changes)
    return record.__class__(**fields)


def asdict(value: Any) -> Any:
    """``value`` with every record inside it turned into a ``dict`` of
    its fields, in field order (lists, tuples and dicts are rebuilt)."""
    if isinstance(value, Record):
        values = value.__dict__
        return {name: asdict(values[name]) for name in value._fields}
    if isinstance(value, (list, tuple)):
        return type(value)(asdict(item) for item in value)
    if isinstance(value, dict):
        return {asdict(key): asdict(item) for key, item in value.items()}
    return value
