"""Exception types, the number and count checks behind every validator and the
CLI's ranged options, the frozen-record base and the 3-vector type of the package."""

from __future__ import annotations

import math


class RingwaveError(Exception):
    """Base class for every error raised by this package."""


class DomainError(RingwaveError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class EvaluationError(RingwaveError, ArithmeticError):
    """A field or integrand evaluation produced a non-finite value."""


def _require_number(value, name: str, lo: float = 0.0, hi: float = math.inf,
                    bounds: str = "()") -> None:
    """The number check: DomainError unless value is a finite real, not a
    bool, in the interval lo..hi, by default (0, inf).  bounds gives its
    brackets, "[" / "]" closed and "(" / ")" open: "(]" is lo < value <= hi."""
    try:
        if ((lo < value or bounds[0] == "[" and lo == value)
                and (value < hi or bounds[1] == "]" and value == hi)
                and type(value) is not bool and math.isfinite(value)):
            return
    except (TypeError, ArithmeticError):  # not a number, an int past every float, a Decimal NaN
        pass
    text = f"must be a finite number in {bounds[0]}{lo}, {hi}{bounds[1]}, got {value!r}"
    raise DomainError(f"{name} {text}" if name else text)


def _require_count(value, name: str, lo: int) -> None:
    """The count check: DomainError unless value is an int, not a bool (the
    number check alone takes 2.0), then the number check for lo <= value."""
    if type(value) is not int:
        raise DomainError(f"{name} must be an int, got {value!r}")
    _require_number(value, name, lo, math.inf, "[)")


_Vec3 = tuple[float, float, float]  # every 3-vector the package returns
_DERIVED = object()  # the class-attribute value of a field that __post_init__ sets


class _Record:
    """Immutable record with value equality: the base of every record class.

    Its fields are the class annotations, in order.  A class attribute is a
    field's default; _DERIVED marks a field the constructor does not take,
    which __post_init__ sets with object.__setattr__.  Each subclass gets an
    __init__ generated when the class is defined.
    """

    fields: tuple[str, ...] = ()  # every field, in declaration order
    init_fields: tuple[str, ...] = ()  # the constructor's arguments

    def __init_subclass__(cls) -> None:
        cls.fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls.init_fields = tuple(n for n in cls.fields if cls.__dict__.get(n) is not _DERIVED)
        for name in set(cls.fields) - set(cls.init_fields):
            delattr(cls, name)
        args = "".join(f", {n}=_cls.{n}" if n in cls.__dict__ else f", {n}"
                       for n in cls.init_fields)
        body = "".join(f"\n    _set(self, {n!r}, {n})" for n in cls.init_fields)
        post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        scope = {"_cls": cls, "_set": object.__setattr__}
        exec(f"def __init__(self{args}):{body}{post}\n    pass", scope)
        cls.__init__ = scope["__init__"]

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot set or delete field {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, n) for n in self.fields])

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{n}={v!r}" for n, v in zip(self.fields, self._values()))
        return f"{self.__class__.__qualname__}({args})"

    def asdict(self) -> dict:
        """Field name -> value, in declaration order; a nested record as a dict."""
        return {n: v.asdict() if isinstance(v, _Record) else v
                for n, v in zip(self.fields, self._values())}

    def replace(self, **changes) -> _Record:
        """A copy with these constructor arguments changed, validated again."""
        return self.__class__(**({n: getattr(self, n) for n in self.init_fields} | changes))
