"""Static type representations for the toy language.

The type system is intentionally small: scalars (int, float, bool, string,
void), record types built from :class:`~repro.lang.ast_nodes.TypeDecl`,
pointers to records, and fixed-size arrays of pointers (used by the octree's
``subtrees[8]`` field).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class Type:
    """Base class for all static types."""

    def is_pointer(self) -> bool:
        return False

    def is_numeric(self) -> bool:
        return False

    def is_record(self) -> bool:
        return False

    def is_array(self) -> bool:
        return False


@dataclass(frozen=True)
class IntType(Type):
    def is_numeric(self) -> bool:
        return True

    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class FloatType(Type):
    def is_numeric(self) -> bool:
        return True

    def __str__(self) -> str:
        return "float"


@dataclass(frozen=True)
class BoolType(Type):
    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class StringType(Type):
    def __str__(self) -> str:
        return "string"


@dataclass(frozen=True)
class VoidType(Type):
    def __str__(self) -> str:
        return "void"


INT = IntType()
FLOAT = FloatType()
BOOL = BoolType()
STRING = StringType()
VOID = VoidType()


@dataclass(frozen=True)
class RecordType(Type):
    """A named record type; field types are resolved lazily via the program."""

    name: str

    def is_record(self) -> bool:
        return True

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class PointerType(Type):
    """A pointer to a record type (``T *``)."""

    target: RecordType

    def is_pointer(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"{self.target.name}*"


@dataclass(frozen=True)
class ArrayType(Type):
    """A fixed-size array of ``element`` (only pointer arrays are used)."""

    element: Type
    size: Optional[int] = None

    def is_array(self) -> bool:
        return True

    def __str__(self) -> str:
        size = "" if self.size is None else str(self.size)
        return f"{self.element}[{size}]"


_SCALARS = {
    "int": INT,
    "float": FLOAT,
    "bool": BOOL,
    "boolean": BOOL,
    "string": STRING,
    "void": VOID,
}


def scalar_type(name: str) -> Type | None:
    """Return the built-in scalar type named ``name``, or None."""
    return _SCALARS.get(name)


def type_from_name(name: str, is_pointer: bool, array_size: int | None = None) -> Type:
    """Build a :class:`Type` from a declared field/variable type name."""
    base: Type
    scalar = scalar_type(name)
    if scalar is not None and not is_pointer:
        base = scalar
    else:
        rec = RecordType(name)
        base = PointerType(rec) if is_pointer else rec
    if array_size is not None:
        return ArrayType(base, array_size)
    return base


def type_from_string(text: str) -> Type:
    """The type whose ``str`` is ``text`` (the inverse of ``str(type)``)."""
    if text.endswith("]"):
        element, _, size = text[:-1].rpartition("[")
        return ArrayType(type_from_string(element), int(size) if size else None)
    if text.endswith("*"):
        return PointerType(RecordType(text[:-1]))
    return scalar_type(text) or RecordType(text)


def compatible(a: Type, b: Type) -> bool:
    """Assignment compatibility between two types.

    Numeric types interconvert; a NULL (modelled as a pointer to the special
    record ``__null__``) is compatible with any pointer type; otherwise types
    must be equal.
    """
    if a == b:
        return True
    if a.is_numeric() and b.is_numeric():
        return True
    if a.is_pointer() and b.is_pointer():
        an = a.target.name  # type: ignore[union-attr]
        bn = b.target.name  # type: ignore[union-attr]
        return an == "__null__" or bn == "__null__" or an == bn
    return False


NULL_POINTER = PointerType(RecordType("__null__"))
