"""Arbitrary-precision integers stored as digit lists (paper section 3.1.1).

"A bignum can be represented by a list of nodes, where each node in the list
contains a fixed number of digits ... the integer is stored in reverse order
for ease of manipulation."  We use three decimal digits per node (base 1000),
matching the paper's 3,298,991 example, and implement addition,
multiplication and comparison over the linked representation — enough to
exercise real traversals and allocations over the analyzable heap.
"""

from __future__ import annotations

from repro.lang.heap import Heap
from repro.structures.linked_list import OneWayList


#: decimal digits per node
DIGITS_PER_NODE = 3
BASE = 10 ** DIGITS_PER_NODE


class BigNum:
    """A non-negative arbitrary-precision integer over a digit list."""

    def __init__(self, heap: Heap | None = None):
        self.list = OneWayList(heap)

    # -- conversions ---------------------------------------------------------
    @classmethod
    def from_int(cls, value: int, heap: Heap | None = None) -> "BigNum":
        if value < 0:
            raise ValueError("BigNum represents non-negative integers")
        num = cls(heap)
        if value == 0:
            num.list.append(0)
            return num
        while value > 0:
            num.list.append(value % BASE)   # least-significant chunk first
            value //= BASE
        return num

    def to_int(self) -> int:
        total = 0
        for i, chunk in enumerate(self.list):
            total += chunk * (BASE ** i)
        return total

    @property
    def heap(self) -> Heap:
        return self.list.heap

    def chunks(self) -> list[int]:
        return self.list.to_list()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BigNum({self.to_int()})"

    # -- arithmetic ----------------------------------------------------------------
    def add(self, other: "BigNum") -> "BigNum":
        """Schoolbook addition over the digit lists (carries propagate forward)."""
        result = BigNum(self.heap)
        carry = 0
        a = self.chunks()
        b = other.chunks()
        for i in range(max(len(a), len(b))):
            total = carry
            if i < len(a):
                total += a[i]
            if i < len(b):
                total += b[i]
            result.list.append(total % BASE)
            carry = total // BASE
        if carry:
            result.list.append(carry)
        return result

    def multiply_small(self, factor: int) -> "BigNum":
        """Multiply by a machine integer (0 <= factor < BASE)."""
        if not (0 <= factor < BASE):
            raise ValueError(f"factor must be in [0, {BASE})")
        result = BigNum(self.heap)
        carry = 0
        for chunk in self.chunks():
            total = chunk * factor + carry
            result.list.append(total % BASE)
            carry = total // BASE
        while carry:
            result.list.append(carry % BASE)
            carry //= BASE
        if len(result.list) == 0:
            result.list.append(0)
        return result

    def multiply(self, other: "BigNum") -> "BigNum":
        """Full long multiplication via shifted partial products."""
        result = BigNum.from_int(0, self.heap)
        for i, chunk in enumerate(other.chunks()):
            partial = self.multiply_small(chunk)
            shifted = BigNum(self.heap)
            for _ in range(i):
                shifted.list.append(0)
            for c in partial.chunks():
                shifted.list.append(c)
            result = result.add(shifted)
        return result._normalized()

    def _normalized(self) -> "BigNum":
        """Strip leading (most-significant) zero chunks, keeping at least one node."""
        chunks = self.chunks()
        while len(chunks) > 1 and chunks[-1] == 0:
            chunks.pop()
        out = BigNum(self.heap)
        for c in chunks:
            out.list.append(c)
        return out

    # -- comparisons ------------------------------------------------------------------
    def compare(self, other: "BigNum") -> int:
        a = self._normalized().chunks()
        b = other._normalized().chunks()
        if len(a) != len(b):
            return -1 if len(a) < len(b) else 1
        for x, y in zip(reversed(a), reversed(b)):
            if x != y:
                return -1 if x < y else 1
        return 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BigNum) and self.compare(other) == 0

    def __hash__(self) -> int:
        return hash(self.to_int())
