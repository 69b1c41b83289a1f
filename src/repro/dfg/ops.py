"""Logic operation types supported by scouting-logic CIM arrays.

Scouting logic (Xie et al., ISVLSI'17) natively supports (N)AND, (N)OR and
X(N)OR by comparing the combined resistance of the simultaneously activated
rows against one or more reference resistances.  NOT and COPY are realized
with CMOS circuitry in the row buffer (Sec. 2.1 of the paper) and therefore
never involve a multi-row sensing decision.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence

from repro.errors import GraphError


class OpType(enum.Enum):
    """A bulk-bitwise logic operation."""

    AND = "and"
    OR = "or"
    XOR = "xor"
    NAND = "nand"
    NOR = "nor"
    XNOR = "xnor"
    NOT = "not"

    @property
    def is_inverted(self) -> bool:
        """Whether the sense-amplifier output is complemented."""
        return self in (OpType.NAND, OpType.NOR, OpType.XNOR, OpType.NOT)

    @property
    def base(self) -> "OpType":
        """The non-inverted operation with the same sensing boundaries."""
        return _BASE[self]

    @property
    def is_associative(self) -> bool:
        """Whether n-ary chains of this op can be flattened (Sec. 3.3.3)."""
        return self in (OpType.AND, OpType.OR, OpType.XOR)

    @property
    def min_arity(self) -> int:
        """Smallest legal operand count for this op type."""
        return 1 if self is OpType.NOT else 2

    @property
    def max_arity(self) -> int | None:
        """Upper arity bound imposed by the op itself (``None`` = unbounded).

        NOT is unary.  The inverted ops are n-ary at the sensing level just
        like their bases; the *target* further restricts arity through its
        multi-row-activation (MRA) limit.
        """
        return 1 if self is OpType.NOT else None


_BASE = {
    OpType.AND: OpType.AND,
    OpType.NAND: OpType.AND,
    OpType.OR: OpType.OR,
    OpType.NOR: OpType.OR,
    OpType.XOR: OpType.XOR,
    OpType.XNOR: OpType.XOR,
    OpType.NOT: OpType.NOT,
}


def check_arity(op: OpType, arity: int) -> None:
    """Raise :class:`GraphError` unless ``arity`` is legal for ``op``."""
    if arity < op.min_arity:
        raise GraphError(f"{op.value} needs at least {op.min_arity} operand(s), got {arity}")
    if op.max_arity is not None and arity > op.max_arity:
        raise GraphError(f"{op.value} takes at most {op.max_arity} operand(s), got {arity}")


def apply_op(op: OpType, values: Sequence[int], mask: int) -> int:
    """Evaluate ``op`` on lane-parallel bit vectors.

    Values are Python integers interpreted as lane bitmasks; ``mask`` is the
    all-lanes-set constant ``(1 << lanes) - 1`` used to bound complements.
    """
    check_arity(op, len(values))
    if op is OpType.NOT:
        return ~values[0] & mask
    acc = values[0]
    if op.base is OpType.AND:
        for v in values[1:]:
            acc &= v
    elif op.base is OpType.OR:
        for v in values[1:]:
            acc |= v
    else:  # XOR family
        for v in values[1:]:
            acc ^= v
    if op.is_inverted:
        acc = ~acc & mask
    return acc & mask


def majority(ballots: Sequence[int], mask: int,
             tiebreak: int | None = None) -> int:
    """Per-lane majority vote over lane-bitmask ballots.

    A lane is set in the result when a strict majority of ``ballots`` set
    it.  An even panel can split a lane exactly in half: ``tiebreak`` (a
    referee's ballot) decides those lanes, which otherwise stay clear.
    All lanes are counted at once by a bit-sliced ripple-carry counter, so
    the cost grows with the panel size, not with the lane count.
    """
    n = len(ballots)
    if n == 3:
        a, b, c = ballots
        return ((a & b) | (a & c) | (b & c)) & mask
    # planes[i] = lanes whose count of set ballots has bit i set
    planes: list[int] = []
    for ballot in ballots:
        carry = ballot
        for i in range(len(planes)):
            planes[i], carry = planes[i] ^ carry, planes[i] & carry
            if not carry:
                break
        if carry:
            planes.append(carry)
    won = _count_at_least(planes, n // 2 + 1, mask)
    if tiebreak is None or n % 2:
        return won
    tied = _count_at_least(planes, n // 2, mask) & ~won
    return won | (tied & tiebreak)


def _count_at_least(planes: list[int], threshold: int, mask: int) -> int:
    """Lanes whose bit-sliced count (``planes``) is at least ``threshold``."""
    greater = 0
    equal = mask
    for i in reversed(range(max(len(planes), threshold.bit_length()))):
        plane = planes[i] if i < len(planes) else 0
        if (threshold >> i) & 1:
            equal &= plane
        else:
            greater |= equal & plane
            equal &= ~plane
    return greater | equal
