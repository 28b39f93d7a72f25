"""Exact arithmetic on the dyadic circle [0,1): points, standard intervals,
partitions, the partition <-> binary tree bijection and the tree metric.

A standard interval is its integer (left numerator, level) pair.  Partition
checks, the partition <-> tree bijection and the common refinement run on
those integers; `Fraction` remains in the point-facing operations (`index_of`,
`is_refinement`, the supporting-partition descent) and at the API edges
(`StdInterval.left/.right/.width`, `CirclePoint`, `DyadicRational.as_fraction`).
No floats enter any decision.  Intervals are half-open [a, b) throughout,
including the last one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

MAX_LEVEL = 64  # default depth cap; deeper requests raise instead of truncating
MAX_REGULAR_LEVEL = 20  # 2^level grids and regular partitions; the dense oracle's cap

PointLike = Union["DyadicRational", "CirclePoint", Fraction, int, str]


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True)
class DyadicRational:
    """a / 2^level in [0,1), stored in canonical form (a odd, or level 0)."""

    numerator: int
    level: int

    def __post_init__(self):
        a, l = self.numerator, self.level
        if l < 0:
            raise ValueError(f"negative level {l}")
        if a < 0 or a >= (1 << l):
            raise ValueError(f"{a}/2^{l} is not in [0,1)")
        while l > 0 and a % 2 == 0:
            a //= 2
            l -= 1
        object.__setattr__(self, "numerator", a)
        object.__setattr__(self, "level", l)

    @staticmethod
    def zero() -> "DyadicRational":
        return DyadicRational(0, 0)

    @staticmethod
    def from_fraction(q: Fraction) -> "DyadicRational":
        if not 0 <= q < 1:
            raise ValueError(f"{q} is not in [0,1)")
        den = q.denominator
        if den & (den - 1):
            raise ValueError(f"{q} is not dyadic")
        return DyadicRational(q.numerator, den.bit_length() - 1)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.level)

    def numerator_at(self, level: int) -> int:
        """Integer a with value = a/2^level; errors if not representable."""
        if level < self.level:
            raise ValueError(
                f"level underflow: {self} not representable at level {level}"
            )
        return self.numerator << (level - self.level)

    def bits(self, level: Optional[int] = None) -> Tuple[int, ...]:
        l = self.level if level is None else level
        a = self.numerator_at(l)
        return tuple((a >> (l - 1 - j)) & 1 for j in range(l))

    def to_binary_string(self, level: Optional[int] = None) -> str:
        return "0." + "".join(str(b) for b in self.bits(level))

    def __str__(self) -> str:
        return f"{self.numerator}/{1 << self.level}"

    def __lt__(self, other) -> bool:
        return self.as_fraction() < _as_fraction(other)

    def __le__(self, other) -> bool:
        return self.as_fraction() <= _as_fraction(other)


@dataclass(frozen=True)
class CirclePoint:
    """Exact rational point p/q in [0,1) with lazily computable binary digits."""

    value: Fraction

    def __post_init__(self):
        v = Fraction(self.value)
        if not 0 <= v < 1:
            raise ValueError(f"{v} is not in [0,1)")
        object.__setattr__(self, "value", v)

    @staticmethod
    def parse(text: str) -> "CirclePoint":
        """Accepts 'p/q', an integer, or a binary expansion '0.b1b2...'."""
        s = text.strip()
        if s.startswith("0.") and set(s[2:]) <= {"0", "1"} and len(s) > 2:
            num = int(s[2:], 2)
            return CirclePoint(Fraction(num, 1 << (len(s) - 2)))
        try:
            return CirclePoint(Fraction(s))
        except ZeroDivisionError:
            raise ValueError(f"point {text!r} has a zero denominator") from None

    def digit(self, j: int) -> int:
        """j-th binary digit (j = 1 is the most significant)."""
        v = self.value
        return int((v * (1 << j)) % 2 >= 1)

    def digits(self, n: int) -> Tuple[int, ...]:
        out = []
        v = self.value
        for _ in range(n):
            v *= 2
            b = int(v >= 1)
            v -= b
            out.append(b)
        return tuple(out)

    def is_dyadic(self) -> bool:
        d = self.value.denominator
        return d & (d - 1) == 0

    def to_dyadic(self) -> DyadicRational:
        return DyadicRational.from_fraction(self.value)

    def __str__(self) -> str:
        v = self.value
        return f"{v.numerator}/{v.denominator}" if v.denominator > 1 else str(v.numerator)

    def __lt__(self, other) -> bool:
        return self.value < _as_fraction(other)

    def __le__(self, other) -> bool:
        return self.value <= _as_fraction(other)


def _as_fraction(x: PointLike) -> Fraction:
    if isinstance(x, DyadicRational):
        return x.as_fraction()
    if isinstance(x, CirclePoint):
        return x.value
    if isinstance(x, str):
        return CirclePoint.parse(x).value
    return Fraction(x)


def as_point(x: PointLike) -> CirclePoint:
    if isinstance(x, CirclePoint):
        return x
    return CirclePoint(_as_fraction(x))


# ---------------------------------------------------------------------------
# the xor operation and the tree metric


def xor_sub(y: DyadicRational, x: DyadicRational) -> DyadicRational:
    """Bitwise-XOR difference of binary expansions, padded to a common level."""
    level = max(x.level, y.level)
    a = x.numerator_at(level)
    b = y.numerator_at(level)
    return DyadicRational(a ^ b, level)


def tree_metric(x: DyadicRational, y: DyadicRational, level: int) -> int:
    """Recursive tree distance between leaves of the regular depth-`level` tree."""
    a = x.numerator_at(level)
    b = y.numerator_at(level)

    def rec(p: int, q: int) -> int:
        if p == q:
            return 0
        return 1 + rec(p >> 1, q >> 1)

    return rec(a, b)


def floor_log2(v: DyadicRational) -> int:
    """floor(log2 v) from the bit position of the leading 1; exact, no floats."""
    if v.numerator == 0:
        raise ValueError("floor_log2 of zero")
    return v.numerator.bit_length() - 1 - v.level


def tree_metric_formula(x: DyadicRational, y: DyadicRational, level: int) -> int:
    """Closed form level + 1 + floor(log2(y (+) x)); requires x != y."""
    if x == y:
        raise ValueError("coincident points: closed form undefined, use tree_metric")
    x.numerator_at(level)
    y.numerator_at(level)
    return level + 1 + floor_log2(xor_sub(y, x))


def common_prefix_length(x: PointLike, y: PointLike) -> int:
    vx, vy = as_point(x).value, as_point(y).value
    if vx == vy:
        raise ValueError("coincident points")
    # remainders a/q, b/s; the next digit is 1 iff twice the remainder is >= 1
    a, q, b, s = vx.numerator, vx.denominator, vy.numerator, vy.denominator
    l = 0
    while True:
        a, b = 2 * a, 2 * b
        bit = a >= q
        if bit != (b >= s):
            return l
        if bit:
            a, b = a - q, b - s
        l += 1


def coarse_grain_distance(x: PointLike, y: PointLike) -> DyadicRational:
    """2^-(l+1) where l is the length of the common binary prefix of x and y."""
    l = common_prefix_length(x, y)
    return DyadicRational(1, l + 1)


# ---------------------------------------------------------------------------
# intervals and partitions


@dataclass(frozen=True)
class StdInterval:
    """Standard dyadic interval [a/2^l, (a+1)/2^l)."""

    left_numerator: int
    level: int

    def __post_init__(self):
        a, l = self.left_numerator, self.level
        if l < 0:
            raise ValueError(f"negative level {l}")
        if not 0 <= a < (1 << l):
            raise ValueError(f"[{a}/2^{l}, ...) is not inside [0,1)")

    @staticmethod
    def parse(text: str) -> "StdInterval":
        """Parses 'a/2^l' written with an explicit power-of-two denominator."""
        s = text.strip()
        if "/" not in s:
            if s == "0":
                return StdInterval(0, 0)
            raise ValueError(f"cannot parse interval {text!r}")
        num, den = s.split("/", 1)
        d = int(den)
        if d <= 0 or d & (d - 1):
            raise ValueError(f"denominator of {text!r} is not a power of two")
        return StdInterval(int(num), d.bit_length() - 1)

    @property
    def left(self) -> Fraction:
        return Fraction(self.left_numerator, 1 << self.level)

    @property
    def right(self) -> Fraction:
        return Fraction(self.left_numerator + 1, 1 << self.level)

    @property
    def width(self) -> Fraction:
        return Fraction(1, 1 << self.level)

    def contains_interval(self, other: "StdInterval") -> bool:
        if other.level < self.level:
            return False
        return (other.left_numerator >> (other.level - self.level)) == self.left_numerator

    def halves(self) -> Tuple["StdInterval", "StdInterval"]:
        a, l = self.left_numerator, self.level
        return StdInterval(2 * a, l + 1), StdInterval(2 * a + 1, l + 1)

    def __str__(self) -> str:
        return f"{self.left_numerator}/{1 << self.level}"


class BinaryTree:
    """Immutable rooted binary tree; a node is a leaf iff it has no children."""

    __slots__ = ("left", "right", "_leaves")

    def __init__(self, left: Optional["BinaryTree"] = None,
                 right: Optional["BinaryTree"] = None):
        if (left is None) != (right is None):
            raise ValueError("caret needs both children")
        self.left = left
        self.right = right
        self._leaves = 1 if left is None else left.leaf_count() + right.leaf_count()

    def is_leaf(self) -> bool:
        return self.left is None

    def leaf_count(self) -> int:
        return self._leaves

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryTree):
            return NotImplemented
        if self.is_leaf() or other.is_leaf():
            return self.is_leaf() and other.is_leaf()
        return self.left == other.left and self.right == other.right

    def __hash__(self):
        return hash(self.to_nested())

    def to_nested(self):
        """Leaf -> 0, caret -> (left, right); JSON uses lists."""
        if self.is_leaf():
            return 0
        return (self.left.to_nested(), self.right.to_nested())

    @staticmethod
    def from_nested(obj) -> "BinaryTree":
        """Inverse of `to_nested`; a caret may also be a (JSON) list."""
        if isinstance(obj, int) and obj == 0:
            return LEAF
        if not (isinstance(obj, (tuple, list)) and len(obj) == 2):
            raise ValueError("tree documents nest 0 (a leaf) and [left, right] (a caret)")
        return BinaryTree(BinaryTree.from_nested(obj[0]), BinaryTree.from_nested(obj[1]))

    def __repr__(self):
        return f"BinaryTree{self.to_nested()!r}"


LEAF = BinaryTree()


def caret(left: BinaryTree, right: BinaryTree) -> BinaryTree:
    return BinaryTree(left, right)


def regular_tree(depth: int) -> BinaryTree:
    t = LEAF
    for _ in range(depth):
        t = BinaryTree(t, t)
    return t


@dataclass(frozen=True)
class DyadicPartition:
    """Ordered, contiguous standard dyadic cover of [0,1)."""

    intervals: Tuple[StdInterval, ...]

    def __post_init__(self):
        ivs = tuple(self.intervals)
        if not ivs:
            raise ValueError("empty partition")
        if ivs[0].left_numerator != 0:
            raise ValueError("partition must start at 0")
        for a, b in zip(ivs, ivs[1:]):
            # a.right == b.left, both scaled by 2^(a.level + b.level)
            if (a.left_numerator + 1) << b.level != b.left_numerator << a.level:
                raise ValueError(f"gap or overlap between {a} and {b}")
        if ivs[-1].left_numerator + 1 != 1 << ivs[-1].level:
            raise ValueError("partition must end at 1")
        object.__setattr__(self, "intervals", ivs)

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def __getitem__(self, i) -> StdInterval:
        return self.intervals[i]

    def max_level(self) -> int:
        return max(iv.level for iv in self.intervals)

    def index_of(self, x: PointLike) -> int:
        v = _as_fraction(x)
        lo, hi = 0, len(self.intervals) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.intervals[mid].left <= v:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def refine_at(self, index: int) -> "DyadicPartition":
        """Split interval `index` into its two halves."""
        iv = self.intervals[index]
        lo, hi = iv.halves()
        return DyadicPartition(self.intervals[:index] + (lo, hi) + self.intervals[index + 1:])

    def __str__(self) -> str:
        return "{" + ", ".join(str(iv) for iv in self.intervals) + "}"

    @staticmethod
    def parse(text: str) -> "DyadicPartition":
        body = text.strip().lstrip("{").rstrip("}")
        return DyadicPartition(tuple(StdInterval.parse(p) for p in body.split(",")))


TRIVIAL_PARTITION = DyadicPartition((StdInterval(0, 0),))


def check_regular_level(level: int, what: str = "level") -> None:
    """Bound a size-like level before anything of size 2^level is built."""
    if level < 0:
        raise ValueError(f"{what} {level} is negative")
    if level > MAX_REGULAR_LEVEL:
        raise ValueError(f"{what} {level} exceeds the maximum {MAX_REGULAR_LEVEL}")


def regular_partition(level: int) -> DyadicPartition:
    check_regular_level(level)
    return DyadicPartition(tuple(StdInterval(a, level) for a in range(1 << level)))


def containing_interval(P: DyadicPartition, x: PointLike) -> StdInterval:
    return P[P.index_of(x)]


def is_refinement(P: DyadicPartition, Q: DyadicPartition) -> bool:
    """True iff Q refines P (every interval of Q inside an interval of P)."""
    i = 0
    for q in Q:
        while not (P[i].left <= q.left and q.right <= P[i].right):
            i += 1
            if i >= len(P):
                return False
    return True


# ---------------------------------------------------------------------------
# tree <-> partition bijection (left child <-> left half interval)


def tree_to_partition(t: BinaryTree) -> DyadicPartition:
    out = []
    stack = [(t, 0, 0)]
    while stack:
        node, a, l = stack.pop()
        if node.left is None:
            out.append(StdInterval(a, l))
        else:
            stack.append((node.right, 2 * a + 1, l + 1))
            stack.append((node.left, 2 * a, l + 1))
    return DyadicPartition(tuple(out))


def partition_to_tree(P: DyadicPartition) -> BinaryTree:
    """One pass left to right: the stack holds (numerator, level, subtree) of
    the maximal standard intervals covered so far; an interval that is a
    right half merges with its left sibling on top of the stack, repeatedly."""
    stack = []
    for iv in P.intervals:
        a, l, node = iv.left_numerator, iv.level, LEAF
        while a & 1 and stack and stack[-1][0] == a - 1 and stack[-1][1] == l:
            node = BinaryTree(stack.pop()[2], node)
            a >>= 1
            l -= 1
        stack.append((a, l, node))
    if len(stack) != 1 or stack[0][1] != 0:
        raise ValueError("interval sequence is not a dyadic tree cover")
    return stack[0][2]


def common_refinement(P: DyadicPartition, Q: DyadicPartition) -> DyadicPartition:
    """Coarsest partition refining both; computed by merging the two trees."""

    def merge(a: BinaryTree, b: BinaryTree) -> BinaryTree:
        if a.is_leaf():
            return b
        if b.is_leaf():
            return a
        return BinaryTree(merge(a.left, b.left), merge(a.right, b.right))

    return tree_to_partition(merge(partition_to_tree(P), partition_to_tree(Q)))


# ---------------------------------------------------------------------------
# supporting partitions


def supports(P: DyadicPartition, points: Sequence[PointLike]) -> bool:
    idx = [P.index_of(p) for p in points]
    return len(set(idx)) == len(idx)


def minimal_supporting_partition(points: Sequence[PointLike],
                                 max_level: int = MAX_LEVEL) -> DyadicPartition:
    """Unique coarsest partition with at most one of the given points per interval.

    Construction descends from [0,1), splitting every interval that still
    holds two or more points.
    """
    pts = [as_point(p).value for p in points]
    if not pts:
        raise ValueError("empty tuple of points")
    for a, b in zip(pts, pts[1:]):
        if a == b:
            raise ValueError("coincident insertions")
        if a > b:
            raise ValueError("unordered tuple")

    def build(a: int, l: int, mine: Sequence[Fraction]) -> BinaryTree:
        if len(mine) <= 1:
            return LEAF
        if l >= max_level:
            raise ValueError(f"maximum partition level {max_level} exceeded")
        mid = Fraction(2 * a + 1, 1 << (l + 1))
        left = [p for p in mine if p < mid]
        right = [p for p in mine if p >= mid]
        return BinaryTree(build(2 * a, l + 1, left), build(2 * a + 1, l + 1, right))

    return tree_to_partition(build(0, 0, pts))
