"""Exact arithmetic on the dyadic circle [0,1): points, standard intervals,
partitions, nested tree documents, leaf pairs and the tree metric.

A point is its reduced integer pair (p, q), 0 <= p < q (`CirclePoint`); a
dyadic point a/2^l has q = 2^l, so the tree metric, the XOR difference and
the coarse-graining distance read its level from q.  `CirclePoint.parse`
reads an ASCII 'p/q' or a binary expansion with `int` calls and leaves every
other spelling to `Fraction(str)`.  A standard interval is its integer
(left numerator, level) pair.  A finite binary tree is its dyadic
partition: the leaves are the standard intervals, a left child the left
half of its parent, so no tree object is built.  Partition checks and
`fold_tree`, one stack pass folding a partition's tree, run on those
integers.  Nested documents (0 a leaf, [left, right] a caret) are written by
that fold and read by one explicit-stack pass straight to (a, l) leaves, so
no function here recurses.  A leaf pair (a, l, b, m) maps the interval
[a/2^l, (a+1)/2^l) affinely onto [b/2^m, (b+1)/2^m); one merge walk over two
pair lists, `_compose_pairs`, composes Thompson elements, pulls a partition
back through one, and gives the common refinement of two partitions as the
domain of id_P o id_Q, all on integers.  The supporting-partition descent,
the point-order check and `index_of` compare points by
cross-multiplication.  Point correlators fold no partition: their
evaluator works on occupied leaves (`correlator._evaluate`), and the vacuum
correlator reads those straight from the points' binary digits.
`Fraction` remains only in `is_refinement` and at the API edges: reading a
`Fraction`, an int or a decimal into a `CirclePoint`, and `CirclePoint.value`,
`StdInterval.left`, `.right` and `.width`.
No floats enter any decision.  Intervals are half-open [a, b) throughout,
including the last one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar, Union

MAX_LEVEL = 64  # depth cap; deeper requests raise instead of truncating
MAX_REGULAR_LEVEL = 20  # 2^level grids and regular partitions; the dense oracle's cap

PointLike = Union["CirclePoint", Fraction, int, str]
T = TypeVar("T")


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True, slots=True, init=False)
class CirclePoint:
    """Exact rational point p/q in [0,1), stored as its reduced integer pair
    (p, q) with 0 <= p < q.  `CirclePoint(x)` takes a `Fraction`, an int or
    a `Fraction` literal; `CirclePoint(p, q)` takes the pair itself."""

    p: int
    q: int

    def __init__(self, value: Union[Fraction, int, str],
                 denominator: Optional[int] = None):
        if denominator is None:
            v = value if isinstance(value, Fraction) else Fraction(value)
            p, q = v.numerator, v.denominator
        else:
            if denominator == 0:
                raise ZeroDivisionError(f"CirclePoint({value}, 0)")
            g = gcd(value, denominator)
            p, q = value // g, denominator // g
        if not 0 <= p < q:
            raise ValueError(f"{Fraction(p, q)} is not in [0,1)")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @staticmethod
    def parse(text: str) -> "CirclePoint":
        """Accepts 'p/q', a binary expansion '0.b1b2...', or any other
        `Fraction` literal (an integer, a decimal such as '0.25' or '3e-2').
        A binary expansion and an ASCII 'p/q' are read with `int` calls;
        every other spelling goes through `Fraction(str)`, which gives the
        same values and errors."""
        s = text.strip()
        if s.startswith("0.") and set(s[2:]) <= {"0", "1"} and len(s) > 2:
            return CirclePoint(int(s[2:], 2), 1 << (len(s) - 2))
        p, slash, q = s.partition("/")
        try:
            if slash and p.isascii() and p.isdigit() and q.isascii() and q.isdigit():
                return CirclePoint(int(p), int(q))
            return CirclePoint(Fraction(s))
        except ZeroDivisionError:
            raise ValueError(f"point {text!r} has a zero denominator") from None

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)

    def is_dyadic(self) -> bool:
        """True iff q is a power of two: the point is a/2^l."""
        return self.q & (self.q - 1) == 0

    def numerator_at(self, level: int) -> int:
        """Integer a with this dyadic point = a/2^level; errors if there is none."""
        if not self.is_dyadic():
            raise ValueError(f"{self} is not dyadic")
        own = self.q.bit_length() - 1
        if level < own:
            raise ValueError(f"level underflow: {self} not representable at level {level}")
        return self.p << (level - own)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"

    def __lt__(self, other: "CirclePoint") -> bool:
        return self.p * other.q < other.p * self.q


def as_point(x: PointLike) -> CirclePoint:
    if isinstance(x, CirclePoint):
        return x
    if isinstance(x, str):
        return CirclePoint.parse(x)
    return CirclePoint(x)


# ---------------------------------------------------------------------------
# the xor operation and the tree metric, on dyadic points


def xor_sub(y: CirclePoint, x: CirclePoint) -> CirclePoint:
    """Bitwise-XOR difference of binary expansions, padded to a common level."""
    level = max(x.q, y.q).bit_length() - 1
    return CirclePoint(x.numerator_at(level) ^ y.numerator_at(level), 1 << level)


def tree_metric(x: CirclePoint, y: CirclePoint, level: int) -> int:
    """Tree distance between leaves of the regular depth-`level` tree, by
    definition: the number of steps up from both leaves (one shift of each
    numerator) until they meet."""
    a = x.numerator_at(level)
    b = y.numerator_at(level)
    steps = 0
    while a != b:
        a, b = a >> 1, b >> 1
        steps += 1
    return steps


def floor_log2(v: CirclePoint) -> int:
    """floor(log2 v) of a dyadic v from the bit position of the leading 1;
    exact, no floats."""
    if v.p == 0:
        raise ValueError("floor_log2 of zero")
    if not v.is_dyadic():
        raise ValueError(f"{v} is not dyadic")
    return v.p.bit_length() - v.q.bit_length()


def tree_metric_formula(x: CirclePoint, y: CirclePoint, level: int) -> int:
    """Closed form level + 1 + floor(log2(y (+) x)); requires x != y."""
    if x == y:
        raise ValueError("coincident points: closed form undefined, use tree_metric")
    x.numerator_at(level)
    y.numerator_at(level)
    return level + 1 + floor_log2(xor_sub(y, x))


def common_prefix_length(x: PointLike, y: PointLike) -> int:
    px, py = as_point(x), as_point(y)
    if px == py:
        raise ValueError("coincident points")
    # remainders a/q, b/s; the next digit is 1 iff twice the remainder is >= 1
    a, q, b, s = px.p, px.q, py.p, py.q
    l = 0
    while True:
        a, b = 2 * a, 2 * b
        bit = a >= q
        if bit != (b >= s):
            return l
        if bit:
            a, b = a - q, b - s
        l += 1


def coarse_grain_distance(x: PointLike, y: PointLike) -> CirclePoint:
    """2^-(l+1) where l is the length of the common binary prefix of x and y."""
    return CirclePoint(1, 2 << common_prefix_length(x, y))


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

    @property
    def left(self) -> Fraction:
        return Fraction(self.left_numerator, 1 << self.level)

    @property
    def right(self) -> Fraction:
        return Fraction(self.left_numerator + 1, 1 << self.level)

    @property
    def width(self) -> Fraction:
        return Fraction(1, 1 << self.level)

    def halves(self) -> Tuple["StdInterval", "StdInterval"]:
        a, l = self.left_numerator, self.level
        return StdInterval(2 * a, l + 1), StdInterval(2 * a + 1, l + 1)

    def __str__(self) -> str:
        return f"{self.left_numerator}/{1 << self.level}"


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
        """Slot of the interval holding x = p/q, by bisection on integers:
        [a/2^l, ...) starts at or before p/q iff a q <= p 2^l."""
        pt = as_point(x)
        p, q = pt.p, pt.q
        ivs = self.intervals
        lo, hi = 0, len(ivs) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            iv = ivs[mid]
            if iv.left_numerator * q <= p << iv.level:
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
# a partition's tree: folds and nested documents


def fold_tree(P: DyadicPartition, leaf: Callable[[int], T],
              join: Callable[[T, T], T]) -> T:
    """P's tree folded without building it: slot k is `leaf(k)`; in one pass
    left to right, the stack holds (numerator, level, value) of the maximal
    standard intervals covered so far, and an interval that is a right half
    joins its left sibling on top of the stack, `join(left, right)`, repeatedly."""
    stack: List[Tuple[int, int, T]] = []
    for k, iv in enumerate(P.intervals):
        a, l, value = iv.left_numerator, iv.level, leaf(k)
        while a & 1 and stack and stack[-1][0] == a - 1 and stack[-1][1] == l:
            value = join(stack.pop()[2], value)
            a >>= 1
            l -= 1
        stack.append((a, l, value))
    if len(stack) != 1 or stack[0][1] != 0:
        raise ValueError("interval sequence is not a dyadic tree cover")
    return stack[0][2]


def partition_to_tree(P: DyadicPartition) -> DyadicPartition:
    """`P` itself, which is its own tree; kept for `perfbench/workloads.py`,
    which passes `partition_to_tree(P)` to `treestate`."""
    return P


def tree_to_partition(P: DyadicPartition) -> DyadicPartition:
    """`P` itself; kept for `perfbench/tracer.py`, which traces this name."""
    return P


def partition_to_nested(P: DyadicPartition):
    """P's tree as a nested document: 0 is a leaf, [left, right] a caret."""
    return fold_tree(P, lambda k: 0, lambda left, right: [left, right])


def nested_to_leaves(doc) -> List[Tuple[int, int]]:
    """Leaves (a, l) of a nested document, left to right: the intervals of
    its partition.  A caret may also be a 2-tuple; booleans are refused.
    One pass with an explicit stack, so any depth is read."""
    out: List[Tuple[int, int]] = []
    stack = [(doc, 0, 0)]
    while stack:
        node, a, l = stack.pop()
        if isinstance(node, (list, tuple)) and len(node) == 2:
            stack.append((node[1], 2 * a + 1, l + 1))
            stack.append((node[0], 2 * a, l + 1))
        elif type(node) is int and node == 0:  # not False
            out.append((a, l))
        else:
            raise ValueError("tree documents nest 0 (a leaf) and [left, right] (a caret)")
    return out


# ---------------------------------------------------------------------------
# leaf pairs and the merge walk


# (a, l, b, m): the domain leaf [a/2^l, (a+1)/2^l) maps affinely onto the
# image leaf [b/2^m, (b+1)/2^m).
LeafPair = Tuple[int, int, int, int]


def identity_pairs(P: DyadicPartition) -> List[LeafPair]:
    """The identity on P: every interval maps onto itself."""
    return [(iv.left_numerator, iv.level, iv.left_numerator, iv.level) for iv in P]


def _compose_pairs(g: Sequence[LeafPair], h: Sequence[LeafPair]) -> List[LeafPair]:
    """Unreduced pairs of g o h in h's domain order, by one walk: h's images
    run through g's domain cyclically from the piece found by bisection, and
    each either lies inside one g piece or is split over several."""
    b0, m0 = h[0][2], h[0][3]
    j, hi = 0, len(g) - 1
    while j < hi:  # last g piece starting at or before h's first image
        mid = (j + hi + 1) // 2
        if g[mid][0] << m0 <= b0 << g[mid][1]:
            j = mid
        else:
            hi = mid - 1
    n = len(g)
    out: List[LeafPair] = []
    for a, l, b, m in h:
        ga, gl, gb, gm = g[j]
        if gl <= m:  # h's image sits at offset b - (ga << d) inside g's piece
            d = m - gl
            out.append((a, l, (gb << d) + b - (ga << d), gm + d))
            if b + 1 == (ga + 1) << d:
                j = (j + 1) % n
            continue
        while True:  # g's pieces cover h's image; pull each back into h's domain
            ga, gl, gb, gm = g[j]
            d = gl - m
            out.append(((a << d) + ga - (b << d), l + d, gb, gm))
            j = (j + 1) % n
            if ga + 1 == (b + 1) << d:
                break
    return out


def common_refinement(P: DyadicPartition, Q: DyadicPartition) -> DyadicPartition:
    """Coarsest partition refining both: the domain of id_P o id_Q."""
    walk = _compose_pairs(identity_pairs(P), identity_pairs(Q))
    return DyadicPartition(tuple([StdInterval(a, l) for a, l, _, _ in walk]))


# ---------------------------------------------------------------------------
# supporting partitions


def check_point_order(pts: Sequence[Tuple[int, int]]) -> None:
    """Raise unless the points p/q, given as integer pairs (p, q) with q > 0,
    strictly increase; neighbours compare by cross-multiplication."""
    for (p, q), (r, s) in zip(pts, pts[1:]):
        if p * s >= r * q:
            raise ValueError("coincident insertions" if p * s == r * q else "unordered tuple")


def supports(P: DyadicPartition, points: Sequence[PointLike]) -> bool:
    idx = [P.index_of(p) for p in points]
    return len(set(idx)) == len(idx)


def minimal_supporting_partition(points: Sequence[PointLike]) -> DyadicPartition:
    """Unique coarsest partition with at most one of the given points per
    interval.

    Construction descends from [0,1), splitting every interval that still
    holds two or more points; the intervals that hold at most one are
    appended left to right.  p/q lies left of the midpoint (2a+1)/2^(l+1)
    of [a/2^l, (a+1)/2^l) iff p << (l+1) < (2a+1) q, and an interval's
    points are an index range of the sorted tuple, split by bisection at
    that test.
    """
    pts = [(pt.p, pt.q) for pt in map(as_point, points)]
    if not pts:
        raise ValueError("empty tuple of points")
    check_point_order(pts)
    out: List[StdInterval] = []
    stack = [(0, 0, 0, len(pts))]  # (a, l, lo, hi): pts[lo:hi] lie in [a/2^l, (a+1)/2^l)
    while stack:
        a, l, lo, hi = stack.pop()
        if hi - lo <= 1:
            out.append(StdInterval(a, l))
            continue
        if l >= MAX_LEVEL:
            raise ValueError(f"maximum partition level {MAX_LEVEL} exceeded")
        l += 1
        m = 2 * a + 1
        k, top = lo, hi  # first point at or right of the midpoint m/2^l
        while k < top:
            mid = (k + top) // 2
            p, q = pts[mid]
            if p << l < m * q:
                k = mid + 1
            else:
                top = mid
        stack.append((m, l, k, hi))
        stack.append((2 * a, l, lo, k))
    return DyadicPartition(tuple(out))
