"""Exact arithmetic on the dyadic circle [0,1): points, standard intervals,
partitions, nested tree documents, leaf pairs and the tree metric.

A point is its reduced integer pair (p, q), 0 <= p < q (`CirclePoint`); a
dyadic point a/2^l has q = 2^l, so the tree metric, the XOR difference and
the coarse-graining distance read its level from q.  Text becomes a point
through one reader, `read_point`, which reads an ASCII 'p/q' or a binary
expansion with `int` calls and leaves every other spelling to
`Fraction(str)` once a decimal exponent is sized; `CirclePoint(text)` and
`as_point` read through it, and a JSON value that is not a string through
`read_json_point`, which reads a float as the decimal it spells.  Two
points' common binary prefix is one long division of each to a common
number of digits (`common_prefix_length`).  A standard interval is its
integer pair (left numerator, level), the named tuple `StdInterval`, and a
partition is the tuple of its leaves.  A finite binary tree is its dyadic
partition: the leaves are the standard intervals, a left child the left
half of its parent, so no tree object is built.  Partition checks and
`fold_tree`, one stack pass folding a partition's tree, run on those
integers; the fold trusts the cover a `DyadicPartition` checked when it was
built.  Nested documents (0 a leaf, [left, right] a caret) are written by
that fold and read by one explicit-stack pass straight to (a, l) leaves, so
no function here recurses.  A leaf pair (a, l, b, m) maps the interval
[a/2^l, (a+1)/2^l) affinely onto [b/2^m, (b+1)/2^m); one merge walk over
two pair lists, `_compose_pairs`, composes Thompson elements, pulls a
partition back through one, and gives the common refinement of two
partitions as the domain of id_P o id_Q, all on integers.  The leaf that
holds a point is found by one lookup, the bisection `leaf_index`, over
intervals and leaf pairs alike: `DyadicPartition.index_of`, a Thompson
element's domain pairs and the start of the merge walk.  This module owns
the leaf geometry of points: `vacuum_leaves` reads each point's leaf of the
minimal supporting partition from its first 64 binary digits (the
correlators evaluate on those leaves), and `minimal_supporting_partition`
fills each gap between them with the maximal standard intervals of
`dyadic_blocks`, which also splits `{"pieces"}` tables into leaves.  Points
compare by cross-multiplication.  `Fraction` remains only in
`is_refinement`, in `StdInterval.left` and `.right`, and at the API edges:
reading a `Fraction`, an int, a decimal or a JSON float into a point, and
`CirclePoint.value`.
No floats enter any decision.  Intervals are half-open [a, b) throughout,
including the last one.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isfinite
from typing import (Callable, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple, TypeVar, Union)

MAX_LEVEL = 64  # depth cap; deeper requests raise instead of truncating
MAX_REGULAR_LEVEL = 20  # 2^level grids and regular partitions; the dense oracle's cap
# the most digits a decimal literal's value may need; `Fraction(str)` takes
# about 0.25 s to compute a power of ten this long (one Xeon core)
MAX_LITERAL_DIGITS = 10 ** 6
# a decimal literal with an exponent as `Fraction(str)` reads one: integer
# digits, fraction digits and exponent
_EXPONENT_LITERAL = (r"[-+]?(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:\.(\d*|\d+(?:_\d+)*))?"
                     r"[eE]([-+]?\d+(?:_\d+)*)")

PointLike = Union["CirclePoint", Fraction, int, str]
T = TypeVar("T")


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True, slots=True, init=False)
class CirclePoint:
    """Exact rational point p/q in [0,1), stored as its reduced integer pair
    (p, q) with 0 <= p < q.  `CirclePoint(x)` takes a `Fraction`, an int or
    a text, read by `read_point`; `CirclePoint(p, q)` takes the pair itself."""

    p: int
    q: int

    def __init__(self, value: Union[Fraction, int, str],
                 denominator: Optional[int] = None):
        if denominator is not None:
            if denominator < 0:
                value, denominator = -value, -denominator
            p, q = _circle_pair(value, denominator)
        elif isinstance(value, str):
            p, q = read_point(value)
        else:
            v = value if isinstance(value, Fraction) else Fraction(value)
            p, q = _circle_pair(v.numerator, v.denominator)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

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


def decimal_fraction(s: str, what: str) -> Fraction:
    """`Fraction(s)`, with a decimal exponent sized first, since `Fraction`
    computes 10^|e| in full: a zero mantissa reads as 0, and a value that
    would need more than MAX_LITERAL_DIGITS digits, as an integer or in the
    denominator 10^k, is refused as `what`.  Every other literal keeps
    `Fraction`'s own value or error."""
    m = re.fullmatch(_EXPONENT_LITERAL, s.strip())
    if m:
        whole, decimals, e = (g.replace("_", "") for g in m.groups(""))
        digits = (whole + decimals).lstrip("0")
        if not digits:
            return Fraction(0)
        # the value is int(digits) 10^E: an integer, or a fraction over 10^-E;
        # an exponent of more than 18 digits stands in as 10^18, past any bound
        exp = e.lstrip("+-").lstrip("0") or "0"
        magnitude = int(exp) if len(exp) <= 18 else 10 ** 18
        E = (-magnitude if e[0] == "-" else magnitude) - len(decimals)
        if (len(digits) + E if E >= 0 else 1 - E) > MAX_LITERAL_DIGITS:
            raise ValueError(f"{what} needs more than {MAX_LITERAL_DIGITS} digits")
    return Fraction(s)


def _circle_pair(p: int, q: int) -> Tuple[int, int]:
    """The reduced pair of p/q, refused unless p/q lies in [0,1)."""
    if q == 0:
        raise ZeroDivisionError(f"CirclePoint({p}, 0)")
    if not 0 <= p < q:
        try:
            shown = str(Fraction(p, q))
        except ValueError:  # past CPython's int/str digit limit
            shown = f"a value of more than {sys.get_int_max_str_digits()} digits"
        raise ValueError(f"{shown} is not in [0,1)")
    g = gcd(p, q)
    return p // g, q // g


def read_point(text: str) -> Tuple[int, int]:
    """The reduced pair (p, q) of the point in [0,1) that `text` spells:
    'p/q', a binary expansion '0.b1b2...', or any other `Fraction` literal
    (an integer, a decimal such as '0.25' or '3e-2').  A binary expansion
    and an ASCII 'p/q' are read with `int` calls; every other spelling goes
    through `decimal_fraction`, which gives the values and errors of
    `Fraction(str)` on any literal whose value needs at most
    MAX_LITERAL_DIGITS digits."""
    s = text.strip()
    if s.startswith("0.") and set(s[2:]) <= {"0", "1"} and len(s) > 2:
        return _circle_pair(int(s[2:], 2), 1 << (len(s) - 2))
    p, slash, q = s.partition("/")
    try:
        if slash and p.isascii() and p.isdigit() and q.isascii() and q.isdigit():
            return _circle_pair(int(p), int(q))
        v = decimal_fraction(s, f"point {text!r}")
        return _circle_pair(v.numerator, v.denominator)
    except ZeroDivisionError:
        raise ValueError(f"point {text!r} has a zero denominator") from None


def read_json_point(x) -> Tuple[int, int]:
    """The reduced pair of the point a JSON value other than a string gives:
    a finite float is the decimal it spells, read from its shortest `repr`
    (0.1 is 1/10, not the binary expansion 1/2); an int, a bool, None or a
    non-finite float is read as its `str` by `read_point`."""
    if isinstance(x, float) and isfinite(x):
        v = Fraction(repr(x))
        return _circle_pair(v.numerator, v.denominator)
    return read_point(str(x))


def as_point(x: PointLike) -> CirclePoint:
    return x if isinstance(x, CirclePoint) else CirclePoint(x)


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
    """Length of the common prefix of the binary expansions of two distinct
    points (a dyadic point's expansion ends in 0s), by one long division:
    with k = bit_length(q s), p/q and r/s differ by at least 1/(q s) > 2^-k,
    so their first k digits X = floor(2^k p/q) and Y differ, and the prefix
    is k - bit_length(X xor Y)."""
    px, py = as_point(x), as_point(y)
    if px == py:
        raise ValueError("coincident points")
    k = (px.q * py.q).bit_length()
    return k - (((px.p << k) // px.q) ^ ((py.p << k) // py.q)).bit_length()


def coarse_grain_distance(x: PointLike, y: PointLike) -> CirclePoint:
    """2^-(l+1) where l is the length of the common binary prefix of x and y."""
    return CirclePoint(1, 2 << common_prefix_length(x, y))


# ---------------------------------------------------------------------------
# intervals and partitions


class StdInterval(NamedTuple):
    """Standard dyadic interval [a/2^l, (a+1)/2^l) as the pair (a, l),
    unchecked until a `DyadicPartition` holds it (`check_leaf_cover`)."""

    left_numerator: int
    level: int

    @property
    def left(self) -> Fraction:
        return Fraction(self.left_numerator, 1 << self.level)

    @property
    def right(self) -> Fraction:
        return Fraction(self.left_numerator + 1, 1 << self.level)

    def __str__(self) -> str:
        return f"{self.left_numerator}/{1 << self.level}"


@dataclass(frozen=True)
class DyadicPartition:
    """Ordered, contiguous standard dyadic cover of [0,1), of `StdInterval`
    leaves only."""

    intervals: Tuple[StdInterval, ...]

    def __post_init__(self):
        ivs = tuple(self.intervals)
        if not set(map(type, ivs)) <= {StdInterval}:
            bad = next(iv for iv in ivs if type(iv) is not StdInterval)
            raise ValueError(f"partition leaf {bad!r} is not a StdInterval")
        check_leaf_cover(ivs)
        object.__setattr__(self, "intervals", ivs)

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def __getitem__(self, i) -> StdInterval:
        return self.intervals[i]

    def index_of(self, x: PointLike) -> int:
        """Slot of the interval holding x (`leaf_index`)."""
        pt = as_point(x)
        return leaf_index(self.intervals, pt.p, pt.q)

    def __str__(self) -> str:
        return "{" + ", ".join(str(iv) for iv in self.intervals) + "}"


def leaf_index(leaves: Sequence[Sequence[int]], p: int, q: int) -> int:
    """Index of the leaf holding p/q among leaves that cover [0,1) in order:
    the last one whose start a/2^l, (a, l) = (leaf[0], leaf[1]), is at or
    before p/q, that is a q <= p 2^l (bisection on integers).  A leaf is
    indexed, not unpacked, so `StdInterval`s and `LeafPair`s are read alike."""
    lo, hi = 0, len(leaves) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        leaf = leaves[mid]
        if leaf[0] * q <= p << leaf[1]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def check_leaf_cover(leaves: Sequence[Tuple[int, int]], cyclic: bool = False) -> int:
    """Index of the first leaf (a, l) that starts at 0, once the leaves are
    checked to be standard intervals [a/2^l, (a+1)/2^l) that cover [0,1)
    without gap or overlap, read from the first leaf or, when `cyclic`,
    from that one on around.  A `DyadicPartition` is checked in order, the
    images of a `ThompsonElement`'s pairs cyclically.  Leaves that cover
    [0,1) all lie inside it, and a negative level fails a shift, so each
    leaf is checked on its own only to report the first bad one before any
    fault of the cover."""
    try:
        if not leaves:
            raise ValueError("empty partition")
        k = 0
        if cyclic:
            k = next((i for i, (a, _) in enumerate(leaves) if a == 0), -1)
            if k < 0:
                raise ValueError("not a Thompson map: no image leaf starts at 0")
        elif leaves[0][0] != 0:
            raise ValueError("partition must start at 0")
        cover = leaves[k:] + leaves[:k]
        for (a, l), (b, m) in zip(cover, cover[1:]):
            # a's right end (a+1)/2^l is b's left end b/2^m, both scaled by 2^(l+m)
            if (a + 1) << m != b << l:
                raise ValueError(f"gap or overlap between {a}/{1 << l} and {b}/{1 << m}")
        a, l = cover[-1]
        if a + 1 != 1 << l:
            raise ValueError("partition must end at 1")
        return k
    except ValueError as exc:
        fault = exc
    for a, l in leaves:
        check_leaf(a, l)
    raise fault


def check_leaf(a: int, l: int) -> None:
    """Raise, naming it, unless (a, l) is a standard interval inside [0,1)."""
    if l < 0:
        raise ValueError(f"[{a}/2^{l}, ...) has a negative level")
    if not 0 <= a < 1 << l:
        raise ValueError(f"[{a}/2^{l}, ...) is not inside [0,1)")


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
    for k, (a, l) in enumerate(P.intervals):
        value = leaf(k)
        while a & 1 and stack and stack[-1][0] == a - 1 and stack[-1][1] == l:
            value = join(stack.pop()[2], value)
            a >>= 1
            l -= 1
        stack.append((a, l, value))
    return stack[0][2]  # P covers [0,1), so [0,1) itself is left, alone


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
    return [iv + iv for iv in P]


def _compose_pairs(g: Sequence[LeafPair], h: Sequence[LeafPair]) -> List[LeafPair]:
    """Unreduced pairs of g o h in h's domain order, by one walk: h's images
    run through g's domain cyclically from the piece found by `leaf_index`, and
    each either lies inside one g piece or is split over several."""
    j = leaf_index(g, h[0][2], 1 << h[0][3])  # g's piece under h's first image
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


def vacuum_leaves(points: Sequence[Tuple[int, int]]) -> Iterator[Tuple[int, int]]:
    """Yields the leaf (a, l) of each point in the points' minimal
    supporting partition, straight from their integer pairs (p, q), which
    strictly increase: X = (p << 64) // q holds the first 64 binary digits
    of p/q, neighbours share c = 64 - bit_length(X xor X') of them, and a
    point sits one level below the deeper of its two neighbour carets.
    Neighbours that share all 64 digits would need a deeper partition."""
    X = [(p << MAX_LEVEL) // q for p, q in points]
    carets = [-1]
    for x, y in zip(X, X[1:]):
        if x == y:
            raise ValueError(f"maximum partition level {MAX_LEVEL} exceeded")
        carets.append(MAX_LEVEL - (x ^ y).bit_length())
    carets.append(-1)
    for i, x in enumerate(X):
        l = max(carets[i], carets[i + 1]) + 1
        yield x >> (MAX_LEVEL - l), l


def dyadic_blocks(pos: int, end: int, widest: int = 1 << MAX_LEVEL) -> Iterator[StdInterval]:
    """The maximal standard intervals inside [pos, end), in units of
    2^-MAX_LEVEL, none wider than `widest` (a power of two), left to right:
    each is as wide as the lowest set bit of its start allows and fits
    before `end`."""
    while pos < end:
        size = min(pos & -pos or widest, widest, 1 << (end - pos).bit_length() - 1)
        l = MAX_LEVEL + 1 - size.bit_length()
        yield StdInterval(pos >> MAX_LEVEL - l, l)
        pos += size


def minimal_supporting_partition(points: Sequence[PointLike]) -> DyadicPartition:
    """Unique coarsest partition with at most one of the given points per
    interval: the points' leaves (`vacuum_leaves`), and in each gap between
    them the maximal standard intervals that fill it (`dyadic_blocks`).  An
    empty interval of the partition is maximal inside its gap, since its
    parent holds two points."""
    pts = [(pt.p, pt.q) for pt in map(as_point, points)]
    if not pts:
        raise ValueError("empty tuple of points")
    check_point_order(pts)
    out: List[StdInterval] = []
    pos = 0  # the end of the last leaf, in units of 2^-MAX_LEVEL
    for a, l in vacuum_leaves(pts):
        start = a << MAX_LEVEL - l
        out += dyadic_blocks(pos, start)
        out.append(StdInterval(a, l))
        pos = start + (1 << MAX_LEVEL - l)
    out += dyadic_blocks(pos, 1 << MAX_LEVEL)
    return DyadicPartition(tuple(out))
