"""Thompson's groups F and T as reduced tree-pair fractions acting on the
circle through their integer leaf pairs.

An element is stored as its integer leaf pairs (a, l, b, m) in domain order
(`dyadic.LeafPair`): the domain leaf [a/2^l, (a+1)/2^l) maps affinely onto
the image leaf [b/2^m, (b+1)/2^m), one affine piece of slope 2^(l-m)
(Cannon, Floyd and Parry, section 1).  As a tree pair it maps domain leaf i
onto range leaf (i + rotation) mod n; rotation 0 gives F.  A product is one
pass of the merge walk `dyadic._compose_pairs` over two pair lists, and the
same walk pulls a partition of the range back into the domain (it also
gives `dyadic.common_refinement`); a reduction is one stack pass cancelling
sibling pairs, so reduced pairs are canonical: equal group elements have
identical reduced pairs, and any bracketing of a word's product gives them.
`parse_word` reads a word in runs, each multiplied by halves and joined to
the reduced prefix in one product; one generator deepens a reduced product
P to at most max(3, depth(P) + 1), so the run length keeps every prefix
within MAX_LEVEL and a prefix past it is refused at the same token as in a
left-to-right fold.  The generators are a literal table of pairs;
tree-pair documents go straight between nested lists and (a, l) leaves
(`dyadic.partition_to_nested`, `dyadic.nested_to_leaves`).  Breakpoint
tables are split into leaves by `dyadic.dyadic_blocks`, the block generator
of the minimal supporting partition, and `Fraction` enters only where a
table is read and checked; `dyadic` owns the leaf geometry.  Point
evaluation, slopes and the Schwarzian measure read the pairs: a point p/q
is located over the domain leaves by `dyadic.leaf_index`, the one leaf
lookup, with no `Fraction`, and over the image leaves, which run
cyclically, for the transformed correlator (`image_pair_at`).  Points are
read by `dyadic.read_point`, through `as_point`.
The transformed expectation and the vacuum-invariance check hand
partitions to the `treestate` matrix references.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isfinite
from operator import itemgetter
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import treestate
from .dyadic import (MAX_LEVEL, CirclePoint, DyadicPartition, LeafPair,
                     PointLike, StdInterval, as_point, check_leaf_cover,
                     check_regular_level, common_refinement, decimal_fraction,
                     dyadic_blocks, identity_pairs, is_refinement, leaf_index,
                     nested_to_leaves, partition_to_nested, regular_partition,
                     _compose_pairs)
from .spectral import Isometry3Box, eigendecompose, build_channel


# ---------------------------------------------------------------------------
# tree-pair fractions as integer leaf pairs


@dataclass(frozen=True)
class ThompsonElement:
    """Leaf pairs (a, l, b, m) in domain order: domain leaf [a/2^l, (a+1)/2^l)
    maps affinely onto image leaf [b/2^m, (b+1)/2^m).

    The domain leaves must form a dyadic partition, and so must the images
    read cyclically from the one that starts at 0; the constructor checks
    both on integers (`dyadic.check_leaf_cover`) and keeps the index of that
    pair, `first_image`.  As a tree pair, domain leaf i maps onto range leaf
    (i + rotation) mod n."""

    pairs: Tuple[LeafPair, ...]
    first_image: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pairs = tuple(self.pairs)
        object.__setattr__(self, "pairs", pairs)
        check_leaf_cover([(a, l) for a, l, _, _ in pairs])
        object.__setattr__(self, "first_image", check_leaf_cover(
            [(b, m) for _, _, b, m in pairs], cyclic=True))

    @property
    def n_leaves(self) -> int:
        return len(self.pairs)

    @property
    def rotation(self) -> int:
        return -self.first_image % self.n_leaves

    def domain_partition(self) -> DyadicPartition:
        return DyadicPartition(tuple([StdInterval(a, l) for a, l, _, _ in self.pairs]))

    def range_partition(self) -> DyadicPartition:
        k = self.first_image
        return DyadicPartition(tuple([StdInterval(b, m) for _, _, b, m
                                      in self.pairs[k:] + self.pairs[:k]]))

    def is_identity(self) -> bool:
        return reduce(self).n_leaves == 1

    def inverse(self) -> "ThompsonElement":
        k = self.first_image
        return ThompsonElement([(b, m, a, l)
                                for a, l, b, m in self.pairs[k:] + self.pairs[:k]])

    def _pair_at(self, x: PointLike) -> LeafPair:
        """The pair whose domain leaf holds x in [0,1) (`dyadic.leaf_index`)."""
        x = as_point(x)
        return self.pairs[leaf_index(self.pairs, x.p, x.q)]

    def image_pair_at(self, p: int, q: int) -> LeafPair:
        """The pair whose image leaf holds p/q in [0,1), the image-side twin
        of `_pair_at`: in image order, from the pair whose image starts at
        0, the last one whose image starts at or before p/q, that is
        b q <= p 2^m.  The images run cyclically from `first_image`, not
        from the first pair, so this bisection is its own and not
        `leaf_index`."""
        pairs = self.pairs
        n = len(pairs)
        k = self.first_image
        lo, hi = 0, n - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            _, _, b, m = pairs[(k + mid) % n]
            if b * q <= p << m:
                lo = mid
            else:
                hi = mid - 1
        return pairs[(k + lo) % n]

    def __call__(self, x: PointLike) -> CirclePoint:
        """f(x) for x = p/q in [0,1): on the pair (a, l, b, m) holding x,
        b/2^m + (x - a/2^l) 2^(l-m) = ((b - a) q + p 2^l) / (q 2^m)."""
        x = as_point(x)
        a, l, b, m = self._pair_at(x)
        return CirclePoint((b - a) * x.q + (x.p << l), x.q << m)


IDENTITY = ThompsonElement([(0, 0, 0, 0)])


def to_piecewise(e: ThompsonElement) -> ThompsonElement:
    """`e` itself, which evaluates points and inverts on its pairs; kept for
    `perfbench/workloads.py`, which calls `to_piecewise(e).inverse()`."""
    return e


# ---------------------------------------------------------------------------
# composition and reduction


def _cancel(pairs: Sequence[LeafPair]) -> Sequence[LeafPair]:
    """Reduced pairs in one stack pass: a pair whose domain and image are
    both right halves merges with the top of the stack when that holds the
    matching left halves, repeatedly (the shape of `dyadic.fold_tree`).
    Returns `pairs` itself when nothing cancels; raises when a reduced
    domain leaf is deeper than MAX_LEVEL."""
    stack: List[LeafPair] = []
    merged = False
    for a, l, b, m in pairs:
        while a & 1 and b & 1 and stack and stack[-1] == (a - 1, l, b - 1, m):
            stack.pop()
            a, l, b, m = a >> 1, l - 1, b >> 1, m - 1
            merged = True
        stack.append((a, l, b, m))
    if max(map(itemgetter(1), stack)) > MAX_LEVEL:
        raise ValueError("not a Thompson map: no dyadic domain tree found")
    return stack if merged else pairs


def reduce(e: ThompsonElement) -> ThompsonElement:
    """Canonical fully-cancelled fraction (idempotent); `e` itself when
    nothing cancels."""
    reduced = _cancel(e.pairs)
    return e if reduced is e.pairs else ThompsonElement(reduced)


def compose(g: ThompsonElement, h: ThompsonElement) -> ThompsonElement:
    """Group product g.h = g o h (h acts first), returned reduced."""
    return ThompsonElement(_cancel(_compose_pairs(g.pairs, h.pairs)))


# ---------------------------------------------------------------------------
# generators and words


# Leaf pairs of the standard generators A, B, C of F and T (Cannon, Floyd and
# Parry) and of the half rotation S = A.C.  As tree pairs: A maps
# [0, [0, 0]] onto [[0, 0], 0]; B is A on [1/2, 1); C rotates the leaves of
# [0, [0, 0]] by 2; S rotates those of [0, 0] by 1.
_GENERATORS = {
    "A": ((0, 1, 0, 2), (2, 2, 1, 2), (3, 2, 1, 1)),
    "B": ((0, 1, 0, 1), (2, 2, 4, 3), (6, 3, 5, 3), (7, 3, 3, 2)),
    "C": ((0, 1, 3, 2), (2, 2, 0, 1), (3, 2, 2, 2)),
    "S": ((0, 1, 1, 1), (1, 1, 0, 1)),
}


def generator(name: str) -> ThompsonElement:
    """A, B, C (standard generators) or S (half rotation, S = A.C)."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown generator {name!r}")
    return ThompsonElement(_GENERATORS[name])


MAX_WORD_LENGTH = 1024  # generators in one word; longer words are refused
# leaf pairs one breakpoint table may reduce to: a word of MAX_WORD_LENGTH
# generators has at most 3 carets each, so at most 3 * 1024 + 1 pairs
MAX_PIECE_PAIRS = 4096
_INVERSE_SUFFIXES = ("⁻¹", "^-1", "-1")
# word token -> pairs: each generator and each spelling of its inverse
_WORD_TOKENS = {name + suffix: ThompsonElement(pairs).inverse().pairs if suffix else pairs
                for name, pairs in _GENERATORS.items() for suffix in ("",) + _INVERSE_SUFFIXES}


def _product(run: Sequence[str]) -> Sequence[LeafPair]:
    """Reduced pairs of a run of word tokens, multiplied by halves."""
    if len(run) == 1:
        return _WORD_TOKENS[run[0]]
    half = len(run) // 2
    return _cancel(_compose_pairs(_product(run[:half]), _product(run[half:])))


def parse_word(word: str) -> ThompsonElement:
    """Generator word, leftmost acting last: 'A C' is A o C.

    Inverses: 'A⁻¹', 'A^-1' or 'A-1'.  At most MAX_WORD_LENGTH generators,
    and every reduced prefix product must keep its domain leaves within
    MAX_LEVEL.  The word is read in runs: each run is multiplied by halves
    (`_product`; reduced pairs are unique, so any bracketing gives them)
    and joined to the prefix in one product.  Composing a generator onto P
    deepens the reduced product to at most max(3, depth(P) + 1), so a run
    of MAX_LEVEL - max(2, D) tokens after a prefix of depth D has no prefix
    or half product past MAX_LEVEL; a refusal can only come at a run of
    one token, the product step of a left-to-right fold, with its error.
    """
    tokens = word.split()
    if len(tokens) > MAX_WORD_LENGTH:
        raise ValueError(f"word has {len(tokens)} generators; "
                         f"at most {MAX_WORD_LENGTH} are allowed")
    pairs: Sequence[LeafPair] = IDENTITY.pairs
    i = 0
    while i < len(tokens):
        run = tokens[i:i + max(1, MAX_LEVEL - max(2, max(map(itemgetter(1), pairs))))]
        for tok in run:
            if tok not in _WORD_TOKENS:  # raises: unknown generator, named without its suffix
                generator(next((tok[:-len(s)] for s in _INVERSE_SUFFIXES
                                if tok.endswith(s)), tok))
        product = _product(run)  # the first run's product is the first prefix
        pairs = _cancel(_compose_pairs(pairs, product)) if i else product
        i += len(run)
    return ThompsonElement(pairs)


def element_from_document(doc) -> ThompsonElement:
    """Tree-pair literal {'domain': nested, 'range': nested, 'rotation': r},
    a breakpoint/slope table {'pieces': [[x, y, c], ...]}, or {'word': ...}."""
    if isinstance(doc, str):
        return parse_word(doc)
    if not isinstance(doc, dict):
        raise ValueError("state document must be a word or a JSON object")
    if "word" in doc:
        if not isinstance(doc["word"], str):
            raise ValueError("state 'word' must be a string")
        return parse_word(doc["word"])
    if "pieces" in doc:
        rows = doc["pieces"]
        if not (isinstance(rows, list) and all(isinstance(r, list) and len(r) == 3
                                               and isinstance(r[2], int) for r in rows)):
            raise ValueError("state 'pieces' must be a list of [x, y, c] rows "
                             "with an integer slope exponent c")
        return _from_pieces([(_coordinate(x), _coordinate(y), c) for x, y, c in rows])
    if "domain" not in doc or "range" not in doc:
        raise ValueError("state document needs 'word', 'pieces', or 'domain' and 'range'")
    rotation = doc.get("rotation", 0)
    if type(rotation) is not int:  # not a bool either
        raise ValueError("state 'rotation' must be an integer")
    dom, ran = nested_to_leaves(doc["domain"]), nested_to_leaves(doc["range"])
    if len(ran) != len(dom):
        raise ValueError("leaf counts differ between domain and range trees")
    k = rotation % len(dom)  # domain leaf i maps onto range leaf (i + rotation) mod n
    return ThompsonElement([d + r for d, r in zip(dom, ran[k:] + ran[:k])])


def _coordinate(v) -> Fraction:
    try:
        if isinstance(v, str):
            return decimal_fraction(v, f"piece coordinate {v!r}")
        if isinstance(v, float) and isfinite(v):  # the decimal a JSON number spells
            return Fraction(repr(v))
        return Fraction(v)
    except (TypeError, ZeroDivisionError, OverflowError):
        raise ValueError(f"piece coordinate {v!r} is not a number") from None


def _level(v) -> int:
    """log2 of the denominator of a dyadic rational."""
    return v.denominator.bit_length() - 1


def _times_power(v, c: int):
    """v 2^c, exactly."""
    return v * (1 << c) if c >= 0 else v / (1 << -c)


def _from_pieces(ps: List[Tuple[Fraction, Fraction, int]]) -> ThompsonElement:
    """Reduced element of the table of pieces f(t) = y + 2^c (t - x) for t in
    [x, next x), values mod 1, once the table is checked to be an
    orientation-preserving PL bijection of the circle."""
    if not ps or ps[0][0] != 0:
        raise ValueError("not a Thompson map: pieces must start at 0")
    # every image width 2^c (x_{i+1} - x_i) lies in [2^-ly, 1], so a valid c
    # lies in [-ly, lx]; checked before 2^c is computed
    lx = max(_level(x) for x, _, _ in ps)
    ly = max(_level(y) for _, y, _ in ps)
    ends = [x for x, _, _ in ps[1:]] + [1]
    total = 0
    for (x, y, c), end in zip(ps, ends):
        if not (0 <= x < 1 and 0 <= y < 1):
            raise ValueError("not a Thompson map: data outside [0,1)")
        if not (CirclePoint(x).is_dyadic() and CirclePoint(y).is_dyadic()):
            raise ValueError("not a Thompson map: non-dyadic breakpoint")
        if not -ly <= c <= lx:
            raise ValueError("not a Thompson map: slope exponent out of range")
        if end <= x:
            raise ValueError("not a Thompson map: breakpoints not increasing")
        total += _times_power(end - x, c)
    if total != 1:
        raise ValueError("not a Thompson map: image does not cover the circle")
    # continuity mod 1 between consecutive pieces (values wrap on the circle)
    for (x, y, c), end, (_, y_next, _) in zip(ps, ends, ps[1:] + ps[:1]):
        if (y + _times_power(end - x, c) - y_next) % 1:
            raise ValueError("not a Thompson map: discontinuous")
    # a run of equal slopes is one affine piece; each piece splits where its
    # image passes 1, so every part has an image inside [0,1)
    ps = [p for i, p in enumerate(ps) if i == 0 or p[2] != ps[i - 1][2]]
    parts = []
    for (x, y, c), end in zip(ps, [x for x, _, _ in ps[1:]] + [1]):
        cut = x + _times_power(1 - y, -c)
        if cut < end:
            parts += [_part(x, cut, y, c), _part(cut, end, 0, c)]
        else:
            parts.append(_part(x, end, y, c))
    n = sum(_leaf_count(*part) for part in parts)
    if n > MAX_PIECE_PAIRS:
        raise ValueError(f"pieces table has {n} leaf pairs; "
                         f"at most {MAX_PIECE_PAIRS} are allowed")
    return ThompsonElement(_cancel([pair for part in parts for pair in _leaves(*part)]))


def _part(x0, x1, y0, c: int) -> Tuple[int, ...]:
    """The part t -> y0 + 2^c (t - x0) on [x0, x1) of a map, whose image
    lies inside [0,1), on integers.

    The leaf [a/2^l, (a+1)/2^l) has the standard image [b/2^m, (b+1)/2^m),
    m = l - c, iff d 2^m is an integer for the offset d = y0 - 2^c x0, that
    is iff l >= floor = c + level(d); then b = a + d 2^m.  The part's leaves
    are the maximal dyadic blocks of [x0, x1) of level at least that floor:
    at most two per level, except at the floor itself.  Returns the ends
    pos, end and the widest block in units of 2^-MAX_LEVEL, the offset as
    the numerator of d 2^level(d), the floor and c.  The endpoints are
    breakpoints of the map, so a part whose endpoints or floor lie deeper
    than MAX_LEVEL has a reduced leaf that deep, and it is refused here."""
    d = y0 - _times_power(x0, c)
    floor = c + _level(d)
    if max(_level(x0), _level(x1), floor) > MAX_LEVEL:
        raise ValueError("not a Thompson map: no dyadic domain tree found")
    return (int(x0 * (1 << MAX_LEVEL)), int(x1 * (1 << MAX_LEVEL)),
            1 << MAX_LEVEL - max(floor, 0), d.numerator, floor, c)


def _leaf_count(pos: int, end: int, widest: int, *_) -> int:
    """How many leaves `_leaves` makes of a part: the point m of [pos, end]
    with the most trailing zeros splits them into the set bits of m - pos and
    of end - m, a bit above `widest` counting as that many blocks of it."""
    h = ((pos - 1) ^ end).bit_length() - 1  # the top bit where pos - 1 and end differ
    m = end >> h << h if pos else 0
    w = widest.bit_length() - 1
    return sum(bin(x & widest - 1).count("1") + (x >> w) for x in (m - pos, end - m))


def _leaves(pos: int, end: int, widest: int, offset: int, floor: int,
            c: int) -> List[LeafPair]:
    """The coarsest leaf pairs of a part (`_part`), left to right: its
    leaves are `dyadic.dyadic_blocks` of [pos, end)."""
    return [(a, l, a + (offset << l - floor), l - c)
            for a, l in dyadic_blocks(pos, end, widest)]


def element_to_document(e: ThompsonElement) -> dict:
    e = reduce(e)
    return {"domain": partition_to_nested(e.domain_partition()),
            "range": partition_to_nested(e.range_partition()),
            "rotation": e.rotation}


# ---------------------------------------------------------------------------
# good partitions, slopes, Schwarzian


def good_partition(f: ThompsonElement, P: DyadicPartition) -> bool:
    """P is good iff it refines the reduced element's domain partition."""
    return is_refinement(reduce(f).domain_partition(), P)


def find_good(f: ThompsonElement, P0: DyadicPartition) -> DyadicPartition:
    return common_refinement(P0, reduce(f).domain_partition())


def slope_right(f: ThompsonElement, x: PointLike) -> int:
    """Exponent c with df/dx = 2^c as x in [0,1) is approached from the
    right: l - m of the pair holding x."""
    _, l, _, m = f._pair_at(x)
    return l - m


def schwarzian_measure(f: ThompsonElement) -> List[Tuple[CirclePoint, int]]:
    """Atomic measure at breakpoints with weights 2 (c_right - c_left).

    Elements of F contribute nothing at 0; rotations compare slopes across
    the wrap.
    """
    e = reduce(f)
    c = [l - m for _, l, _, m in e.pairs]
    out = []
    if e.rotation != 0 and c[0] != c[-1]:
        out.append((CirclePoint(0, 1), 2 * (c[0] - c[-1])))
    for (a, l, _, _), prev, cur in zip(e.pairs[1:], c, c[1:]):
        if cur != prev:
            out.append((CirclePoint(a, 1 << l), 2 * (cur - prev)))
    return out


# ---------------------------------------------------------------------------
# action on the vacuum: pullback machinery and the invariance check


def pullback_partition(f: ThompsonElement, Q: DyadicPartition
                       ) -> Tuple[DyadicPartition, List[int]]:
    """Domain partition P' = f^{-1}(Q) for Q refining f's range partition.

    Returns (P', sigma) with f(P'_i) = Q_{sigma[i]}.  P' is the domain of
    id_Q o f, one merge walk; its images are the intervals of Q in cyclic
    order exactly when Q refines the range, and otherwise some image lies
    strictly inside an interval of Q, which makes more than |Q| pieces.
    """
    pulled = _compose_pairs(identity_pairs(Q), f.pairs)
    n = len(Q)
    if len(pulled) > n:
        raise ValueError("partition does not refine the range partition")
    first = next(i for i, p in enumerate(pulled) if p[2] == 0)
    P = DyadicPartition(tuple([StdInterval(a, l) for a, l, _, _ in pulled]))
    return P, [(i - first) % n for i in range(n)]


def transformed_vacuum_expectation_batch(f: ThompsonElement, Q: DyadicPartition,
                                         ops_by_slot: Dict[int, np.ndarray],
                                         V: Isometry3Box) -> np.ndarray:
    """<U(f) Omega| ops on Q |U(f) Omega> for batched ops (slot -> (B,d,d)).

    The transformed vacuum on Q carries the amplitudes of the vacuum tree of
    P' = f^{-1}(Q); operators attach at the pulled-back slots, and the root
    closes with the normalised trace (the correlator functional).
    """
    P, sigma = pullback_partition(f, Q)
    leaf_ops = {i: ops_by_slot[q] for i, q in enumerate(sigma) if q in ops_by_slot}
    return treestate.vacuum_expectation_batch(P, V, leaf_ops)


TOL_INVARIANCE = 1e-10  # largest deviation `vacuum_invariance_check` passes


def vacuum_invariance_check(f: ThompsonElement, V: Isometry3Box,
                            level: int) -> Tuple[bool, float]:
    """Does U(f) fix the vacuum state?  Compares transformed against plain
    expectations of all single and double eigen-operator insertions over the
    level-`level` refinement, in the pair-rooted vacuum vector (the top caret
    holds the maximally entangled pair): the plain side on the tree of Q,
    the transformed side on the pulled-back tree of f^{-1}(Q).

    Returns (all deviations <= TOL_INVARIANCE, max deviation).
    """
    check_regular_level(level, "level")
    cap = treestate.oracle_cap()
    # the state has d^(2^level) entries; for d >= 2, 2^bit_length already exceeds cap
    if V.d ** min(1 << level, cap.bit_length()) > cap:
        raise ValueError("oracle size exceeded: level too deep for the check")
    S = eigendecompose(build_channel(V))
    mus = S.right_ops  # (n, d, d)
    e = reduce(f)
    Q = common_refinement(regular_partition(level), e.range_partition())
    m = len(Q)
    P, sigma = pullback_partition(e, Q)  # once: e and Q are fixed

    def deviation(ops: Dict[int, np.ndarray]) -> float:
        plain = treestate.pair_vacuum_expectation_batch(Q, V, ops)
        moved_ops = {i: ops[q] for i, q in enumerate(sigma) if q in ops}
        moved = treestate.pair_vacuum_expectation_batch(P, V, moved_ops)
        return float(np.max(np.abs(plain - moved)))

    worst = 0.0
    for i in range(m):
        worst = max(worst, deviation({i: mus}))
    n = S.n
    pair_a = np.repeat(mus, n, axis=0)
    pair_b = np.tile(mus, (n, 1, 1))
    for i in range(m):
        for j in range(i + 1, m):
            worst = max(worst, deviation({i: pair_a, j: pair_b}))
    return worst <= TOL_INVARIANCE, worst
