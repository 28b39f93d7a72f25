"""Thompson's groups F and T as reduced tree-pair fractions with an exact
piecewise-linear map view.

An element is stored as its integer leaf pairs (a, l, b, m) in domain order:
the domain leaf [a/2^l, (a+1)/2^l) maps affinely onto the image leaf
[b/2^m, (b+1)/2^m).  As a tree pair it maps domain leaf i onto range leaf
(i + rotation) mod n; rotation 0 gives F.  A product is one merge walk over
two pair lists, and the same walk pulls a partition of the range back into
the domain; a reduction is one stack pass cancelling sibling pairs, so
reduced pairs are canonical: equal group elements have identical reduced
pairs.  Trees are built only at the edges, by `ThompsonElement.from_trees`
and by `domain_tree`/`range_tree` for documents.  The exact `Fraction`
piecewise form serves point evaluation, slopes, breakpoint tables and the
check of the integer algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import treestate
from .dyadic import (LEAF, MAX_LEVEL, BinaryTree, DyadicPartition,
                     DyadicRational, PointLike, StdInterval, caret,
                     check_regular_level, common_refinement, is_refinement,
                     partition_to_tree, regular_partition, tree_to_partition,
                     _as_fraction)
from .spectral import Isometry3Box, eigendecompose, build_channel


# ---------------------------------------------------------------------------
# piecewise-linear view


@dataclass(frozen=True)
class PLPiece:
    """Affine piece f(t) = y + 2^c (t - x) for t in [x, next piece's x)."""

    x: Fraction
    y: Fraction
    c: int


def _is_dyadic(q: Fraction) -> bool:
    return q.denominator & (q.denominator - 1) == 0


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """Orientation-preserving PL bijection of the circle [0,1) with dyadic
    breakpoints and power-of-two slopes; values are taken mod 1."""

    pieces: Tuple[PLPiece, ...]

    def __post_init__(self):
        ps = tuple(self.pieces)
        if not ps or ps[0].x != 0:
            raise ValueError("not a Thompson map: pieces must start at 0")
        widths = []
        for i, p in enumerate(ps):
            if not (0 <= p.x < 1 and 0 <= p.y < 1):
                raise ValueError("not a Thompson map: data outside [0,1)")
            if not _is_dyadic(p.x) or not _is_dyadic(p.y):
                raise ValueError("not a Thompson map: non-dyadic breakpoint")
            nxt = ps[i + 1].x if i + 1 < len(ps) else Fraction(1)
            if nxt <= p.x:
                raise ValueError("not a Thompson map: breakpoints not increasing")
            widths.append((nxt - p.x) * Fraction(2) ** p.c)
        if sum(widths) != 1:
            raise ValueError("not a Thompson map: image does not cover the circle")
        # continuity mod 1 between consecutive pieces (values wrap on the circle)
        for i in range(len(ps)):
            p = ps[i]
            nxt_x = ps[i + 1].x if i + 1 < len(ps) else Fraction(1)
            end = p.y + (nxt_x - p.x) * Fraction(2) ** p.c
            start_next = ps[(i + 1) % len(ps)].y
            if (end - start_next) % 1 != 0:
                raise ValueError("not a Thompson map: discontinuous")
        # canonical form: merge junctions where the slope does not change
        merged: List[PLPiece] = [ps[0]]
        for p in ps[1:]:
            if p.c == merged[-1].c:
                continue  # continuity already checked, the affine run extends
            merged.append(p)
        object.__setattr__(self, "pieces", tuple(merged))

    def piece_index(self, x: Fraction) -> int:
        """Index of the last piece starting at or before x (bisection)."""
        ps = self.pieces
        lo, hi = 0, len(ps) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if ps[mid].x <= x:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def piece_at(self, x: Fraction) -> PLPiece:
        return self.pieces[self.piece_index(x)]

    def __call__(self, x: PointLike) -> Fraction:
        v = _as_fraction(x)
        if not 0 <= v < 1:
            v = v % 1
        p = self.piece_at(v)
        return (p.y + (v - p.x) * Fraction(2) ** p.c) % 1

    def inverse(self) -> "PiecewiseLinearMap":
        inv = []
        for i, p in enumerate(self.pieces):
            nxt = self.pieces[i + 1].x if i + 1 < len(self.pieces) else Fraction(1)
            width = nxt - p.x
            img_w = width * Fraction(2) ** p.c
            y0 = p.y
            # the image may wrap past 1; split it at the wrap point
            if y0 + img_w <= 1:
                inv.append(PLPiece(y0, p.x, -p.c))
            else:
                inv.append(PLPiece(y0, p.x, -p.c))
                cut = p.x + (1 - y0) * Fraction(2) ** (-p.c)
                inv.append(PLPiece(Fraction(0), cut % 1, -p.c))
        inv.sort(key=lambda q: q.x)
        merged: List[PLPiece] = []
        for q in inv:
            if merged and merged[-1].x == q.x:
                raise ValueError("not a Thompson map: image pieces overlap")
            merged.append(q)
        return PiecewiseLinearMap(tuple(merged))


# ---------------------------------------------------------------------------
# tree-pair fractions as integer leaf pairs


# (a, l, b, m): the domain leaf [a/2^l, (a+1)/2^l) maps affinely onto the
# image leaf [b/2^m, (b+1)/2^m).
LeafPair = Tuple[int, int, int, int]


@dataclass(frozen=True)
class ThompsonElement:
    """Leaf pairs (a, l, b, m) in domain order: domain leaf [a/2^l, (a+1)/2^l)
    maps affinely onto image leaf [b/2^m, (b+1)/2^m).

    The domain leaves must form a dyadic partition, and so must the images
    read cyclically from the one that starts at 0; the constructor checks
    both.  As a tree pair, domain leaf i maps onto range leaf
    (i + rotation) mod n."""

    pairs: Tuple[LeafPair, ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        self.domain_partition()
        self.range_partition()

    @staticmethod
    def from_trees(domain: BinaryTree, range_: BinaryTree,
                   rotation: int = 0) -> "ThompsonElement":
        """The tree pair mapping domain leaf i onto range leaf
        (i + rotation) mod n."""
        n = domain.leaf_count()
        if range_.leaf_count() != n:
            raise ValueError("leaf counts differ between domain and range trees")
        ran = tree_to_partition(range_).intervals
        k = rotation % n
        return ThompsonElement([(d.left_numerator, d.level, r.left_numerator, r.level)
                                for d, r in zip(tree_to_partition(domain),
                                                ran[k:] + ran[:k])])

    def _first_image(self) -> int:
        """Index of the pair whose image starts at 0."""
        for i, p in enumerate(self.pairs):
            if p[2] == 0:
                return i
        raise ValueError("not a Thompson map: no image leaf starts at 0")

    @property
    def n_leaves(self) -> int:
        return len(self.pairs)

    @property
    def rotation(self) -> int:
        return -self._first_image() % self.n_leaves

    def domain_partition(self) -> DyadicPartition:
        return DyadicPartition(tuple([StdInterval(a, l) for a, l, _, _ in self.pairs]))

    def range_partition(self) -> DyadicPartition:
        images = [StdInterval(b, m) for _, _, b, m in self.pairs]
        k = self._first_image()
        return DyadicPartition(tuple(images[k:] + images[:k]))

    @property
    def domain_tree(self) -> BinaryTree:
        return partition_to_tree(self.domain_partition())

    @property
    def range_tree(self) -> BinaryTree:
        return partition_to_tree(self.range_partition())

    def is_identity(self) -> bool:
        return reduce(self).n_leaves == 1

    def inverse(self) -> "ThompsonElement":
        k = self._first_image()
        return ThompsonElement([(b, m, a, l)
                                for a, l, b, m in self.pairs[k:] + self.pairs[:k]])

    def __call__(self, x: PointLike) -> Fraction:
        return to_piecewise(self)(x)


IDENTITY = ThompsonElement([(0, 0, 0, 0)])


def to_piecewise(e: ThompsonElement) -> PiecewiseLinearMap:
    return PiecewiseLinearMap(tuple(PLPiece(Fraction(a, 1 << l), Fraction(b, 1 << m), l - m)
                                    for a, l, b, m in e.pairs))


def from_piecewise(m: PiecewiseLinearMap, max_level: int = MAX_LEVEL) -> ThompsonElement:
    """Reduced fraction of a valid map: the coarsest domain partition on
    which the map is affine with standard dyadic images."""

    def admissible(a: int, l: int) -> bool:
        left = Fraction(a, 1 << l)
        right = Fraction(a + 1, 1 << l)
        i = m.piece_index(left)
        p = m.pieces[i]
        nxt = m.pieces[i + 1].x if i + 1 < len(m.pieces) else Fraction(1)
        if right > nxt:
            return False  # straddles a breakpoint
        y = m(left)
        img_w = Fraction(1, 1 << l) * Fraction(2) ** p.c
        if y + img_w > 1:
            return False  # image wraps inside the interval
        return (y / img_w).denominator == 1  # image left endpoint aligned

    pairs: List[LeafPair] = []

    def build(a: int, l: int) -> None:
        if admissible(a, l):
            x = Fraction(a, 1 << l)
            lvl = l - m.piece_at(x).c
            pairs.append((a, l, int(m(x) * (1 << lvl)), lvl))
            return
        if l >= max_level:
            raise ValueError("not a Thompson map: no dyadic domain tree found")
        build(2 * a, l + 1)
        build(2 * a + 1, l + 1)

    build(0, 0)
    return ThompsonElement(pairs)


# ---------------------------------------------------------------------------
# composition and reduction


def _cancel(pairs: Sequence[LeafPair]) -> Sequence[LeafPair]:
    """Reduced pairs in one stack pass: a pair whose domain and image are
    both right halves merges with the top of the stack when that holds the
    matching left halves, repeatedly (the shape of `partition_to_tree`).
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
    if max(p[1] for p in stack) > MAX_LEVEL:
        raise ValueError("not a Thompson map: no dyadic domain tree found")
    return stack if merged else pairs


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


def reduce(e: ThompsonElement) -> ThompsonElement:
    """Canonical fully-cancelled fraction (idempotent); `e` itself when
    nothing cancels."""
    reduced = _cancel(e.pairs)
    return e if reduced is e.pairs else ThompsonElement(reduced)


def equal(g: ThompsonElement, h: ThompsonElement) -> bool:
    return reduce(g) == reduce(h)


def compose(g: ThompsonElement, h: ThompsonElement) -> ThompsonElement:
    """Group product g.h = g o h (h acts first), returned reduced."""
    return ThompsonElement(_cancel(_compose_pairs(g.pairs, h.pairs)))


# ---------------------------------------------------------------------------
# generators and words


def generator(name: str) -> ThompsonElement:
    """A, B, C (standard generators) or S (half rotation, S = A.C)."""
    L = LEAF
    if name == "A":
        return ThompsonElement.from_trees(caret(L, caret(L, L)), caret(caret(L, L), L))
    if name == "B":
        return ThompsonElement.from_trees(caret(L, caret(L, caret(L, L))),
                                          caret(L, caret(caret(L, L), L)))
    if name == "C":
        t = caret(L, caret(L, L))
        return ThompsonElement.from_trees(t, t, 2)
    if name == "S":
        t = caret(L, L)
        return ThompsonElement.from_trees(t, t, 1)
    raise ValueError(f"unknown generator {name!r}")


MAX_WORD_LENGTH = 1024  # generators in one word; longer words are refused
# name -> (pairs of the generator, pairs of its inverse)
_GENERATOR_PAIRS = {name: (generator(name).pairs, generator(name).inverse().pairs)
                    for name in "ABCS"}


def parse_word(word: str) -> ThompsonElement:
    """Generator word, leftmost acting last: 'A C' is A o C.

    Inverses: 'A⁻¹', 'A^-1' or 'A-1'.  At most MAX_WORD_LENGTH generators;
    the product is reduced after each one, and every reduced prefix product
    must keep its domain leaves within MAX_LEVEL.
    """
    tokens = word.split()
    if len(tokens) > MAX_WORD_LENGTH:
        raise ValueError(f"word has {len(tokens)} generators; "
                         f"at most {MAX_WORD_LENGTH} are allowed")
    pairs: Sequence[LeafPair] = IDENTITY.pairs
    for tok in tokens:
        inv = False
        base = tok
        for suffix in ("⁻¹", "^-1", "-1"):
            if tok.endswith(suffix):
                inv = True
                base = tok[: -len(suffix)]
                break
        if base not in _GENERATOR_PAIRS:
            generator(base)  # raises: unknown generator
        pairs = _cancel(_compose_pairs(pairs, _GENERATOR_PAIRS[base][inv]))
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
        return from_piecewise(PiecewiseLinearMap(tuple(
            PLPiece(_coordinate(x), _coordinate(y), c) for x, y, c in rows)))
    if "domain" not in doc or "range" not in doc:
        raise ValueError("state document needs 'word', 'pieces', or 'domain' and 'range'")
    rotation = doc.get("rotation", 0)
    if not isinstance(rotation, int):
        raise ValueError("state 'rotation' must be an integer")
    return ThompsonElement.from_trees(BinaryTree.from_nested(doc["domain"]),
                                      BinaryTree.from_nested(doc["range"]), rotation)


def _coordinate(v) -> Fraction:
    try:
        return Fraction(v)
    except (TypeError, ZeroDivisionError, OverflowError):
        raise ValueError(f"piece coordinate {v!r} is not a number") from None


def element_to_document(e: ThompsonElement) -> dict:
    e = reduce(e)
    return {"domain": _listed(e.domain_tree.to_nested()),
            "range": _listed(e.range_tree.to_nested()),
            "rotation": e.rotation}


def _listed(obj):
    if obj == 0:
        return 0
    l, r = obj
    return [_listed(l), _listed(r)]


# ---------------------------------------------------------------------------
# good partitions, slopes, Schwarzian


def good_partition(f: ThompsonElement, P: DyadicPartition) -> bool:
    """P is good iff it refines the reduced element's domain partition."""
    return is_refinement(reduce(f).domain_partition(), P)


def find_good(f: ThompsonElement, P0: DyadicPartition) -> DyadicPartition:
    return common_refinement(P0, reduce(f).domain_partition())


def slope_right(f: ThompsonElement, x: PointLike) -> int:
    """Exponent c with df/dx = 2^c as x is approached from the right."""
    return to_piecewise(f).piece_at(_as_fraction(x)).c


def schwarzian_measure(f: ThompsonElement) -> List[Tuple[DyadicRational, int]]:
    """Atomic measure at breakpoints with weights 2 (c_right - c_left).

    Elements of F contribute nothing at 0; rotations compare slopes across
    the wrap.
    """
    e = reduce(f)
    m = to_piecewise(e)
    out = []
    if e.rotation != 0:
        jump = m.pieces[0].c - m.pieces[-1].c
        if jump:
            out.append((DyadicRational.zero(), 2 * jump))
    for prev, cur in zip(m.pieces, m.pieces[1:]):
        jump = cur.c - prev.c
        if jump:
            out.append((DyadicRational.from_fraction(cur.x), 2 * jump))
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
    pulled = _compose_pairs([(q.left_numerator, q.level, q.left_numerator, q.level)
                             for q in Q], f.pairs)
    n = len(Q)
    if len(pulled) > n:
        raise ValueError("partition does not refine the range partition")
    first = next(i for i, p in enumerate(pulled) if p[2] == 0)
    P = DyadicPartition(tuple([StdInterval(a, l) for a, l, _, _ in pulled]))
    return P, [(i - first) % n for i in range(n)]


def pulled_back(f: ThompsonElement, Q: DyadicPartition, by_slot: Dict[int, np.ndarray]
                ) -> Tuple[BinaryTree, Dict[int, np.ndarray]]:
    """The vacuum tree of P' = f^{-1}(Q), and `by_slot` (slot of Q -> value)
    moved to the matching slots of P'."""
    P, sigma = pullback_partition(f, Q)
    slot_of = {q: i for i, q in enumerate(sigma)}
    return partition_to_tree(P), {slot_of[q]: v for q, v in by_slot.items()}


def transformed_vacuum_expectation_batch(f: ThompsonElement, Q: DyadicPartition,
                                         ops_by_slot: Dict[int, np.ndarray],
                                         V: Isometry3Box,
                                         pair_rooted: bool = False) -> np.ndarray:
    """<U(f) Omega| ops on Q |U(f) Omega> for batched ops (slot -> (B,d,d)).

    The transformed vacuum on Q carries the amplitudes of the vacuum tree of
    P' = f^{-1}(Q); operators attach at the pulled-back slots.  The default
    closes the root with the normalised trace (the correlator functional);
    `pair_rooted` uses the maximally entangled pair at the top caret (the
    direct-limit vacuum vector).
    """
    tree, leaf_ops = pulled_back(f, Q, ops_by_slot)
    if pair_rooted:
        return treestate.pair_vacuum_expectation_batch(tree, V, leaf_ops)
    return treestate.vacuum_expectation_batch(tree, V, leaf_ops)


def vacuum_invariance_check(f: ThompsonElement, V: Isometry3Box, level: int,
                            tol: float = 1e-10) -> Tuple[bool, float]:
    """Does U(f) fix the vacuum state?  Compares transformed against plain
    expectations of all single and double eigen-operator insertions over the
    level-`level` refinement, in the pair-rooted vacuum vector.

    Returns (all deviations <= tol, max deviation).
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
    tree = partition_to_tree(Q)
    m = len(Q)
    worst = 0.0
    for i in range(m):
        plain = treestate.pair_vacuum_expectation_batch(tree, V, {i: mus})
        moved = transformed_vacuum_expectation_batch(e, Q, {i: mus}, V,
                                                     pair_rooted=True)
        worst = max(worst, float(np.max(np.abs(plain - moved))))
    n = S.n
    pair_a = np.repeat(mus, n, axis=0)
    pair_b = np.tile(mus, (n, 1, 1))
    for i in range(m):
        for j in range(i + 1, m):
            plain = treestate.pair_vacuum_expectation_batch(
                tree, V, {i: pair_a, j: pair_b})
            moved = transformed_vacuum_expectation_batch(
                e, Q, {i: pair_a, j: pair_b}, V, pair_rooted=True)
            worst = max(worst, float(np.max(np.abs(plain - moved))))
    return worst <= tol, worst
