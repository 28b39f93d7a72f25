"""The exact `Fraction` piecewise-linear form of a Thompson element: the
independent reference that the integer leaf-pair algebra of
`treefield.thompson` is checked against (point evaluation, inverses, slopes,
the Schwarzian measure, breakpoint tables and reduction).  `fold_word` is
the left-to-right word product, the reference for `thompson.parse_word`."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from treefield.dyadic import (MAX_LEVEL, CirclePoint, LeafPair, PointLike, as_point,
                              _compose_pairs)
from treefield.thompson import (IDENTITY, MAX_WORD_LENGTH, ThompsonElement, _INVERSE_SUFFIXES,
                                _WORD_TOKENS, _cancel, generator)


def _as_fraction(x: PointLike) -> Fraction:
    """x as a `Fraction`; a `Fraction` or int is taken as it is, even outside [0,1)."""
    if isinstance(x, (CirclePoint, str)):
        return as_point(x).value
    return Fraction(x)


@dataclass(frozen=True)
class PLPiece:
    """Affine piece f(t) = y + 2^c (t - x) for t in [x, next piece's x)."""

    x: Fraction
    y: Fraction
    c: int


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """Orientation-preserving PL bijection of the circle [0,1) with dyadic
    breakpoints and power-of-two slopes; values are taken mod 1."""

    pieces: Tuple[PLPiece, ...]

    def __post_init__(self):
        ps = tuple(self.pieces)
        if not ps or ps[0].x != 0:
            raise ValueError("not a Thompson map: pieces must start at 0")
        # every image width 2^c (x_{i+1} - x_i) lies in [2^-ly, 1], so a
        # valid c lies in [-ly, lx]; checked before 2^c is computed
        lx = max(p.x.denominator for p in ps).bit_length() - 1
        ly = max(p.y.denominator for p in ps).bit_length() - 1
        widths = []
        for i, p in enumerate(ps):
            if not (0 <= p.x < 1 and 0 <= p.y < 1):
                raise ValueError("not a Thompson map: data outside [0,1)")
            if not (CirclePoint(p.x).is_dyadic() and CirclePoint(p.y).is_dyadic()):
                raise ValueError("not a Thompson map: non-dyadic breakpoint")
            if not -ly <= p.c <= lx:
                raise ValueError("not a Thompson map: slope exponent out of range")
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


def to_piecewise(e: ThompsonElement) -> PiecewiseLinearMap:
    return PiecewiseLinearMap(tuple(PLPiece(Fraction(a, 1 << l), Fraction(b, 1 << m), l - m)
                                    for a, l, b, m in e.pairs))


def from_piecewise(m: PiecewiseLinearMap) -> ThompsonElement:
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
        if l >= MAX_LEVEL:
            raise ValueError("not a Thompson map: no dyadic domain tree found")
        build(2 * a, l + 1)
        build(2 * a + 1, l + 1)

    build(0, 0)
    return ThompsonElement(pairs)


def fold_word(word: str) -> ThompsonElement:
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
        if tok not in _WORD_TOKENS:  # raises: unknown generator, named without its suffix
            generator(next((tok[:-len(s)] for s in _INVERSE_SUFFIXES if tok.endswith(s)), tok))
        pairs = _cancel(_compose_pairs(pairs, _WORD_TOKENS[tok]))
    return ThompsonElement(pairs)
