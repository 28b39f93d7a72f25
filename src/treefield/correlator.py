"""Exact n-point correlation functions of renormalised field insertions on
the tree vacuum, closed two-point forms, OPE term lists, smeared one-point
expectations and staircase profiles.

Every point correlator -- vacuum or Thompson-transformed state, isometry
or abstract model -- goes through one evaluator, `_evaluate`: a fold of the
occupied leaves through a product tensor, closed with the vacuum
functional.  It fuses neighbouring insertions at the caret of their common
binary prefix, n-1 fusions in all, and lifts each child to that caret with
one lone-child map per level.  An abstract model supplies these in label
space (f^{ab}_g and the vacuum moments), an isometry model in matrix units
(see `ModelSpec.evaluation`).  The matrix ascent and the dense oracle in
`treestate` are its references.  The smeared one-point sum occupies every
leaf, so it folds its partition (`dyadic.fold_tree`) with a linear join.

Positions are exact rationals; every lambda power is an integer power taken
by repeated multiplication (`models.ipow`), so negative eigenvalues never
meet a complex logarithm branch.  The weighted insertion lambda_a^{-l} mu^a
of a leaf of level l is taken once per model, label and level
(`ModelSpec.weights`).  A request holds its points as reduced integer pairs
(p, q) and its labels as indices, read through the model's table of names
and aliases (`ModelSpec.insertion_labels`); no evaluator or command reads
its `insertions` view of `FieldInsertion`s.  A document's points are read
by the one point reader, `dyadic.read_point`.  `dyadic` owns the leaf
geometry: the vacuum n-point evaluates on the points' leaves
(`dyadic.vacuum_leaves`), and a Thompson-transformed correlator pulls each
of those leaves, or the deeper image leaf of the state holding it, back
through one leaf pair of the state.  Neither path builds a `Fraction`, an
interval or a partition.  On an explicit `partition=` each point's leaf is
found by the one leaf lookup, `dyadic.leaf_index` (through
`DyadicPartition.index_of`); every path weights its leaves with
`_weighted`.  No `Fraction` is built here: `smeared_expectation` measures
its pieces in integer units of 2^-L, L the deepest level among the
partition and the pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import thompson as th
from .dyadic import (CirclePoint, DyadicPartition, PointLike, StdInterval,
                     as_point, check_leaf, check_point_order,
                     check_regular_level, common_prefix_length,
                     common_refinement, fold_tree, is_refinement,
                     minimal_supporting_partition, read_point,
                     regular_partition, vacuum_leaves)
from .models import ModelSpec, ipow
from .spectral import scaling_dimension


@dataclass(frozen=True)
class FieldInsertion:
    """One insertion of a request; kept for `perfbench/workloads.py`, whose
    checks read `CorrelatorRequest.insertions`."""

    position: CirclePoint
    label: int


# the error of a request whose positions and labels differ in number
LENGTHS_DIFFER = "number of positions and field labels differ"


@dataclass(frozen=True)
class CorrelatorRequest:
    """Insertion i is the field of label index labels[i] at the point p/q,
    points[i] = (p, q) reduced with 0 <= p < q; the points strictly
    increase."""

    points: Tuple[Tuple[int, int], ...]
    labels: Tuple[int, ...]
    state: Optional[th.ThompsonElement] = None  # None = vacuum

    def __post_init__(self):
        check_point_order(self.points)

    def positions(self) -> List[CirclePoint]:
        """The insertion points as `CirclePoint`s, in order."""
        return [CirclePoint(p, q) for p, q in self.points]

    @cached_property
    def insertions(self) -> Tuple[FieldInsertion, ...]:
        """The request as `FieldInsertion`s, built on first read; kept for
        `perfbench/workloads.py`, since nothing in the library reads it."""
        return tuple(map(FieldInsertion, self.positions(), self.labels))

    @staticmethod
    def make(positions: Sequence[PointLike], labels: Sequence, model: ModelSpec,
             state: Optional[th.ThompsonElement] = None) -> "CorrelatorRequest":
        """Each label (`ModelSpec.insertion_label`), then its position, in
        turn; then the counts, then the point order."""
        points, idx = [], []
        for x, label in zip(positions, labels):
            idx.append(model.insertion_label(label))
            pt = as_point(x)
            points.append((pt.p, pt.q))
        if len(positions) != len(labels):
            raise ValueError(LENGTHS_DIFFER)
        return CorrelatorRequest(tuple(points), tuple(idx), state)


def request_from_document(doc: dict, model: ModelSpec) -> CorrelatorRequest:
    """{'positions': ['p/q', ...], 'labels': [...], 'state': 'vacuum' | word}

    Checked in this order: every point, the state, each label up to the
    number of points (`ModelSpec.insertion_labels`), the counts, the point
    order."""
    if not isinstance(doc, dict):
        raise ValueError("request document must be a JSON object")
    for key in ("positions", "labels"):
        if not isinstance(doc.get(key), list):
            raise ValueError(f"request document needs a list {key!r}")
    points = tuple([read_point(str(x)) for x in doc["positions"]])
    state = None
    st = doc.get("state", "vacuum")
    if st not in (None, "vacuum"):
        state = th.element_from_document(st)
    labels = doc["labels"]
    idx = model.insertion_labels(labels[:len(points)])
    if len(labels) != len(points):
        raise ValueError(LENGTHS_DIFFER)
    return CorrelatorRequest(points, idx, state)


# ---------------------------------------------------------------------------
# the correlator evaluator and the vacuum n-point

# an occupied leaf (a, l, vec): the interval [a/2^l, (a+1)/2^l) holds vec
Leaf = Tuple[int, int, np.ndarray]


def _weighted(leaves: Iterable[Tuple[int, int]], labels: Sequence[int],
              model: ModelSpec) -> List[Leaf]:
    """(a, l, vec) for each label on its leaf (a, l): vec holds the
    coordinates of the weighted insertion lambda_a^{-l} mu^a
    (`ModelSpec.weights`)."""
    weights = model.weights
    return [(a, l, weights[label, l]) for (a, l), label in zip(leaves, labels)]


def _evaluate(leaves: Sequence[Leaf], model: ModelSpec) -> complex:
    """The correlator evaluator, for every model kind and state.

    `leaves` are the occupied leaves (a, l, vec) left to right, vec in the
    evaluation basis (`ModelSpec.evaluation`).  With A = a << (L - l) a
    leaf's numerator at the deepest level L, neighbours meet at the caret
    of level L - bit_length(A xor A'), and one stack pass folds the
    Cartesian tree of those levels (Vuillemin 1980): each caret fuses its
    two children with the product tensor, after lifting each from its own
    level to the caret's by one lone-child map per level, the left map
    where its binary digit at that level is 0 and the right map where it
    is 1.  The root is lifted to level 0 and closed with the vacuum
    functional.  Label space for abstract models, matrix units for
    isometry models."""
    if not leaves:
        return 1.0 + 0.0j
    ev = model.evaluation
    n = len(ev.closing)
    left_map, right_map, pair = ev.left, ev.right, ev.pair
    L = max(l for _, l, _ in leaves)

    def lift(A: int, l: int, v: np.ndarray, level: int) -> np.ndarray:
        while l > level:
            v = v @ (right_map if A >> (L - l) & 1 else left_map)
            l -= 1
        return v

    As = [a << (L - l) for a, l, _ in leaves]
    carets = [L - (x ^ y).bit_length() for x, y in zip(As, As[1:])]
    # stack: (A, l, v, c) per finished subtree, rooted at level l and holding
    # v, with c the level of the caret joining it to its right neighbour;
    # A is the numerator of any leaf inside, all of which agree down to l.
    # The last leaf gets caret -1, above the root, so everything folds.
    stack: List[Tuple[int, int, np.ndarray, int]] = []
    for A, (_, l, v), c in zip(As, leaves, carets + [-1]):
        while stack and stack[-1][3] > c:
            lA, ll, lv, lc = stack.pop()
            v = lift(A, l, v, lc + 1) @ (lift(lA, ll, lv, lc + 1) @ pair).reshape(n, n)
            A, l = lA, lc
        stack.append((A, l, v, c))
    [(A, l, v, _)] = stack
    return complex(lift(A, l, v, 0) @ ev.closing)


def n_point(req: CorrelatorRequest, model: ModelSpec,
            partition: Optional[DyadicPartition] = None) -> complex:
    """Correlator of the request; vacuum case on the minimal supporting
    partition (or any refinement of it), transformed case via the pulled-back
    vacuum tree.  Refinement-stable by construction."""
    if not req.points:
        return 1.0 + 0.0j
    state = None if req.state is None else th.reduce(req.state)
    if state is not None and state.n_leaves > 1:
        if partition is not None:
            raise ValueError("explicit partitions apply to the vacuum case only")
        return transformed_state_correlator(state, req, model)
    if partition is None:
        leaves = vacuum_leaves(req.points)
    else:
        positions = req.positions()
        if not is_refinement(minimal_supporting_partition(positions), partition):
            raise ValueError("partition does not refine the minimal supporting partition")
        # each leaf of P lies inside an interval of the minimal supporting
        # partition, which holds at most one point: no two points share a leaf
        leaves = [partition[partition.index_of(x)] for x in positions]
    return _evaluate(_weighted(leaves, req.labels, model), model)


# ---------------------------------------------------------------------------
# closed two-point forms


def two_point_terms(x: PointLike, y: PointLike, alpha, beta,
                    model: ModelSpec) -> np.ndarray:
    """Per-gamma contributions of the closed two-point form."""
    points = []
    for v in (x, y):  # each point read and checked in turn
        points.append(as_point(v))
        if not points[-1].is_dyadic():
            raise ValueError("closed form requires dyadic points")
    dx, dy = points
    if dx == dy:
        raise ValueError("coincident points")
    a = model.label_index(alpha)
    b = model.label_index(beta)
    lam = model.eigenvalues
    zero = model.zero_weight
    if zero[a] or zero[b]:
        raise ValueError("zero ascending weight excluded")
    moments = model.vacuum_moments
    if moments is None:
        raise ValueError("vacuum moments required")
    l = common_prefix_length(dx, dy)
    pref = ipow(lam[a], -(l + 1)) * ipow(lam[b], -(l + 1))
    f = model.fusion.coefficients
    n = len(model.labels)
    return np.array([pref * f[a, b, g] * ipow(lam[g], l) * moments[g]
                     for g in range(n)], dtype=complex)


def two_point_closed(x: PointLike, y: PointLike, alpha, beta,
                     model: ModelSpec) -> complex:
    """C(x,y) = sum_g lambda_g^{-1} D(x,y)^{log l_a + log l_b - log l_g}
    f^{ab}_g <Omega|mu^g|Omega>, evaluated with integer powers only."""
    return complex(two_point_terms(x, y, alpha, beta, model).sum())


def regular_two_point(m: int, j: int, k: int, alpha, beta,
                      model: ModelSpec) -> complex:
    """Bare two-point value of mu insertions at leaves j < k of the regular
    depth-m tree: (l_a l_b)^{d_T - 1} sum_g f^{ab}_g l_g^{m - d_T} v_g."""
    if not (0 <= j < k < (1 << m)):
        raise ValueError(f"index range: need 0 <= j < k < 2^{m}")
    a = model.label_index(alpha)
    b = model.label_index(beta)
    lam = model.eigenvalues
    moments = model.vacuum_moments
    if moments is None:
        raise ValueError("vacuum moments required")
    d_t = (j ^ k).bit_length()  # tree metric between the two leaves
    pref = ipow(lam[a], d_t - 1) * ipow(lam[b], d_t - 1)
    f = model.fusion.coefficients
    total = 0.0 + 0.0j
    for g in range(len(model.labels)):
        total += f[a, b, g] * ipow(lam[g], m - d_t) * moments[g]
    return complex(pref * total)


# ---------------------------------------------------------------------------
# OPE


def ope_terms(alpha, beta, model: ModelSpec) -> List[Tuple[int, complex, float]]:
    """(gamma, f^{ab}_g, h_g - h_a - h_b) sorted most divergent first;
    zero coefficients and zero-weight channels omitted."""
    a = model.label_index(alpha)
    b = model.label_index(beta)
    lam = model.eigenvalues
    zero = model.zero_weight
    if zero[a] or zero[b]:
        raise ValueError("zero ascending weight excluded")
    f = model.fusion
    h = [math.inf if zero[g] else scaling_dimension(lam[g])[0]
         for g in range(len(model.labels))]
    out = []
    for g in range(len(model.labels)):
        coeff = complex(f.coefficients[a, b, g])
        if abs(coeff) <= f.tol or zero[g]:
            continue
        out.append((g, coeff, h[g] - h[a] - h[b]))
    out.sort(key=lambda t: (t[2], t[0]))
    return out


# ---------------------------------------------------------------------------
# smeared one-point expectation


def smeared_expectation(pieces: Sequence[Tuple[StdInterval, np.ndarray]],
                        P: DyadicPartition, model: ModelSpec) -> complex:
    """Vacuum expectation of phi_P(f) for a piecewise-constant matrix-valued
    f; the integrals are exact (piece value times overlap length).  Each
    piece must be a standard interval of [0,1) (`dyadic.check_leaf`)."""
    S = model.spectral
    if S is None:
        raise ValueError("no isometry in model")
    for iv, _ in pieces:
        check_leaf(*iv)
    # interval ends in integer units of 2^-L, L the deepest level of P and the pieces
    L = max(l for _, l in [*P, *(iv for iv, _ in pieces)])

    def ends(a: int, l: int) -> Tuple[int, int]:
        return a << (L - l), (a + 1) << (L - l)

    cover = sorted([(*ends(*iv), M) for iv, M in pieces], key=lambda t: t[0])
    end = 0
    for start, stop, _ in cover:
        if start != end:
            raise ValueError("non-dyadic piece boundaries or gaps in the pieces")
        end = stop
    if end != 1 << L:
        raise ValueError("pieces must cover [0,1)")

    lam = model.eigenvalues
    zero = model.zero_weight
    ev = model.evaluation

    # one merge walk over P and the sorted pieces: expanded[j] is the first
    # piece reaching into iv, and it stays current while it reaches past iv
    expanded = [(start, stop, S.expand(M)) for start, stop, M in cover]
    leaves: List[np.ndarray] = []
    j = 0
    for iv in P:
        start, stop = ends(*iv)
        fbar = np.zeros(S.n, dtype=complex)  # f-bar coefficients of iv
        while True:
            piece_start, piece_stop, c = expanded[j]
            # int / int rounds once, as float(Fraction) does
            fbar += (min(stop, piece_stop) - max(start, piece_start)) / (1 << L) * c
            if piece_stop > stop:
                break
            j += 1
            if piece_stop == stop:
                break
        vec = np.array([0.0 if zero[a] else fbar[a] * ipow(lam[a], -iv.level)
                        for a in range(S.n)], dtype=complex)
        leaves.append(ev.basis @ vec)

    # phi_P(f) is a sum of single-insertion terms: by linearity a caret lifts
    # its left terms' sum by the left lone-child map, its right terms' by the right
    root = fold_tree(P, leaves.__getitem__, lambda lv, rv: lv @ ev.left + rv @ ev.right)
    return complex(root @ ev.closing)


# ---------------------------------------------------------------------------
# staircase profile


def staircase_samples(x_fixed: PointLike, alpha, beta, depth: int, grid: int,
                      model: ModelSpec) -> List[Tuple[str, float, float, float]]:
    """Rows (y, Re C, Im C, |C|) over the uniform dyadic grid of 2^grid
    points, evaluated on the minimal supporting partition refined to at
    least `depth` (the value is refinement-stable)."""
    check_regular_level(depth, "depth")
    check_regular_level(grid, "grid")
    fine = regular_partition(depth)
    x = as_point(x_fixed)
    a = model.label_index(alpha)
    b = model.label_index(beta)
    rows = []
    for kk in range(1 << grid):
        y = CirclePoint(kk, 1 << grid)
        if y == x:
            continue
        pts, labels = ([y, x], [b, a]) if y < x else ([x, y], [a, b])
        req = CorrelatorRequest.make(pts, labels, model)
        P = common_refinement(minimal_supporting_partition(pts), fine)
        val = n_point(req, model, partition=P)
        rows.append((f"{kk}/{1 << grid}", val.real, val.imag, abs(val)))
    return rows


def staircase_csv(rows: Sequence[Tuple[str, float, float, float]]) -> str:
    lines = ["y,re,im,abs"]
    for y, re, im, ab in rows:
        lines.append(f"{y},{re!r},{im!r},{ab!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Thompson-transformed correlators


def _transformed_leaves(f: th.ThompsonElement, req: CorrelatorRequest,
                        model: ModelSpec) -> List[Leaf]:
    """The occupied leaves of the pulled-back tree, left to right.  The
    insertion at z sits on Q, the common refinement of f's range partition
    and the minimal supporting partition, in the deeper of two leaves that
    hold z: its vacuum leaf (c, k) and the image [b/2^m, (b+1)/2^m) of f's
    pair (a, l, b, m) holding z.  That leaf, of level k >= m, is weighted at
    level k and pulled back through the pair's affine piece to
    ((a << d) + c - (b << d), l + d), d = k - m."""
    pairs = [f.image_pair_at(p, q) for p, q in req.points]
    on_q = [(b, m) if k <= m else (c, k)
            for (c, k), (_, _, b, m) in zip(vacuum_leaves(req.points), pairs)]
    leaves = []
    for (c, k, vec), (a, l, b, m) in zip(_weighted(on_q, req.labels, model), pairs):
        d = k - m
        leaves.append(((a << d) + c - (b << d), l + d, vec))
    L = max((l for _, l, _ in leaves), default=0)
    leaves.sort(key=lambda leaf: leaf[0] << (L - leaf[1]))
    return leaves


def transformed_state_correlator(f: th.ThompsonElement, req: CorrelatorRequest,
                                 model: ModelSpec) -> complex:
    """Direct evaluation of <U(f) Omega| prod phi(z_j) |U(f) Omega>: the
    vacuum correlator on the pulled-back tree f^{-1}(Q), Q the common
    refinement of f's range partition and the insertions' minimal supporting
    partition (the coarsest such Q when f is reduced), read from one leaf
    pair of f per insertion with no partition built; the reference,
    `thompson.pullback_partition`, builds f^{-1}(Q) in full."""
    return _evaluate(_transformed_leaves(f, req, model), model)


def transformed_correlator(f: th.ThompsonElement, req: CorrelatorRequest,
                           model: ModelSpec) -> complex:
    """Covariance form: C_{|f>}(z) = prod_j lambda_{a_j}^{c_j} C(f^{-1}(z)),
    c_j the right slope exponent of f at f^{-1}(z_j).

    The factor lambda^{c} equals (df/dz)^{-h} evaluated branch-free; it must
    agree with the direct transformed-state evaluation.
    """
    e = th.reduce(f)
    inv = e.inverse()
    lam = model.eigenvalues
    factor = 1.0 + 0.0j
    pulled: List[Tuple[CirclePoint, int]] = []
    for x, a in zip(req.positions(), req.labels):
        xj = inv(x)
        factor *= ipow(lam[a], th.slope_right(e, xj))
        pulled.append((xj, a))
    pulled.sort(key=lambda t: t[0])
    for (x1, _), (x2, _) in zip(pulled, pulled[1:]):
        if x1 == x2:
            raise ValueError("coincident insertions after pullback")
    base = CorrelatorRequest(tuple((x.p, x.q) for x, _ in pulled), tuple(a for _, a in pulled))
    return complex(factor * n_point(base, model))
