"""Exact n-point correlation functions of renormalised field insertions on
the tree vacuum, closed two-point forms, OPE term lists, smeared one-point
expectations and staircase profiles.

Every correlator -- vacuum or Thompson-transformed state, isometry or
abstract model, point insertions or a smeared one-point sum -- goes through
one evaluator, `_evaluate`: it propagates coordinate vectors through a
product tensor and closes them with the vacuum functional.  An abstract
model supplies these in label space (f^{ab}_g and the vacuum moments), an
isometry model in matrix units (see `ModelSpec.evaluation`).  The matrix
ascent and the dense oracle in `treestate` are its references.

Positions are exact rationals; every lambda power is an integer power taken
by repeated multiplication, so negative eigenvalues never meet a complex
logarithm branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import thompson as th
from .dyadic import (BinaryTree, CirclePoint, DyadicPartition, DyadicRational,
                     PointLike, StdInterval, as_point, check_regular_level,
                     common_prefix_length, common_refinement, is_refinement,
                     minimal_supporting_partition, partition_to_tree,
                     regular_partition)
from .models import ModelSpec
from .spectral import scaling_dimension


def ipow(z: complex, k: int) -> complex:
    """z^k for integer k by repeated multiplication; 0^0 = 1."""
    if k == 0:
        return 1.0 + 0.0j
    base = complex(z)
    if k < 0:
        if base == 0:
            raise ValueError("zero ascending weight excluded")
        base = 1.0 / base
        k = -k
    out = 1.0 + 0.0j
    for _ in range(k):
        out *= base
    return out


@dataclass(frozen=True)
class FieldInsertion:
    position: CirclePoint
    label: int

    @staticmethod
    def make(position: PointLike, label, model: ModelSpec) -> "FieldInsertion":
        idx = model.label_index(label)
        if model.zero_mask()[idx]:
            raise ValueError("zero ascending weight excluded")
        return FieldInsertion(as_point(position), idx)


@dataclass(frozen=True)
class CorrelatorRequest:
    insertions: Tuple[FieldInsertion, ...]
    state: Optional[th.ThompsonElement] = None  # None = vacuum

    def __post_init__(self):
        pts = [ins.position.value for ins in self.insertions]
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise ValueError("coincident insertions")
            if a > b:
                raise ValueError("unordered tuple")

    @staticmethod
    def make(positions: Sequence[PointLike], labels: Sequence, model: ModelSpec,
             state: Optional[th.ThompsonElement] = None) -> "CorrelatorRequest":
        ins = tuple(FieldInsertion.make(p, l, model)
                    for p, l in zip(positions, labels, strict=True))
        return CorrelatorRequest(ins, state)


def request_from_document(doc: dict, model: ModelSpec) -> CorrelatorRequest:
    """{'positions': ['p/q', ...], 'labels': [...], 'state': 'vacuum' | word}"""
    if not isinstance(doc, dict):
        raise ValueError("request document must be a JSON object")
    for key in ("positions", "labels"):
        if not isinstance(doc.get(key), list):
            raise ValueError(f"request document needs a list {key!r}")
    positions = [CirclePoint.parse(str(p)) for p in doc["positions"]]
    labels = doc["labels"]
    state = None
    st = doc.get("state", "vacuum")
    if st not in (None, "vacuum"):
        state = th.element_from_document(st)
    return CorrelatorRequest.make(positions, labels, model, state)


# ---------------------------------------------------------------------------
# the correlator evaluator and the vacuum n-point


def _label_vectors(P: DyadicPartition, insertions: Sequence[FieldInsertion],
                   model: ModelSpec) -> Dict[int, np.ndarray]:
    """Slot of P -> coordinates of the weighted insertion lambda_a^{-level}
    mu^a at that interval."""
    lam = model.eigenvalues
    basis = model.evaluation.basis
    vecs: Dict[int, np.ndarray] = {}
    for ins in insertions:
        k = P.index_of(ins.position)
        if k in vecs:
            raise ValueError("partition does not support the insertions")
        vecs[k] = ipow(lam[ins.label], -P[k].level) * basis[:, ins.label]
    return vecs


def _evaluate(tree: BinaryTree, vecs: Dict[int, np.ndarray],
              model: ModelSpec) -> complex:
    """The correlator evaluator, for every model kind and state.

    Leaves carry coordinate vectors in the model's evaluation basis
    (`ModelSpec.evaluation`); a caret fuses its children with the product
    tensor, a lone child ascends with the left or right lone-child map, and
    the root closes with the vacuum functional.  Abstract models run in label
    space (f^{ab}_g and the moments), isometry models in matrix units."""
    ev = model.evaluation
    n = len(ev.closing)

    def rec(node, offset) -> Tuple[Optional[np.ndarray], int]:
        if node.is_leaf():
            return vecs.get(offset), 1
        lv, nl = rec(node.left, offset)
        rv, nr = rec(node.right, offset + nl)
        if rv is None:
            return (None if lv is None else lv @ ev.left), nl + nr
        if lv is None:
            return rv @ ev.right, nl + nr
        return rv @ (lv @ ev.pair).reshape(n, n), nl + nr

    root, _ = rec(tree, 0)
    if root is None:
        return 1.0 + 0.0j
    return complex(root @ ev.closing)


def n_point(req: CorrelatorRequest, model: ModelSpec,
            partition: Optional[DyadicPartition] = None) -> complex:
    """Correlator of the request; vacuum case on the minimal supporting
    partition (or any refinement of it), transformed case via the pulled-back
    vacuum tree.  Refinement-stable by construction."""
    if not req.insertions:
        return 1.0 + 0.0j
    state = None if req.state is None else th.reduce(req.state)
    if state is not None and state.n_leaves > 1:
        if partition is not None:
            raise ValueError("explicit partitions apply to the vacuum case only")
        return transformed_state_correlator(state, req, model)
    positions = [ins.position for ins in req.insertions]
    P = minimal_supporting_partition(positions)
    if partition is not None:
        if not is_refinement(P, partition):
            raise ValueError("partition does not refine the minimal supporting partition")
        P = partition
    return _evaluate(partition_to_tree(P), _label_vectors(P, req.insertions, model),
                     model)


# ---------------------------------------------------------------------------
# closed two-point forms


def _as_dyadic(x: PointLike) -> DyadicRational:
    p = as_point(x)
    if not p.is_dyadic():
        raise ValueError("closed form requires dyadic points")
    return p.to_dyadic()


def two_point_terms(x: PointLike, y: PointLike, alpha, beta,
                    model: ModelSpec) -> np.ndarray:
    """Per-gamma contributions of the closed two-point form."""
    dx, dy = _as_dyadic(x), _as_dyadic(y)
    if dx.as_fraction() == dy.as_fraction():
        raise ValueError("coincident points")
    a = model.label_index(alpha)
    b = model.label_index(beta)
    lam = model.eigenvalues
    if model.zero_mask()[a] or model.zero_mask()[b]:
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
    if model.zero_mask()[a] or model.zero_mask()[b]:
        raise ValueError("zero ascending weight excluded")
    f = model.fusion
    h = [scaling_dimension(lam[g])[0] if not model.zero_mask()[g] else math.inf
         for g in range(len(model.labels))]
    out = []
    for g in range(len(model.labels)):
        coeff = complex(f.coefficients[a, b, g])
        if abs(coeff) <= f.tol or model.zero_mask()[g]:
            continue
        out.append((g, coeff, h[g] - h[a] - h[b]))
    out.sort(key=lambda t: (t[2], t[0]))
    return out


# ---------------------------------------------------------------------------
# smeared one-point expectation


def smeared_expectation(pieces: Sequence[Tuple[StdInterval, np.ndarray]],
                        P: DyadicPartition, model: ModelSpec) -> complex:
    """Vacuum expectation of phi_P(f) for a piecewise-constant matrix-valued
    f; the integrals are exact (piece value times overlap length)."""
    S = model.spectral
    if S is None:
        raise ValueError("no isometry in model")
    cover = sorted(pieces, key=lambda t: t[0].left)
    left = Fraction(0)
    for iv, _ in cover:
        if iv.left != left:
            raise ValueError("non-dyadic piece boundaries or gaps in the pieces")
        left = iv.right
    if left != 1:
        raise ValueError("pieces must cover [0,1)")

    lam = model.eigenvalues
    live = ~model.zero_mask()
    basis = model.evaluation.basis
    tree = partition_to_tree(P)
    total = 0.0 + 0.0j
    for k, iv in enumerate(P):
        # f-bar coefficients of this interval, weighted per label
        fbar = np.zeros(S.n, dtype=complex)
        for piece_iv, M in cover:
            lo = max(iv.left, piece_iv.left)
            hi = min(iv.right, piece_iv.right)
            if hi > lo:
                fbar += float(hi - lo) * S.expand(M)
        vec = np.array([fbar[a] * ipow(lam[a], -iv.level) if live[a] else 0.0
                        for a in range(S.n)], dtype=complex)
        if np.any(vec):
            total += _evaluate(tree, {k: basis @ vec}, model)
    return total


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
        y = CirclePoint(Fraction(kk, 1 << grid))
        if y.value == x.value:
            continue
        if y.value < x.value:
            req = CorrelatorRequest.make([y, x], [b, a], model)
        else:
            req = CorrelatorRequest.make([x, y], [a, b], model)
        P = minimal_supporting_partition([i.position for i in req.insertions])
        P = common_refinement(P, fine)
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


def transformed_state_correlator(f: th.ThompsonElement, req: CorrelatorRequest,
                                 model: ModelSpec) -> complex:
    """Direct evaluation of <U(f) Omega| prod phi(z_j) |U(f) Omega>: the
    insertions sit on Q, the common refinement of f's range partition and
    their minimal supporting partition (the coarsest such Q when f is
    reduced), on the vacuum tree of f^{-1}(Q)."""
    positions = [ins.position for ins in req.insertions]
    Q = common_refinement(f.range_partition(), minimal_supporting_partition(positions))
    tree, vecs = th.pulled_back(f, Q, _label_vectors(Q, req.insertions, model))
    return _evaluate(tree, vecs, model)


def transformed_correlator(f: th.ThompsonElement, req: CorrelatorRequest,
                           model: ModelSpec) -> complex:
    """Covariance form: C_{|f>}(z) = prod_j lambda_{a_j}^{c_j} C(f^{-1}(z)),
    c_j the right slope exponent of f at f^{-1}(z_j).

    The factor lambda^{c} equals (df/dz)^{-h} evaluated branch-free; it must
    agree with the direct transformed-state evaluation.
    """
    e = th.reduce(f)
    inv = th.to_piecewise(e).inverse()
    lam = model.eigenvalues
    factor = 1.0 + 0.0j
    pulled: List[Tuple[Fraction, int]] = []
    for ins in req.insertions:
        xj = inv(ins.position.value)
        c = th.slope_right(e, xj)
        factor *= ipow(lam[ins.label], c)
        pulled.append((xj, ins.label))
    pulled.sort(key=lambda t: t[0])
    for (x1, _), (x2, _) in zip(pulled, pulled[1:]):
        if x1 == x2:
            raise ValueError("coincident insertions after pullback")
    base = CorrelatorRequest(tuple(
        FieldInsertion(CirclePoint(x), lab) for x, lab in pulled))
    return complex(factor * n_point(base, model))
