"""Vacuum functional of tree tensor-network states: the matrix reference.

Correlators are evaluated by `correlator._evaluate`; this module keeps the
operator-level engines it is checked against.  The matrix ascent
fuses operators caret by caret, children (A, B) to V^dag (A (x) B) V, and
closes the root wire with the normalised trace,
omega(M) = (1/d) tr(Phi(t)^dag M Phi(t)).  The pair-rooted variant closes
the top caret with the maximally entangled pair instead; it carries the
Thompson vacuum-invariance check.  `oracle_expectation` is the only
full-state path and is hard capped.  A tree is its dyadic partition, and
these engines walk it top-down (`_walk`), splitting a slot range at its
midpoint by bisection: a traversal kept apart from the evaluator's fold of
occupied leaves and from `dyadic.fold_tree`, since a reference that shared
either would share its faults.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, TypeVar

import numpy as np

from .dyadic import DyadicPartition
from .fusion import fuse_batch
from .spectral import Isometry3Box

Node = TypeVar("Node")
ORACLE_CAP_DEFAULT = 1 << 20
ORACLE_CAP_ENV = "TREEFIELD_ORACLE_CAP"


def oracle_cap() -> int:
    return int(os.environ.get(ORACLE_CAP_ENV, ORACLE_CAP_DEFAULT))


@dataclass(frozen=True)
class LabelledTree:
    """A partition's tree with optional leaf operators (absent leaf = identity)."""

    partition: DyadicPartition
    leaf_ops: Dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.partition)
        for idx in self.leaf_ops:
            if not 0 <= idx < n:
                raise ValueError(f"leaf index {idx} out of range for {n} leaves")


def _check_dims(ops: Dict[int, np.ndarray], d: int):
    for idx, op in ops.items():
        if np.asarray(op).shape[-2:] != (d, d):
            raise ValueError(
                f"dimension mismatch: op at leaf {idx} is {np.asarray(op).shape}, d={d}")


def _batch_size(leaf_ops: Dict[int, np.ndarray]) -> int:
    sizes = {np.asarray(op).shape[0] for op in leaf_ops.values()}
    if len(sizes) > 1:
        raise ValueError("inconsistent batch sizes")
    return sizes.pop() if sizes else 1


def _split(P: DyadicPartition, lo: int, hi: int, a: int, l: int) -> int:
    """First slot in the right half of P[lo:hi], two or more slots covering
    [a/2^l, (a+1)/2^l): [c/2^m, ...) starts left of the midpoint iff
    c 2^(l+1) < (2a+1) 2^m."""
    mid = 2 * a + 1
    k, top = lo + 1, hi - 1
    while k < top:
        probe = (k + top) // 2
        iv = P[probe]
        if iv.left_numerator << (l + 1) < mid << iv.level:
            k = probe + 1
        else:
            top = probe
    return k


def _walk(P: DyadicPartition, leaf: Callable[[int], Node], join: Callable[[Node, Node], Node],
          lo: int, hi: int, a: int, l: int) -> Node:
    """P[lo:hi], covering [a/2^l, (a+1)/2^l), folded top-down: one slot k is
    `leaf(k)`; more split at the midpoint into `join(left, right)`."""
    if hi - lo == 1:
        return leaf(lo)
    k = _split(P, lo, hi, a, l)
    return join(_walk(P, leaf, join, lo, k, 2 * a, l + 1),
                _walk(P, leaf, join, k, hi, 2 * a + 1, l + 1))


def _ascend(P: DyadicPartition, V: Isometry3Box, leaf_ops: Dict[int, np.ndarray],
            lo: int, hi: int, a: int, l: int) -> Optional[np.ndarray]:
    """Fused operator batch at the wire above P[lo:hi] (None = identity)."""
    T = V.tensor
    eye = np.broadcast_to(np.eye(V.d, dtype=complex), (_batch_size(leaf_ops), V.d, V.d))
    ops = {k: np.asarray(op, dtype=complex) for k, op in leaf_ops.items()}

    def join(lv: Optional[np.ndarray], rv: Optional[np.ndarray]) -> Optional[np.ndarray]:
        if lv is None and rv is None:
            return None
        return fuse_batch(T, eye if lv is None else lv, eye if rv is None else rv)

    return _walk(P, ops.get, join, lo, hi, a, l)


def vacuum_expectation_batch(P: DyadicPartition, V: Isometry3Box,
                             leaf_ops: Dict[int, np.ndarray]) -> np.ndarray:
    """Engine over a batch: each op has shape (B, d, d); returns (B,) values."""
    B = _batch_size(leaf_ops)
    root = _ascend(P, V, leaf_ops, 0, len(P), 0, 0)
    if root is None:
        return np.ones(B, dtype=complex)
    return np.trace(root, axis1=1, axis2=2) / V.d


def vacuum_expectation(t: LabelledTree, V: Isometry3Box) -> complex:
    """omega of the labelled tree: fuse bottom-up, close the root with (1/d) tr."""
    _check_dims(t.leaf_ops, V.d)
    ops = {i: np.asarray(op, dtype=complex)[None, :, :] for i, op in t.leaf_ops.items()}
    return complex(vacuum_expectation_batch(t.partition, V, ops)[0])


def pair_vacuum_expectation_batch(P: DyadicPartition, V: Isometry3Box,
                                  leaf_ops: Dict[int, np.ndarray]) -> np.ndarray:
    """Expectation in the pair-rooted state: the top caret holds the
    maximally entangled pair (1/sqrt d) sum |jj>, every other caret is V.

    This is the direct-limit vacuum vector itself; it differs from the
    closed-root functional by how the top caret is closed.
    """
    d = V.d
    B = _batch_size(leaf_ops)
    n = len(P)
    if n == 1:
        return vacuum_expectation_batch(P, V, leaf_ops)
    k = _split(P, 0, n, 0, 0)
    A = _ascend(P, V, leaf_ops, 0, k, 0, 1)
    Bv = _ascend(P, V, leaf_ops, k, n, 1, 1)
    if A is None and Bv is None:
        return np.ones(B, dtype=complex)
    if A is None:
        return np.trace(Bv, axis1=1, axis2=2) / d
    if Bv is None:
        return np.trace(A, axis1=1, axis2=2) / d
    # <Omega_2| A (x) B |Omega_2> = (1/d) sum_{jk} A_{jk} B_{jk}
    return np.einsum("bjk,bjk->b", A, Bv) / d


# ---------------------------------------------------------------------------
# brute-force oracle


def isometry_matrix(P: DyadicPartition, V: Isometry3Box,
                    cap: Optional[int] = None) -> np.ndarray:
    """Phi(t) as a dense (d^leaves, d) matrix (every caret replaced by V)."""
    d = V.d
    n = len(P)
    limit = oracle_cap() if cap is None else cap
    if d ** n > limit:
        raise ValueError(f"oracle size exceeded: d^{n} = {d ** n} > cap {limit}")
    T = V.tensor

    def join(L: np.ndarray, R: np.ndarray) -> np.ndarray:
        tmp = np.tensordot(L, T, axes=(1, 0))        # (X, q, l)
        M = np.tensordot(tmp, R, axes=(1, 1))        # (X, l, Y)
        return M.transpose(0, 2, 1).reshape(-1, d)

    return _walk(P, lambda k: np.eye(d, dtype=complex), join, 0, n, 0, 0)


def apply_leaf_ops(phi: np.ndarray, n_leaves: int, d: int,
                   leaf_ops: Dict[int, np.ndarray]) -> np.ndarray:
    """Apply (x)_j O_j (identity where absent) to each column of Phi."""
    S = phi.reshape((d,) * n_leaves + (phi.shape[1],))
    for idx, op in leaf_ops.items():
        S = np.moveaxis(np.tensordot(np.asarray(op, dtype=complex), S, axes=(1, idx)),
                        0, idx)
    return S.reshape(phi.shape)


def oracle_expectation(t: LabelledTree, V: Isometry3Box,
                       cap: Optional[int] = None) -> complex:
    """(1/d) sum_i <Phi(t) i| M |Phi(t) i> by materialising the full state."""
    _check_dims(t.leaf_ops, V.d)
    phi = isometry_matrix(t.partition, V, cap=cap)
    S = apply_leaf_ops(phi, len(t.partition), V.d, t.leaf_ops)
    return complex(np.vdot(phi, S) / V.d)
