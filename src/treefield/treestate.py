"""Vacuum functional of tree tensor-network states: the matrix reference.

Correlators are evaluated by `correlator._evaluate`; this module keeps the
operator-level engines it is checked against.  The matrix ascent
fuses operators caret by caret, children (A, B) to V^dag (A (x) B) V, and
closes the root wire with the normalised trace,
omega(M) = (1/d) tr(Phi(t)^dag M Phi(t)).  The pair-rooted variant closes
the top caret with the maximally entangled pair instead; it carries the
Thompson vacuum-invariance check.  `oracle_expectation` is the only
full-state path and is hard capped.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .dyadic import BinaryTree
from .fusion import fuse_batch
from .spectral import Isometry3Box

ORACLE_CAP_DEFAULT = 1 << 20
ORACLE_CAP_ENV = "TREEFIELD_ORACLE_CAP"


def oracle_cap() -> int:
    return int(os.environ.get(ORACLE_CAP_ENV, ORACLE_CAP_DEFAULT))


@dataclass(frozen=True)
class LabelledTree:
    """Binary tree with optional leaf operators (absent leaf = identity)."""

    tree: BinaryTree
    leaf_ops: Dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        n = self.tree.leaf_count()
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


def ascend_to_root(tree: BinaryTree, V: Isometry3Box,
                   leaf_ops: Dict[int, np.ndarray]) -> Optional[np.ndarray]:
    """Fused operator batch at the tree's root wire (None = identity)."""
    d = V.d
    T = V.tensor
    B = _batch_size(leaf_ops)
    eye = np.broadcast_to(np.eye(d, dtype=complex), (B, d, d))

    def rec(node: BinaryTree, offset: int) -> Tuple[Optional[np.ndarray], int]:
        if node.is_leaf():
            op = leaf_ops.get(offset)
            if op is None:
                return None, 1
            return np.asarray(op, dtype=complex), 1
        lv, nl = rec(node.left, offset)
        rv, nr = rec(node.right, offset + nl)
        if lv is None and rv is None:
            return None, nl + nr
        if lv is None:
            lv = eye
        if rv is None:
            rv = eye
        return fuse_batch(T, lv, rv), nl + nr

    root, _ = rec(tree, 0)
    return root


def vacuum_expectation_batch(tree: BinaryTree, V: Isometry3Box,
                             leaf_ops: Dict[int, np.ndarray]) -> np.ndarray:
    """Engine over a batch: each op has shape (B, d, d); returns (B,) values."""
    B = _batch_size(leaf_ops)
    root = ascend_to_root(tree, V, leaf_ops)
    if root is None:
        return np.ones(B, dtype=complex)
    return np.trace(root, axis1=1, axis2=2) / V.d


def vacuum_expectation(t: LabelledTree, V: Isometry3Box) -> complex:
    """omega of the labelled tree: fuse bottom-up, close the root with (1/d) tr."""
    _check_dims(t.leaf_ops, V.d)
    ops = {i: np.asarray(op, dtype=complex)[None, :, :] for i, op in t.leaf_ops.items()}
    return complex(vacuum_expectation_batch(t.tree, V, ops)[0])


def pair_vacuum_expectation_batch(tree: BinaryTree, V: Isometry3Box,
                                  leaf_ops: Dict[int, np.ndarray]) -> np.ndarray:
    """Expectation in the pair-rooted state: the top caret holds the
    maximally entangled pair (1/sqrt d) sum |jj>, every other caret is V.

    This is the direct-limit vacuum vector itself; it differs from the
    closed-root functional by how the top caret is closed.
    """
    d = V.d
    B = _batch_size(leaf_ops)
    if tree.is_leaf():
        return vacuum_expectation_batch(tree, V, leaf_ops)
    nl = tree.left.leaf_count()
    left_ops = {i: op for i, op in leaf_ops.items() if i < nl}
    right_ops = {i - nl: op for i, op in leaf_ops.items() if i >= nl}
    A = ascend_to_root(tree.left, V, left_ops)
    Bv = ascend_to_root(tree.right, V, right_ops)
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


def isometry_matrix(tree: BinaryTree, V: Isometry3Box,
                    cap: Optional[int] = None) -> np.ndarray:
    """Phi(t) as a dense (d^leaves, d) matrix (every caret replaced by V)."""
    d = V.d
    n = tree.leaf_count()
    limit = oracle_cap() if cap is None else cap
    if d ** n > limit:
        raise ValueError(f"oracle size exceeded: d^{n} = {d ** n} > cap {limit}")
    T = V.tensor

    def rec(node: BinaryTree) -> np.ndarray:
        if node.is_leaf():
            return np.eye(d, dtype=complex)
        L = rec(node.left)
        R = rec(node.right)
        tmp = np.tensordot(L, T, axes=(1, 0))        # (X, q, l)
        M = np.tensordot(tmp, R, axes=(1, 1))        # (X, l, Y)
        return M.transpose(0, 2, 1).reshape(-1, d)

    return rec(tree)


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
    phi = isometry_matrix(t.tree, V, cap=cap)
    n = t.tree.leaf_count()
    S = apply_leaf_ops(phi, n, V.d, t.leaf_ops)
    return complex(np.vdot(phi, S) / V.d)
