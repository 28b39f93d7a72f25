import numpy as np
import pytest

from treefield.dyadic import (TRIVIAL_PARTITION, DyadicPartition, StdInterval,
                              fold_tree, nested_to_leaves, regular_partition)
from treefield.models import preset
from treefield.spectral import Isometry3Box, build_channel, eigendecompose
from treefield.treestate import (LabelledTree, apply_leaf_ops, isometry_matrix,
                                 oracle_expectation,
                                 pair_vacuum_expectation_batch,
                                 vacuum_expectation)


def random_isometry(d, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(d * d, d)) + 1j * rng.normal(size=(d * d, d))
    Q, _ = np.linalg.qr(X)
    return Isometry3Box(Q)


def random_swap_isometry(d, seed):
    """SWAP-symmetric isometry: leaf-position independence needs V.SWAP = V."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(d * d, d)) + 1j * rng.normal(size=(d * d, d))
    Xs = (X.reshape(d, d, d) + X.reshape(d, d, d).transpose(1, 0, 2)).reshape(d * d, d)
    Q, _ = np.linalg.qr(Xs)
    return Isometry3Box(Q)


def tree(doc):
    """The partition of a nested tree document (0 a leaf, [left, right] a caret)."""
    return DyadicPartition(tuple(StdInterval(a, l) for a, l in nested_to_leaves(doc)))


def random_partition(rng, n_leaves):
    P = TRIVIAL_PARTITION
    for _ in range(n_leaves - 1):
        P = P.refine_at(int(rng.integers(0, len(P))))
    return P


def fold_isometry(P, V):
    """Phi(t) as a dense (d^leaves, d) matrix built bottom-up by
    `dyadic.fold_tree`, a stack pass that shares nothing with the engines'
    top-down `_walk`: each caret maps its children's (X, d) and (Y, d)
    blocks through V to one (XY, d) block."""
    d, T = V.d, V.tensor

    def join(L, R):
        M = np.tensordot(np.tensordot(L, T, axes=(1, 0)), R, axes=(1, 1))  # (X, l, Y)
        return M.transpose(0, 2, 1).reshape(-1, d)

    return fold_tree(P, lambda k: np.eye(d, dtype=complex), join)


def fold_oracle(t, V):
    """(1/d) sum_i <Phi(t) i| M |Phi(t) i> on the folded Phi(t)."""
    phi = fold_isometry(t.partition, V)
    S = apply_leaf_ops(phi, len(t.partition), V.d, t.leaf_ops)
    return complex(np.vdot(phi, S) / V.d)


def test_all_identity_leaves():
    V = preset("qutrit").isometry
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 8):
        t = LabelledTree(random_partition(rng, n))
        assert abs(vacuum_expectation(t, V) - 1.0) < 1e-14
        assert abs(oracle_expectation(t, V) - 1.0) < 1e-12
        # the state itself, not only its norm, is the folded tree's
        phi = isometry_matrix(t.partition, V)
        assert np.abs(phi - fold_isometry(t.partition, V)).max() < 1e-12


def test_one_point_law_regular_trees():
    # an eigen-operator at any leaf of the depth-m tree gives
    # lambda^m (1/d) tr(mu): one ascent per caret, root closed by the trace
    V = random_swap_isometry(2, 1)
    S = eigendecompose(build_channel(V))
    for m in range(0, 7):
        P = regular_partition(m)
        for a in (1, 2, 3):
            lam, mu = S.eigenvalues[a], S.right_ops[a]
            want = lam ** m * np.trace(mu) / 2
            leaves = [0, len(P) - 1, len(P) // 2]
            for j in sorted(set(leaves)):
                got = vacuum_expectation(LabelledTree(P, {j: mu}), V)
                assert abs(got - want) < 1e-10, (m, a, j)


def test_qutrit_one_point_values():
    # non-identity qutrit eigen-operators are traceless: all one-points vanish
    m = preset("qutrit")
    P = regular_partition(3)
    for a in range(1, 9):
        got = vacuum_expectation(LabelledTree(P, {2: m.spectral.right_ops[a]}),
                                 m.isometry)
        assert abs(got) < 1e-12


def test_engine_matches_oracle_random():
    V = preset("qutrit").isometry
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        P = random_partition(rng, n)
        ops = {}
        for j in range(n):
            if rng.random() < 0.4:
                ops[j] = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        t = LabelledTree(P, ops)
        e = vacuum_expectation(t, V)
        o = oracle_expectation(t, V)
        assert abs(e - o) < 1e-10
        ref = fold_oracle(t, V)
        assert abs(e - ref) < 1e-10
        assert abs(o - ref) < 1e-10


def test_oracle_size_cap(monkeypatch):
    V = preset("qutrit").isometry
    t = LabelledTree(regular_partition(4))  # 3^16 states
    with pytest.raises(ValueError, match="oracle size exceeded"):
        oracle_expectation(t, V)
    with pytest.raises(ValueError, match="oracle size exceeded"):
        isometry_matrix(t.partition, V, cap=100)
    # the environment variable overrides the default cap
    small = LabelledTree(regular_partition(2))
    monkeypatch.setenv("TREEFIELD_ORACLE_CAP", "10")
    with pytest.raises(ValueError, match="oracle size exceeded"):
        oracle_expectation(small, V)
    monkeypatch.setenv("TREEFIELD_ORACLE_CAP", str(1 << 21))
    oracle_expectation(small, V)


def test_refinement_below_identity_leaf_is_invariant():
    V = preset("qutrit").isometry
    rng = np.random.default_rng(3)
    mu = preset("qutrit").spectral.right_ops[3]
    base = vacuum_expectation(LabelledTree(tree([0, [0, 0]]), {1: mu}), V)
    # grow a caret below leaf 2 (identity): value unchanged
    finer = tree([0, [0, [0, 0]]])
    refined = vacuum_expectation(LabelledTree(finer, {1: mu}), V)
    assert abs(base - refined) < 1e-14


def test_dimension_mismatch():
    V = preset("qutrit").isometry
    t = LabelledTree(regular_partition(1), {0: np.eye(2)})
    with pytest.raises(ValueError, match="dimension mismatch"):
        vacuum_expectation(t, V)


def test_forest_conjugation_invariance_of_weighted_insertions():
    # lambda^{log2 |I|}-weighted eigen-insertions are refinement invariant
    V = random_isometry(2, 5)
    S = eigendecompose(build_channel(V))
    rng = np.random.default_rng(6)
    for _ in range(50):
        P = regular_partition(1)
        for _ in range(int(rng.integers(0, 4))):
            P = P.refine_at(int(rng.integers(0, len(P))))
        k = int(rng.integers(0, len(P)))
        a = int(rng.integers(0, 4))
        lam, mu = S.eigenvalues[a], S.right_ops[a]
        if abs(lam) < 1e-9:
            continue
        op = lam ** (-P[k].level) * mu
        base = vacuum_expectation(LabelledTree(P, {k: op}), V)
        Q = P.refine_at(k)  # split the insertion leaf; the op descends left
        op2 = lam ** (-Q[k].level) * mu
        refined = vacuum_expectation(LabelledTree(Q, {k: op2}), V)
        assert abs(base - refined) < 1e-10


def test_pair_vacuum_all_identity():
    V = preset("qutrit").isometry
    got = pair_vacuum_expectation_batch(regular_partition(2), V, {})
    assert got.shape == (1,) and abs(got[0] - 1.0) < 1e-14


def test_pair_vacuum_matches_state_vector():
    # independent check: build the pair-rooted state vector explicitly
    V = random_isometry(2, 7)
    rng = np.random.default_rng(8)
    left, right = [0, 0], [0, [0, 0]]
    L = isometry_matrix(tree(left), V)
    R = isometry_matrix(tree(right), V)
    vec = np.einsum("xj,yj->xy", L, R).reshape(-1) / np.sqrt(2)
    P = tree([left, right])
    n = len(P)
    ops = {0: rng.normal(size=(2, 2)), 3: rng.normal(size=(2, 2)) + 1j}
    S = vec.reshape((2,) * n)
    for idx, op in ops.items():
        S = np.moveaxis(np.tensordot(op, S, axes=(1, idx)), 0, idx)
    want = np.vdot(vec.reshape((2,) * n), S)
    batched = {i: np.asarray(op, dtype=complex)[None] for i, op in ops.items()}
    got = pair_vacuum_expectation_batch(P, V, batched)
    assert got.shape == (1,) and abs(got[0] - want) < 1e-12
