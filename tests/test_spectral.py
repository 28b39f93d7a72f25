import collections
import math

import numpy as np
import pytest

from treefield.models import preset, qutrit_isometry
from treefield.spectral import (AscendingChannel, Isometry3Box, build_channel,
                                eigendecompose, scaling_dimension,
                                spectral_radius_check)


def random_isometry(d, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(d * d, d)) + 1j * rng.normal(size=(d * d, d))
    Q, _ = np.linalg.qr(X)
    return Isometry3Box(Q)


def test_isometry_validation():
    with pytest.raises(ValueError, match="not an isometry"):
        Isometry3Box(np.ones((9, 3)))
    with pytest.raises(ValueError, match="d\\^2 x d"):
        Isometry3Box(np.eye(4))


def test_copy_isometry_channel_is_diagonal_projection():
    # V|l> = |ll>  =>  E(X) = diag(X), computed independently
    d = 2
    m = np.zeros((4, 2), dtype=complex)
    m[0, 0] = 1.0
    m[3, 1] = 1.0
    V = Isometry3Box(m)
    E = build_channel(V)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.allclose(E.apply(X), np.diag(np.diag(X)), atol=1e-14)


def test_unitality():
    for seed in range(5):
        V = random_isometry(3, seed)
        E = build_channel(V)
        assert np.linalg.norm(E.apply(np.eye(3)) - np.eye(3)) < 1e-12


def test_qutrit_eigenvalue_multiset():
    E = build_channel(qutrit_isometry())
    S = eigendecompose(E)
    counts = collections.Counter(np.round(S.eigenvalues.real, 12))
    assert counts == {1.0: 1, -0.5: 5, 0.5: 3}
    assert np.max(np.abs(S.eigenvalues.imag)) < 1e-12


def test_qutrit_pinned_basis_matches_reference_matrices():
    m = preset("qutrit")
    S = m.spectral
    assert np.array_equal(S.right_ops, m.pinned_mus)
    assert np.allclose(S.right_ops[0], np.eye(3))
    assert np.allclose(S.right_ops[m.label_index("δ¹")], np.diag([-1, 0, 1]))
    assert np.allclose(S.right_ops[m.label_index("δ²")], np.diag([-1, 1, 0]))
    a1 = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]])
    assert np.allclose(S.right_ops[m.label_index("α¹")], a1)
    b3 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    assert np.allclose(S.right_ops[m.label_index("β³")], b3)
    lam = S.eigenvalues
    assert lam[0] == 1
    for name in ("δ¹", "δ²", "α¹", "α²", "α³"):
        assert lam[m.label_index(name)] == -0.5
    for name in ("β¹", "β²", "β³"):
        assert lam[m.label_index(name)] == 0.5


def test_eigen_equations_and_biorthonormality():
    m = preset("qutrit")
    E = m.channel
    S = m.spectral
    for lam, mu in zip(S.eigenvalues, S.right_ops):
        assert np.linalg.norm(E.apply(mu) - lam * mu) < 1e-10
    gram = np.einsum("jlm,klm->jk", S.left_ops.conj(), S.right_ops) / 3
    assert np.linalg.norm(gram - np.eye(9)) < 1e-10


def test_completeness_and_expand():
    m = preset("qutrit")
    S = m.spectral
    rng = np.random.default_rng(1)
    for _ in range(100):
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        c = S.expand(M)
        assert np.linalg.norm(np.einsum("a,alm->lm", c, S.right_ops) - M) < 1e-10
    # basis cases
    c = S.expand(np.eye(3))
    assert abs(c[0] - 1) < 1e-12 and np.max(np.abs(c[1:])) < 1e-12
    for b in range(9):
        c = S.expand(S.right_ops[b])
        target = np.zeros(9)
        target[b] = 1
        assert np.linalg.norm(c - target) < 1e-10


def test_expand_against_independent_trace_loop():
    m = preset("qutrit")
    S = m.spectral
    rng = np.random.default_rng(2)
    H = rng.normal(size=(3, 3))
    H = H + H.T  # random Hermitian
    c = S.expand(H)
    for a in range(9):
        direct = 0.0
        for i in range(3):
            for j in range(3):
                direct += np.conj(S.left_ops[a][i, j]) * H[i, j]
        direct /= 3
        assert abs(c[a] - direct) < 1e-12


def test_generic_decomposition_invariants_random_isometries():
    for seed in range(6):
        V = random_isometry(2, seed)
        E = build_channel(V)
        S = eigendecompose(E)
        assert abs(S.eigenvalues[0] - 1) < 1e-12
        assert np.allclose(S.right_ops[0], np.eye(2), atol=1e-12)
        for lam, mu in zip(S.eigenvalues, S.right_ops):
            assert np.linalg.norm(E.apply(mu) - lam * mu) < 1e-9
        gram = np.einsum("jlm,klm->jk", S.left_ops.conj(), S.right_ops) / 2
        assert np.linalg.norm(gram - np.eye(4)) < 1e-9
        # ordering: descending modulus after the identity, ties by phase
        mods = np.abs(S.eigenvalues[1:])
        assert all(mods[i] >= mods[i + 1] - 1e-12 for i in range(len(mods) - 1))


def test_decomposition_determinism():
    V = qutrit_isometry()
    a = eigendecompose(build_channel(V))
    b = eigendecompose(build_channel(V))
    assert a.right_ops.tobytes() == b.right_ops.tobytes()
    assert a.left_ops.tobytes() == b.left_ops.tobytes()
    assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()


def test_defective_channel_rejected():
    # unital but defective: identity plus a nilpotent block
    rep = np.eye(4, dtype=complex)
    rep[1, 2] = 1.0
    E = AscendingChannel(2, rep)
    with pytest.raises(ValueError, match="defective or near-defective"):
        eigendecompose(E)


def test_scaling_dimension_values():
    assert scaling_dimension(1.0) == (0.0, 0.0)
    h, ph = scaling_dimension(0.5)
    assert h == 1.0 and ph == 0.0
    h, ph = scaling_dimension(-0.5)
    assert h == 1.0 and abs(ph - math.pi) < 1e-15
    h, _ = scaling_dimension(0.5 * (3 - math.sqrt(5)))
    assert abs(h - 1.388) < 1e-3
    with pytest.raises(ValueError, match="zero ascending weight"):
        scaling_dimension(0.0)


def test_spectral_radius_bound():
    rep = spectral_radius_check(build_channel(qutrit_isometry()))
    assert rep.ok and abs(rep.spectral_radius - 1) < 1e-12 and abs(rep.bound - 1) < 1e-12
    ident = AscendingChannel(2, np.eye(4, dtype=complex))
    assert spectral_radius_check(ident).ok
    for seed in range(20):
        V = random_isometry(3, seed + 100)
        assert spectral_radius_check(build_channel(V)).ok


def mirror_channel(V: Isometry3Box) -> AscendingChannel:
    """E'(Y) = V^dag (I (x) Y) V; equals E for SWAP-symmetric V."""
    T = V.tensor
    d = V.d
    rep = np.einsum("bal,bcm->lmac", T.conj(), T).reshape(d * d, d * d)
    return AscendingChannel(d, rep)


def test_mirror_channel_swap_symmetric():
    V = qutrit_isometry()
    E = build_channel(V)
    Ep = mirror_channel(V)
    assert np.allclose(E.matrix_rep, Ep.matrix_rep, atol=1e-14)
