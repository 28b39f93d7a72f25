import json

import numpy as np
import pytest

from qutrit_table import expected_outputs
from treefield.fusion import (FusionTensor, build_ring, fuse,
                              fusion_from_document, fusion_to_document,
                              star_product)
from treefield.models import preset
from treefield.spectral import build_channel


@pytest.fixture(scope="module")
def qutrit():
    return preset("qutrit")


def test_fuse_identity_pair(qutrit):
    V = qutrit.isometry
    assert np.allclose(fuse(V, np.eye(3), np.eye(3)), np.eye(3), atol=1e-14)


def test_fuse_with_identity_is_channel(qutrit):
    # SWAP-symmetric V: F(X, I) = E(X)
    V = qutrit.isometry
    E = build_channel(V)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.allclose(fuse(V, X, np.eye(3)), E.apply(X), atol=1e-13)
    assert np.allclose(fuse(V, np.eye(3), X), E.apply(X), atol=1e-13)


def test_qutrit_delta_pair_coefficients(qutrit):
    f = qutrit.fusion
    i = qutrit.label_index
    got = f.coefficients[i("δ¹"), i("δ²")]
    assert abs(got[i("1")] - (-1 / 6)) < 1e-12
    assert abs(got[i("δ¹")] - (-1 / 3)) < 1e-12
    assert abs(got[i("δ²")] - (-1 / 3)) < 1e-12
    nz = {k for k in range(9) if abs(got[k]) > 1e-10}
    assert nz == {i("1"), i("δ¹"), i("δ²")}


def test_qutrit_off_diagonal_coefficient_oracle(qutrit):
    # F(β², α³) = (1/2) α¹ exactly, so the expansion coefficient is 1/2.
    V = qutrit.isometry
    S = qutrit.spectral
    i = qutrit.label_index
    F = fuse(V, S.right_ops[i("β²")], S.right_ops[i("α³")])
    assert np.allclose(F, 0.5 * S.right_ops[i("α¹")], atol=1e-13)
    got = qutrit.fusion.coefficients[i("β²"), i("α³")]
    assert abs(got[i("α¹")] - 0.5) < 1e-12
    others = [abs(got[k]) for k in range(9) if k != i("α¹")]
    assert max(others) < 1e-12


def test_identity_row(qutrit):
    f = qutrit.fusion.coefficients
    lam = qutrit.eigenvalues
    # f^{0b}_g = lambda-consistent single column: F(I, mu^b) = E(mu^b)
    for b in range(9):
        for g in range(9):
            want = lam[b] if g == b else 0.0
            assert abs(f[0, b, g] - want) < 1e-12
            assert abs(f[b, 0, g] - want) < 1e-12
    assert abs(f[0, 0, 0] - 1) < 1e-14


def test_reconstruction_all_pairs(qutrit):
    V = qutrit.isometry
    S = qutrit.spectral
    f = qutrit.fusion.coefficients
    for a in range(9):
        for b in range(9):
            F = fuse(V, S.right_ops[a], S.right_ops[b])
            rec = np.einsum("g,glm->lm", f[a, b], S.right_ops)
            assert np.linalg.norm(F - rec) < 1e-10


def test_swap_symmetry(qutrit):
    f = qutrit.fusion.coefficients
    assert np.allclose(f, np.transpose(f, (1, 0, 2)), atol=1e-12)


def test_qutrit_n_pattern_matches_table(qutrit):
    ring = qutrit.ring
    labels = qutrit.labels
    for a, la in enumerate(labels):
        for b, lb in enumerate(labels):
            got = {labels[g] for g in range(9) if ring.n_tensor[a, b, g]}
            assert got == set(expected_outputs(la, lb)), (la, lb, got)


def test_star_product_basis_and_bilinearity(qutrit):
    f = qutrit.fusion
    e = np.eye(9)
    out = star_product(e[0], e[3], f)
    assert np.allclose(out, f.coefficients[0, 3], atol=1e-14)
    i = qutrit.label_index
    out = star_product(e[i("β²")], e[i("α³")], f)
    assert abs(out[i("α¹")] - 0.5) < 1e-12
    rng = np.random.default_rng(1)
    a, b, c = rng.normal(size=(3, 9))
    lhs = star_product(a + 2 * b, c, f)
    rhs = star_product(a, c, f) + 2 * star_product(b, c, f)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_fibonacci_ring():
    fib = preset("fibonacci")
    ring = fib.ring
    assert np.array_equal(ring.n_tensor[0], np.eye(2, dtype=int))
    assert np.array_equal(ring.n_tensor[1], np.array([[0, 1], [1, 1]]))
    # tau x tau = 1 + tau over the integers
    n_tau = ring.n_tensor[1]
    assert np.array_equal(n_tau @ n_tau, ring.n_tensor[0] + n_tau)
    assert ring.is_associative and ring.is_commutative


def test_delta_tensor_ring_flags():
    n = 4
    coeffs = np.zeros((n, n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            coeffs[a, b, (a + b) % n] = 1.0  # cyclic group algebra
    f = FusionTensor(tuple("wxyz"), coeffs)
    ring = build_ring(f)
    assert ring.is_associative and ring.is_commutative
    # the complex-coefficient star algebra is associative too
    cleft = np.einsum("abd,dge->abge", f.coefficients, f.coefficients)
    cright = np.einsum("bgd,ade->abge", f.coefficients, f.coefficients)
    assert np.allclose(cleft, cright, atol=max(f.tol, 1e-9))


def test_fusion_serialization_round_trip(qutrit):
    doc = json.loads(json.dumps(fusion_to_document(qutrit.fusion)))
    f2 = fusion_from_document(doc)
    assert f2.labels == qutrit.fusion.labels
    assert f2.coefficients.tobytes() == np.ascontiguousarray(
        qutrit.fusion.coefficients).tobytes()
