"""Fusion map F(X, Y) = V^dag (X (x) Y) V, its structure constants, the star
algebra and the (possibly nonassociative) integer fusion ring."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .spectral import (Isometry3Box, SpectralData, complex_array_from_lists,
                       complex_array_to_lists)

TOL_FUSION = 1e-10


def fuse(V: Isometry3Box, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """V^dag (X (x) Y) V as a d x d matrix."""
    T = V.tensor
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    return np.einsum("jkl,jp,kq,pqm->lm", T.conj(), X, Y, T)


def fuse_batch(T: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Batched fusion: A, B of shape (n, d, d) -> (n, d, d).

    Implemented as a batched Kronecker product between two matmuls, which
    avoids einsum path-finding overhead in tight ascent loops.
    """
    d = T.shape[0]
    Vm = T.reshape(d * d, d)
    kron = (A[:, :, None, :, None] * B[:, None, :, None, :]).reshape(-1, d * d, d * d)
    return Vm.conj().T @ kron @ Vm


@dataclass(frozen=True)
class FusionTensor:
    """Structure constants f^{ab}_g with F(mu^a, mu^b) = sum_g f^{ab}_g mu^g."""

    labels: Tuple[str, ...]
    coefficients: np.ndarray  # (n, n, n) complex, indexed [a, b, g]
    tol: float = TOL_FUSION

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        n = len(self.labels)
        if c.shape != (n, n, n):
            raise ValueError(f"fusion tensor shape mismatch: {c.shape} for {n} labels")
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n(self) -> int:
        return len(self.labels)


def fusion_coefficients(V: Isometry3Box, S: SpectralData,
                        labels: Optional[Sequence[str]] = None) -> FusionTensor:
    """f^{ab}_g = (1/d) tr((nu^g)^dag F(mu^a, mu^b)); exact expansion
    coefficients thanks to biorthonormality of S."""
    T = V.tensor
    d = V.d
    F = np.einsum("jkl,Ajp,Bkq,pqm->ABlm", T.conj(), S.right_ops, S.right_ops, T,
                  optimize=True)
    coeffs = np.einsum("Glm,ABlm->ABG", S.left_ops.conj(), F) / d
    if labels is None:
        labels = tuple(str(i) for i in range(S.n))
    return FusionTensor(tuple(labels), coeffs)


def star_product(a: np.ndarray, b: np.ndarray, f: FusionTensor) -> np.ndarray:
    """Bilinear extension of alpha * beta = sum_g f^{ab}_g gamma."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return np.einsum("a,b,abg->g", a, b, f.coefficients)


@dataclass(frozen=True)
class FusionRing:
    """0/1 tensor N^{ab}_g, read as the integer matrices [N^a]_{bg}, and flags."""

    labels: Tuple[str, ...]
    n_tensor: np.ndarray           # (n, n, n) ints in {0, 1}
    is_associative: bool           # over the boolean semiring on N
    is_commutative: bool
    star_associative: bool         # diagnostic: complex-coefficient algebra

    def matrix(self, a: int) -> np.ndarray:
        return self.n_tensor[a]


def build_ring(f: FusionTensor) -> FusionRing:
    N = (np.abs(f.coefficients) > f.tol).astype(int)
    # boolean-semiring associativity of the N-tensor
    left = np.einsum("abd,dge->abge", N, N)   # (a*b)*g
    right = np.einsum("bgd,ade->abge", N, N)  # a*(b*g)
    assoc = bool(np.array_equal(left > 0, right > 0))
    comm = bool(np.array_equal(N, N.transpose(1, 0, 2)))
    cleft = np.einsum("abd,dge->abge", f.coefficients, f.coefficients)
    cright = np.einsum("bgd,ade->abge", f.coefficients, f.coefficients)
    star_assoc = bool(np.allclose(cleft, cright, atol=max(f.tol, 1e-9)))
    return FusionRing(f.labels, N, assoc, comm, star_assoc)


# ---------------------------------------------------------------------------
# serialization


def fusion_to_document(f: FusionTensor) -> dict:
    return {"labels": list(f.labels),
            "coefficients": complex_array_to_lists(f.coefficients),
            "tol": f.tol}


def string_tuple(value, what: str) -> Tuple[str, ...]:
    """A document's list of strings, as a tuple."""
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ValueError(f"{what} must be a list of strings")
    return tuple(value)


def fusion_from_document(doc) -> FusionTensor:
    if not (isinstance(doc, dict) and "labels" in doc and "coefficients" in doc):
        raise ValueError("fusion document needs 'labels' and 'coefficients'")
    tol = doc.get("tol", TOL_FUSION)
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 <= tol < np.inf:
        raise ValueError("fusion 'tol' must be a finite number >= 0")
    return FusionTensor(string_tuple(doc["labels"], "fusion 'labels'"),
                        complex_array_from_lists(doc["coefficients"]), tol=float(tol))
