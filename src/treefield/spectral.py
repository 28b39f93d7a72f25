"""Ascending channel of a 3-box isometry and its biorthonormal eigensystem.

The channel acts on d x d matrices as E(X) = V^dag (X (x) I) V.  Its matrix
representation uses the matrix-unit basis E_jk in row-major order, i.e. the
row-major vectorisation vec(X)[j*d+k] = X[j,k].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

TOL_ISOMETRY = 1e-12
TOL_ZERO = 1e-12
TOL_EIGEN = 1e-10
TOL_GROUP = 1e-9  # eigenvalues this close share one eigenspace
COND_LIMIT = 1e8


@dataclass(frozen=True)
class Isometry3Box:
    """Isometry V: C^d -> C^d (x) C^d, entries <jk|V|l> at matrix[j*d+k, l]."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] ** 2:
            raise ValueError(f"isometry must be d^2 x d, got {m.shape}")
        object.__setattr__(self, "matrix", m)
        resid = np.linalg.norm(m.conj().T @ m - np.eye(self.d))
        if resid > TOL_ISOMETRY * max(1.0, self.d):
            raise ValueError(f"not an isometry (residual {resid:.3e})")

    @property
    def d(self) -> int:
        return self.matrix.shape[1]

    @property
    def tensor(self) -> np.ndarray:
        """Shape (d, d, d) with T[j, k, l] = <jk|V|l>."""
        d = self.d
        return self.matrix.reshape(d, d, d)


@dataclass(frozen=True)
class AscendingChannel:
    """Unital linear map on operators in its matrix-unit representation."""

    dimension: int
    matrix_rep: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix_rep, dtype=complex)
        n = self.dimension ** 2
        if m.shape != (n, n):
            raise ValueError(f"matrix_rep must be {n}x{n}, got {m.shape}")
        object.__setattr__(self, "matrix_rep", m)
        ident = np.eye(self.dimension).reshape(-1)
        resid = np.linalg.norm(m @ ident - ident)
        if resid > TOL_ISOMETRY * self.dimension:
            raise ValueError(f"channel not unital (residual {resid:.3e})")

    def apply(self, X: np.ndarray) -> np.ndarray:
        d = self.dimension
        return (self.matrix_rep @ np.asarray(X, dtype=complex).reshape(-1)).reshape(d, d)


def build_channel(V: Isometry3Box) -> AscendingChannel:
    """E(X) = V^dag (X (x) I) V."""
    T = V.tensor
    d = V.d
    rep = np.einsum("abl,cbm->lmac", T.conj(), T).reshape(d * d, d * d)
    return AscendingChannel(d, rep)


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues with right eigen-operators mu and biorthonormal duals nu.

    Index 0 is always (lambda = 1, mu = identity).  (nu^j, mu^k) = delta_jk
    under the normalised Hilbert-Schmidt pairing, so `expand` coefficients are
    genuine expansion coefficients.
    """

    dimension: int
    eigenvalues: np.ndarray       # (n,) complex
    right_ops: np.ndarray         # (n, d, d) the mu^alpha
    left_ops: np.ndarray          # (n, d, d) the nu^alpha

    @property
    def n(self) -> int:
        return self.dimension ** 2

    def expand(self, M: np.ndarray) -> np.ndarray:
        """Coefficients c with M = sum_a c_a mu^a."""
        M = np.asarray(M, dtype=complex)
        return np.einsum("alm,lm->a", self.left_ops.conj(), M) / self.dimension

    def moments(self) -> np.ndarray:
        """Vacuum one-point values (1/d) tr(mu^a) on the trivial partition."""
        return np.trace(self.right_ops, axis1=1, axis2=2) / self.dimension


def scaling_dimension(lam: complex) -> Tuple[float, float]:
    """(-log2 |lambda|, arg lambda); the real part governs the divergence."""
    lam = complex(lam)
    if abs(lam) <= TOL_ZERO:
        raise ValueError("zero ascending weight excluded")
    return (-math.log2(abs(lam)) + 0.0, cmath.phase(lam))


def _group_eigenvalues(w: np.ndarray) -> List[List[int]]:
    order = sorted(range(len(w)), key=lambda i: (w[i].real, w[i].imag))
    groups: List[List[int]] = []
    for i in order:
        if groups and abs(w[groups[-1][-1]] - w[i]) <= TOL_GROUP:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _orthonormalize_pivoted(basis: np.ndarray, d: int,
                            seed_vecs: Optional[np.ndarray] = None) -> np.ndarray:
    """Deterministic HS-orthonormal basis of span(columns of basis).

    Pivots over matrix-unit directions in row-major order; optional seed
    vectors are taken verbatim first.  Output columns have 2-norm sqrt(d)
    (HS norm one) and the largest-modulus entry real positive.
    """
    n = basis.shape[0]
    k = basis.shape[1]
    q, _ = np.linalg.qr(basis)
    chosen: List[np.ndarray] = []
    if seed_vecs is not None:
        for s in seed_vecs.T:
            v = s.astype(complex)
            for c in chosen:
                v = v - c * (c.conj() @ v)
            nrm = np.linalg.norm(v)
            if nrm < 1e-9:
                raise ValueError("seed vector not independent inside eigenspace")
            chosen.append(v / nrm)
    for pivot in range(n):
        if len(chosen) == k:
            break
        e = np.zeros(n, dtype=complex)
        e[pivot] = 1.0
        v = q @ (q.conj().T @ e)  # project onto the eigenspace
        for c in chosen:
            v = v - c * (c.conj() @ v)
        nrm = np.linalg.norm(v)
        if nrm > 1e-6:
            chosen.append(v / nrm)
    if len(chosen) != k:
        raise ValueError("pivoted orthonormalization failed to span eigenspace")
    out = []
    for v in chosen:
        v = v * math.sqrt(d)  # HS norm one
        flat = np.abs(v)
        imax = int(np.flatnonzero(flat >= flat.max() - 1e-12)[0])
        phase = v[imax] / abs(v[imax])
        out.append(v / phase)
    return np.column_stack(out)


def eigendecompose(E: AscendingChannel) -> SpectralData:
    """Full biorthonormal eigensystem with a deterministic ordering.

    alpha = 0 is (1, identity); the rest are sorted by descending |lambda|,
    ties by ascending phase.  Degenerate eigenspaces get a pivoted
    HS-orthonormal basis, so repeated runs are bit-identical.
    """
    d = E.dimension
    n = d * d
    w, R = np.linalg.eig(E.matrix_rep)
    cond = np.linalg.cond(R)
    if cond > COND_LIMIT:
        raise ValueError(f"defective or near-defective channel (cond {cond:.3e})")

    ident = np.eye(d, dtype=complex).reshape(-1)
    groups = _group_eigenvalues(w)

    # locate the eigenspace containing the identity
    id_group = None
    for g in groups:
        lam = w[g].mean()
        if abs(lam - 1.0) <= 1e-8:
            B = R[:, g]
            proj = B @ np.linalg.lstsq(B, ident, rcond=None)[0]
            if np.linalg.norm(proj - ident) <= 1e-8 * math.sqrt(d):
                id_group = tuple(g)
                break
    if id_group is None:
        raise ValueError("channel has no unit eigenvalue with identity eigenvector")

    blocks: List[Tuple[complex, np.ndarray]] = []
    for g in groups:
        lam = complex(w[g].mean())
        if tuple(g) == id_group:
            lam = 1.0 + 0.0j
            vecs = _orthonormalize_pivoted(R[:, g], d, seed_vecs=ident[:, None])
        else:
            vecs = _orthonormalize_pivoted(R[:, g], d)
        blocks.append((lam, vecs))

    def sort_key(block):
        lam, vecs = block
        if abs(lam - 1.0) < 1e-12 and np.allclose(vecs[:, 0], ident):
            return (0, 0.0, 0.0)
        ph = cmath.phase(lam) % (2 * math.pi)
        return (1, -abs(lam), ph)

    blocks.sort(key=sort_key)

    lams: List[complex] = []
    cols: List[np.ndarray] = []
    for lam, vecs in blocks:
        for j in range(vecs.shape[1]):
            lams.append(lam)
            cols.append(vecs[:, j])
    Rmat = np.column_stack(cols)
    Linv = np.linalg.inv(Rmat)

    mus = Rmat.T.reshape(n, d, d)
    nus = (d * Linv.conj()).reshape(n, d, d)
    return SpectralData(d, np.array(lams, dtype=complex), mus, nus)


def pinned_spectral_data(E: AscendingChannel, eigenvalues: Sequence[complex],
                         mus: Sequence[np.ndarray]) -> SpectralData:
    """Spectral data on an explicitly supplied eigenbasis (checked)."""
    d = E.dimension
    n = d * d
    lams = np.asarray(eigenvalues, dtype=complex)
    M = np.asarray(mus, dtype=complex).reshape(n, d, d)
    if not np.allclose(M[0], np.eye(d), atol=1e-12) or abs(lams[0] - 1) > 1e-12:
        raise ValueError("pinned basis must start with (1, identity)")
    for lam, mu in zip(lams, M):
        if np.linalg.norm(E.apply(mu) - lam * mu) > TOL_EIGEN * max(1.0, np.linalg.norm(mu)):
            raise ValueError("pinned matrix is not an eigen-operator of the channel")
    Rmat = M.reshape(n, n).T
    cond = np.linalg.cond(Rmat)
    if cond > COND_LIMIT:
        raise ValueError(f"defective or near-defective channel (cond {cond:.3e})")
    nus = (d * np.linalg.inv(Rmat).conj()).reshape(n, d, d)
    return SpectralData(d, lams, M, nus)


def abstract_eigenvalues(channel_matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of an abstract label-space channel, unit eigenvalue first,
    the rest by descending modulus then ascending phase."""
    m = np.asarray(channel_matrix, dtype=complex)
    w = np.linalg.eigvals(m)
    i1 = int(np.argmin(np.abs(w - 1.0)))
    if abs(w[i1] - 1.0) > 1e-10:
        raise ValueError("channel has no unit eigenvalue")
    rest = [w[i] for i in range(len(w)) if i != i1]
    rest.sort(key=lambda z: (-abs(z), cmath.phase(z) % (2 * math.pi)))
    return np.array([1.0 + 0.0j] + rest, dtype=complex)


@dataclass(frozen=True)
class SpectralRadiusReport:
    ok: bool
    spectral_radius: float
    bound: float


def spectral_radius_check(E: AscendingChannel) -> SpectralRadiusReport:
    """r(E) <= ||E(I)||_inf (largest singular value of E(I))."""
    r = float(np.max(np.abs(np.linalg.eigvals(E.matrix_rep))))
    EI = E.apply(np.eye(E.dimension))
    bound = float(np.linalg.norm(EI, 2))
    return SpectralRadiusReport(r <= bound + 1e-10, r, bound)


# ---------------------------------------------------------------------------
# [re, im] pair lists for documents (floats round-trip exactly through json)


def complex_array_to_lists(a: np.ndarray):
    a = np.asarray(a, dtype=complex)
    stacked = np.stack([a.real, a.imag], axis=-1)
    return stacked.tolist()


def complex_array_from_lists(obj) -> np.ndarray:
    message = "complex arrays must be nested lists of [re, im] pairs"
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(message) from None
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise ValueError(message)
    out = np.empty(arr.shape[:-1], dtype=complex)
    out.real = arr[..., 0]
    out.imag = arr[..., 1]
    return out
