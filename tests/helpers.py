"""Test fixtures and references that no path of `treefield` needs:
`supports`, the independent check that a partition holds at most one point
per interval (the reference for minimal-partition minimality), `refine_at`
and `halves`, which grow a partition one split at a time,
`degenerate_isometry`, a valid isometry that is not planar perfect, and
`random_isometry`, a seeded random one (both also written into the corpora
by `corpus/make_corpus.py`)."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from treefield.dyadic import DyadicPartition, PointLike, StdInterval
from treefield.spectral import Isometry3Box


def supports(P: DyadicPartition, points: Sequence[PointLike]) -> bool:
    idx = [P.index_of(p) for p in points]
    return len(set(idx)) == len(idx)


def halves(iv: StdInterval) -> Tuple[StdInterval, StdInterval]:
    a, l = iv
    return StdInterval(2 * a, l + 1), StdInterval(2 * a + 1, l + 1)


def refine_at(P: DyadicPartition, index: int) -> DyadicPartition:
    """P with interval `index` split into its two halves."""
    ivs = P.intervals
    return DyadicPartition(ivs[:index] + halves(ivs[index]) + ivs[index + 1:])


def degenerate_isometry(d: int = 3) -> Isometry3Box:
    """V|l> = |l>|0>: a valid isometry that is not planar perfect."""
    m = np.zeros((d * d, d), dtype=complex)
    for l in range(d):
        m[d * l + 0, l] = 1.0
    return Isometry3Box(m)


def random_isometry(d: int, seed: int) -> Isometry3Box:
    """The Q factor of a seeded complex Gaussian d^2 x d matrix."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(d * d, d)) + 1j * rng.normal(size=(d * d, d))
    Q, _ = np.linalg.qr(X)
    return Isometry3Box(Q)
