"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Criterion 3 pins two reference OPE pairs and checks each against the quantity
it is.  `ope_terms` reports the expansion coefficient f^{ab}_g of
F(mu^a, mu^b) = sum_g f^{ab}_g mu^g; for β²·α³ that is 1/2.  The reference
value 1/3 for the same pair is the lowered-index pairing
C_{ab,g} = (1/d) tr((mu^g)^dag F(mu^a, mu^b)) = sum_h f^{ab}_h G_{hg}, where G
is the Gram matrix of the pinned basis under the normalised trace pairing and
G_{α¹α¹} = 2/3.  For δ¹·δ² the two conventions coincide, because the δ block
of G, [[2/3, 1/3], [1/3, 2/3]], maps (-1/3, -1/3) to itself.
"""

import collections
import itertools
import math
from fractions import Fraction

import numpy as np

from qutrit_table import expected_outputs
from test_correlator import oracle_value
from treefield import thompson as th
from treefield import treestate
from treefield.correlator import (CorrelatorRequest, _evaluate, ipow, n_point,
                                  ope_terms, regular_two_point,
                                  transformed_correlator,
                                  transformed_state_correlator,
                                  two_point_closed)
from treefield.dyadic import (LEAF, BinaryTree, CirclePoint, DyadicPartition,
                              StdInterval, minimal_supporting_partition,
                              partition_to_tree, regular_tree, supports,
                              tree_metric, tree_metric_formula,
                              tree_to_partition, xor_sub)
from treefield.fusion import fuse
from treefield.models import degenerate_isometry, preset
from treefield.spectral import build_channel, eigendecompose, scaling_dimension

QUTRIT = preset("qutrit")
FIB = preset("fibonacci")


def report(number, description):
    def deco(fn):
        def wrapped(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:02d}] FAIL  {description}")
                raise
            print(f"[criterion {number:02d}] PASS  {description}")
        wrapped.__name__ = fn.__name__
        return wrapped
    return deco


@report(1, "qutrit spectrum: eigenvalues {1 x1, -1/2 x5, 1/2 x3}, h = 0/1")
def test_criterion_01_qutrit_spectrum():
    S = eigendecompose(build_channel(QUTRIT.isometry))
    lam = S.eigenvalues
    assert np.max(np.abs(lam.imag)) <= 1e-12
    counts = collections.Counter()
    for z in lam:
        for target in (1.0, -0.5, 0.5):
            if abs(z - target) <= 1e-12:
                counts[target] += 1
                break
    assert counts == {1.0: 1, -0.5: 5, 0.5: 3}
    h0, _ = scaling_dimension(lam[0])
    assert h0 == 0.0
    for z in lam[1:]:
        h, _ = scaling_dimension(z)
        assert abs(h - 1.0) <= 1e-12


@report(2, "qutrit fusion table: 9x9x9 N-tensor matches the reference table")
def test_criterion_02_qutrit_fusion_table():
    ring = QUTRIT.ring
    labels = QUTRIT.labels
    for a, la in enumerate(labels):
        for b, lb in enumerate(labels):
            got = frozenset(labels[g] for g in range(9) if ring.n_tensor[a, b, g])
            want = expected_outputs(la, lb)
            assert got == want, f"cell ({la}, {lb}): {set(got)} != {set(want)}"


@report(3, "qutrit OPE examples: expansion coefficients f^{ab}_g, the "
           "lowered-index pairing 1/3, and the oracle three-point ratio")
def test_criterion_03_qutrit_ope():
    i = QUTRIT.label_index
    terms = ope_terms("δ¹", "δ²", QUTRIT)
    assert [(g, round(e, 12)) for g, _, e in terms] == [
        (i("1"), -2.0), (i("δ¹"), -1.0), (i("δ²"), -1.0)]
    coeffs = {g: c for g, c, _ in terms}
    assert abs(coeffs[i("1")] - (-1 / 6)) <= 1e-10
    assert abs(coeffs[i("δ¹")] - (-1 / 3)) <= 1e-10
    assert abs(coeffs[i("δ²")] - (-1 / 3)) <= 1e-10
    terms = ope_terms("β²", "α³", QUTRIT)
    assert [(g, round(e, 12)) for g, _, e in terms] == [(i("α¹"), -1.0)]
    # expansion coefficient: F(mu^{β²}, mu^{α³}) = (1/2) mu^{α¹} exactly
    f = terms[0][1]
    assert abs(f - 1 / 2) <= 1e-10
    # the reference 1/3 is the lowered-index pairing (1/d) tr(mu^dag F)
    # = f G_{α¹α¹} with G_{α¹α¹} = 2/3, computed from the pinned basis
    mus = QUTRIT.spectral.right_ops
    F = fuse(QUTRIT.isometry, mus[i("β²")], mus[i("α³")])
    pairing = np.trace(mus[i("α¹")].conj().T @ F) / QUTRIT.isometry.d
    assert abs(pairing - 1 / 3) <= 1e-10
    # the OPE read off correlators: fusing β²(0) α³(1/4) into the interval
    # [0, 1/2) leaves f λ_{β²}^{-2} λ_{α³}^{-2} λ_{α¹} times <α¹(0) α¹(1/2)>
    three = oracle_value(CorrelatorRequest.make(
        [Fraction(0), Fraction(1, 4), Fraction(1, 2)], ["β²", "α³", "α¹"],
        QUTRIT), QUTRIT)
    two = oracle_value(CorrelatorRequest.make(
        [Fraction(0), Fraction(1, 2)], ["α¹", "α¹"], QUTRIT), QUTRIT)
    assert abs(three - 16 / 3) <= 1e-10 and abs(two - (-4 / 3)) <= 1e-10
    lam = QUTRIT.eigenvalues
    weight = lam[i("β²")] ** -2 * lam[i("α³")] ** -2 * lam[i("α¹")]
    assert abs(three / two / weight - 1 / 2) <= 1e-10


@report(4, "fibonacci model: eigenvalues, h_tau, f^tau, N^tau")
def test_criterion_04_fibonacci():
    lam = FIB.eigenvalues
    c = 0.5 * (3.0 - math.sqrt(5.0))
    assert abs(lam[0] - 1.0) <= 1e-12
    assert abs(lam[1] - c) <= 1e-12
    h_tau, _ = scaling_dimension(lam[1])
    assert abs(h_tau - 1.388) <= 1e-3
    f_tau = FIB.fusion.coefficients[1]
    want = np.array([[0.0, c], [math.sqrt(5) - 2.0, 5.0 - 2.0 * math.sqrt(5)]])
    assert np.max(np.abs(f_tau - want)) <= 1e-10
    assert np.array_equal(FIB.ring.matrix(1), np.array([[0, 1], [1, 1]]))
    assert np.array_equal(FIB.ring.matrix(0), np.eye(2, dtype=int))


def all_tree_shapes(max_leaves):
    cache = {1: [LEAF]}

    def shapes(n):
        if n not in cache:
            out = []
            for k in range(1, n):
                for left in shapes(k):
                    for right in shapes(n - k):
                        out.append(BinaryTree(left, right))
            cache[n] = out
        return cache[n]

    for n in range(1, max_leaves + 1):
        yield from shapes(n)


def transfer_single(T, n, p):
    # contract conj(T) with T over every axis except leaf p
    axes = [a for a in range(n + 1) if a != p]
    return np.tensordot(T.conj(), T, axes=(axes, axes))


def transfer_double(T, n, p, q):
    axes = [a for a in range(n + 1) if a not in (p, q)]
    return np.tensordot(T.conj(), T, axes=(axes, axes)).transpose(0, 2, 1, 3)


@report(5, "oracle equivalence: all trees <= 8 leaves, all eigen insertions; "
           "closed forms at level <= 4")
def test_criterion_05_oracle_equivalence():
    V = QUTRIT.isometry
    mus = QUTRIT.spectral.right_ops
    n_labels = 9
    pair_a = np.repeat(mus, n_labels, axis=0)
    pair_b = np.tile(mus, (n_labels, 1, 1))
    # the production evaluator on P's occupied leaves: every label alone, and
    # for a pair fixed random combinations u, w of the labels at the left and
    # right leaf (the value is bilinear in them)
    basis = QUTRIT.evaluation.basis
    rng = np.random.default_rng(5)
    u, w = rng.normal(size=(2, n_labels)) + 1j * rng.normal(size=(2, n_labels))
    shapes = 0
    for tree in all_tree_shapes(8):
        shapes += 1
        n = tree.leaf_count()
        P = tree_to_partition(tree)
        phi = treestate.isometry_matrix(tree, V)
        T = phi.reshape((3,) * n + (3,))
        for p in range(n):
            engine = treestate.vacuum_expectation_batch(tree, V, {p: mus})
            oracle = np.einsum("lab,ab->l", mus, transfer_single(T, n, p)) / 3
            assert np.max(np.abs(engine - oracle)) <= 1e-10
            leaf = (P[p].left_numerator, P[p].level)
            production = [_evaluate([(*leaf, basis[:, a])], QUTRIT)
                          for a in range(n_labels)]
            assert np.max(np.abs(production - oracle)) <= 1e-10
        for p in range(n):
            for q in range(p + 1, n):
                engine = treestate.vacuum_expectation_batch(
                    tree, V, {p: pair_a, q: pair_b})
                m2 = transfer_double(T, n, p, q)
                oracle = np.einsum("xab,ycd,abcd->xy", mus, mus, m2).ravel() / 3
                assert np.max(np.abs(engine - oracle)) <= 1e-10
                production = _evaluate([(P[p].left_numerator, P[p].level, basis @ u),
                                        (P[q].left_numerator, P[q].level, basis @ w)],
                                       QUTRIT)
                assert abs(production - u @ oracle.reshape(9, 9) @ w) <= 1e-10
    assert shapes == 626  # catalan numbers summed over 1..8 leaves

    # closed two-point forms against engine and oracle on all dyadic pairs
    lam = QUTRIT.eigenvalues
    for m in range(1, 5):
        tree_m = regular_tree(m)
        for j in range(1 << m):
            for k in range(j + 1, 1 << m):
                x = CirclePoint(Fraction(j, 1 << m))
                y = CirclePoint(Fraction(k, 1 << m))
                P = minimal_supporting_partition([x, y])
                treeP = partition_to_tree(P)
                kx, ky = P.index_of(x), P.index_of(y)
                wa = np.array([ipow(lam[a], -P[kx].level) for a in range(9)])
                wb = np.array([ipow(lam[b], -P[ky].level) for b in range(9)])
                ops = {kx: pair_a * wa.repeat(9)[:, None, None],
                       ky: pair_b * np.tile(wb, 9)[:, None, None]}
                engine = treestate.vacuum_expectation_batch(treeP, V, ops)
                nP = treeP.leaf_count()
                phi = treestate.isometry_matrix(treeP, V)
                TP = phi.reshape((3,) * nP + (3,))
                m2 = transfer_double(TP, nP, min(kx, ky), max(kx, ky))
                if kx < ky:
                    oracle = np.einsum("xab,ycd,abcd->xy", pair_a[::9] * wa[:, None, None],
                                       mus, m2)
                    oracle = (oracle * wb[None, :]).ravel() / 3
                else:
                    raise AssertionError("positions are ordered")
                bare_engine = treestate.vacuum_expectation_batch(
                    tree_m, V, {j: pair_a, k: pair_b})
                for a in range(9):
                    for b in range(9):
                        closed = two_point_closed(x, y, a, b, QUTRIT)
                        assert abs(closed - engine[9 * a + b]) <= 1e-10
                        assert abs(closed - oracle[9 * a + b]) <= 1e-10
                        bare = regular_two_point(m, j, k, a, b, QUTRIT)
                        assert abs(bare - bare_engine[9 * a + b]) <= 1e-10
                        scale = ipow(lam[a] * lam[b], -m)
                        assert abs(closed - bare * scale) <= 1e-10 * max(
                            1.0, abs(scale))
                if m <= 3:
                    Tm = treestate.isometry_matrix(tree_m, V).reshape(
                        (3,) * (1 << m) + (3,))
                    m2m = transfer_double(Tm, 1 << m, j, k)
                    bare_oracle = np.einsum("xab,ycd,abcd->xy", mus, mus,
                                            m2m).ravel() / 3
                    assert np.max(np.abs(bare_engine - bare_oracle)) <= 1e-10


@report(6, "refinement stability: 50 random requests, 10 refinements each")
def test_criterion_06_refinement_stability():
    rng = np.random.default_rng(60)
    for _ in range(50):
        k = int(rng.integers(1, 4))
        nums = sorted(rng.choice(8, size=k, replace=False))
        pts = [CirclePoint(Fraction(int(n), 8)) for n in nums]
        labels = [int(l) for l in rng.integers(0, 9, size=k)]
        req = CorrelatorRequest.make(pts, labels, QUTRIT)
        base = n_point(req, QUTRIT)
        P = minimal_supporting_partition(pts)
        for _ in range(10):
            Q = P
            for _ in range(int(rng.integers(1, 4))):
                Q = Q.refine_at(int(rng.integers(0, len(Q))))
            assert abs(n_point(req, QUTRIT, partition=Q) - base) <= 1e-12


@report(7, "covariance law: generators and 50 random words, formula = direct")
def test_criterion_07_covariance():
    rng = np.random.default_rng(70)
    gens = [th.generator(name) for name in "ABCS"]
    elements = list(gens)
    while len(elements) < 54:
        f = th.IDENTITY
        for _ in range(int(rng.integers(1, 6))):
            g = gens[int(rng.integers(4))]
            if rng.random() < 0.5:
                g = g.inverse()
            f = th.compose(f, g)
        elements.append(f)
    for idx, f in enumerate(elements):
        k = 1 + (idx % 2)
        nums = sorted(rng.choice(16, size=k, replace=False))
        pts = [CirclePoint(Fraction(int(n), 16)) for n in nums]
        labels = [int(l) for l in rng.integers(0, 9, size=k)]
        req = CorrelatorRequest.make(pts, labels, QUTRIT)
        direct = transformed_state_correlator(f, req, QUTRIT)
        formula = transformed_correlator(f, req, QUTRIT)
        assert abs(direct - formula) <= 1e-10


@report(8, "modular invariance: S and C fix the qutrit vacuum; the "
           "non-perfect fixture fails")
def test_criterion_08_modular_invariance():
    V = QUTRIT.isometry
    for name in ("S", "C"):
        g = th.generator(name)
        for level in (1, 2, 3):
            ok, dev = th.vacuum_invariance_check(g, V, level)
            assert ok and dev <= 1e-10, (name, level, dev)
    fixture = degenerate_isometry(3)
    ok, dev = th.vacuum_invariance_check(th.generator("C"), fixture, 3)
    assert not ok and dev > 1e-3


@report(9, "tree metric: definition = closed form exhaustively to level 10")
def test_criterion_09_tree_metric_suite():
    # the frozen worked example
    x, y = CirclePoint(13, 32), CirclePoint(15, 32)
    assert tree_metric(x, y, 5) == 2
    assert tree_metric_formula(x, y, 5) == 2
    # exhaustive agreement of definition and closed form for levels <= 10
    for level in range(1, 11):
        n = 1 << level
        for a in range(n):
            xa = CirclePoint(a, n)
            for b in range(a + 1, n):
                yb = CirclePoint(b, n)
                assert tree_metric(xa, yb, level) == \
                    tree_metric_formula(xa, yb, level)
    # xor dominates the difference on 10^4 random pairs
    rng = np.random.default_rng(90)
    for _ in range(10_000):
        level = int(rng.integers(1, 11))
        a, b = sorted(rng.integers(0, 1 << level, size=2))
        xa, yb = CirclePoint(int(a), 1 << level), CirclePoint(int(b), 1 << level)
        assert xor_sub(yb, xa).value >= yb.value - xa.value


@report(10, "minimal supporting partition: frozen example and brute-force "
            "minimality for <= 4 points at level <= 5")
def test_criterion_10_minimal_supporting_partition():
    P = minimal_supporting_partition(
        [Fraction(1, 7), Fraction(2, 3), Fraction(5, 6)])
    assert [str(iv) for iv in P] == ["0/2", "2/4", "3/4"]

    grid = [Fraction(n, 32) for n in range(32)]
    checked = 0
    for k in range(1, 5):
        for combo in itertools.combinations(range(32), k):
            pts = [grid[n] for n in combo]
            P = minimal_supporting_partition(pts)
            assert supports(P, pts)
            # minimality: collapsing any sibling leaf pair breaks support
            for i in range(len(P) - 1):
                a, b = P[i], P[i + 1]
                if a.level == b.level and a.left_numerator % 2 == 0 \
                        and b.left_numerator == a.left_numerator + 1:
                    coarser = DyadicPartition(
                        P.intervals[:i]
                        + (StdInterval(a.left_numerator // 2, a.level - 1),)
                        + P.intervals[i + 2:])
                    assert not supports(coarser, pts)
            checked += 1
    assert checked == 32 + 496 + 4960 + 35960


@report(11, "thompson algebra: group laws, S = A.C, schwarzian of A")
def test_criterion_11_thompson_algebra():
    A, B, C, S = (th.generator(n) for n in "ABCS")
    assert th.equal(S, th.compose(A, C))
    rng = np.random.default_rng(110)
    gens = [A, B, C, S]

    def rand_word():
        f = th.IDENTITY
        for _ in range(int(rng.integers(1, 5))):
            g = gens[int(rng.integers(4))]
            if rng.random() < 0.5:
                g = g.inverse()
            f = th.compose(f, g)
        return f

    for _ in range(40):
        f, g, h = rand_word(), rand_word(), rand_word()
        assert th.compose(th.compose(f, g), h) == th.compose(f, th.compose(g, h))
    for _ in range(60):
        g = rand_word()
        assert th.compose(g, g.inverse()).is_identity()
        assert th.equal(th.compose(g, th.IDENTITY), g)
    got = [(str(p), w) for p, w in th.schwarzian_measure(A)]
    assert got == [("1/2", 2), ("3/4", 2)]
