import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import treefield.correlator
import treefield.dyadic
import treefield.thompson as thompson_module
from helpers import degenerate_isometry, refine_at
from piecewise_reference import (PiecewiseLinearMap, PLPiece, fold_word, from_piecewise,
                                 to_piecewise)
from treefield.cli import main
from treefield.correlator import CorrelatorRequest, transformed_correlator
from treefield.dyadic import (MAX_LEVEL, CirclePoint, DyadicPartition,
                              StdInterval, _compose_pairs, partition_to_nested,
                              regular_partition)
from treefield.models import preset
from treefield.thompson import (IDENTITY, ThompsonElement, compose,
                                element_from_document, element_to_document,
                                find_good, generator, good_partition,
                                parse_word, pullback_partition, reduce,
                                schwarzian_measure, slope_right,
                                vacuum_invariance_check)

A = generator("A")
B = generator("B")
C = generator("C")
S = generator("S")


def rand_element(rng, length=5):
    names = ["A", "B", "C", "S"]
    out = IDENTITY
    for _ in range(int(rng.integers(1, length + 1))):
        g = generator(names[int(rng.integers(4))])
        if rng.random() < 0.5:
            g = g.inverse()
        out = compose(out, g)
    return out


def test_generator_maps():
    mA = to_piecewise(A)
    assert mA(Fraction(1, 2)) == Fraction(1, 4)
    assert mA(Fraction(0)) == 0
    assert mA(Fraction(3, 4)) == Fraction(1, 2)
    assert [p.c for p in mA.pieces] == [-1, 0, 1]
    mB = to_piecewise(B)
    for x in (Fraction(0), Fraction(1, 8), Fraction(3, 8)):
        assert mB(x) == x  # identity below 1/2
    assert mB(Fraction(3, 4)) == Fraction(5, 8)
    mC = to_piecewise(C)
    assert mC(Fraction(0)) == Fraction(3, 4)
    assert mC(Fraction(1, 2)) == Fraction(0)
    assert mC(Fraction(3, 4)) == Fraction(1, 2)
    mS = to_piecewise(S)
    assert mS(Fraction(1, 4)) == Fraction(3, 4)
    assert mS(Fraction(3, 4)) == Fraction(1, 4)
    with pytest.raises(ValueError, match="unknown generator"):
        generator("Z")


def test_s_equals_a_compose_c():
    assert reduce(S) == reduce(compose(A, C))


def leaves(doc, a=0, l=0):
    """Reference: the (a, l) leaves of a nested tree document, by recursion."""
    if doc == 0:
        return [(a, l)]
    return leaves(doc[0], 2 * a, l + 1) + leaves(doc[1], 2 * a + 1, l + 1)


def partition(doc):
    return DyadicPartition(tuple(StdInterval(a, l) for a, l in leaves(doc)))


def tree_pair(domain, range_, rotation=0):
    """Reference: the pairs of the tree pair mapping domain leaf i onto range
    leaf (i + rotation) mod n."""
    dom, ran = leaves(domain), leaves(range_)
    assert len(dom) == len(ran)
    k = rotation % len(dom)
    return tuple(d + r for d, r in zip(dom, ran[k:] + ran[:k]))


def test_generator_pairs_match_their_tree_pairs():
    assert A.pairs == tree_pair([0, [0, 0]], [[0, 0], 0])
    assert B.pairs == tree_pair([0, [0, [0, 0]]], [0, [[0, 0], 0]])
    assert C.pairs == tree_pair([0, [0, 0]], [0, [0, 0]], 2)
    assert S.pairs == tree_pair([0, 0], [0, 0], 1)


def test_thompson_builds_no_trees_of_its_own():
    # a tree is its partition: there is no tree type, and the Thompson layer
    # hands partitions straight to the treestate references
    for name in ("BinaryTree", "LEAF", "caret", "regular_tree"):
        assert not hasattr(treefield.dyadic, name)
    for name in ("partition_to_tree", "tree_to_partition"):
        assert not hasattr(thompson_module, name)


def test_identity_pair_reduces_to_leaf():
    t = [[0, 0], 0]
    r = reduce(element_from_document({"domain": t, "range": t}))
    assert r.n_leaves == 1 and r.domain_partition() == regular_partition(0)


def test_deep_comb_reduces_in_process():
    # documents are read with an explicit stack: a comb far deeper than the
    # recursion limit, given as a Python object, reduces to the identity
    comb = 0
    for _ in range(5000):
        comb = [0, comb]
    assert reduce(element_from_document({"domain": comb, "range": comb})) == IDENTITY


def test_worked_fraction_reduction():
    # four-leaf fraction whose middle caret pair cancels
    e = element_from_document({"domain": [[0, [0, 0]], 0], "range": [0, [[0, 0], 0]]})
    r = reduce(e)
    assert r.domain_partition() == partition([[0, 0], 0])
    assert r.range_partition() == partition([0, [0, 0]])
    assert r.rotation == 0
    assert element_to_document(e) == {"domain": [[0, 0], 0], "range": [0, [0, 0]],
                                      "rotation": 0}


def test_reduce_idempotent_and_inverse_cancellation():
    rng = np.random.default_rng(0)
    for _ in range(100):
        g = rand_element(rng)
        r = reduce(g)
        assert reduce(r) == r
        assert compose(g, g.inverse()).is_identity()
        assert compose(g.inverse(), g).is_identity()


def test_compose_identity_and_pointwise_oracle():
    rng = np.random.default_rng(1)
    g = rand_element(rng)
    assert reduce(compose(g, IDENTITY)) == reduce(g)
    assert reduce(compose(IDENTITY, g)) == reduce(g)
    samples = [Fraction(k, 1024) for k in range(0, 1024, 1)]
    for _ in range(5):
        g = rand_element(rng, 4)
        h = rand_element(rng, 4)
        gh = to_piecewise(compose(g, h))
        mg, mh = to_piecewise(g), to_piecewise(h)
        for x in samples[:: 8]:
            assert gh(x) == mg(mh(x))  # compose(g, h) acts as g o h


def test_group_laws():
    rng = np.random.default_rng(2)
    for _ in range(60):
        f, g, h = (rand_element(rng, 4) for _ in range(3))
        assert compose(compose(f, g), h) == compose(f, compose(g, h))
    # orders of the torsion elements
    assert compose(S, S).is_identity()
    assert compose(C, compose(C, C)).is_identity()


def test_to_from_piecewise_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        g = reduce(rand_element(rng))
        assert from_piecewise(to_piecewise(g)) == g


def test_from_piecewise_validation():
    with pytest.raises(ValueError, match="not a Thompson map"):
        PiecewiseLinearMap((PLPiece(Fraction(0), Fraction(0), 0),
                            PLPiece(Fraction(1, 3), Fraction(1, 3), 0)))
    with pytest.raises(ValueError, match="not a Thompson map"):
        # slope 2 everywhere cannot biject the circle
        PiecewiseLinearMap((PLPiece(Fraction(0), Fraction(0), 1),))


def test_good_partition():
    assert not good_partition(B, regular_partition(1))
    assert good_partition(IDENTITY, regular_partition(0))
    assert good_partition(IDENTITY, regular_partition(2))
    found = find_good(A, regular_partition(0))
    assert found == DyadicPartition((StdInterval(0, 1), StdInterval(2, 2),
                                     StdInterval(3, 2)))
    assert good_partition(A, found)
    # every refinement of a good partition has a dyadic image
    P = found
    rng = np.random.default_rng(4)
    m = to_piecewise(A)
    for _ in range(30):
        P = refine_at(P, int(rng.integers(0, len(P)))) if len(P) < 64 else P
        if max(iv.level for iv in P) > 8:
            break
        for iv in P:
            img_left = m(iv.left)
            width = Fraction(1, 1 << iv.level) * Fraction(2) ** slope_right(A, iv.left)
            assert (img_left / width).denominator == 1  # standard dyadic image


def test_slope_right():
    assert slope_right(IDENTITY, Fraction(1, 3)) == 0
    assert slope_right(A, Fraction(0)) == -1
    assert slope_right(A, Fraction(3, 4)) == 1
    assert slope_right(A, Fraction(1, 2)) == 0


def test_schwarzian_measure():
    assert schwarzian_measure(IDENTITY) == []
    got = [(str(p), w) for p, w in schwarzian_measure(A)]
    assert got == [("1/2", 2), ("3/4", 2)]
    assert schwarzian_measure(compose(A, A.inverse())) == []
    # rotation wraparound entry at 0
    got = [(str(p), w) for p, w in schwarzian_measure(C)]
    assert got == [("0/1", -2), ("1/2", 4), ("3/4", -2)]
    assert schwarzian_measure(S) == []


def test_element_call_returns_circle_points():
    assert A(Fraction(1, 2)) == A("1/2") == CirclePoint(1, 4)
    assert C.inverse()("0") == CirclePoint(1, 2)
    for outside in (Fraction(3, 2), 1, Fraction(-1, 4)):
        with pytest.raises(ValueError, match=r"not in \[0,1\)"):
            A(outside)
        with pytest.raises(ValueError, match=r"not in \[0,1\)"):
            slope_right(A, outside)


def test_thompson_maps_build_no_fraction(capsys, monkeypatch):
    # with `Fraction` refused inside the geometry, the Thompson layer and the
    # correlator, maps of 'p/q' and binary points give the same values
    qutrit = preset("qutrit")
    words = ["A C", "B A^-1 C S", "S A B⁻¹ C-1 A A"]
    points = ["0/1", "1/3", "0.1011", "5/7", "3/4", "0.0000000001"]
    requests = [CorrelatorRequest.make(["1/7", "0.01", "2/3", "0.111"],
                                       ["δ¹", "β²", "δ²", "β¹"], qutrit),
                CorrelatorRequest.make(["0/1", "1/2"], ["α¹", "α¹"], qutrit)]

    def results():
        out = []
        for word in words:
            e = parse_word(word)
            out.append([(e(x), e.inverse()(x), slope_right(e, x)) for x in points])
            out.append(schwarzian_measure(e))
            out.append([repr(transformed_correlator(e, req, qutrit)) for req in requests])
            for action, args in (("apply", [word, *points]), ("schwarzian", word.split())):
                code = main(["thompson", action, *args])
                captured = capsys.readouterr()
                out.append((code, captured.out, captured.err))
        return out

    want = results()

    class NoFraction:
        def __new__(cls, *args):
            raise AssertionError("Fraction built by a Thompson map")

    assert not hasattr(treefield.correlator, "Fraction")  # none to build
    for module in (treefield.dyadic, thompson_module):
        monkeypatch.setattr(module, "Fraction", NoFraction)
    assert results() == want


def test_schwarzian_telescoping_for_equal_end_slopes():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 20:
        g = reduce(rand_element(rng))
        if g.rotation != 0 or g.n_leaves == 1:
            continue
        m = to_piecewise(g)
        total = sum(w for _, w in schwarzian_measure(g))
        # interior jumps telescope to 2 (c_last - c_first)
        assert total == 2 * (m.pieces[-1].c - m.pieces[0].c)
        if m.pieces[-1].c == m.pieces[0].c:
            assert total == 0
        checked += 1


def test_parse_word_and_documents():
    w = parse_word("A C")
    assert reduce(w) == reduce(S)
    assert parse_word("A A⁻¹").is_identity()
    assert parse_word("A A^-1").is_identity()
    e = reduce(compose(B, A))
    doc = json.loads(json.dumps(element_to_document(e)))
    assert element_from_document(doc) == e
    table = {"pieces": [["0", "0", -1], ["1/2", "1/4", 0], ["3/4", "1/2", 1]]}
    assert reduce(element_from_document(table)) == reduce(A)
    assert reduce(element_from_document({"word": "A C"})) == reduce(S)


def depth(e):
    """The deepest domain level of an element's pairs."""
    return max(l for _, l, _, _ in e.pairs)


def test_one_generator_deepens_a_product_by_at_most_one_tightly():
    # the bound max(3, depth(P) + 1) of the property test below is reached:
    # A^k has depth k + 1, so each A deepens it by one, and B alone has depth 3
    for k in (1, 10, 40):
        assert depth(parse_word(" ".join(["A"] * k))) == k + 1
    assert depth(B) == 3 and depth(IDENTITY) == 0


@pytest.mark.parametrize("word", [
    "", "A", "A C", "A A⁻¹", " ".join(["S"] * 1024), " ".join(["A", "A^-1"] * 300),
    " ".join(["A"] * 62 + ["B", "B^-1"] * 30), " ".join((["A"] * 60 + ["A^-1"] * 60) * 8),
    " ".join(["B^-1"] * 100), " ".join(["A"] * 64 + ["D"]), " ".join(["D"] + ["A"] * 64),
    " ".join(["S"] * 1025),
])
def test_parse_word_matches_the_left_fold(word):
    assert word_outcome(parse_word, word) == word_outcome(fold_word, word)


def word_outcome(parse, word):
    """The pairs `parse` gives for `word`, or its error text."""
    try:
        return parse(word).pairs
    except ValueError as exc:
        return str(exc)


def test_pullback_partition_rotation():
    Q = regular_partition(2)
    P, sigma = pullback_partition(reduce(C), Q)
    assert [str(iv) for iv in P] == ["0/2", "4/8", "5/8", "3/4"]
    assert sigma == [3, 0, 1, 2]
    with pytest.raises(ValueError, match="does not refine"):
        pullback_partition(reduce(B), regular_partition(0))


def test_vacuum_invariance_qutrit_and_fixture():
    q = preset("qutrit").isometry
    for g in (S, C):
        for level in (1, 2, 3):
            ok, dev = vacuum_invariance_check(g, q, level)
            assert ok and dev <= 1e-10
    fix = degenerate_isometry(3)
    ok, dev = vacuum_invariance_check(C, fix, 3)
    assert not ok and dev > 1e-3
    # the half rotation fixes the pair vacuum for every isometry
    ok, _ = vacuum_invariance_check(S, fix, 3)
    assert ok


# ---------------------------------------------------------------------------
# properties of the integer tree-pair algebra against the Fraction piecewise
# form; words of at most 40 generators, elements of at most 64 leaves

PROPS = settings(max_examples=60)


@st.composite
def elements(draw):
    tokens = draw(st.lists(st.tuples(st.sampled_from("ABCS"), st.booleans()),
                           max_size=40))
    e = parse_word(" ".join(g + ("^-1" if inv else "") for g, inv in tokens))
    assume(e.n_leaves <= 64)
    return e


@st.composite
def points(draw):
    q = draw(st.one_of(st.integers(1, 5000), st.sampled_from([1 << k for k in range(13)])))
    return Fraction(draw(st.integers(0, q - 1)), q)


def split(e, i):
    """The same element with domain leaf i and its image leaf split into
    halves (an unreduced pair)."""
    pairs = list(e.pairs)
    a, l, b, m = pairs[i]
    pairs[i:i + 1] = [(2 * a, l + 1, 2 * b, m + 1), (2 * a + 1, l + 1, 2 * b + 1, m + 1)]
    return ThompsonElement(pairs)


WORD_TOKENS = sorted(thompson_module._WORD_TOKENS)
BAD_TOKENS = ("D", "A^-1-1", "A⁻¹^-1", "a", "S-1-1")


@st.composite
def run_words(draw, max_tokens=300, bad_tokens=True):
    """Words of up to `max_tokens` tokens: runs of one token (up to 80, so
    past the level cap), single tokens, and in half the words now and then
    a bad token."""
    runs = st.tuples(st.sampled_from(WORD_TOKENS), st.integers(1, 80))
    single = st.tuples(st.sampled_from(WORD_TOKENS), st.just(1))
    bad = st.tuples(st.sampled_from(BAD_TOKENS), st.just(1))
    kinds = [runs, runs, single, single, single] + [bad] * (bad_tokens and draw(st.booleans()))
    segments = draw(st.lists(st.one_of(*kinds), max_size=40))
    return " ".join([tok for tok, k in segments for _ in range(k)][:max_tokens])


@settings(max_examples=300)
@given(run_words())
def test_property_parse_word_matches_the_left_fold(word):
    # reduced pairs are unique, so runs multiplied by halves give the fold's
    # pairs; and the refusals, of a bad token or a prefix past MAX_LEVEL,
    # come at the same token with the same text
    assert word_outcome(parse_word, word) == word_outcome(fold_word, word)


@PROPS
@given(st.one_of(elements(), run_words(MAX_LEVEL - 3, bad_tokens=False).map(parse_word)))
def test_property_one_generator_deepens_a_product_by_at_most_one(e):
    # depth(reduce(P o t)) <= max(3, depth(P) + 1) for every token t, the
    # bound on which parse_word's run length rests; P is any reduced product
    # of depth up to MAX_LEVEL - 1 (a product of k tokens has depth at most
    # k + 2), so that P o t stays within the cap
    for pairs in set(thompson_module._WORD_TOKENS.values()):
        product = ThompsonElement(thompson_module._cancel(_compose_pairs(e.pairs, pairs)))
        assert depth(product) <= max(3, depth(e) + 1)


@PROPS
@given(elements(), elements(), st.lists(points(), min_size=1, max_size=8))
def test_property_compose_acts_as_g_after_h(g, h, xs):
    gh, mg, mh = to_piecewise(compose(g, h)), to_piecewise(g), to_piecewise(h)
    for x in xs:
        assert gh(x) == mg(mh(x))


@PROPS
@given(elements(), elements(), elements())
def test_property_compose_is_associative(f, g, h):
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


@PROPS
@given(elements())
def test_property_inverse_cancels(g):
    assert compose(g, g.inverse()).is_identity()
    assert compose(g.inverse(), g).is_identity()
    assert reduce(g) is g  # a reduced element comes back as itself


@PROPS
@given(elements(), st.lists(st.integers(min_value=0), min_size=1, max_size=8))
def test_property_reduce_matches_the_piecewise_reference(e, cuts):
    u = e
    for k in cuts:
        if u.n_leaves < 64:
            u = split(u, k % u.n_leaves)
    assert u.n_leaves > e.n_leaves
    assert reduce(u) == from_piecewise(to_piecewise(u)) == e


@st.composite
def circle_points(draw):
    """Dyadic points a/2^l up to level 64, and points p/q."""
    if draw(st.booleans()):
        q = 1 << draw(st.integers(0, 64))
    else:
        q = draw(st.integers(1, 10 ** 6))
    return CirclePoint(draw(st.integers(0, q - 1)), q)


def reference_schwarzian(m):
    """Jumps 2 (c_right - c_left) of the reference map at its breakpoints,
    and across 0 when the map moves 0 (a rotation of T)."""
    ps = m.pieces
    jumps = [(CirclePoint(p.x), 2 * (p.c - prev.c)) for prev, p in zip(ps, ps[1:])]
    if m(0) != 0:
        jumps.insert(0, (CirclePoint(0), 2 * (ps[0].c - ps[-1].c)))
    return [(x, w) for x, w in jumps if w]


@PROPS
@given(elements(), st.lists(st.integers(min_value=0), max_size=4),
       st.lists(circle_points(), min_size=1, max_size=5), st.integers(0, 7),
       st.integers(0, 255))
def test_property_pair_maps_match_the_piecewise_reference(e, cuts, xs, k, num):
    # reduced and split elements, evaluated at random points and at every
    # domain and image breakpoint; breakpoint tables read back, merged as
    # the reference writes them and one row per pair, and a rotation by num/2^k
    u = e
    for cut in cuts:
        u = split(u, cut % u.n_leaves)
    for f in (e, u):
        m = to_piecewise(f)
        inv = m.inverse()
        starts = ([CirclePoint(a, 1 << l) for a, l, _, _ in f.pairs]
                  + [CirclePoint(b, 1 << mm) for _, _, b, mm in f.pairs])
        for x in xs + starts:
            assert f(x).value == m(x)
            assert f.inverse()(x).value == inv(x)
            assert slope_right(f, x) == m.piece_at(x.value).c
        assert schwarzian_measure(f) == reference_schwarzian(m)
        per_pair = [(Fraction(a, 1 << l), Fraction(b, 1 << mm), l - mm)
                    for a, l, b, mm in f.pairs]
        for rows in ([(p.x, p.y, p.c) for p in m.pieces], per_pair):
            doc = {"pieces": [[str(x), str(y), c] for x, y, c in rows]}
            want = from_piecewise(PiecewiseLinearMap(tuple(PLPiece(*r) for r in rows)))
            assert element_from_document(doc) == want == e
    y = str(Fraction(num % (1 << k), 1 << k))
    rotation = PiecewiseLinearMap((PLPiece(Fraction(0), Fraction(y), 0),))
    assert element_from_document({"pieces": [["0", y, 0]]}) == from_piecewise(rotation)


@PROPS
@given(elements(), st.data())
def test_property_pair_constructor_rejects_malformed_pairs(e, data):
    pairs = list(e.pairs)
    n = len(pairs)
    i = data.draw(st.integers(0, n - 1))
    a, l, b, m = pairs[i]
    first = next(k for k, p in enumerate(pairs) if p[2] == 0)
    fb, fm = pairs[first][2:]
    bad = [
        (pairs[:i] + pairs[i + 1:], "empty|gap|start at 0|end at 1"),  # a gap
        (pairs[:i + 1] + pairs[i:], "gap or overlap"),  # an overlap
        (pairs[:first] + [pairs[first][:2] + (fb + 1, fm + 1)] + pairs[first + 1:],
         "no image leaf starts at 0"),
        (pairs[:i] + [(a + (1 << l), l, b, m)] + pairs[i + 1:], "not inside"),
        (pairs[:i] + [(a, l, b + (1 << m), m)] + pairs[i + 1:], "not inside"),
    ]
    for malformed, message in bad:
        with pytest.raises(ValueError, match=message):
            ThompsonElement(malformed)


@PROPS
@given(elements(), st.lists(st.integers(min_value=0), max_size=4))
def test_property_trees_and_documents_round_trip(e, cuts):
    u = e
    for k in cuts:
        u = split(u, k % u.n_leaves)
    unreduced = {"domain": partition_to_nested(u.domain_partition()),
                 "range": partition_to_nested(u.range_partition()), "rotation": u.rotation}
    assert element_from_document(unreduced) == u
    doc = json.loads(json.dumps(element_to_document(u)))
    assert element_from_document(doc) == reduce(u) == e


def coarsen(P):
    """P with its first pair of sibling intervals merged."""
    ivs = P.intervals
    i = next(k for k in range(len(ivs) - 1) if ivs[k].left_numerator % 2 == 0
             and ivs[k + 1] == StdInterval(ivs[k].left_numerator + 1, ivs[k].level))
    parent = StdInterval(ivs[i].left_numerator >> 1, ivs[i].level - 1)
    return DyadicPartition(ivs[:i] + (parent,) + ivs[i + 2:])


@PROPS
@given(elements(), st.lists(st.integers(min_value=0), max_size=4))
def test_pullback_is_the_exact_preimage(f, cuts):
    # f maps the i-th pulled-back interval onto Q_{sigma[i]} pointwise, for Q
    # any refinement of f's range partition
    m = to_piecewise(f)
    Q = f.range_partition()
    for k in cuts:
        Q = refine_at(Q, k % len(Q))
    P, sigma = pullback_partition(f, Q)
    assert len(P) == len(Q) and sorted(sigma) == list(range(len(Q)))
    for i, iv in enumerate(P):
        target = Q[sigma[i]]
        assert m(iv.left) == target.left
        # widths 2^-level: f scales the pulled-back interval onto its target
        width = Fraction(1, 1 << iv.level)
        assert width * Fraction(2) ** m.piece_at(iv.left).c == Fraction(1, 1 << target.level)
    if f.n_leaves > 1:  # one step coarser than the range partition
        with pytest.raises(ValueError, match="does not refine"):
            pullback_partition(f, coarsen(f.range_partition()))


@settings(max_examples=300)
@given(st.integers(0, 16).flatmap(lambda L: st.tuples(
    st.just(L), st.lists(st.integers(0, 1 << L), min_size=2, max_size=2, unique=True))),
    st.integers(-3, 3), st.integers(0, 63), st.integers(0, 6))
def test_property_piece_leaf_count_is_the_enumerated_count(ends, c, y, y_level):
    # a breakpoint table is refused from this count before any pair is listed
    L, (i, j) = ends
    i, j = sorted((i, j))
    try:
        part = thompson_module._part(Fraction(i, 1 << L), Fraction(j, 1 << L),
                                     Fraction(y, 1 << y_level), c)
    except ValueError:  # deeper than MAX_LEVEL
        return
    n = thompson_module._leaf_count(*part)
    assume(n <= 1 << 12)
    assert n == len(thompson_module._leaves(*part))
