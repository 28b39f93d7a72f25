from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treefield import treestate
from treefield.dyadic import (MAX_LEVEL, CirclePoint, DyadicPartition,
                              StdInterval, TRIVIAL_PARTITION, as_point,
                              coarse_grain_distance, common_prefix_length,
                              common_refinement, fold_tree, is_refinement,
                              identity_pairs, leaf_index,
                              minimal_supporting_partition, nested_to_leaves,
                              partition_to_nested, read_point, regular_partition,
                              supports, tree_metric, tree_metric_formula, xor_sub)


def dy(a, l):
    """The dyadic point a/2^l."""
    return CirclePoint(a, 1 << l)


def test_xor_sub_worked_example():
    # 0.01111 (+) 0.01101 = 0.00010
    assert xor_sub(dy(15, 5), dy(13, 5)) == dy(1, 4)


def test_xor_sub_self_and_zero():
    x = dy(13, 5)
    assert xor_sub(x, x) == dy(0, 0)
    assert xor_sub(x, dy(0, 0)) == x


def test_xor_sub_commutes():
    rng = np.random.default_rng(1)
    for _ in range(50):
        l1, l2 = rng.integers(0, 9, size=2)
        a = int(rng.integers(0, 1 << l1)) if l1 else 0
        b = int(rng.integers(0, 1 << l2)) if l2 else 0
        x, y = dy(a, int(l1)), dy(b, int(l2))
        assert xor_sub(x, y) == xor_sub(y, x)


def test_tree_metric_worked_example():
    assert tree_metric(dy(13, 5), dy(15, 5), 5) == 2
    assert tree_metric_formula(dy(13, 5), dy(15, 5), 5) == 2


def test_tree_metric_trivial_cases():
    x = dy(5, 4)
    assert tree_metric(x, x, 6) == 0
    assert tree_metric(dy(0, 0), dy(1, 1), 1) == 1
    for l in range(1, 8):
        assert tree_metric_formula(dy(0, 0), dy(1, l), l) == 1


def test_tree_metric_at_level_3000():
    # the definition is a shift loop, so no recursion limit caps the level
    for x, y in ((dy(0, 0), dy(1, 1)), (dy(1, 3000), dy(3, 3000)), (dy(1, 2), dy(5, 3000))):
        assert tree_metric(x, y, 3000) == tree_metric_formula(x, y, 3000)
    assert tree_metric(dy(0, 0), dy(1, 1), 3000) == 3000


def test_tree_metric_level_underflow():
    with pytest.raises(ValueError, match="level underflow"):
        tree_metric(dy(1, 5), dy(0, 0), 3)


def test_tree_metric_formula_rejects_coincident():
    with pytest.raises(ValueError, match="coincident"):
        tree_metric_formula(dy(1, 2), dy(1, 2), 4)


def test_tree_metric_formula_matches_recursion_exhaustively():
    # levels <= 10, all pairs
    for level in range(1, 11):
        n = 1 << level
        a = np.arange(n)
        x, y = np.meshgrid(a, a)
        xor = (x ^ y).ravel()
        mask = xor > 0
        # bit length of the xor = the tree distance
        expect = np.zeros(xor.shape, dtype=int)
        powers = 2 ** np.arange(level + 1)
        expect[mask] = np.digitize(xor[mask], powers)
        # spot-check against the definition (`tree_metric`) on a sample
        rng = np.random.default_rng(level)
        idx = rng.choice(np.flatnonzero(mask), size=min(200, mask.sum()), replace=False)
        for i in idx:
            xi, yi = int(x.ravel()[i]), int(y.ravel()[i])
            assert tree_metric(dy(xi, level), dy(yi, level), level) == expect[i]
            assert tree_metric_formula(dy(xi, level), dy(yi, level), level) == expect[i]
        # closed form agrees with the vectorised distance everywhere
        bl = np.array([int(v).bit_length() for v in xor[mask]])
        assert np.array_equal(bl, expect[mask])


def test_xor_dominates_difference():
    rng = np.random.default_rng(2)
    for _ in range(10_000):
        l = int(rng.integers(1, 11))
        a, b = sorted(rng.integers(0, 1 << l, size=2))
        x, y = dy(int(a), l), dy(int(b), l)
        assert xor_sub(y, x).value >= y.value - x.value


def test_coarse_grain_distance_standard_pair():
    # shared-caret standard dyadic pairs (even numerator): D = |x - y|
    for l, a in [(3, 2), (4, 6), (5, 20)]:
        x, y = dy(a, l), dy(a + 1, l)
        assert coarse_grain_distance(x, y).value == Fraction(1, 1 << l)


def test_coarse_grain_distance_no_common_prefix():
    assert coarse_grain_distance(dy(0, 0), dy(1, 1)).value == Fraction(1, 2)


def test_coarse_grain_distance_digit_stream():
    # 5/8 = 0.1010..., 11/16 = 0.1011...: common prefix 101 -> D = 2^-4
    assert common_prefix_length(Fraction(5, 8), Fraction(11, 16)) == 3
    d = coarse_grain_distance(Fraction(5, 8), Fraction(11, 16))
    assert d.value == Fraction(1, 16)
    # non-dyadic points work exactly: 1/3 = 0.0101..., 1/4 = 0.0100...
    assert common_prefix_length(Fraction(1, 3), Fraction(1, 4)) == 3


def test_coarse_grain_distance_coincident():
    with pytest.raises(ValueError, match="coincident"):
        coarse_grain_distance(Fraction(1, 3), Fraction(1, 3))


def test_minimal_supporting_partition_example():
    pts = [Fraction(1, 7), Fraction(2, 3), Fraction(5, 6)]
    P = minimal_supporting_partition(pts)
    assert [str(iv) for iv in P] == ["0/2", "2/4", "3/4"]


def test_minimal_supporting_partition_single_point():
    P = minimal_supporting_partition([Fraction(1, 3)])
    assert len(P) == 1 and P[0] == StdInterval(0, 0)


def test_minimal_supporting_partition_errors():
    with pytest.raises(ValueError, match="coincident insertions"):
        minimal_supporting_partition([Fraction(1, 4), Fraction(1, 4)])
    with pytest.raises(ValueError, match="unordered tuple"):
        minimal_supporting_partition([Fraction(1, 2), Fraction(1, 4)])
    with pytest.raises(ValueError, match="maximum partition level"):
        minimal_supporting_partition([Fraction(0), Fraction(1, 2 ** 80)])


def all_partitions(max_level):
    """Every dyadic partition with intervals at level <= max_level."""
    def covers(a, l):  # every cover of [a/2^l, (a+1)/2^l)
        yield [StdInterval(a, l)]
        if l < max_level:
            for left in covers(2 * a, l + 1):
                for right in covers(2 * a + 1, l + 1):
                    yield left + right
    for ivs in covers(0, 0):
        yield DyadicPartition(tuple(ivs))


def test_minimal_supporting_partition_brute_force():
    parts = list(all_partitions(4))
    rng = np.random.default_rng(3)
    for _ in range(40):
        k = int(rng.integers(1, 5))
        nums = sorted(rng.choice(8, size=k, replace=False))
        pts = [Fraction(int(n), 8) for n in nums]
        P = minimal_supporting_partition(pts)
        assert supports(P, pts)
        # brute force: coarsest supporting partition over the full lattice
        best = None
        for cand in parts:
            if supports(cand, pts):
                if best is None or len(cand) < len(best):
                    best = cand
        assert len(best) == len(P)
        assert best == P  # unique minimal partition


def test_minimality_by_caret_collapse():
    rng = np.random.default_rng(4)
    for _ in range(50):
        k = int(rng.integers(2, 5))
        nums = sorted(rng.choice(32, size=k, replace=False))
        pts = [Fraction(int(n), 32) for n in nums]
        P = minimal_supporting_partition(pts)
        assert supports(P, pts)
        # collapsing any sibling leaf pair must break support
        for i in range(len(P) - 1):
            a, b = P[i], P[i + 1]
            if a.level == b.level and a.left_numerator % 2 == 0 \
                    and b.left_numerator == a.left_numerator + 1:
                coarser = DyadicPartition(
                    P.intervals[:i] + (StdInterval(a.left_numerator // 2, a.level - 1),)
                    + P.intervals[i + 2:])
                assert not supports(coarser, pts)


def test_refinement_preserves_support():
    rng = np.random.default_rng(5)
    for _ in range(30):
        k = int(rng.integers(1, 4))
        nums = sorted(rng.choice(16, size=k, replace=False))
        pts = [Fraction(int(n), 16) for n in nums]
        P = minimal_supporting_partition(pts)
        Q = P
        for _ in range(3):
            Q = Q.refine_at(int(rng.integers(0, len(Q))))
        assert is_refinement(P, Q)
        assert supports(Q, pts)


def test_is_refinement_basics():
    P = regular_partition(1)
    Q = DyadicPartition((StdInterval(0, 1), StdInterval(2, 2), StdInterval(3, 2)))
    assert is_refinement(P, P)
    assert is_refinement(TRIVIAL_PARTITION, Q)
    assert is_refinement(P, Q)
    assert not is_refinement(Q, P)


def test_common_refinement():
    P = regular_partition(1)
    Q = DyadicPartition((StdInterval(0, 1), StdInterval(2, 2), StdInterval(3, 2)))
    assert common_refinement(P, P) == P
    assert common_refinement(TRIVIAL_PARTITION, Q) == Q
    parts = list(all_partitions(3))
    rng = np.random.default_rng(6)
    for _ in range(20):
        A = parts[int(rng.integers(len(parts)))]
        B = parts[int(rng.integers(len(parts)))]
        R = common_refinement(A, B)
        assert is_refinement(A, R) and is_refinement(B, R)
        # minimal: no admissible partition strictly coarser refines both
        for cand in parts:
            if is_refinement(A, cand) and is_refinement(B, cand):
                assert len(cand) >= len(R)


def test_nested_document_shapes():
    assert nested_to_leaves(0) == [(0, 0)]
    assert nested_to_leaves(((0, 0), [0, 0])) == [(0, 2), (1, 2), (2, 2), (3, 2)]
    for bad in (False, True, 1, 0.0, "0", None, [0], [0, 0, 0], [0, [False, 0]]):
        with pytest.raises(ValueError, match="tree documents nest"):
            nested_to_leaves(bad)


def test_containing_interval():
    assert TRIVIAL_PARTITION[TRIVIAL_PARTITION.index_of(Fraction(1, 3))] == StdInterval(0, 0)
    P = regular_partition(1)
    assert P[P.index_of(Fraction(1, 2))] == StdInterval(1, 1)  # half-open
    Q = DyadicPartition((StdInterval(0, 1), StdInterval(2, 2), StdInterval(3, 2)))
    assert Q[Q.index_of(Fraction(2, 3))] == StdInterval(2, 2)


def test_points_outside_the_circle_are_refused():
    P = regular_partition(2)
    with pytest.raises(ValueError, match=r"^3/2 is not in \[0,1\)$"):
        P.index_of(Fraction(3, 2))
    with pytest.raises(ValueError, match=r"^5/4 is not in \[0,1\)$"):
        P.index_of(Fraction(5, 4))
    with pytest.raises(ValueError, match=r"^-1/3 is not in \[0,1\)$"):
        supports(P, [Fraction(-1, 3), Fraction(1, 8)])
    with pytest.raises(ValueError, match=r"^1 is not in \[0,1\)$"):
        P.index_of(1)
    assert P.index_of(0) == 0 and P.index_of(Fraction(255, 256)) == 3


def test_circle_point_range_check():
    half = Fraction(1, 2)
    assert CirclePoint(0).value == 0 and CirclePoint("2/4").value == half
    for v, shown in ((1, "1"), (Fraction(3, 2), "3/2"), (Fraction(-1, 3), "-1/3")):
        with pytest.raises(ValueError, match=rf"^{shown} is not in \[0,1\)$"):
            CirclePoint(v)
    # a value past CPython's int/str digit limit is described, not printed
    with pytest.raises(ValueError, match=r"^a value of more than \d+ digits is not"):
        CirclePoint(10 ** 5000)


def test_decimal_literal_bound_is_a_million_digits():
    # 1/10^999999 needs 10^6 digits and is read by Fraction; one digit more
    # is refused before the power is computed, however the literal spells it
    assert CirclePoint.parse("1e-999999").q == 10 ** 999999
    for text in ("1e-1000000", "0.1e-999999", "1e1000000", "1_0e999_999",
                 "1e" + "9" * 40):
        for read in (CirclePoint.parse, CirclePoint):
            with pytest.raises(ValueError, match=rf"^point '{text}' needs more "
                                                 r"than 1000000 digits$"):
                read(text)
    assert CirclePoint.parse("0.0e-99999999") == CirclePoint(0)


def test_point_parsing_round_trip():
    p = CirclePoint.parse("1/7")
    assert p.value == Fraction(1, 7)
    assert CirclePoint.parse(str(p)).value == p.value
    b = CirclePoint.parse("0.01101")
    assert b.value == Fraction(13, 32)
    assert b == dy(13, 5) and CirclePoint.parse(str(b)) == b


def test_one_point_per_rational():
    # every spelling of 1/2 gives the same reduced pair; str is always p/q
    points = [CirclePoint.parse("1/2"), CirclePoint.parse("2/4"),
              CirclePoint.parse("0.1"), CirclePoint(Fraction(1, 2)), CirclePoint(2, 4)]
    for p in points:
        assert (p.p, p.q) == (1, 2) and str(p) == "1/2"
        assert p == points[0] and hash(p) == hash(points[0])
    assert len(set(points)) == 1
    for zero in (CirclePoint(0), CirclePoint.parse("0"), CirclePoint.parse("0/7"),
                 CirclePoint(0, 8)):
        assert str(zero) == "0/1" and zero == CirclePoint(0, 1)
    assert CirclePoint(1, 3) < CirclePoint(1, 2) and not CirclePoint(1, 2) < CirclePoint(2, 4)


def test_tree_metric_refuses_non_dyadic_points():
    with pytest.raises(ValueError, match=r"^1/3 is not dyadic$"):
        tree_metric(CirclePoint(1, 3), dy(1, 2), 4)
    with pytest.raises(ValueError, match=r"^1/3 is not dyadic$"):
        xor_sub(dy(1, 2), CirclePoint(1, 3))


# ---------------------------------------------------------------------------
# properties of the integer geometry against Fraction references; sizes stay
# small (<= 64 intervals, level <= 12, <= 16 points; the index_of boundary
# test deepens towards three points to level 64, and the supporting-partition
# descent goes to level 70 to reach past MAX_LEVEL)

PROPS = settings(max_examples=60)  # the rest comes from conftest's profile


@st.composite
def partitions(draw):
    """A random partition: up to 63 refinements of [0,1), level <= 12."""
    P = TRIVIAL_PARTITION
    for k in draw(st.lists(st.integers(min_value=0), max_size=63)):
        i = k % len(P)
        if P[i].level < 12:
            P = P.refine_at(i)
    return P


@st.composite
def rationals(draw):
    q = draw(st.one_of(st.integers(1, 5000), st.sampled_from([1 << k for k in range(13)])))
    return Fraction(draw(st.integers(0, q - 1)), q)


def ref_index_of(P, x):
    (i,) = [i for i, iv in enumerate(P) if iv.left <= x < iv.right]
    return i


def ref_is_refinement(P, Q):
    return all(any(p.left <= q.left and q.right <= p.right for p in P) for q in Q)


@PROPS
@given(partitions())
def test_property_tree_partition_round_trip(P):
    # a tree is its partition: its document reads back to P's leaves
    assert nested_to_leaves(partition_to_nested(P)) == [
        (iv.left_numerator, iv.level) for iv in P]


@PROPS
@given(partitions())
def test_property_fold_tree_slot_order_and_document_shape(P):
    assert fold_tree(P, lambda k: (k,), lambda l, r: l + r) == tuple(range(len(P)))

    # the bottom-up stack fold and the matrix references' top-down split
    # give the same document
    nested = treestate._walk(P, lambda k: 0, lambda l, r: [l, r], 0, len(P), 0, 0)
    assert partition_to_nested(P) == nested


@PROPS
@given(partitions(), partitions())
def test_property_common_refinement_is_the_endpoint_union(P, Q):
    R = common_refinement(P, Q)
    ends = sorted({iv.left for iv in P} | {iv.left for iv in Q} | {Fraction(1)})
    widths = [b - a for a, b in zip(ends, ends[1:])]
    assert all(w.numerator == 1 for w in widths)
    want = [StdInterval(int(a / w), w.denominator.bit_length() - 1)
            for a, w in zip(ends, widths)]
    assert list(R) == want
    assert is_refinement(P, R) and is_refinement(Q, R)


@PROPS
@given(partitions(), partitions(), st.lists(rationals(), max_size=16))
def test_property_is_refinement_and_index_of(P, Q, xs):
    assert is_refinement(P, Q) == ref_is_refinement(P, Q)
    assert is_refinement(Q, P) == ref_is_refinement(Q, P)
    for x in xs:
        assert P.index_of(x) == ref_index_of(P, x)
        assert leaf_index(identity_pairs(P), x.numerator, x.denominator) == ref_index_of(P, x)


@st.composite
def deep_partitions(draw):
    """A random partition refined further towards up to three random points
    of the level-64 grid, each to its own depth <= 64."""
    P = draw(partitions())
    for _ in range(draw(st.integers(0, 3))):
        t = draw(st.integers(0, (1 << 64) - 1))
        depth = draw(st.integers(0, 64))
        while True:
            (i,) = [i for i, iv in enumerate(P)
                    if t >> (64 - iv.level) == iv.left_numerator]
            if P[i].level >= depth:
                break
            P = P.refine_at(i)
    return P


@PROPS
@given(deep_partitions(), st.lists(st.integers(min_value=0), max_size=8))
def test_property_index_of_at_interval_boundaries(P, picks):
    # the left end of slot k lies in slot k, a point 2^-70 to its left in k - 1
    tiny = Fraction(1, 1 << 70)
    for k, iv in enumerate(P):
        assert P.index_of(iv.left) == k
        if k:
            assert P.index_of(iv.left - tiny) == k - 1
    for k in {p % len(P) for p in picks}:  # the linear reference is slow
        assert ref_index_of(P, P[k].left) == k
        if k:
            assert ref_index_of(P, P[k].left - tiny) == k - 1


@PROPS
@given(st.sets(rationals(), min_size=1, max_size=16))
def test_property_minimal_supporting_partition(points):
    pts = sorted(points)
    P = minimal_supporting_partition(pts)
    slots = [ref_index_of(P, x) for x in pts]
    assert len(set(slots)) == len(slots)  # supports the points
    assert [P.index_of(x) for x in pts] == slots
    # coarsest: every caret whose children are both leaves holds two points
    for a, b in zip(P, P.intervals[1:]):
        if a.level == b.level and a.left_numerator % 2 == 0 \
                and b.left_numerator == a.left_numerator + 1:
            assert sum(a.left <= x < b.right for x in pts) >= 2


def ref_minimal_supporting_partition(points):
    """The Fraction descent: a Fraction midpoint test at every node and a new
    list of points at every split."""
    pts = [as_point(p).value for p in points]
    if not pts:
        raise ValueError("empty tuple of points")
    for a, b in zip(pts, pts[1:]):
        if a == b:
            raise ValueError("coincident insertions")
        if a > b:
            raise ValueError("unordered tuple")
    out = []

    def build(a, l, mine):
        if len(mine) <= 1:
            out.append(StdInterval(a, l))
            return
        if l >= MAX_LEVEL:
            raise ValueError(f"maximum partition level {MAX_LEVEL} exceeded")
        mid = Fraction(2 * a + 1, 1 << (l + 1))
        build(2 * a, l + 1, [p for p in mine if p < mid])
        build(2 * a + 1, l + 1, [p for p in mine if p >= mid])

    build(0, 0, pts)
    return DyadicPartition(tuple(out))


def outcome(msp, points):
    try:
        return msp(points)
    except ValueError as exc:
        return f"ValueError: {exc}"


# dyadic denominators up to level 70 (past MAX_LEVEL), odd primes, large composites
DENOMINATORS = st.one_of(
    st.builds(lambda l: 1 << l, st.integers(0, 70)),
    st.sampled_from([3, 5, 7, 11, 8191, 65537, 2 ** 61 - 1, 2 ** 89 - 1]),
    st.sampled_from([3 ** 45, 15 ** 20, 3 * (2 ** 64 - 1), 10 ** 25]),
    st.integers(2, 1 << 80))


@st.composite
def circle_rationals(draw):
    q = draw(DENOMINATORS)
    return Fraction(draw(st.integers(0, q - 1)), q)


@st.composite
def neighbour_tuples(draw):
    """x and x + 2^-k for k = 63, 64, 65, among a few other points: the
    pair splits at, or just past, MAX_LEVEL."""
    d = Fraction(1, 1 << draw(st.sampled_from([63, 64, 65])))
    x = draw(circle_rationals().filter(lambda x: x + d < 1))
    return sorted({x, x + d, *draw(st.lists(circle_rationals(), max_size=4))})


@settings(max_examples=300)
@given(st.one_of(st.lists(circle_rationals(), max_size=12).map(lambda xs: sorted(set(xs))),
                 neighbour_tuples(),
                 st.lists(circle_rationals(), max_size=4)))  # also unordered or coincident
def test_property_integer_descent_matches_fraction_descent(points):
    assert outcome(minimal_supporting_partition, points) == \
        outcome(ref_minimal_supporting_partition, points)


def ref_parse(text):
    """`CirclePoint.parse` before the digit split, frozen: every spelling but
    a binary expansion goes through `Fraction(str)`."""
    s = text.strip()
    if s.startswith("0.") and set(s[2:]) <= {"0", "1"} and len(s) > 2:
        num = int(s[2:], 2)
        return CirclePoint(Fraction(num, 1 << (len(s) - 2)))
    try:
        return CirclePoint(Fraction(s))
    except ZeroDivisionError:
        raise ValueError(f"point {text!r} has a zero denominator") from None


def parse_outcome(parse, text):
    try:
        v = parse(text)
        v = v.value if isinstance(v, CirclePoint) else v
        return type(v), v
    except ValueError as exc:
        return f"ValueError: {exc}"


SPACES = st.sampled_from(["", " ", "\t", "\n ", "\u00a0", "\u2003"])


@st.composite
def ratio_spellings(draw):
    """p/q or kp/kq, p up to q + 1 and q from 0, with leading zeros and
    surrounding whitespace."""
    q = draw(st.one_of(st.integers(0, 9), DENOMINATORS))
    p = draw(st.integers(0, q + 1))
    k = draw(st.sampled_from([1, 1, 3, 10 ** 20]))
    zp, zq = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return f"{draw(SPACES)}{'0' * zp}{k * p}/{'0' * zq}{k * q}{draw(SPACES)}"


@st.composite
def long_spellings(draw):
    """A numerator or denominator of around 4300 digits, the limit of int()
    on a digit string."""
    n = draw(st.integers(4295, 4305))
    return draw(st.sampled_from([
        "0" * n + "1/3", "1/" + "0" * n + "3", "1" + "0" * n + "/" + "1" * (n + 2),
        "1" * n + "/" + "1" * n, "0." + "0" * n + "1", "0.5" + "0" * n]))


OTHER_SPELLINGS = [
    "1/0", "5/4", "3/3", "0/0", "+1/3", "-1/3", "-0/3", "+0.25", "1_0/32",
    "1/3_2", "1__0/32", "١/٢", "²/4", "1/²", "٣/8", "0.25", "3e-2", "3E-2", ".5",
    "0.1", "0.10", "0.12", "1e-1", "2.5e-1", "0.2_5", "0", "1", "", " ", "/", "1/",
    "/2", "1//2", "1/2/3", "1 /3", "1/ 3", "0x1/2", "1/3e0", "nan", "inf", "½"]


@settings(max_examples=300)
@given(st.one_of(ratio_spellings(), long_spellings(), st.sampled_from(OTHER_SPELLINGS),
                 st.text(alphabet="0123456789/._+-eE ١²", max_size=8)))
def test_property_point_parse_matches_fraction_parse(text):
    # every reader of text gives the frozen reference's point or error
    want = parse_outcome(ref_parse, text)
    for read in (CirclePoint.parse, CirclePoint, as_point,
                 lambda t: Fraction(*read_point(t))):
        assert parse_outcome(read, text) == want


@PROPS
@given(partitions().filter(lambda P: len(P) >= 2), st.integers(min_value=0))
def test_property_partition_rejects_gap_overlap_and_short_cover(P, k):
    ivs = P.intervals
    i = k % (len(ivs) - 1)  # an interval with a right neighbour
    gap = ivs[:i] + (ivs[i].halves()[0],) + ivs[i + 1:]
    with pytest.raises(ValueError, match="gap or overlap"):
        DyadicPartition(gap)
    iv = ivs[i]
    parent = StdInterval(iv.left_numerator // 2, iv.level - 1)
    with pytest.raises(ValueError, match="gap or overlap"):
        DyadicPartition(ivs[:i] + (parent,) + ivs[i + 1:])
    with pytest.raises(ValueError, match="must start at 0"):
        DyadicPartition(ivs[1:])
    with pytest.raises(ValueError, match="must end at 1"):
        DyadicPartition(ivs[:-1])


@pytest.mark.parametrize("leaves, message", [
    ([(0, -1)], r"\[0/2\^-1, \.\.\.\) has a negative level"),
    ([(0, 1), (1, -1)], r"\[1/2\^-1, \.\.\.\) has a negative level"),
    ([(0, 1), (2, 1)], r"\[2/2\^1, \.\.\.\) is not inside \[0,1\)"),
    ([(-1, 1), (0, 1), (1, 1)], r"\[-1/2\^1, \.\.\.\) is not inside \[0,1\)"),
    ([(0, 1), (5, 3), (1, -2)], r"\[1/2\^-2, \.\.\.\) has a negative level"),
])
def test_partition_names_a_bad_leaf(leaves, message):
    # a leaf of negative level or outside [0,1) also breaks the cover; the
    # partition names the first such leaf, never a fault of the cover or a
    # failed shift
    with pytest.raises(ValueError, match=message):
        DyadicPartition(tuple(StdInterval(a, l) for a, l in leaves))


@pytest.mark.parametrize("leaves", [
    ((0, 1), (1, 1)),
    (StdInterval(0, 1), (1, 1)),
    ([0, 0],),
    (0,),
])
def test_partition_refuses_leaves_that_are_not_intervals(leaves):
    # a plain pair would pass the cover check and then fail on `.level`
    with pytest.raises(ValueError, match="is not a StdInterval"):
        DyadicPartition(leaves)
