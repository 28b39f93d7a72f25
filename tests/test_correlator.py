import functools
import importlib.util
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import refine_at
from test_dyadic import deep_partitions
from treefield import thompson as th
from treefield import treestate
from treefield.correlator import (CorrelatorRequest, FieldInsertion,
                                  _evaluate, _transformed_leaves, ipow, n_point,
                                  ope_terms, regular_two_point,
                                  request_from_document, smeared_expectation,
                                  staircase_csv, staircase_samples,
                                  transformed_correlator,
                                  transformed_state_correlator,
                                  two_point_closed, two_point_terms)
from treefield.dyadic import (MAX_LEVEL, CirclePoint, DyadicPartition,
                              StdInterval, as_point, common_refinement,
                              fold_tree, minimal_supporting_partition,
                              regular_partition)
from treefield import models
from treefield.models import ModelSpec, check_swap, load_model, preset, to_document
from treefield.spectral import Isometry3Box


@pytest.fixture(scope="module")
def qutrit():
    return preset("qutrit")


def swap_model(seed, d=2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(d * d, d)) + 1j * rng.normal(size=(d * d, d))
    Xs = (X.reshape(d, d, d) + X.reshape(d, d, d).transpose(1, 0, 2)).reshape(d * d, d)
    Q, _ = np.linalg.qr(Xs)
    V = Isometry3Box(Q)
    labels = tuple(str(i) for i in range(d * d))
    return ModelSpec(f"swap{seed}", "isometry", labels, {}, isometry=V)


def frac(s):
    return CirclePoint(s)


def generic_model(seed, d=2):
    """Random isometry without SWAP symmetry: f^{0b}_g is not diagonal."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(d * d, d)) + 1j * rng.normal(size=(d * d, d))
    Q, _ = np.linalg.qr(X)
    labels = tuple(str(i) for i in range(d * d))
    return ModelSpec(f"generic{seed}", "isometry", labels, {}, isometry=Isometry3Box(Q))


def near_defective_model():
    """Real isometry next to an exceptional point of its channel: two real
    eigenvalues near -0.3388 are about to merge, cond of the eigenbasis ~6e5."""
    rng = np.random.default_rng(0)
    X0, X1 = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
    Q, _ = np.linalg.qr(X0 - 1.3759614348378135 * X1)
    return ModelSpec("near-defective", "isometry", tuple("0123"), {},
                     isometry=Isometry3Box(Q))


def abstract_twin(base):
    """The isometry model's eigenvalues, fusion coefficients and moments
    loaded as an abstract (label-space) model."""
    lam = base.eigenvalues
    n = len(base.labels)
    f = base.fusion.coefficients
    return load_model({
        "name": "abstract-twin", "kind": "abstract",
        "labels": list(base.labels),
        "channel": [[[lam[i].real, lam[i].imag] if i == j else [0.0, 0.0]
                     for j in range(n)] for i in range(n)],
        "fusion": {"labels": list(base.labels),
                   "coefficients": np.stack([f.real, f.imag], axis=-1).tolist(),
                   "tol": 1e-10},
        "moments": np.stack([base.vacuum_moments.real,
                             base.vacuum_moments.imag], axis=-1).tolist(),
    })


def weighted_ops(P, req, model):
    """Slot of P -> lambda^{-level} mu matrix, the matrix references' input."""
    lam = model.eigenvalues
    ops = {}
    for ins in req.insertions:
        k = P.index_of(ins.position)
        ops[k] = ipow(lam[ins.label], -P[k].level) * model.spectral.right_ops[ins.label]
    return ops


def fold_reference(P, vecs, model):
    """The partition-folding evaluator, the reference of `_evaluate`: every
    interval of P is folded (`dyadic.fold_tree`), empty siblings included;
    slot k holds `vecs[k]` or nothing, and a lone child ascends with the
    left or right lone-child map."""
    ev = model.evaluation
    n = len(ev.closing)

    def join(lv, rv):
        if rv is None:
            return None if lv is None else lv @ ev.left
        if lv is None:
            return rv @ ev.right
        return rv @ (lv @ ev.pair).reshape(n, n)

    root = fold_tree(P, vecs.get, join)
    if root is None:
        return 1.0 + 0.0j
    return complex(root @ ev.closing)


def ipow_vectors(P, req, model):
    """Slot of P -> the weighted insertion lambda^{-level} mu at that slot,
    computed with `ipow` for each insertion."""
    lam, basis = model.eigenvalues, model.evaluation.basis
    vecs = {}
    for ins in req.insertions:
        k = P.index_of(ins.position)
        vecs[k] = ipow(lam[ins.label], -P[k].level) * basis[:, ins.label]
    return vecs


def fold_n_point(req, model):
    """Vacuum n-point by the reference route: the supporting-partition
    descent, slots by bisection, weighted vectors, the partition fold."""
    P = minimal_supporting_partition([ins.position for ins in req.insertions])
    return fold_reference(P, ipow_vectors(P, req, model), model)


def oracle_value(req, model, partition=None):
    P = partition or minimal_supporting_partition([i.position for i in req.insertions])
    t = treestate.LabelledTree(P, weighted_ops(P, req, model))
    return treestate.oracle_expectation(t, model.require_isometry())


def test_identity_labels_give_one(qutrit):
    req = CorrelatorRequest.make([frac("1/7"), frac("2/3"), frac("5/6")],
                                 ["1", "1", "1"], qutrit)
    assert abs(n_point(req, qutrit) - 1.0) < 1e-14


def test_three_point_example_stability_and_oracle(qutrit):
    req = CorrelatorRequest.make([frac("1/7"), frac("2/3"), frac("5/6")],
                                 ["β¹", "β²", "β³"], qutrit)
    P = minimal_supporting_partition([i.position for i in req.insertions])
    assert [str(iv) for iv in P] == ["0/2", "2/4", "3/4"]
    base = n_point(req, qutrit)
    assert abs(base - oracle_value(req, qutrit)) < 1e-12
    rng = np.random.default_rng(0)
    for _ in range(5):
        Q = P
        for _ in range(int(rng.integers(1, 5))):
            Q = refine_at(Q, int(rng.integers(0, len(Q))))
        assert abs(n_point(req, qutrit, partition=Q) - base) < 1e-12


def test_two_point_closed_sibling_value(qutrit):
    # frozen: C(0, 1/2; δ¹, δ¹) = (λλ)^{-1} f^{δ¹δ¹}_1 = 4 · (-1/3)
    got = two_point_closed(frac("0"), frac("1/2"), "δ¹", "δ¹", qutrit)
    assert abs(got - (-4.0 / 3.0)) < 1e-12
    req = CorrelatorRequest.make([frac("0"), frac("1/2")], ["δ¹", "δ¹"], qutrit)
    assert abs(got - oracle_value(req, qutrit)) < 1e-12


def test_two_point_identity_pair(qutrit):
    assert abs(two_point_closed(frac("0"), frac("1/2"), 0, 0, qutrit) - 1) < 1e-14


def test_two_point_closed_requires_dyadic(qutrit):
    with pytest.raises(ValueError, match="closed form requires dyadic"):
        two_point_closed(frac("1/3"), frac("1/2"), 0, 0, qutrit)


def test_end_to_end_two_point_value(qutrit):
    # bare insertions at leaves 0 and 2^m - 1 of the depth-m regular tree:
    # (1/d) (l_a l_b)^{m-1} sum_g f^{ab}_g l_g^{-1} tr mu^g   (reference form;
    # on this model only the identity channel has a trace, so it matches the
    # engine normalisation exactly)
    lam = qutrit.eigenvalues
    f = qutrit.fusion.coefficients
    mus = qutrit.spectral.right_ops
    for m in (2, 3, 4, 5):
        for a, b in [(1, 1), (1, 2), (3, 3), (6, 7)]:
            want = (lam[a] * lam[b]) ** (m - 1) / 3 * sum(
                f[a, b, g] / lam[g] * np.trace(mus[g]) for g in range(9))
            got = regular_two_point(m, 0, (1 << m) - 1, a, b, qutrit)
            assert abs(got - want) < 1e-12
            # weighted/bare bridge to the continuum closed form
            x = CirclePoint(Fraction(0))
            y = CirclePoint(Fraction((1 << m) - 1, 1 << m))
            closed = two_point_closed(x, y, a, b, qutrit)
            assert abs(closed - got * ipow(lam[a] * lam[b], -m)) < 1e-12


def test_regular_two_point_index_range(qutrit):
    with pytest.raises(ValueError, match="index range"):
        regular_two_point(3, 5, 5, 1, 1, qutrit)
    with pytest.raises(ValueError, match="index range"):
        regular_two_point(3, 1, 8, 1, 1, qutrit)


def test_closed_forms_agree_with_engine_and_oracle(qutrit):
    # all dyadic pairs at level <= 3, a spread of label pairs
    lam = qutrit.eigenvalues
    pairs = [(1, 1), (1, 2), (3, 4), (4, 8), (6, 6), (2, 5)]
    m = 3
    for j in range(8):
        for k in range(j + 1, 8):
            x = CirclePoint(Fraction(j, 8))
            y = CirclePoint(Fraction(k, 8))
            for a, b in pairs:
                closed = two_point_closed(x, y, a, b, qutrit)
                req = CorrelatorRequest.make([x, y], [a, b], qutrit)
                direct = n_point(req, qutrit)
                assert abs(closed - direct) < 1e-10
                assert abs(closed - oracle_value(req, qutrit)) < 1e-10
                bare = regular_two_point(m, j, k, a, b, qutrit)
                assert abs(closed - bare * ipow(lam[a] * lam[b], -m)) < 1e-10


def test_closed_form_on_swap_symmetric_random_model():
    model = swap_model(11)
    if any(model.zero_weight):
        pytest.skip("random model hit a zero eigenvalue")
    for j, k in [(0, 1), (1, 2), (0, 3), (2, 3), (1, 3)]:
        x, y = CirclePoint(Fraction(j, 4)), CirclePoint(Fraction(k, 4))
        for a in range(4):
            for b in range(4):
                closed = two_point_closed(x, y, a, b, model)
                req = CorrelatorRequest.make([x, y], [a, b], model)
                assert abs(closed - n_point(req, model)) < 1e-10


def test_scale_covariance_per_sector():
    # halving a standard dyadic pair multiplies the gamma term by l_g/(l_a l_b)
    model = swap_model(11)
    lam = model.eigenvalues
    x, y = Fraction(1, 4), Fraction(1, 2)  # wait: prefix 0 pair
    t0 = two_point_terms(Fraction(0), Fraction(1, 2), 1, 2, model)
    t1 = two_point_terms(Fraction(0), Fraction(1, 4), 1, 2, model)
    for g in range(4):
        if abs(t0[g]) < 1e-13:
            assert abs(t1[g]) < 1e-13
            continue
        ratio = t1[g] / t0[g]
        want = lam[g] / (lam[1] * lam[2])
        assert abs(ratio - want) < 1e-9


def test_refinement_stability_random_requests(qutrit):
    rng = np.random.default_rng(1)
    for _ in range(25):
        k = int(rng.integers(1, 4))
        nums = sorted(rng.choice(8, size=k, replace=False))
        pts = [CirclePoint(Fraction(int(n), 8)) for n in nums]
        labels = [int(l) for l in rng.integers(0, 9, size=k)]
        req = CorrelatorRequest.make(pts, labels, qutrit)
        base = n_point(req, qutrit)
        P = minimal_supporting_partition(pts)
        for _ in range(10):
            Q = P
            for _ in range(int(rng.integers(1, 4))):
                Q = refine_at(Q, int(rng.integers(0, len(Q))))
            assert abs(n_point(req, qutrit, partition=Q) - base) <= 1e-12


def test_request_validation(qutrit):
    with pytest.raises(ValueError, match="coincident insertions"):
        CorrelatorRequest.make([frac("1/4"), frac("1/4")], [1, 2], qutrit)
    with pytest.raises(ValueError, match="unordered"):
        CorrelatorRequest.make([frac("1/2"), frac("1/4")], [1, 2], qutrit)
    halves = ["1/2", "2/4", "0.1", Fraction(1, 2)]  # one value, four spellings
    for x in halves:
        for y in halves:
            with pytest.raises(ValueError, match="^coincident insertions$"):
                CorrelatorRequest.make([x, y], ["δ¹", "δ¹"], qutrit)
        with pytest.raises(ValueError, match="^unordered tuple$"):
            CorrelatorRequest.make([x, "0.01"], ["δ¹", "δ¹"], qutrit)
        CorrelatorRequest.make(["0.01", x], ["δ¹", "δ¹"], qutrit)


def test_json_float_positions_are_the_decimals_they_spell(qutrit):
    def points(text):
        return request_from_document(json.loads(text), qutrit).points

    # 0.1 is 1/10 and 0.11 is 11/100, not the binary expansions 1/2 and 3/4
    assert points('{"positions": [0.1, 0.75], "labels": ["d1", "d2"]}') == ((1, 10), (3, 4))
    assert points('{"positions": [0.11, 0.75], "labels": ["d1", "d2"]}') == ((11, 100), (3, 4))
    assert points('{"positions": [1e-05, 0.5], "labels": ["d1", "d2"]}') == ((1, 100000), (1, 2))
    # a string keeps the point reader: "0.1" is the binary expansion 1/2
    assert points('{"positions": ["0.1", 0.75], "labels": ["d1", "d2"]}') == ((1, 2), (3, 4))
    # ints, booleans, null and non-finite floats keep their readings as text
    assert points('{"positions": [0, 0.5], "labels": ["d1", "d2"]}') == ((0, 1), (1, 2))
    for x, error in (("1", "1 is not in [0,1)"), ("1.5", "3/2 is not in [0,1)"),
                     ("true", "Invalid literal for Fraction: 'True'"),
                     ("null", "Invalid literal for Fraction: 'None'"),
                     ("Infinity", "Invalid literal for Fraction: 'inf'"),
                     ("NaN", "Invalid literal for Fraction: 'nan'")):
        with pytest.raises(ValueError) as exc:
            points(f'{{"positions": [{x}, 0.75], "labels": ["d1", "d2"]}}')
        assert str(exc.value) == error


RATIONALS = st.builds(
    lambda q, k: Fraction(k % q, q),
    st.one_of(st.integers(1, 60), st.builds(lambda l: 1 << l, st.integers(0, 70)),
              st.sampled_from([8191, 65537, 2 ** 61 - 1, 3 ** 45])),
    st.integers(min_value=0))


def spellings(v):
    """The Fraction v, 'p/q', 'kp/kq', and for dyadic v its binary expansion
    with trailing zeros."""
    p, q = v.numerator, v.denominator
    out = [st.just(v), st.just(f"{p}/{q}"),
           st.integers(2, 9).map(lambda k: f"{k * p}/{k * q}")]
    if q & (q - 1) == 0:
        l = q.bit_length() - 1
        digits = format(p, f"0{l}b") if l else ""
        out.append(st.integers(0 if l else 1, 3).map(lambda z: "0." + digits + "0" * z))
    return st.one_of(out)


@st.composite
def spelled_tuples(draw):
    """Two or three points, each as likely to repeat its left neighbour's
    value (in any spelling) as to be drawn afresh."""
    values = [draw(RATIONALS)]
    for _ in range(draw(st.integers(1, 2))):
        values.append(values[-1] if draw(st.booleans()) else draw(RATIONALS))
    return [draw(spellings(v)) for v in values]


def fraction_order(points):
    values = [as_point(x).value for x in points]
    for a, b in zip(values, values[1:]):
        if a == b:
            return "coincident insertions"
        if a > b:
            return "unordered tuple"
    return None


@settings(max_examples=200)
@given(spelled_tuples())
def test_property_request_order_check_matches_fraction_order(qutrit, points):
    try:
        CorrelatorRequest.make(points, ["δ¹"] * len(points), qutrit)
        got = None
    except ValueError as exc:
        got = str(exc)
    assert got == fraction_order(points)


def refuse_intervals_and_partitions(monkeypatch, path):
    """Make building a `StdInterval`, by any constructor of the named tuple,
    or a `DyadicPartition` raise an AssertionError that names `path`."""
    def refuse(cls, *args):
        raise AssertionError(f"{cls.__name__} built on the {path} path")

    monkeypatch.setattr(StdInterval, "__new__", refuse)
    monkeypatch.setattr(StdInterval, "_make", classmethod(refuse))
    monkeypatch.setattr(DyadicPartition, "__post_init__", lambda self: refuse(type(self)))


def test_vacuum_n_point_builds_no_interval_fractions(qutrit, monkeypatch):
    # after parsing, the vacuum path runs on integer pairs: it builds no
    # interval, no partition and no interval endpoint as a Fraction, and
    # bisects for no slot
    dyadic = {Fraction(k * 4093 % 65536, 65536) for k in range(1, 17)}
    odd = {Fraction(k, 2 * k + 1) for k in range(1, 17)}
    doc = {"positions": [str(x) for x in sorted(dyadic | odd)],
           "labels": ["δ¹", "δ²"] * 16}
    want = n_point(request_from_document(doc, qutrit), qutrit)
    assert want != 0 and math.isfinite(abs(want))

    def refuse(self):
        raise AssertionError("interval endpoint built as a Fraction")

    calls = {"index_of": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(DyadicPartition, "index_of",
                        counted("index_of", DyadicPartition.index_of))

    with monkeypatch.context() as m:
        m.setattr(StdInterval, "left", property(refuse))
        m.setattr(StdInterval, "right", property(refuse))
        refuse_intervals_and_partitions(m, "vacuum")
        req = request_from_document(doc, qutrit)
        assert n_point(req, qutrit) == want
        with pytest.raises(AssertionError, match="StdInterval built on the vacuum path"):
            minimal_supporting_partition(req.positions())
    assert calls == {"index_of": 0}

    # an explicit partition finds the slots by bisection, to the same bits
    msp = minimal_supporting_partition([ins.position for ins in req.insertions])
    assert repr(n_point(req, qutrit, partition=msp)) == repr(want)
    assert calls == {"index_of": 32}


@functools.lru_cache(maxsize=None)
def evaluator_models():
    """The qutrit (SWAP-symmetric, d = 3) and two models without SWAP
    symmetry, d = 2 and d = 3, whose left and right lone-child maps differ."""
    return (preset("qutrit"), generic_model(1), generic_model(2, d=3))


def outcome(fn, *args):
    """repr of the value, or the error message."""
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=150)
@given(deep_partitions(), st.data())
def test_property_leaf_evaluator_matches_the_partition_fold(P, data):
    # random partitions to level 64, random occupied slots holding random
    # vectors: the fold of the occupied leaves gives the partition fold's bits
    model = evaluator_models()[data.draw(st.integers(0, 2))]
    slots = data.draw(st.sets(st.integers(0, len(P) - 1), max_size=12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    n = len(model.evaluation.closing)
    vecs = {k: rng.normal(size=n) + 1j * rng.normal(size=n) for k in sorted(slots)}
    leaves = [(*P[k], vecs[k]) for k in sorted(vecs)]
    assert repr(_evaluate(leaves, model)) == repr(fold_reference(P, vecs, model))


@st.composite
def close_requests(draw):
    """Up to 12 points p/q, and up to two of them with a neighbour added
    2^-63, 2^-64 or 2^-65 to the right."""
    points = set(draw(st.lists(RATIONALS, min_size=1, max_size=12)))
    for x in draw(st.lists(st.sampled_from(sorted(points)), max_size=2)):
        y = x + Fraction(1, 1 << draw(st.sampled_from([63, 64, 65])))
        if y < 1:
            points.add(y)
    return sorted(points)


@settings(max_examples=150)
@given(close_requests(), st.data())
def test_property_vacuum_leaves_match_the_partition_fold(points, data):
    # the leaves read from the points' digits against the supporting-partition
    # descent and its fold: the same bits, or the same refusal at level 64
    model = evaluator_models()[data.draw(st.integers(0, 2))]
    labels = [l for l in range(len(model.labels)) if not model.zero_weight[l]]
    req = CorrelatorRequest.make(
        points, data.draw(st.lists(st.sampled_from(labels), min_size=len(points),
                                   max_size=len(points))), model)
    assert outcome(n_point, req, model) == outcome(fold_n_point, req, model)


def test_vacuum_leaves_at_the_level_cap(qutrit):
    # neighbours 2^-63 or 2^-64 apart fit under the level cap; 2^-65 apart
    # they share 64 digits, unless they straddle a coarse boundary such as 1/2
    refused = f"ValueError: maximum partition level {MAX_LEVEL} exceeded"
    cases = [(x, k, k == 65) for x in (Fraction(0), Fraction(1, 3)) for k in (63, 64, 65)]
    cases.append((Fraction(1, 2) - Fraction(1, 1 << 65), 65, False))
    for x, k, too_deep in cases:
        req = CorrelatorRequest.make([x, x + Fraction(1, 1 << k)], ["δ¹", "δ²"], qutrit)
        got = outcome(n_point, req, qutrit)
        assert got == outcome(fold_n_point, req, qutrit)
        assert (got == refused) == too_deep


def table_models():
    """Every preset, the Fibonacci one given the vacuum moments its evaluator
    needs, and one abstract model, the qutrit's label-space twin."""
    fibonacci = to_document(preset("fibonacci"))
    fibonacci["moments"] = [[1.0, 0.0], [0.25, 0.0]]
    return preset("qutrit"), load_model(fibonacci), abstract_twin(preset("qutrit"))


def weighted_labels(model):
    return [a for a in range(len(model.labels)) if not model.zero_weight[a]]


def test_weight_table_entries_are_the_ipow_expression_read_only():
    # every label at every level up to two past the cap: the entry is the
    # expression it replaces, computed once when first read, and read-only
    levels = range(MAX_LEVEL + 3)
    for model in table_models():
        lam, basis, table = model.eigenvalues, model.evaluation.basis, model.weights
        assert len(table) == 0
        for a in weighted_labels(model):
            for l in levels:
                vec = table[a, l]
                assert np.array_equal(vec, ipow(lam[a], -l) * basis[:, a])
                assert table[a, l] is vec and not vec.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    vec[0] = 0
        assert len(table) == len(weighted_labels(model)) * len(levels)


def test_refined_partitions_read_the_table_like_the_ipow_fold():
    # the slot of 1/3 split with `refine_at` down to level 64: the evaluator
    # on the table's vectors gives the bits of the partition fold on ipow's
    for model in table_models():
        labels = weighted_labels(model)
        for a in labels:
            req = CorrelatorRequest.make(["1/3", "2/3"], [a, labels[-1]], model)
            P = minimal_supporting_partition([ins.position for ins in req.insertions])
            while True:
                assert repr(n_point(req, model, partition=P)) == repr(
                    fold_reference(P, ipow_vectors(P, req, model), model))
                k = P.index_of(req.insertions[0].position)
                if P[k].level == MAX_LEVEL:
                    break
                P = refine_at(P, k)


def test_library_set_up_leaves_the_weight_table_empty(monkeypatch):
    # the set-up the benchmark's set-up probe times (import, the qutrit's
    # derived data, a model document loaded) reads no weighted insertion
    path = Path(__file__).resolve().parents[1] / "perfbench" / "setup_probe.py"
    spec = importlib.util.spec_from_file_location("setup_probe", path)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    built = []
    for name in ("preset", "load_model"):
        def recording(*args, make=getattr(models, name)):
            built.append(make(*args))
            return built[-1]
        monkeypatch.setattr(models, name, recording)
    probe.library_setup()
    assert len(built) == 2
    for model in built:
        assert len(model.weights) == 0
        model.weights[0, 3]
        assert list(model.weights) == [(0, 3)]


def test_vacuum_n_point_from_text_builds_no_fraction(qutrit, monkeypatch):
    # an ASCII 'p/q' request reaches the evaluator as integer pairs: with
    # `Fraction` refused inside the geometry and the correlator, parsing and
    # evaluation still give the same value
    import treefield.correlator
    import treefield.dyadic
    doc = {"positions": ["0/1", "3/16", "1/3", "2/4", "5/7", "12/15", "65535/65536"],
           "labels": ["δ¹", "δ²"] * 3 + ["δ¹"]}
    want = n_point(request_from_document(doc, qutrit), qutrit)
    assert want != 0 and math.isfinite(abs(want))

    class NoFraction:
        def __new__(cls, *args):
            raise AssertionError("Fraction built on the vacuum n-point path")

    assert not hasattr(treefield.correlator, "Fraction")  # none to build
    monkeypatch.setattr(treefield.dyadic, "Fraction", NoFraction)
    assert repr(n_point(request_from_document(doc, qutrit), qutrit)) == repr(want)


def test_zero_weight_label_rejected():
    # copy isometry: E(X) = diag(X) has two zero eigenvalues
    m = np.zeros((4, 2), dtype=complex)
    m[0, 0] = 1.0
    m[3, 1] = 1.0
    model = ModelSpec("copy", "isometry", ("0", "1", "2", "3"), {},
                      isometry=Isometry3Box(m))
    assert sum(model.zero_weight) == 2
    zero_label = model.zero_weight.index(True)
    with pytest.raises(ValueError, match="zero ascending weight"):
        CorrelatorRequest.make([frac("1/4")], [zero_label], model)
    with pytest.raises(ValueError, match="zero ascending weight"):
        ope_terms(zero_label, 0, model)


def test_ope_terms_qutrit_examples(qutrit):
    terms = ope_terms("δ¹", "δ²", qutrit)
    names = [(qutrit.labels[g], complex(c), e) for g, c, e in terms]
    assert len(names) == 3
    assert names[0][0] == "1" and abs(names[0][1] - (-1 / 6)) < 1e-10
    assert names[0][2] == -2.0
    assert {n[0] for n in names[1:]} == {"δ¹", "δ²"}
    for _, c, e in names[1:]:
        assert abs(c - (-1 / 3)) < 1e-10 and e == -1.0
    # second reference pair: single α¹ channel at exponent -1 with expansion
    # coefficient f = 1/2, F(mu^{β²}, mu^{α³}) = (1/2) mu^{α¹} (test_fusion);
    # the reference 1/3 is the lowered-index pairing f G_{α¹α¹}, checked in
    # acceptance criterion 03
    terms = ope_terms("β²", "α³", qutrit)
    assert len(terms) == 1
    g, c, e = terms[0]
    assert qutrit.labels[g] == "α¹" and e == -1.0
    assert abs(c - 0.5) < 1e-10


def test_ope_terms_fibonacci():
    fib = preset("fibonacci")
    h_tau = -math.log2(0.5 * (3 - math.sqrt(5)))
    terms = ope_terms("τ", "τ", fib)
    assert len(terms) == 2
    g0, c0, e0 = terms[0]
    assert fib.labels[g0] == "1"
    assert abs(c0 - (math.sqrt(5) - 2)) < 1e-10
    assert abs(e0 - (-2 * h_tau)) < 1e-12
    g1, c1, e1 = terms[1]
    assert fib.labels[g1] == "τ"
    assert abs(c1 - (5 - 2 * math.sqrt(5))) < 1e-10
    assert abs(e1 - (-h_tau)) < 1e-12
    # 1 x tau keeps only the tau channel at exponent 0
    terms = ope_terms("1", "τ", fib)
    assert len(terms) == 1 and fib.labels[terms[0][0]] == "τ" and terms[0][2] == 0.0


def test_ope_identity_exponent_invariant(qutrit):
    for a in range(9):
        for b in range(9):
            for g, c, e in ope_terms(a, b, qutrit):
                if g == 0:
                    ha = 0.0 if a == 0 else 1.0
                    hb = 0.0 if b == 0 else 1.0
                    assert e == -(ha + hb)


def test_smeared_constant_identity(qutrit):
    P = regular_partition(2)
    pieces = [(StdInterval(0, 0), np.eye(3))]
    assert abs(smeared_expectation(pieces, P, qutrit) - 1.0) < 1e-12


def test_smeared_indicator_reproduces_discretised_field(qutrit):
    # f = (indicator of I / |I|) mu^b  ==>  phi_P(f) = lambda_b^{log|I|} mu_I^b
    S = qutrit.spectral
    lam = qutrit.eigenvalues
    P = regular_partition(2)
    target = 1  # interval [1/4, 1/2)
    b = 3
    pieces = []
    for k, iv in enumerate(P):
        M = 4.0 * S.right_ops[b] if k == target else np.zeros((3, 3))
        pieces.append((iv, M))
    got = smeared_expectation(pieces, P, qutrit)
    op = ipow(lam[b], -2) * S.right_ops[b]
    want = treestate.vacuum_expectation(
        treestate.LabelledTree(P, {target: op}), qutrit.isometry)
    assert abs(got - want) < 1e-12


def test_smeared_random_pieces_term_oracle():
    irregular = common_refinement(  # levels 3, 3, 2, 2, 4, 4, 3
        minimal_supporting_partition(["0", "1/8", "3/4", "13/16"]), regular_partition(1))
    # generic_model has no SWAP symmetry, so its left and right lone-child
    # maps differ and a swap of the two changes the value
    cases = [(swap_model(13, d=2), regular_partition(3)), (generic_model(5), irregular)]
    rng = np.random.default_rng(3)
    for model, P in cases:
        S = model.spectral
        lam = model.eigenvalues
        pieces = [(iv, rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
                  for iv in regular_partition(3)]
        got = smeared_expectation(pieces, P, model)
        # term-by-term oracle: sum of single weighted insertions, each piece
        # weighted by its overlap with the interval
        want = 0.0
        for k, iv in enumerate(P):
            overlaps = [(min(iv.right, p.right) - max(iv.left, p.left), M)
                        for p, M in pieces]
            for a in range(4):
                if model.zero_weight[a]:
                    continue
                fbar = sum(np.trace(S.left_ops[a].conj().T @ M) / 2 * float(w)
                           for w, M in overlaps if w > 0)
                op = fbar * ipow(lam[a], -iv.level) * S.right_ops[a]
                want += treestate.vacuum_expectation(
                    treestate.LabelledTree(P, {k: op}), model.isometry)
        assert abs(got - want) < 1e-10


def test_smeared_error_paths(qutrit):
    with pytest.raises(ValueError, match="cover"):
        smeared_expectation([(StdInterval(0, 1), np.eye(3))],
                            regular_partition(1), qutrit)
    # a piece that is no standard interval of [0,1) is named
    for piece, message in [((0, -1), r"\[0/2\^-1, \.\.\.\) has a negative level"),
                           ((3, 1), r"\[3/2\^1, \.\.\.\) is not inside \[0,1\)")]:
        with pytest.raises(ValueError, match=message):
            smeared_expectation([(StdInterval(0, 1), np.eye(3)),
                                 (StdInterval(*piece), np.eye(3))],
                                regular_partition(1), qutrit)
    fib = preset("fibonacci")
    with pytest.raises(ValueError, match="no isometry in model"):
        smeared_expectation([(StdInterval(0, 0), np.eye(2))],
                            regular_partition(1), fib)


def test_staircase_identity_constant(qutrit):
    rows = staircase_samples(frac("0"), 0, 0, depth=3, grid=3, model=qutrit)
    assert len(rows) == 7  # y = 0 skipped
    for _, re, im, ab in rows:
        assert abs(re - 1) < 1e-12 and abs(im) < 1e-13 and abs(ab - 1) < 1e-12


def test_staircase_piecewise_constant_in_coarse_graining_cells(qutrit):
    rows = staircase_samples(frac("0"), "δ¹", "δ¹", depth=6, grid=4, model=qutrit)
    vals = {y: re + 1j * im for y, re, im, _ in rows}
    # y in [1/2, 1): shared prefix with 0 has length 0 -> one constant cell
    assert abs(vals["8/16"] - vals["9/16"]) < 1e-12
    assert abs(vals["9/16"] - vals["12/16"]) < 1e-12
    # y in [1/4, 1/2): prefix length 1 -> a different constant cell
    assert abs(vals["5/16"] - vals["6/16"]) < 1e-12
    assert abs(vals["7/16"] - vals["8/16"]) > 1e-6  # jump across the cell edge


def test_staircase_asymmetry(qutrit):
    rows = staircase_samples(frac("5/8"), "δ¹", "δ¹", depth=6, grid=5, model=qutrit)
    vals = {y: re + 1j * im for y, re, im, _ in rows}
    left = vals["19/32"]   # 5/8 - 1/32
    right = vals["21/32"]  # 5/8 + 1/32
    assert abs(left - right) > 1e-6


def test_staircase_rows_match_closed_form(qutrit):
    # every row against the closed two-point form, x at levels 0, 3 and 7
    for x in ("0", "3/8", "77/128"):
        xv = Fraction(x)
        for a, b in [("δ¹", "δ¹"), ("β²", "β²"), ("δ¹", "δ²")]:
            rows = staircase_samples(frac(x), a, b, depth=6, grid=3, model=qutrit)
            assert len(rows) == (7 if xv.denominator <= 8 else 8)
            for y, re, im, ab in rows:
                yv = Fraction(y)
                ref = (two_point_closed(yv, xv, b, a, qutrit) if yv < xv
                       else two_point_closed(xv, yv, a, b, qutrit))
                assert ref != 0
                assert abs(complex(re, im) - ref) <= 1e-10 * abs(ref)
                assert ab == abs(complex(re, im))


def test_staircase_csv_format(qutrit):
    rows = staircase_samples(frac("0"), 0, 0, depth=2, grid=2, model=qutrit)
    text = staircase_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "y,re,im,abs"
    assert lines[1].startswith("1/4,")


def test_abstract_model_with_moments_matches_engine():
    # the evaluator against the matrix ascent, for the isometry model and for
    # its abstract twin (which has no matrices at all)
    base = swap_model(17, d=2)
    twin = abstract_twin(base)
    assert np.allclose(twin.eigenvalues, base.eigenvalues, atol=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(10):
        k = int(rng.integers(1, 4))
        nums = sorted(rng.choice(8, size=k, replace=False))
        pts = [CirclePoint(Fraction(int(n), 8)) for n in nums]
        labels = [int(l) for l in rng.integers(0, 4, size=k)]
        req_e = CorrelatorRequest.make(pts, labels, base)
        req_a = CorrelatorRequest.make(pts, labels, twin)
        P = minimal_supporting_partition(pts)
        ops = {j: op[None] for j, op in weighted_ops(P, req_e, base).items()}
        engine = treestate.vacuum_expectation_batch(P,
                                                    base.isometry, ops)[0]
        assert abs(n_point(req_e, base) - engine) < 1e-10
        assert abs(n_point(req_a, twin) - engine) < 1e-10


def test_abstract_transformed_state_matches_isometry_twin():
    # the transformed value against the matrix ascent over the pulled-back
    # tree, for the isometry model and its abstract twin
    base = swap_model(17, d=2)
    twin = abstract_twin(base)
    f = th.compose(th.generator("A"), th.generator("C").inverse())
    pts = [frac("1/8"), frac("9/16")]
    labs = [1, 3]
    req_e = CorrelatorRequest.make(pts, labs, base)
    req_a = CorrelatorRequest.make(pts, labs, twin)
    Q = common_refinement(th.reduce(f).range_partition(),
                          minimal_supporting_partition(pts))
    ops = {j: op[None] for j, op in weighted_ops(Q, req_e, base).items()}
    engine = th.transformed_vacuum_expectation_batch(f, Q, ops, base.isometry)[0]
    assert abs(transformed_state_correlator(f, req_e, base) - engine) < 1e-10
    assert abs(transformed_state_correlator(f, req_a, twin) - engine) < 1e-10


def test_generic_isometry_matches_oracle():
    # without SWAP symmetry a lone right child ascends through the mirror
    # channel, f^{0b}_g off-diagonal; non-dyadic points put insertions on
    # right children of empty siblings; near a defective channel the
    # label-space coefficients f^{ab}_g lose digits that the value must not
    requests = [(["1/3"], [1]), (["1/7", "2/3"], [2, 3]),
                (["1/3", "2/5", "5/7"], [1, 3, 2]), (["0", "1/3", "3/4"], [3, 1, 1]),
                (["1/5", "3/5", "4/5"], [2, 2, 3])]
    models = [generic_model(seed) for seed in range(3)] + [near_defective_model()]
    assert np.linalg.cond(models[-1].spectral.right_ops.reshape(4, 4)) > 1e5
    for model in models:
        assert not check_swap(model.isometry)
        f0 = model.fusion.coefficients[0]
        assert np.abs(f0 - np.diag(np.diag(f0))).max() > 0.1
        for pts, labels in requests:
            req = CorrelatorRequest.make([frac(p) for p in pts], labels, model)
            want = oracle_value(req, model)
            assert abs(n_point(req, model) - want) <= 1e-10 * max(1.0, abs(want))


def test_many_insertions_match_matrix_ascent(qutrit):
    # partitions of more than 9 leaves, vacuum and word states: the
    # evaluator against the separate matrix ascent, to the rounding bound
    # k eps prod ||lambda^{-level} mu|| of the weighted insertions.  The
    # qutrit takes alternating δ fields (most other mixes vanish by selection
    # rules); the generic model has no SWAP symmetry, so left and right differ
    rng = np.random.default_rng(0)
    cases = [(qutrit, ["δ¹", "δ²"], 12, "A B C A-1"), (qutrit, ["δ¹", "δ²"], 20, "B S A"),
             (generic_model(0), [1, 2, 3], 12, "C C A B-1 S-1 A")]
    for model, pool, k, word in cases:
        nums = sorted(rng.choice(96, size=k, replace=False))
        pts = [CirclePoint(Fraction(int(n), 96)) for n in nums]
        req = CorrelatorRequest.make(pts, [pool[i % len(pool)] for i in range(k)], model)
        P = minimal_supporting_partition(pts)
        e = th.reduce(th.parse_word(word))
        Q = common_refinement(e.range_partition(), P)
        assert len(P) > 9
        for got, R, reference in [
                (n_point(req, model), P, lambda ops: treestate.vacuum_expectation_batch(
                    P, model.isometry, ops)),
                (transformed_state_correlator(e, req, model), Q,
                 lambda ops: th.transformed_vacuum_expectation_batch(
                     e, Q, ops, model.isometry))]:
            ops = weighted_ops(R, req, model)
            scale = math.prod(np.linalg.norm(op, 2) for op in ops.values())
            want = reference({j: op[None] for j, op in ops.items()})[0]
            assert abs(want) > 1e-9 * scale
            assert abs(got - want) <= 1e-14 * scale


def test_abstract_without_moments_errors():
    fib = preset("fibonacci")
    req = CorrelatorRequest.make([frac("1/4"), frac("1/2")], ["τ", "τ"], fib)
    with pytest.raises(ValueError, match="vacuum moments required"):
        n_point(req, fib)


def test_transformed_request_routes_through_state(qutrit):
    word = th.compose(th.generator("A"), th.generator("B"))
    req = CorrelatorRequest.make([frac("1/4"), frac("5/8")], ["δ¹", "β²"],
                                 qutrit, state=word)
    via_state = n_point(req, qutrit)
    base = CorrelatorRequest(req.points, req.labels)
    direct = transformed_state_correlator(word, base, qutrit)
    assert via_state == direct
    # identity state falls back to the vacuum
    req_id = CorrelatorRequest.make([frac("1/4")], ["δ¹"], qutrit,
                                    state=th.IDENTITY)
    vacuum = CorrelatorRequest(req_id.points, req_id.labels)
    assert n_point(req_id, qutrit) == n_point(vacuum, qutrit)


def test_covariance_law_generators_and_random_words(qutrit):
    rng = np.random.default_rng(6)
    gens = [th.generator(n) for n in "ABCS"]
    words = gens + [None] * 12
    for i in range(len(words)):
        f = words[i]
        if f is None:
            f = th.IDENTITY
            for _ in range(int(rng.integers(1, 5))):
                g = gens[int(rng.integers(4))]
                if rng.random() < 0.5:
                    g = g.inverse()
                f = th.compose(f, g)
        k = int(rng.integers(1, 3))
        nums = sorted(rng.choice(16, size=k, replace=False))
        pts = [CirclePoint(Fraction(int(n), 16)) for n in nums]
        labels = [int(l) for l in rng.integers(0, 9, size=k)]
        req = CorrelatorRequest.make(pts, labels, qutrit)
        direct = transformed_state_correlator(f, req, qutrit)
        formula = transformed_correlator(f, req, qutrit)
        assert abs(direct - formula) < 1e-10


def test_transformed_identity_is_vacuum(qutrit):
    req = CorrelatorRequest.make([frac("1/4"), frac("1/2")], ["β¹", "β¹"], qutrit)
    assert abs(transformed_correlator(th.IDENTITY, req, qutrit)
               - n_point(req, qutrit)) < 1e-14


def test_transformed_by_s_is_rotation(qutrit):
    # perfect preset: U(S) fixes the vacuum, so the transformed correlator
    # equals the plain correlator at the same points
    S = th.generator("S")
    req = CorrelatorRequest.make([frac("1/8"), frac("3/4")], ["δ¹", "δ¹"], qutrit)
    lhs = transformed_state_correlator(S, req, qutrit)
    # compare against the vacuum correlator at the preimage points, which by
    # rotation invariance equals the value at the original points
    pre = CorrelatorRequest.make([frac("1/4"), frac("5/8")], ["δ¹", "δ¹"], qutrit)
    assert abs(lhs - n_point(pre, qutrit)) < 1e-12


def pulled_back_leaves(f, req, model):
    """The transformed path's occupied leaves as the partitions give them: Q,
    the common refinement of f's range partition and the minimal supporting
    partition, its slot vectors, and the pulled-back partition f^{-1}(Q),
    whose slot i maps onto slot sigma[i] of Q."""
    positions = req.positions()
    Q = common_refinement(f.range_partition(), minimal_supporting_partition(positions))
    vecs = {}
    for x, a in zip(positions, req.labels):
        k = Q.index_of(x)
        vecs[k] = model.weights[a, Q[k].level]
    P, sigma = th.pullback_partition(f, Q)
    return [(*P[i], vecs[k]) for i, k in enumerate(sigma) if k in vecs]


def leaf_outcome(fn, *args):
    """(a, l, vector bytes) of every leaf, or the error message."""
    try:
        return [(a, l, v.tobytes()) for a, l, v in fn(*args)]
    except ValueError as exc:
        return f"ValueError: {exc}"


WORD_LETTERS = {"F": ["A", "B", "A^-1", "B^-1"],
                "T": ["A", "B", "C", "S", "A^-1", "B^-1", "C^-1", "S^-1"]}


@settings(max_examples=200)
@given(st.sampled_from("FT").flatmap(
           lambda group: st.lists(st.sampled_from(WORD_LETTERS[group]), max_size=40)),
       close_requests(), st.data())
def test_property_transformed_leaves_match_the_pullback(word, points, data):
    # each insertion's leaf of Q pulled back through the one pair whose image
    # holds it, against Q and f^{-1}(Q) built in full: the same leaves and
    # vectors and the same value to the bit, or the same refusal at level 64
    model = evaluator_models()[data.draw(st.integers(0, 2))]
    f = th.reduce(th.parse_word(" ".join(word)))
    labels = [l for l in range(len(model.labels)) if not model.zero_weight[l]]
    req = CorrelatorRequest.make(
        points, data.draw(st.lists(st.sampled_from(labels), min_size=len(points),
                                   max_size=len(points))), model)
    assert (leaf_outcome(_transformed_leaves, f, req, model)
            == leaf_outcome(pulled_back_leaves, f, req, model))
    assert (outcome(transformed_state_correlator, f, req, model)
            == outcome(lambda *args: _evaluate(pulled_back_leaves(*args), model), f, req, model))


def test_transformed_n_point_builds_no_interval_or_partition(qutrit, monkeypatch):
    # once the request is parsed, a state from parse_word reaches the
    # evaluator without an interval or a partition
    doc = {"positions": ["1/7", "1/4", "2/3", "65535/65536"],
           "labels": ["δ¹", "δ²", "δ¹", "δ²"], "state": {"word": "C B^-1 A S A B"}}
    req = request_from_document(doc, qutrit)
    f = th.reduce(req.state)
    want = _evaluate(pulled_back_leaves(f, req, qutrit), qutrit)
    assert want != 0 and math.isfinite(abs(want))

    refuse_intervals_and_partitions(monkeypatch, "transformed")
    assert repr(n_point(req, qutrit)) == repr(want)
    with pytest.raises(AssertionError, match="built on the transformed path"):
        pulled_back_leaves(f, req, qutrit)


def test_request_to_n_point_builds_no_field_insertion(qutrit, monkeypatch):
    # a request holds integer point pairs and label indices: reading a
    # document and evaluating it, in the vacuum, on an explicit partition or
    # in a state, builds no FieldInsertion; only the `insertions` view does
    docs = [{"positions": ["1/7", "1/4", "2/3", "65535/65536"],
             "labels": ["δ¹", "d2", " δ¹", 2], "state": state}
            for state in ("vacuum", {"word": "C B^-1 A S A B"})]
    want = [n_point(request_from_document(doc, qutrit), qutrit) for doc in docs]
    assert all(w != 0 for w in want)

    def refuse_built(self, *args):
        raise AssertionError("FieldInsertion built")

    monkeypatch.setattr(FieldInsertion, "__init__", refuse_built)
    reqs = [request_from_document(doc, qutrit) for doc in docs]
    assert [repr(n_point(req, qutrit)) for req in reqs] == list(map(repr, want))
    msp = minimal_supporting_partition(reqs[0].positions())
    assert repr(n_point(reqs[0], qutrit, partition=msp)) == repr(want[0])
    assert reqs[0].points == ((1, 7), (1, 4), (2, 3), (65535, 65536))
    assert reqs[0].labels == (1, 2, 1, 2)
    with pytest.raises(AssertionError, match="FieldInsertion built"):
        reqs[0].insertions


def test_request_document_round_trip(qutrit):
    doc = {"positions": ["1/7", "2/3"], "labels": ["β¹", "b2"], "state": "vacuum"}
    req = request_from_document(doc, qutrit)
    assert req.state is None
    assert req.insertions[1].label == qutrit.label_index("β²")
    doc2 = {"positions": ["1/4"], "labels": [3], "state": {"word": "A"}}
    req2 = request_from_document(doc2, qutrit)
    assert req2.state is not None and not req2.state.is_identity()
