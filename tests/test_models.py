import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import degenerate_isometry
from treefield.models import (check_perfect, check_rotation, check_swap,
                              load_model, parse_document, preset,
                              resolve_model, to_document)
from treefield.spectral import Isometry3Box
from treefield.thompson import generator, vacuum_invariance_check


def random_isometry(d, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(d * d, d)) + 1j * rng.normal(size=(d * d, d))
    Q, _ = np.linalg.qr(X)
    return Isometry3Box(Q)


def test_preset_names():
    assert preset("qutrit").name == "qutrit"
    assert preset("fibonacci").kind == "abstract"
    with pytest.raises(ValueError, match="unknown name"):
        preset("ising")


def test_qutrit_label_aliases():
    m = preset("qutrit")
    assert m.label_index("δ¹") == m.label_index("d1") == 1
    assert m.label_index("b2") == m.label_index("β²")
    assert m.label_index(0) == m.label_index("1") == 0
    assert m.label_index("7") == 7
    assert m.label_index("٣") == 3  # a decimal digit of another script
    with pytest.raises(ValueError, match="unknown field label"):
        m.label_index("sigma")
    with pytest.raises(ValueError, match="unknown field label '²'"):
        m.label_index("²")  # a digit, but no decimal one: `int` refuses it


def test_fibonacci_values():
    fib = preset("fibonacci")
    c = 0.5 * (3 - math.sqrt(5))
    lam = fib.eigenvalues
    assert abs(lam[0] - 1) < 1e-12
    assert abs(lam[1] - c) < 1e-12
    f = fib.fusion.coefficients
    assert np.allclose(f[0], np.diag([1.0, c]), atol=1e-15)
    f_tau = np.array([[0.0, c], [math.sqrt(5) - 2, 5 - 2 * math.sqrt(5)]])
    assert np.allclose(f[1], f_tau, atol=1e-15)
    assert fib.vacuum_moments is None


def test_check_perfect_qutrit():
    rep = check_perfect(preset("qutrit").isometry)
    assert rep.all_ok
    for pr in (rep.pairing1, rep.pairing2, rep.pairing3):
        assert abs(pr.constant - 1.0) < 1e-12


def test_check_perfect_degenerate_fails():
    rep = check_perfect(degenerate_isometry(3))
    assert not rep.all_ok
    assert rep.pairing1.ok  # it is a genuine isometry on the tree pairing


def test_check_perfect_against_direct_gram_oracle():
    # independent route: W^dag W must be a multiple of the identity
    for seed in range(50):
        V = random_isometry(2, seed)
        T = V.tensor
        rep = check_perfect(V)
        for pr, axes in ((rep.pairing1, (0, 1, 2)), (rep.pairing2, (1, 2, 0)),
                         (rep.pairing3, (0, 2, 1))):
            W = np.transpose(T, axes).reshape(4, 2)
            G = W.conj().T @ W
            c = np.trace(G).real / 2
            ok = np.linalg.norm(G - c * np.eye(2)) < 1e-10 * max(c, 1.0)
            assert pr.ok == ok


def test_check_swap_and_rotation():
    q = preset("qutrit").isometry
    assert check_swap(q)
    assert check_rotation(q)
    generic = random_isometry(3, 3)
    assert not check_swap(generic)
    assert not check_rotation(generic)
    # symmetrised random V (kept an isometry by re-orthonormalising)
    rng = np.random.default_rng(4)
    X = rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3))
    Xs = (X.reshape(3, 3, 3) + X.reshape(3, 3, 3).transpose(1, 0, 2)).reshape(9, 3)
    Q, _ = np.linalg.qr(Xs)
    # QR of a swap-symmetric matrix stays swap-symmetric column by column
    Vs = Isometry3Box(Q)
    assert check_swap(Vs)


def test_checker_directions_agree():
    # perfect <-> vacuum invariance under C, on both fixtures
    q = preset("qutrit").isometry
    ok, dev = vacuum_invariance_check(generator("C"), q, 2)
    assert check_perfect(q).all_ok and ok
    fix = degenerate_isometry(3)
    ok, dev = vacuum_invariance_check(generator("C"), fix, 2)
    assert (not check_perfect(fix).all_ok) and (not ok)
    assert dev > 1e-3


def test_document_round_trip_qutrit():
    m = preset("qutrit")
    doc = json.loads(json.dumps(to_document(m)))
    m2 = load_model(doc)
    assert m2.labels == m.labels
    assert np.allclose(m2.isometry.matrix, m.isometry.matrix)
    assert np.allclose(m2.spectral.right_ops, m.spectral.right_ops)
    assert np.allclose(m2.fusion.coefficients, m.fusion.coefficients, atol=1e-12)


def test_document_round_trip_fibonacci():
    m = preset("fibonacci")
    doc = json.loads(json.dumps(to_document(m)))
    m2 = load_model(doc)
    assert m2.kind == "abstract"
    assert np.allclose(m2.eigenvalues, m.eigenvalues)
    assert np.allclose(m2.fusion.coefficients, m.fusion.coefficients)


def test_load_model_diagnostics():
    with pytest.raises(ValueError, match="missing 'kind'"):
        load_model({"name": "x"})
    bad = {"name": "x", "kind": "isometry",
           "isometry": [[[1.0, 0.0]] * 3] * 9}
    with pytest.raises(ValueError, match="not an isometry"):
        load_model(bad)
    with pytest.raises(ValueError, match="missing 'channel'"):
        load_model({"name": "x", "kind": "abstract"})
    with pytest.raises(ValueError, match="unknown model kind"):
        load_model({"name": "x", "kind": "weird"})


@pytest.mark.parametrize("preset_name,key,value,message", [
    ("fibonacci", "labels", 5, "'labels' must be a list of strings"),
    ("fibonacci", "labels", [None, "τ"], "'labels' must be a list of strings"),
    ("fibonacci", "aliases", ["tau"], "'aliases' must map names to labels"),
    ("fibonacci", "channel", {}, "nested lists of \\[re, im\\] pairs"),
    ("fibonacci", "channel", 1.5, "nested lists of \\[re, im\\] pairs"),
    ("fibonacci", "fusion", "x", "fusion document needs"),
    ("fibonacci", "fusion", {"coefficients": []}, "fusion document needs"),
    ("qutrit", "isometry", [[1, 2], [3]], "nested lists of \\[re, im\\] pairs"),
    ("qutrit", "pinned_basis", [], "'pinned_basis' needs"),
    ("qutrit", "pinned_basis", {"eigenvalues": [[1.0, 0.0]], "mus": [[1.0, 0.0]]},
     "pinned basis shape"),
    *[("fibonacci", "fusion", {**to_document(preset("fibonacci"))["fusion"], "tol": tol},
       "fusion 'tol' must be a finite number >= 0") for tol in (math.nan, math.inf, -1.0)],
])
def test_mistyped_document_fields(preset_name, key, value, message):
    # refused with one ValueError naming the field; most of these used to end
    # in a TypeError, KeyError or IndexError traceback
    doc = json.loads(json.dumps(to_document(preset(preset_name))))
    doc[key] = value
    with pytest.raises(ValueError, match=message):
        load_model(doc)


def test_load_abstract_with_moments():
    fib = preset("fibonacci")
    doc = to_document(fib)
    doc["moments"] = [[1.0, 0.0], [0.25, 0.0]]
    m = parse_document(json.dumps(doc), load_model)
    assert np.allclose(m.vacuum_moments, [1.0, 0.25])
    bad = dict(doc)
    bad["moments"] = [[1.0, 0.0]]
    with pytest.raises(ValueError, match="moments length"):
        load_model(bad)


def test_model_text_goes_through_parse_document():
    # deep nesting ends in one ValueError, not a RecursionError; text handed
    # straight to load_model is not a document
    deep = "[" * 200000 + "]" * 200000
    with pytest.raises(ValueError, match=r"^document nested too deeply$"):
        parse_document(deep, load_model)
    for text in (deep, json.dumps(to_document(preset("fibonacci")))):
        with pytest.raises(ValueError, match=r"^model document must be a JSON object$"):
            load_model(text)


def test_resolve_model_path(tmp_path):
    p = tmp_path / "fib.json"
    p.write_text(json.dumps(to_document(preset("fibonacci"))))
    m = resolve_model(str(p))
    assert m.name == "fibonacci"
    with pytest.raises(ValueError, match="unknown model"):
        resolve_model("missing-model")


def spelled_model():
    """An abstract model read from a document, whose names and aliases meet
    every case of `label_index`: an alias named like a label ("2"), an alias
    to a digit string that names no label ("w"), a label that only an alias
    reaches (" z"), a padded alias that nothing reaches (" u"), and a label
    of zero weight."""
    labels = ["1", "x", "2", "y y", " z"]
    f = np.zeros((5, 5, 5))
    for a in range(5):
        f[0, a, a] = f[a, 0, a] = 1.0
    doc = {"name": "spelled", "kind": "abstract", "labels": labels,
           "aliases": {"id": "1", "2": "x", "w": "7", "v": "y y", " u": "x", "z": " z"},
           "channel": [[[v, 0.0] for v in row] for row in np.diag([1, 0.5, -0.5, 0.25, 0])],
           "fusion": {"labels": labels, "coefficients": [[[[v, 0.0] for v in r] for r in m]
                                                         for m in f]}}
    return parse_document(json.dumps(doc), load_model)


LABEL_MODELS = {"qutrit": preset("qutrit"), "fibonacci": preset("fibonacci"),
                "spelled": spelled_model()}


def label_spellings(model) -> list:
    """Every way a request may spell a label of `model`, or fail to."""
    names = [*model.labels, *model.aliases]
    return [*names, *(f" {k}" for k in names), *(f"{k}\t" for k in names),
            *(str(k) for k in range(-1, 11)), " 2 ", "٣", "²", "０",
            *range(-1, len(model.labels) + 2), *map(np.int64, range(3)),
            True, False, None, 1.0, "nope", "", "D1", [1], {"d1": 1}]


def insertion_outcome(model, labels):
    """`insertion_labels`, or its error text."""
    try:
        return model.insertion_labels(labels)
    except ValueError as exc:
        return str(exc)


def reference_outcome(model, labels):
    """`label_index` and the zero-weight refusal on each label in turn, or
    the first error text."""
    out = []
    try:
        for label in labels:
            out.append(model.label_index(label))
            if model.zero_weight[out[-1]]:
                raise ValueError("zero ascending weight excluded")
    except ValueError as exc:
        return str(exc)
    return tuple(out)


def test_spelled_model_meets_every_label_case():
    m = LABEL_MODELS["spelled"]
    assert m.zero_weight == (False, False, False, False, True)
    assert [m.label_index(k) for k in ("2", "z", "id", " 1 ")] == [1, 4, 0, 0]
    assert reference_outcome(m, ["w"]) == "label index 7 out of range"
    assert reference_outcome(m, [" u"]) == "unknown field label ' u'"
    assert reference_outcome(m, ["z"]) == "zero ascending weight excluded"
    assert " z" not in m.label_table and " u" not in m.label_table


@pytest.mark.parametrize("name", sorted(LABEL_MODELS))
def test_label_table_agrees_with_label_index(name):
    m = LABEL_MODELS[name]
    assert m.label_table and all(m.label_index(k) == i for k, i in m.label_table.items())
    for label in label_spellings(m):
        assert insertion_outcome(m, [label]) == reference_outcome(m, [label]), label


@pytest.mark.parametrize("name", sorted(LABEL_MODELS))
@settings(max_examples=150)
@given(data=st.data())
def test_property_label_table_agrees_with_label_index(name, data):
    # any sequence of spellings: the same indices, or the first bad label's error
    m = LABEL_MODELS[name]
    labels = data.draw(st.lists(st.sampled_from(label_spellings(m)), max_size=8))
    assert insertion_outcome(m, labels) == reference_outcome(m, labels)
