"""Seeded inputs, the operation under test and the correctness gate of each
benchmark workload.

Every workload is a pool of request documents (or staircase parameters)
generated from one seed before anything is timed.  The timed loop feeds the
pool to the library's public functions; the gate afterwards compares each
distinct output with an independent reference:

* ``npoint``      -- dense oracle (``treestate.oracle_expectation``) where the
                     supporting tree is small, else a label-space evaluation of
                     the same request on the qutrit data loaded as an abstract
                     model with moments;
* ``staircase``   -- ``two_point_closed`` for every row;
* ``transformed`` -- the covariance form ``transformed_correlator``.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from treefield import correlator, dyadic, models, thompson, treestate

# --- workload shapes --------------------------------------------------------

NPOINT_SMALL_N = (2, 4, 8, 16, 32)
NPOINT_TAIL_N = 128          # timed large-n tail: same-label pairs, in double range
NPOINT_CENSUS_N = 256        # overflow census: delta sector, beyond double range
DELTA_SHARE = 0.75           # rest: same-label beta/alpha pairs
DYADIC_LEVEL = 16            # dyadic positions a / 2^16
PRIME_BOUND = 1 << 12        # non-dyadic positions p / q, q an odd prime below this
STAIRCASE_DEPTH = 8
STAIRCASE_GRID = 3
STAIRCASE_MAX_X_LEVEL = 10
STAIRCASE_EQUAL_SHARE = 0.75  # profiles with alpha = beta
WORD_LENGTHS = (8, 16, 32)
TRANSFORMED_POINTS = 4
GENERATORS = ("A", "B", "C")

# pool sizes per pass: (full run, quick self-test)
POOL = {
    "npoint": {"small": (196, 10), "tail": (20, 1), "census": (8, 1)},
    "staircase": (6, 1),     # profiles per x level
    "transformed": (48, 2),  # words per length
}

DELTA_LABELS = ("d1", "d2")
PAIR_LABELS = ("b1", "b2", "b3", "a1", "a2", "a3")
NONTRIVIAL_LABELS = DELTA_LABELS + PAIR_LABELS

# --- gate tolerances --------------------------------------------------------

RTOL = 1e-9
# Absolute floor 2^-40 (~1e-12) times a running rounding bound: the same
# evaluation done on the moduli of every input, so no term can cancel.
# Rounding in sums that cancel to (near) zero stays below it.
FLOOR_BITS = 40
# Beyond this the magnitudes leave double range (the silent-overflow defect);
# such ops may fail, and a failure there does not make the run incorrect.
RANGE_LIMIT = 1e300
# The dense oracle is exponential in the leaf count; the gate uses it up to
# 3^9 amplitudes per column (9 leaves) and the label-space twin beyond.
GATE_ORACLE_CAP = 3 ** 9


def _odd_primes(bound: int) -> List[int]:
    sieve = bytearray([1]) * bound
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(bound ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return [p for p in range(3, bound) if sieve[p]]


PRIMES = _odd_primes(PRIME_BOUND)


def random_positions(rng: random.Random, n: int) -> List[Fraction]:
    """n distinct sorted points, exactly half dyadic (a / 2^16) and half
    non-dyadic (p / q with q an odd prime)."""
    dyadic_pts: set = set()
    while len(dyadic_pts) < n // 2:
        dyadic_pts.add(Fraction(rng.randrange(1 << DYADIC_LEVEL), 1 << DYADIC_LEVEL))
    other: set = set()
    while len(other) < n - n // 2:
        q = rng.choice(PRIMES)
        other.add(Fraction(rng.randrange(1, q), q))
    return sorted(dyadic_pts | other)


def random_labels(rng: random.Random, n: int, scheme: str) -> List[str]:
    if scheme == "delta":
        return [rng.choice(DELTA_LABELS) for _ in range(n)]
    out: List[str] = []
    for _ in range(n // 2):
        lab = rng.choice(PAIR_LABELS)
        out += [lab, lab]
    return out


def _schemes(count: int) -> List[str]:
    k = round(count * DELTA_SHARE)
    return ["delta"] * k + ["pairs"] * (count - k)


def _doc(points: Sequence[Fraction], labels: Sequence[str]) -> dict:
    return {"positions": [f"{p.numerator}/{p.denominator}" for p in points],
            "labels": list(labels)}


def _dyadic_share(docs: Sequence[dict]) -> float:
    dens = [Fraction(p).denominator for d in docs for p in d["positions"]]
    return sum(1 for q in dens if q & (q - 1) == 0) / len(dens)


def random_word(rng: random.Random, length: int) -> str:
    """Freely reduced word over A, B, C and their inverses."""
    toks: List[Tuple[str, int]] = []
    while len(toks) < length:
        t = (rng.choice(GENERATORS), rng.choice((1, -1)))
        if toks and toks[-1] == (t[0], -t[1]):
            continue
        toks.append(t)
    return " ".join(g if s == 1 else f"{g}^-1" for g, s in toks)


# --- pools ------------------------------------------------------------------


@dataclass
class Pool:
    items: list          # what the timed op receives
    summary: dict        # input statistics recorded with the run
    census: list = field(default_factory=list)  # run once per run, untimed


def npoint_pool(seed: int, quick: bool) -> Pool:
    """The timed requests, and the overflow census: delta-sector requests at
    n = 256, whose magnitudes leave double range, so that every one of them
    fails at the seed (ROADMAP item 5).  The census runs once per run, so
    the failure count does not depend on how many passes the timed loop
    made."""
    rng = random.Random(f"npoint/{seed}")
    q = 1 if quick else 0
    cfg = POOL["npoint"]
    specs = [(n, s) for n in NPOINT_SMALL_N for s in _schemes(cfg["small"][q])]
    specs += [(NPOINT_TAIL_N, "pairs")] * cfg["tail"][q]
    rng.shuffle(specs)
    docs = [_doc(random_positions(rng, n), random_labels(rng, n, s)) for n, s in specs]
    census = [_doc(random_positions(rng, NPOINT_CENSUS_N),
                   random_labels(rng, NPOINT_CENSUS_N, "delta"))
              for _ in range(cfg["census"][q])]
    summary = {
        "requests": len(docs),
        "n_histogram": dict(sorted(Counter(n for n, _ in specs).items())),
        "dyadic_position_share": _dyadic_share(docs),
        "delta_request_share": sum(1 for _, s in specs if s == "delta") / len(specs),
        "census": {"requests": len(census), "n": NPOINT_CENSUS_N, "labels": "delta"},
    }
    return Pool(docs, summary, census)


def staircase_pool(seed: int, quick: bool) -> Pool:
    """The same number of profiles at every level of x (the level sets how
    much of the depth-8 partition x's own partition refines, and so the
    cost); x's numerator and the labels are drawn from the seed."""
    rng = random.Random(f"staircase/{seed}")
    per_level = POOL["staircase"][1 if quick else 0]
    levels = [l for l in range(STAIRCASE_MAX_X_LEVEL + 1) for _ in range(per_level)]
    equal = round(len(levels) * STAIRCASE_EQUAL_SHARE)
    same = [True] * equal + [False] * (len(levels) - equal)
    rng.shuffle(same)
    items = []
    for level, same_labels in zip(levels, same):
        a = rng.randrange(1 << level)
        x = str(Fraction(a, 1 << level))
        alpha = rng.choice(NONTRIVIAL_LABELS)
        beta = alpha if same_labels else rng.choice(
            [l for l in NONTRIVIAL_LABELS if l != alpha])
        items.append((x, alpha, beta))
    rng.shuffle(items)
    summary = {
        "profiles": len(items),
        "depth": STAIRCASE_DEPTH,
        "grid": STAIRCASE_GRID,
        "x_levels": f"0..{STAIRCASE_MAX_X_LEVEL}, {per_level} profiles each",
        "equal_label_share": equal / len(levels),
    }
    return Pool(items, summary)


def transformed_pool(seed: int, quick: bool) -> Pool:
    rng = random.Random(f"transformed/{seed}")
    per_len = POOL["transformed"][1 if quick else 0]
    specs = [(L, s) for L in WORD_LENGTHS for s in _schemes(per_len)]
    rng.shuffle(specs)
    docs = []
    for L, s in specs:
        doc = _doc(random_positions(rng, TRANSFORMED_POINTS),
                   random_labels(rng, TRANSFORMED_POINTS, s))
        doc["state"] = {"word": random_word(rng, L)}
        docs.append(doc)
    summary = {
        "requests": len(docs),
        "word_length_histogram": dict(sorted(Counter(L for L, _ in specs).items())),
        "points_per_request": TRANSFORMED_POINTS,
        "dyadic_position_share": _dyadic_share(docs),
        "delta_request_share": sum(1 for _, s in specs if s == "delta") / len(specs),
    }
    return Pool(docs, summary)


POOLS: Dict[str, Callable[[int, bool], Pool]] = {
    "npoint": npoint_pool,
    "staircase": staircase_pool,
    "transformed": transformed_pool,
}


# --- models -----------------------------------------------------------------


def _pairs(a: np.ndarray) -> list:
    return np.stack([np.real(a), np.imag(a)], axis=-1).tolist()


def abstract_twin(model: models.ModelSpec, magnitude: bool = False) -> models.ModelSpec:
    """The model's eigenvalues, fusion coefficients and moments loaded as an
    abstract (label-space) model.  Labels are reordered so the abstract
    model's sorted eigenvalues land on the same label names.

    With `magnitude`, every datum is replaced by its modulus: the twin then
    sums the moduli of all terms of a correlator, which bounds the rounding
    error of any evaluation of it."""
    lam = model.eigenvalues
    f = model.fusion.coefficients
    v = model.vacuum_moments
    if magnitude:
        lam, f, v = np.abs(lam).astype(complex), np.abs(f), np.abs(v)
    order = sorted(range(len(lam)), key=lambda i: (
        i != 0, -abs(lam[i]), math.atan2(lam[i].imag, lam[i].real) % (2 * math.pi)))
    labels = [model.labels[i] for i in order]
    twin = models.load_model({
        "name": model.name + ("-magnitudes" if magnitude else "-label-space"),
        "kind": "abstract", "labels": labels, "aliases": dict(model.aliases),
        "channel": _pairs(np.diag(lam[order])),
        "fusion": {"labels": labels, "tol": 1e-10,
                   "coefficients": _pairs(f[np.ix_(order, order, order)])},
        "moments": _pairs(v[order]),
    })
    for name in model.labels:
        if twin.eigenvalues[twin.label_index(name)] != lam[model.label_index(name)]:
            raise RuntimeError(f"abstract twin mislabels {name}")
    return twin


@dataclass
class Context:
    model: models.ModelSpec
    twin: models.ModelSpec       # label-space reference
    magnitudes: models.ModelSpec  # moduli of every datum, for the tolerance


def make_context() -> Context:
    """The qutrit preset with its lazy data built, and its two twins."""
    model = models.preset("qutrit")
    model.spectral, model.fusion, model.vacuum_moments
    return Context(model, abstract_twin(model), abstract_twin(model, magnitude=True))


# --- operations under test --------------------------------------------------


def run_op(workload: str, ctx: Context, item):
    if workload == "staircase":
        x, alpha, beta = item
        return tuple(correlator.staircase_samples(
            x, alpha, beta, STAIRCASE_DEPTH, STAIRCASE_GRID, ctx.model))
    req = correlator.request_from_document(item, ctx.model)
    return correlator.n_point(req, ctx.model)


# --- gate -------------------------------------------------------------------


@dataclass
class Verdict:
    ok: bool             # finite and equal to the reference within tolerance
    in_range: bool       # every magnitude the evaluations reach fits a double
    references: int      # reference values compared
    zero_references: int  # of those, exactly zero
    floor_references: int  # of those, within the rounding floor of zero
    reference: str       # which reference was used
    scale: float         # largest magnitude scale (the tolerance's floor / 2^-40)


def agrees(value, ref: complex, scale: float) -> bool:
    if not (isinstance(value, complex) and cmath.isfinite(value) and cmath.isfinite(ref)):
        return False
    return abs(value - ref) <= RTOL * max(abs(value), abs(ref)) + math.ldexp(scale, -FLOOR_BITS)


def _at_floor(ref: complex, scale: float) -> int:
    return int(abs(ref) <= math.ldexp(scale, -FLOOR_BITS))


def _in_range(scale: float) -> bool:
    return math.isfinite(scale) and scale <= RANGE_LIMIT


def _largest(*scales: float) -> float:
    """max() that keeps a nan (an overflowed bound) instead of dropping it."""
    return math.nan if any(math.isnan(x) for x in scales) else max(scales)


def _weighted_abs_ops(model: models.ModelSpec, P: dyadic.DyadicPartition,
                      insertions) -> Dict[int, np.ndarray]:
    """Slot -> |lambda^(-level) mu| entrywise, shaped as a batch of one."""
    lam = model.eigenvalues
    mus = model.spectral.right_ops
    ops = {}
    for ins in insertions:
        k = P.index_of(ins.position)
        op = correlator.ipow(lam[ins.label], -P[k].level) * mus[ins.label]
        ops[k] = np.abs(op)[None].astype(complex)
    return ops


def _engine_scale(model: models.ModelSpec, P: dyadic.DyadicPartition, insertions) -> float:
    """The tree ascent run on entrywise moduli (the qutrit isometry is
    entrywise non-negative): a running bound on the engine's rounding."""
    V = model.require_isometry()
    ops = _weighted_abs_ops(model, P, insertions)
    return float(abs(treestate.vacuum_expectation_batch(dyadic.partition_to_tree(P), V, ops)[0]))


def _label_space_scale(ctx: Context, positions: Sequence[Fraction],
                       labels: Sequence[int]) -> float:
    """Sum of the moduli of all label-space terms: bounds the rounding of the
    label-space reference."""
    names = [ctx.model.labels[a] for a in labels]
    req = correlator.CorrelatorRequest.make(positions, names, ctx.magnitudes)
    return float(abs(correlator.n_point(req, ctx.magnitudes)))


def _oracle(req: correlator.CorrelatorRequest, model: models.ModelSpec,
            P: dyadic.DyadicPartition) -> complex:
    lam = model.eigenvalues
    mus = model.spectral.right_ops
    ops = {}
    for ins in req.insertions:
        k = P.index_of(ins.position)
        ops[k] = correlator.ipow(lam[ins.label], -P[k].level) * mus[ins.label]
    tree = treestate.LabelledTree(dyadic.partition_to_tree(P), ops)
    return treestate.oracle_expectation(tree, model.require_isometry(),
                                        cap=min(treestate.oracle_cap(), GATE_ORACLE_CAP))


def check_npoint(ctx: Context, doc: dict, value) -> Verdict:
    m = ctx.model
    req = correlator.request_from_document(doc, m)
    pts = [ins.position.value for ins in req.insertions]
    P = dyadic.minimal_supporting_partition(pts)
    scale = _largest(_engine_scale(m, P, req.insertions),
                     _label_space_scale(ctx, pts, [ins.label for ins in req.insertions]))
    if m.require_isometry().d ** len(P) <= min(treestate.oracle_cap(), GATE_ORACLE_CAP):
        ref, kind = _oracle(req, m, P), "oracle"
    else:
        twin_req = correlator.request_from_document(doc, ctx.twin)
        ref, kind = correlator.n_point(twin_req, ctx.twin), "label-space"
    return Verdict(agrees(value, ref, scale), _in_range(scale), 1, int(ref == 0),
                   _at_floor(ref, scale), kind, scale)


def check_staircase(ctx: Context, item, rows) -> Verdict:
    x, alpha, beta = item
    m = ctx.model
    xv = Fraction(x)
    expected = [f"{k}/{1 << STAIRCASE_GRID}" for k in range(1 << STAIRCASE_GRID)
                if Fraction(k, 1 << STAIRCASE_GRID) != xv]
    if not isinstance(rows, tuple) or [r[0] for r in rows] != expected:
        return Verdict(False, True, 0, 0, 0, "two_point_closed", 0.0)
    fine = dyadic.regular_partition(STAIRCASE_DEPTH)
    ok, in_range, zero, at_floor, largest = True, True, 0, 0, 0.0
    for y, re, im, _ in rows:
        yv = Fraction(y)
        pts, labs = ([yv, xv], [beta, alpha]) if yv < xv else ([xv, yv], [alpha, beta])
        ref = correlator.two_point_closed(pts[0], pts[1], labs[0], labs[1], m)
        req = correlator.CorrelatorRequest.make(pts, labs, m)
        P = dyadic.common_refinement(dyadic.minimal_supporting_partition(pts), fine)
        scale = _engine_scale(m, P, req.insertions)
        ok = ok and agrees(complex(re, im), ref, scale)
        in_range = in_range and _in_range(scale)
        zero += ref == 0
        at_floor += _at_floor(ref, scale)
        largest = _largest(largest, scale)
    return Verdict(ok, in_range, len(rows), zero, at_floor, "two_point_closed", largest)


def check_transformed(ctx: Context, doc: dict, value) -> Verdict:
    m = ctx.model
    e = thompson.reduce(thompson.parse_word(doc["state"]["word"]))
    vac = correlator.request_from_document(
        {"positions": doc["positions"], "labels": doc["labels"]}, m)
    ref = correlator.transformed_correlator(e, vac, m)
    # the transformed ascent on moduli, and the covariance form's own terms
    Q = dyadic.common_refinement(
        e.range_partition(),
        dyadic.minimal_supporting_partition([ins.position for ins in vac.insertions]))
    ops = _weighted_abs_ops(m, Q, vac.insertions)
    engine = float(abs(thompson.transformed_vacuum_expectation_batch(
        e, Q, ops, m.require_isometry())[0]))
    inv = thompson.to_piecewise(e).inverse()
    pulled = sorted((inv(ins.position.value), ins.label) for ins in vac.insertions)
    factor = math.prod(abs(correlator.ipow(m.eigenvalues[a], thompson.slope_right(e, x)))
                       for x, a in pulled)
    scale = _largest(engine, factor * _label_space_scale(
        ctx, [x for x, _ in pulled], [a for _, a in pulled]))
    return Verdict(agrees(value, ref, scale), _in_range(scale), 1, int(ref == 0),
                   _at_floor(ref, scale), "covariance", scale)


CHECKS = {
    "npoint": check_npoint,
    "staircase": check_staircase,
    "transformed": check_transformed,
}
