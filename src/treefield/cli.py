"""Command-line frontend.

Exit codes: 0 success, 1 domain error, 2 usage error.  Output is a plain
table by default, `--json` switches to machine-readable JSON; `staircase`
emits CSV.  Field labels are accepted as indices, preset names (δ¹, τ, ...)
or ASCII aliases (d1, b2, a3, tau, ...).
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from typing import List, Optional

import numpy as np

from . import correlator as co
from . import thompson as th
from . import treestate
from .dyadic import DyadicPartition, minimal_supporting_partition
from .models import (ModelSpec, check_perfect, check_rotation, check_swap,
                     parse_document, resolve_model, to_document)
from .spectral import scaling_dimension


def _fmt_c(z: complex) -> str:
    return f"{z.real:+.12g}{z.imag:+.12g}j"


def _model(args) -> ModelSpec:
    return resolve_model(args.model)


def cmd_spectrum(args) -> int:
    model = _model(args)
    lam = model.eigenvalues
    rows = []
    for i, name in enumerate(model.labels):
        if model.zero_weight[i]:
            h, phase = float("inf"), 0.0
        else:
            h, phase = scaling_dimension(lam[i])
        rows.append({"index": i, "label": name, "eigenvalue": [lam[i].real, lam[i].imag],
                     "h": h, "phase": phase})
    if args.json:
        print(json.dumps({"model": model.name, "labels": rows}, sort_keys=True))
        return 0
    print(f"model: {model.name} (kind: {model.kind})")
    print("index  label  eigenvalue                     h            phase")
    for r in rows:
        lamstr = _fmt_c(complex(*r["eigenvalue"]))
        print(f"{r['index']:>5}  {r['label']:<5}  {lamstr:<28}  {r['h']:<11.6g}  {r['phase']:.6g}")
    return 0


def cmd_fusion(args) -> int:
    model = _model(args)
    f = model.fusion
    ring = model.ring
    if args.json:
        doc = {
            "model": model.name,
            "labels": list(f.labels),
            "coefficients": [[[list(pair) for pair in row] for row in mat]
                             for mat in np.stack([f.coefficients.real,
                                                  f.coefficients.imag], axis=-1).tolist()],
            "n_tensor": ring.n_tensor.tolist(),
            "is_associative": ring.is_associative,
            "is_commutative": ring.is_commutative,
        }
        print(json.dumps(doc, sort_keys=True))
        return 0
    print(f"model: {model.name}")
    print(f"ring flags: associative={ring.is_associative} commutative={ring.is_commutative}")
    n = len(f.labels)
    for a in range(n):
        for b in range(n):
            nz = [(g, f.coefficients[a, b, g]) for g in range(n)
                  if abs(f.coefficients[a, b, g]) > f.tol]
            if not nz:
                continue
            terms = " + ".join(f"({_fmt_c(c)}) {f.labels[g]}" for g, c in nz)
            print(f"{f.labels[a]} x {f.labels[b]} -> {terms}")
    return 0


def cmd_ope(args) -> int:
    model = _model(args)
    terms = co.ope_terms(args.alpha, args.beta, model)
    if args.json:
        doc = [{"label": model.label_name(g), "coefficient": [c.real, c.imag],
                "exponent": e} for g, c, e in terms]
        print(json.dumps(doc, sort_keys=True))
        return 0
    for g, c, e in terms:
        print(f"{model.label_name(g):<5}  coeff {_fmt_c(c):<28}  D-exponent {e:.12g}")
    return 0


def _request(args, model: ModelSpec) -> co.CorrelatorRequest:
    if args.request:
        with open(args.request, "r", encoding="utf-8") as fh:
            text = fh.read()
        return parse_document(text, lambda doc: co.request_from_document(doc, model))
    if not args.at or not args.fields:
        raise ValueError("need --request, or --at positions with --fields labels")
    if len(args.at) != len(args.fields):
        raise ValueError(co.LENGTHS_DIFFER)
    state = th.parse_word(args.state) if args.state else None
    return co.CorrelatorRequest.make(args.at, args.fields, model, state)


def _finite_n_point(req: co.CorrelatorRequest, model: ModelSpec) -> complex:
    """`n_point`, refused when the value is not finite; numpy's overflow
    warnings are silenced, since the refusal reports them."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = co.n_point(req, model)
    if not cmath.isfinite(value):
        raise ValueError("magnitude overflow: the correlator leaves double range")
    return value


def cmd_correlator(args) -> int:
    model = _model(args)
    req = _request(args, model)
    value = _finite_n_point(req, model)
    P = minimal_supporting_partition(req.positions())
    if args.json:
        print(json.dumps({"value": [value.real, value.imag],
                          "minimal_supporting_partition": [str(iv) for iv in P]},
                         sort_keys=True))
        return 0
    print(f"value: {_fmt_c(value)}")
    print(f"minimal supporting partition: {P}")
    return 0


def _oracle_ops(P: DyadicPartition, req: co.CorrelatorRequest,
                model: ModelSpec) -> dict:
    """Leaf index -> lambda^{-level} mu matrix: the dense oracle's input."""
    lam = model.eigenvalues
    mus = model.spectral.right_ops
    ops = {}
    for ins in req.insertions:
        k = P.index_of(ins.position)
        ops[k] = co.ipow(lam[ins.label], -P[k].level) * mus[ins.label]
    return ops


def cmd_oracle_diff(args) -> int:
    model = _model(args)
    V = model.require_isometry()
    req = _request(args, model)
    if req.state is not None and not req.state.is_identity():
        raise ValueError("oracle-diff covers vacuum requests only")
    value = _finite_n_point(req, model)
    P = minimal_supporting_partition(req.positions())
    t = treestate.LabelledTree(P, _oracle_ops(P, req, model))
    oracle = treestate.oracle_expectation(t, V)
    diff = abs(value - oracle)
    if args.json:
        print(json.dumps({"engine": [value.real, value.imag],
                          "oracle": [oracle.real, oracle.imag],
                          "abs_diff": diff}, sort_keys=True))
        return 0
    print(f"engine: {_fmt_c(value)}")
    print(f"oracle: {_fmt_c(oracle)}")
    print(f"|diff|: {diff:.3e}")
    return 0


def cmd_staircase(args) -> int:
    model = _model(args)
    rows = co.staircase_samples(args.x, args.alpha, args.beta, args.depth,
                                args.grid, model)
    text = co.staircase_csv(rows)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_thompson(args) -> int:
    if args.action == "compose":
        e = th.parse_word(" ".join(args.args))
        print(json.dumps(th.element_to_document(e), sort_keys=True))
        return 0
    if args.action == "reduce":
        if len(args.args) != 1:
            raise ValueError("thompson reduce takes one state document")
        e = parse_document(args.args[0], th.element_from_document)
        print(json.dumps(th.element_to_document(e), sort_keys=True))
        return 0
    if args.action == "schwarzian":
        e = th.parse_word(" ".join(args.args))
        for pos, weight in th.schwarzian_measure(e):
            print(f"{pos}  {weight}")
        return 0
    if args.action == "apply":
        if len(args.args) < 2:
            raise ValueError("thompson apply takes a word and at least one point")
        f = th.parse_word(args.args[0])
        for point in args.args[1:]:
            y = f(point)
            print(f"{point} -> {y}" if y.q > 1 else f"{point} -> {y.p}")
        return 0
    raise ValueError(f"unknown thompson action {args.action!r}")


def cmd_check(args) -> int:
    model = _model(args)
    V = model.require_isometry()
    if args.what == "perfect":
        rep = check_perfect(V)
        for i, pr in enumerate((rep.pairing1, rep.pairing2, rep.pairing3), 1):
            print(f"pairing{i}: {'pass' if pr.ok else 'FAIL'} (constant {pr.constant:.12g})")
        print(f"all: {'pass' if rep.all_ok else 'FAIL'}")
        return 0
    if args.what == "swap":
        print("pass" if check_swap(V) else "FAIL")
        return 0
    if args.what == "rotation":
        print("pass" if check_rotation(V) else "FAIL")
        return 0
    if args.what == "modular":
        e = th.parse_word(args.element)
        ok, dev = th.vacuum_invariance_check(e, V, args.level)
        print(f"{'pass' if ok else 'FAIL'} (max deviation {dev:.3e})")
        return 0
    raise ValueError(f"unknown check {args.what!r}")


def cmd_model_export(args) -> int:
    model = _model(args)
    print(json.dumps(to_document(model), sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="treefield")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_model(sp):
        sp.add_argument("--model", required=True,
                        help="preset name (qutrit, fibonacci) or model JSON path")
        sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("spectrum", help="eigenvalues and scaling dimensions")
    add_model(sp)
    sp.set_defaults(fn=cmd_spectrum)

    sp = sub.add_parser("fusion", help="fusion coefficients and ring")
    add_model(sp)
    sp.set_defaults(fn=cmd_fusion)

    sp = sub.add_parser("ope", help="OPE term list for a label pair")
    add_model(sp)
    sp.add_argument("alpha")
    sp.add_argument("beta")
    sp.set_defaults(fn=cmd_ope)

    sp = sub.add_parser("correlator", help="evaluate an n-point correlator")
    add_model(sp)
    sp.add_argument("--at", action="append", help="insertion position p/q (repeat)")
    sp.add_argument("--fields", nargs="+", help="field labels, one per --at")
    sp.add_argument("--state", help="Thompson word for a transformed state")
    sp.add_argument("--request", help="request JSON file")
    sp.set_defaults(fn=cmd_correlator)

    sp = sub.add_parser("oracle-diff", help="rerun a correlator through the oracle")
    add_model(sp)
    sp.add_argument("--at", action="append")
    sp.add_argument("--fields", nargs="+")
    sp.add_argument("--state")
    sp.add_argument("--request")
    sp.set_defaults(fn=cmd_oracle_diff)

    sp = sub.add_parser("staircase", help="two-point profile CSV over a dyadic grid")
    add_model(sp)
    sp.add_argument("--x", required=True, help="fixed insertion position")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta", required=True)
    sp.add_argument("--depth", type=int, default=6)
    sp.add_argument("--grid", type=int, default=6)
    sp.add_argument("-o", "--output")
    sp.set_defaults(fn=cmd_staircase)

    sp = sub.add_parser("thompson", help="element algebra from generator words")
    sp.add_argument("action", choices=["compose", "reduce", "schwarzian", "apply"])
    sp.add_argument("args", nargs="+")
    sp.set_defaults(fn=cmd_thompson)

    sp = sub.add_parser("check", help="perfect / swap / rotation / modular checks")
    add_model(sp)
    sp.add_argument("what", choices=["perfect", "swap", "rotation", "modular"])
    sp.add_argument("--element", default="S", help="word for the modular check")
    sp.add_argument("--level", type=int, default=3)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("model-export", help="print the model document JSON")
    add_model(sp)
    sp.set_defaults(fn=cmd_model_export)

    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an unreadable request or model file, an unwritable -o
        where = f": {exc.filename}" if exc.filename else ""
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
