"""Model registry: the qutrit perfect-tensor preset, the Fibonacci abstract
model, user-supplied model documents, and perfect/SWAP/rotation checkers.
A model also keeps the weighted insertions lambda_a^{-l} mu^a its
correlators read, one per label and leaf level (`ModelSpec.weights`), and
one table of its label names and aliases that requests read their labels
through (`ModelSpec.label_table`)."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple, TypeVar

import numpy as np

from .fusion import (FusionRing, FusionTensor, build_ring, fusion_coefficients,
                     fusion_from_document, fusion_to_document, string_tuple)
from .spectral import (TOL_ZERO, AscendingChannel, Isometry3Box, SpectralData,
                       abstract_eigenvalues, build_channel,
                       complex_array_from_lists, complex_array_to_lists,
                       eigendecompose, pinned_spectral_data)

SQRT5 = math.sqrt(5.0)
TOL_PERFECT = 1e-10   # relative singular-value spread of a perfect pairing
TOL_SWAP = 1e-12      # norm of T - SWAP(T)
TOL_ROTATION = 1e-10  # norm of T - its cyclic leg shift

QUTRIT_LABELS = ("1", "δ¹", "δ²", "β¹", "β²", "β³", "α¹", "α²", "α³")
QUTRIT_ALIASES = {"d1": "δ¹", "d2": "δ²", "b1": "β¹", "b2": "β²", "b3": "β³",
                  "a1": "α¹", "a2": "α²", "a3": "α³", "id": "1"}
FIB_LABELS = ("1", "τ")
FIB_ALIASES = {"tau": "τ", "id": "1"}


def qutrit_isometry() -> Isometry3Box:
    """<jk|V|l> = 1/sqrt(2) when j, k, l are pairwise distinct, else 0."""
    m = np.zeros((9, 3), dtype=complex)
    for j in range(3):
        for k in range(3):
            for l in range(3):
                if j != k and k != l and l != j:
                    m[3 * j + k, l] = 1.0 / math.sqrt(2.0)
    return Isometry3Box(m)


def _qutrit_pinned_mus() -> np.ndarray:
    I = np.eye(3)
    d1 = np.diag([-1.0, 0.0, 1.0])
    d2 = np.diag([-1.0, 1.0, 0.0])
    b1 = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=float)
    b2 = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=float)
    b3 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
    a1 = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
    a2 = np.array([[0, 0, -1], [0, 0, 0], [1, 0, 0]], dtype=float)
    a3 = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
    return np.array([I, d1, d2, b1, b2, b3, a1, a2, a3], dtype=complex)


QUTRIT_EIGENVALUES = np.array(
    [1.0, -0.5, -0.5, 0.5, 0.5, 0.5, -0.5, -0.5, -0.5], dtype=complex)


def _fibonacci_data() -> Tuple[np.ndarray, np.ndarray]:
    c = 0.5 * (3.0 - SQRT5)
    channel = np.array([[1.0, c], [0.0, c]], dtype=complex)
    f = np.zeros((2, 2, 2), dtype=complex)
    f[0, 0, 0] = 1.0
    f[0, 1, 1] = c
    f[1, 0, 1] = c
    f[1, 1, 0] = SQRT5 - 2.0
    f[1, 1, 1] = 5.0 - 2.0 * SQRT5
    return channel, f


def ipow(z: complex, k: int) -> complex:
    """z^k for integer k by repeated multiplication; 0^0 = 1."""
    if k == 0:
        return 1.0 + 0.0j
    base = complex(z)
    if k < 0:
        if base == 0:
            raise ValueError("zero ascending weight excluded")
        base = 1.0 / base
        k = -k
    out = 1.0 + 0.0j
    for _ in range(k):
        out *= base
    return out


class WeightTable(dict):
    """(label a, level l) -> ipow(lambda_a, -l) * basis[:, a]: the
    coordinates of the renormalised insertion lambda_a^{log2 |I|} mu^a on a
    leaf I of level l, in the evaluation basis.  An entry is computed the
    first time it is read, at any level, and kept read-only."""

    def __init__(self, eigenvalues: np.ndarray, basis: np.ndarray):
        super().__init__()
        self.eigenvalues, self.basis = eigenvalues, basis

    def __missing__(self, key: Tuple[int, int]) -> np.ndarray:
        a, l = key
        vec = ipow(self.eigenvalues[a], -l) * self.basis[:, a]
        vec.flags.writeable = False
        self[key] = vec
        return vec


class Evaluation(NamedTuple):
    """The correlator evaluator's data in one coordinate basis.

    basis[:, a] holds mu^a, pair[i] the products of coordinate vector i with
    every j (shape (n, n * n)), left and right the lone-child ascents and
    closing the root functional."""

    basis: np.ndarray
    pair: np.ndarray
    left: np.ndarray
    right: np.ndarray
    closing: np.ndarray


@dataclass
class ModelSpec:
    """A model: either isometry-backed (everything derived) or abstract
    (channel matrix and fusion data supplied, spectra in label space)."""

    name: str
    kind: str  # "isometry" | "abstract"
    labels: Tuple[str, ...]
    aliases: Dict[str, str]
    isometry: Optional[Isometry3Box] = None
    channel_matrix: Optional[np.ndarray] = None       # abstract kind
    fusion_data: Optional[FusionTensor] = None        # abstract kind
    vacuum_moments_data: Optional[np.ndarray] = None  # abstract kind, optional
    pinned_eigenvalues: Optional[np.ndarray] = None
    pinned_mus: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("isometry", "abstract"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "isometry" and self.isometry is None:
            raise ValueError("isometry-backed model without an isometry")
        if self.kind == "abstract":
            if self.channel_matrix is None or self.fusion_data is None:
                raise ValueError("abstract model must supply channel_matrix and fusion_data")
            n = len(self.labels)
            if np.asarray(self.channel_matrix).shape != (n, n):
                raise ValueError("channel matrix shape mismatch")
            if self.fusion_data.n != n:
                raise ValueError("fusion tensor shape mismatch")

    # -- label handling ----------------------------------------------------

    def label_index(self, label) -> int:
        if isinstance(label, bool):  # JSON true/false are not label indices
            raise ValueError(f"unknown field label {label!r}")
        if isinstance(label, (int, np.integer)):
            idx = int(label)
            if not 0 <= idx < len(self.labels):
                raise ValueError(f"label index {idx} out of range")
            return idx
        name = str(label).strip()
        name = self.aliases.get(name, name)
        if name in self.labels:
            return self.labels.index(name)
        if name.isdecimal():
            return self.label_index(int(name))
        raise ValueError(f"unknown field label {label!r}")

    @cached_property
    def label_table(self) -> Dict[str, int]:
        """`label_index` of every label name and alias, spelled exactly as
        given and with no surrounding whitespace."""
        table = {}
        for key in (*self.labels, *self.aliases):
            name = self.aliases.get(key, key)
            if key == key.strip() and name in self.labels:
                table[key] = self.labels.index(name)
        return table

    def insertion_label(self, label) -> int:
        """`label_index` of a field that may be inserted: a label of zero
        ascending weight is refused."""
        idx = self.label_index(label)
        if self.zero_weight[idx]:
            raise ValueError("zero ascending weight excluded")
        return idx

    def insertion_labels(self, labels: Sequence) -> Tuple[int, ...]:
        """`insertion_label` of each label, in order.  Names and aliases are
        read from `label_table` in one pass; any other spelling, or a label
        of zero weight, sends every label through `insertion_label`, so the
        first bad label raises its own error."""
        table = self.label_table
        try:
            idx = tuple([table[label] for label in labels])
        except (KeyError, TypeError):  # another spelling, or an unhashable label
            return tuple(map(self.insertion_label, labels))
        zero = self.zero_weight
        if any([zero[i] for i in idx]):
            return tuple(map(self.insertion_label, labels))
        return idx

    def label_name(self, idx: int) -> str:
        return self.labels[idx]

    # -- derived artifacts ---------------------------------------------------

    @cached_property
    def channel(self) -> Optional[AscendingChannel]:
        if self.kind != "isometry":
            return None
        return build_channel(self.isometry)

    @cached_property
    def spectral(self) -> Optional[SpectralData]:
        if self.kind != "isometry":
            return None
        if self.pinned_mus is not None:
            return pinned_spectral_data(self.channel, self.pinned_eigenvalues,
                                        self.pinned_mus)
        return eigendecompose(self.channel)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        if self.kind == "isometry":
            return self.spectral.eigenvalues
        return abstract_eigenvalues(self.channel_matrix)

    @cached_property
    def zero_weight(self) -> Tuple[bool, ...]:
        """Per label, whether its ascending weight |lambda| is zero (<= TOL_ZERO)."""
        return tuple(bool(z) for z in np.abs(self.eigenvalues) <= TOL_ZERO)

    @cached_property
    def fusion(self) -> FusionTensor:
        if self.kind == "isometry":
            return fusion_coefficients(self.isometry, self.spectral, self.labels)
        return self.fusion_data

    @cached_property
    def ring(self) -> FusionRing:
        return build_ring(self.fusion)

    @cached_property
    def vacuum_moments(self) -> Optional[np.ndarray]:
        """v_g = <Omega|mu^g|Omega> on the trivial partition."""
        if self.kind == "isometry":
            return self.spectral.moments()
        return self.vacuum_moments_data

    @cached_property
    def evaluation(self) -> Evaluation:
        """Data of the correlator evaluator.  An abstract model works in its
        label basis: products f^{ab}_g, closing the vacuum moments (required).
        An isometry model works in matrix units: products V^dag (e_i (x) e_j) V,
        closing (1/d) tr, which is the matrix ascent.  Its label-basis
        coefficients f^{ab}_g are not used there: their rounding grows with the
        condition number of the eigenbasis."""
        if self.kind == "isometry":
            T, d = self.isometry.tensor, self.isometry.d
            n = d * d
            basis = self.spectral.right_ops.reshape(n, n).T
            product = np.einsum("acl,bem->abcelm", T.conj(), T).reshape(n, n, n)
            closing = np.eye(d, dtype=complex).reshape(-1) / d
        elif self.vacuum_moments_data is None:
            raise ValueError("vacuum moments required")
        else:
            n = len(self.labels)
            basis = np.eye(n, dtype=complex)
            product, closing = self.fusion.coefficients, self.vacuum_moments_data
        one = basis[:, 0]
        return Evaluation(basis, product.reshape(n, n * n), one @ product,
                          (one @ product.reshape(n, n * n)).reshape(n, n), closing)

    @cached_property
    def weights(self) -> WeightTable:
        """The weighted insertions of the correlator evaluator, filled as
        they are read: `weights[a, l]` is label a on a leaf of level l."""
        return WeightTable(self.eigenvalues, self.evaluation.basis)

    def require_isometry(self) -> Isometry3Box:
        if self.isometry is None:
            raise ValueError("no isometry in model")
        return self.isometry


def preset(name: str) -> ModelSpec:
    if name == "qutrit":
        return ModelSpec(
            name="qutrit", kind="isometry",
            labels=QUTRIT_LABELS, aliases=dict(QUTRIT_ALIASES),
            isometry=qutrit_isometry(),
            pinned_eigenvalues=QUTRIT_EIGENVALUES.copy(),
            pinned_mus=_qutrit_pinned_mus(),
        )
    if name == "fibonacci":
        channel, f = _fibonacci_data()
        return ModelSpec(
            name="fibonacci", kind="abstract",
            labels=FIB_LABELS, aliases=dict(FIB_ALIASES),
            channel_matrix=channel,
            fusion_data=FusionTensor(FIB_LABELS, f),
        )
    raise ValueError(f"unknown name {name!r} (presets: qutrit, fibonacci)")


# ---------------------------------------------------------------------------
# tensor checkers


@dataclass(frozen=True)
class PairingReport:
    ok: bool
    constant: float  # isometry proportionality factor per pairing


@dataclass(frozen=True)
class PerfectReport:
    pairing1: PairingReport
    pairing2: PairingReport
    pairing3: PairingReport

    @property
    def all_ok(self) -> bool:
        return self.pairing1.ok and self.pairing2.ok and self.pairing3.ok


def _proportional_isometry(W: np.ndarray) -> PairingReport:
    s = np.linalg.svd(W, compute_uv=False)
    top = float(s[0])
    if top == 0.0:
        return PairingReport(False, 0.0)
    ok = float(s[0] - s[-1]) <= TOL_PERFECT * top
    return PairingReport(bool(ok), float(np.mean(s)))


def check_perfect(V: Isometry3Box) -> PerfectReport:
    """All three one-in/two-out leg bipartitions of T[j,k,l] = <jk|V|l> must
    be proportional to isometries (relative singular-value spread <=
    TOL_PERFECT)."""
    T = V.tensor
    d = V.d
    w_l = T.reshape(d * d, d)                          # l -> (j, k)
    w_j = np.transpose(T, (1, 2, 0)).reshape(d * d, d)  # j -> (k, l)
    w_k = np.transpose(T, (0, 2, 1)).reshape(d * d, d)  # k -> (j, l)
    return PerfectReport(_proportional_isometry(w_l),
                         _proportional_isometry(w_j),
                         _proportional_isometry(w_k))


def check_swap(V: Isometry3Box) -> bool:
    T = V.tensor
    return bool(np.linalg.norm(T - np.transpose(T, (1, 0, 2))) <= TOL_SWAP)


def check_rotation(V: Isometry3Box) -> bool:
    """Invariance of T[j,k,l] under the cyclic leg shift j->k->l->j with the
    canonical (1/sqrt d) sum |jj> pairing (component-wise a pure transpose)."""
    T = V.tensor
    return bool(np.linalg.norm(T - np.transpose(T, (2, 0, 1))) <= TOL_ROTATION)


# ---------------------------------------------------------------------------
# model documents

Parsed = TypeVar("Parsed")


def parse_document(text: str, convert: Callable[[object], Parsed]) -> Parsed:
    """`convert` applied to the JSON document in `text`; a document nested
    too deeply for the parser or for `convert` raises ValueError."""
    try:
        return convert(json.loads(text))
    except RecursionError:
        raise ValueError("document nested too deeply") from None


def to_document(spec: ModelSpec) -> dict:
    doc: dict = {
        "name": spec.name,
        "kind": spec.kind,
        "labels": list(spec.labels),
        "aliases": dict(spec.aliases),
    }
    if spec.isometry is not None:
        doc["d"] = spec.isometry.d
        doc["isometry"] = complex_array_to_lists(spec.isometry.matrix)
    if spec.channel_matrix is not None:
        doc["channel"] = complex_array_to_lists(spec.channel_matrix)
    if spec.kind == "abstract":
        doc["fusion"] = fusion_to_document(spec.fusion_data)
    if spec.vacuum_moments_data is not None:
        doc["moments"] = complex_array_to_lists(spec.vacuum_moments_data)
    if spec.pinned_mus is not None:
        doc["pinned_basis"] = {
            "eigenvalues": complex_array_to_lists(spec.pinned_eigenvalues),
            "mus": complex_array_to_lists(spec.pinned_mus),
        }
    return doc


def load_model(doc) -> ModelSpec:
    """Validated ModelSpec from a parsed JSON document; text goes through
    `parse_document(text, load_model)`."""
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    for key in ("name", "kind"):
        if key not in doc:
            raise ValueError(f"model document missing {key!r}")
    kind = doc["kind"]
    labels = string_tuple(doc.get("labels", []), "model 'labels'")
    aliases = doc.get("aliases", {})
    if not (isinstance(aliases, dict) and all(isinstance(v, str) for v in aliases.values())):
        raise ValueError("model 'aliases' must map names to labels")

    if kind == "isometry":
        if "isometry" not in doc:
            raise ValueError("isometry-backed document missing 'isometry'")
        V = Isometry3Box(complex_array_from_lists(doc["isometry"]))  # validates
        if not labels:
            labels = tuple(str(i) for i in range(V.d * V.d))
        if len(labels) != V.d * V.d:
            raise ValueError(f"label count {len(labels)} != d^2 = {V.d * V.d}")
        pinned_l = pinned_m = None
        if "pinned_basis" in doc:
            pb = doc["pinned_basis"]
            if not (isinstance(pb, dict) and "eigenvalues" in pb and "mus" in pb):
                raise ValueError("'pinned_basis' needs 'eigenvalues' and 'mus'")
            pinned_l = complex_array_from_lists(pb["eigenvalues"])
            pinned_m = complex_array_from_lists(pb["mus"])
            d = V.d
            if pinned_l.shape != (d * d,) or pinned_m.shape != (d * d, d, d):
                raise ValueError("pinned basis shape does not match the isometry")
        return ModelSpec(doc["name"], "isometry", labels, dict(aliases), isometry=V,
                         pinned_eigenvalues=pinned_l, pinned_mus=pinned_m)

    if kind == "abstract":
        for key in ("channel", "fusion"):
            if key not in doc:
                raise ValueError(f"abstract document missing {key!r}")
        channel = complex_array_from_lists(doc["channel"])
        fus = fusion_from_document(doc["fusion"])
        if not labels:
            labels = fus.labels
        moments = None
        if "moments" in doc:
            moments = complex_array_from_lists(doc["moments"])
            if moments.shape != (len(labels),):
                raise ValueError("moments length does not match labels")
        abstract_eigenvalues(channel)  # raises "channel has no unit eigenvalue"
        return ModelSpec(doc["name"], "abstract", labels, dict(aliases),
                         channel_matrix=channel, fusion_data=fus,
                         vacuum_moments_data=moments)

    raise ValueError(f"unknown model kind {kind!r}")


def resolve_model(ref: str) -> ModelSpec:
    """Preset name or a path to a model JSON file."""
    try:
        return preset(ref)
    except ValueError:
        pass
    try:
        with open(ref, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ValueError(f"unknown model {ref!r}: not a preset and not a file")
    return parse_document(text, load_model)
