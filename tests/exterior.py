"""Finite-dimensional bigraded exterior algebra with Clifford actions.

The pointwise fiber at a point of an n-dimensional complex manifold is
modelled as the exterior algebra on 2n unit generators, n of antiholomorphic
type ("dzbar^j", raising q) and n of holomorphic type ("dz^j", raising p).
The integer grading used throughout the laboratory is r = q - p, under
which both the Dolbeault operator and contraction by a (1,0) vector field
have degree +1.

Conventions fixed here and validated exactly by the committed golden tables:

* a label denotes the ordered product dz^{i1}..dz^{ip} dzbar^{j1}..dzbar^{jq}
  (holomorphic generators first); all wedge and contraction signs come from
  that ordering;
* the metric dual of a (1,0) frame vector w_j is the unit (0,1) generator
  dzbar^j, linearly in the components (the dual of a conjugated vector is
  the corresponding dz^j);
* c(u) = sqrt(2) u^ wedge for unconjugated u, c(u) = -sqrt(2) i(u) for
  conjugated u; hat_c(u) = -sqrt(-2) i(u) for unconjugated u acting on the
  holomorphic factor, hat_c(u) = -sqrt(-2) u^ wedge for conjugated u, with
  sqrt(-2) = i sqrt(2).

Coefficients are exact scalars in Q(i)[sqrt2], so every identity holds
with no rounding.  This module is the test suite's reference: it generates
the committed m = 1 Clifford tables (`golden_tables`, written to
GOLDEN_TABLES_PATH by scripts/make_fixtures.py), and the float fiber that
`equivlab.localmodel` builds by Kronecker products is pinned entry for
entry to the exact construction here, read through `ExactScalar.to_complex`.
"""

from __future__ import annotations

import itertools
import pathlib
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from scalars import ONE, SQRT2, SQRT_M2, ZERO, ExactScalar

GOLDEN_TABLES_PATH = (pathlib.Path(__file__).parent / "fixtures"
                      / "clifford_tables_n1.json")


class BasisLabel(NamedTuple):
    """One exterior basis element: the ordered product dz^holo wedge
    dzbar^anti."""

    anti: tuple[int, ...]
    holo: tuple[int, ...]

    @property
    def p(self) -> int:
        return len(self.holo)

    @property
    def q(self) -> int:
        return len(self.anti)

    @property
    def r(self) -> int:
        return self.q - self.p

    def positions(self, n: int) -> tuple[int, ...]:
        """Generator positions in the global order (holo 0..n-1, anti n..2n-1)."""
        return tuple(j - 1 for j in self.holo) + tuple(n + i - 1 for i in self.anti)


def _check_label(label: BasisLabel, n: int) -> None:
    for part in (label.anti, label.holo):
        if list(part) != sorted(set(part)):
            raise ValueError(f"label indices must be strictly increasing: {label}")
        if part and (part[0] < 1 or part[-1] > n):
            raise ValueError(f"label index out of range 1..{n}: {label}")


def enumerate_basis(n: int) -> tuple[BasisLabel, ...]:
    """All 4^n labels, lexicographic on (anti, holo)."""
    if n < 1:
        raise ValueError("need n >= 1")
    subsets = []
    for size in range(n + 1):
        subsets.extend(itertools.combinations(range(1, n + 1), size))
    return tuple(sorted(BasisLabel(anti, holo)
                        for anti in subsets for holo in subsets))


class AlgebraElement:
    """Finite linear combination of labels with ExactScalar coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[BasisLabel, ExactScalar] | None = None):
        self.n = n
        self.terms: dict[BasisLabel, ExactScalar] = {}
        if terms:
            for lab, coeff in terms.items():
                if coeff:
                    _check_label(lab, n)
                    self.terms[lab] = coeff

    @classmethod
    def from_label(cls, n: int, label: BasisLabel,
                   coeff: ExactScalar = ONE) -> "AlgebraElement":
        return cls(n, {label: coeff})

    @classmethod
    def scalar_one(cls, n: int) -> "AlgebraElement":
        return cls.from_label(n, BasisLabel((), ()))

    def _compatible(self, other: "AlgebraElement") -> None:
        if self.n != other.n:
            raise ValueError(f"ambient dimension mismatch: {self.n} != {other.n}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._compatible(other)
        out = dict(self.terms)
        for lab, coeff in other.terms.items():
            new = out.get(lab, None)
            new = coeff if new is None else new + coeff
            if new:
                out[lab] = new
            elif lab in out:
                del out[lab]
        return AlgebraElement(self.n, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + other.scale(-1)

    def scale(self, coeff) -> "AlgebraElement":
        return AlgebraElement(self.n, {lab: coeff * c for lab, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (self.n, self.terms) == (other.n, other.terms)

    def __repr__(self):
        if not self.terms:
            return "AlgebraElement(0)"
        bits = [f"{coeff!r}*{lab}" for lab, coeff in sorted(self.terms.items())]
        return "AlgebraElement(" + " + ".join(bits) + ")"


@dataclass(frozen=True)
class TangentVector:
    """Pointwise tangent vector in the fixed unitary frame; `conjugated`
    distinguishes (0,1) vectors from (1,0) vectors.  Components are taken
    as given (no implicit conjugation anywhere)."""

    components: tuple
    conjugated: bool = False

    @property
    def n(self) -> int:
        return len(self.components)


def _merge_sign(pos_a: Sequence[int], pos_b: Sequence[int]) -> int:
    """Sign of sorting the concatenation of two increasing position tuples;
    0 if they share a generator."""
    inv = 0
    for x in pos_a:
        for y in pos_b:
            if x == y:
                return 0
            if y < x:
                inv += 1
    return -1 if inv % 2 else 1


def _label_from_positions(n: int, positions: Iterable[int]) -> BasisLabel:
    holo = tuple(sorted(p + 1 for p in positions if p < n))
    anti = tuple(sorted(p - n + 1 for p in positions if p >= n))
    return BasisLabel(anti, holo)


def wedge(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Exterior product."""
    a._compatible(b)
    n = a.n
    out = AlgebraElement(n)
    acc: dict[BasisLabel, ExactScalar] = {}
    for la, ca in a.terms.items():
        pa = la.positions(n)
        for lb, cb in b.terms.items():
            sign = _merge_sign(pa, lb.positions(n))
            if sign == 0:
                continue
            lab = _label_from_positions(n, pa + lb.positions(n))
            coeff = ca * cb if sign > 0 else -(ca * cb)
            prev = acc.get(lab)
            coeff = coeff if prev is None else prev + coeff
            if coeff:
                acc[lab] = coeff
            elif lab in acc:
                del acc[lab]
    out.terms = acc
    return out


def contract(u: TangentVector, a: AlgebraElement) -> AlgebraElement:
    """Interior product i(u): the degree -1 antiderivation with
    <dz^j, w_k> = delta_jk for (1,0) frame vectors w_k, and the mirrored
    pairing on the antiholomorphic side for conjugated u."""
    if u.n != a.n:
        raise ValueError(f"ambient dimension mismatch: {u.n} != {a.n}")
    n = a.n
    acc: dict[BasisLabel, ExactScalar] = {}
    for lab, coeff in a.terms.items():
        positions = lab.positions(n)
        for idx, pos in enumerate(positions):
            if not u.conjugated and pos < n:
                comp = u.components[pos]
            elif u.conjugated and pos >= n:
                comp = u.components[pos - n]
            else:
                continue
            if not comp:
                continue
            rest = positions[:idx] + positions[idx + 1:]
            new_lab = _label_from_positions(n, rest)
            term = coeff * comp if idx % 2 == 0 else -(coeff * comp)
            prev = acc.get(new_lab)
            term = term if prev is None else prev + term
            if term:
                acc[new_lab] = term
            elif new_lab in acc:
                del acc[new_lab]
    out = AlgebraElement(n)
    out.terms = acc
    return out


def metric_dual_wedge(u: TangentVector, a: AlgebraElement) -> AlgebraElement:
    """Wedge by the metric dual u^* of u: a (0,1) generator combination for
    unconjugated u, a (1,0) combination for conjugated u; linear in the
    stored components."""
    if u.n != a.n:
        raise ValueError(f"ambient dimension mismatch: {u.n} != {a.n}")
    n = a.n
    dual_terms: dict[BasisLabel, ExactScalar] = {}
    for j, comp in enumerate(u.components, start=1):
        if not comp:
            continue
        lab = BasisLabel((), (j,)) if u.conjugated else BasisLabel((j,), ())
        dual_terms[lab] = comp
    dual = AlgebraElement(n)
    dual.terms = dual_terms
    return wedge(dual, a)


class LinearOp:
    """A linear map on AlgebraElement, with matrix extraction on label lists."""

    def __init__(self, n: int, fn: Callable[[AlgebraElement], AlgebraElement],
                 name: str = ""):
        self.n = n
        self.fn = fn
        self.name = name

    def __call__(self, a: AlgebraElement) -> AlgebraElement:
        return self.fn(a)

    def compose(self, other: "LinearOp") -> "LinearOp":
        return LinearOp(self.n, lambda a: self.fn(other.fn(a)),
                        f"{self.name}*{other.name}")

    def __add__(self, other: "LinearOp") -> "LinearOp":
        return LinearOp(self.n, lambda a: self.fn(a) + other.fn(a),
                        f"{self.name}+{other.name}")

    def scaled(self, coeff) -> "LinearOp":
        return LinearOp(self.n, lambda a: self.fn(a).scale(coeff),
                        f"{coeff}*{self.name}")

    def anticommutator(self, other: "LinearOp") -> "LinearOp":
        def fn(a):
            return self.fn(other.fn(a)) + other.fn(self.fn(a))
        return LinearOp(self.n, fn, f"{{{self.name},{other.name}}}")

    def matrix(self, src: Sequence[BasisLabel],
               tgt: Sequence[BasisLabel]) -> list[list[ExactScalar]]:
        """Rows indexed by tgt, columns by src.  Raises if an image leaves
        the span of tgt."""
        index = {lab: i for i, lab in enumerate(tgt)}
        cols = []
        for lab in src:
            img = self.fn(AlgebraElement.from_label(self.n, lab))
            col = [ZERO] * len(tgt)
            for out_lab, coeff in img.terms.items():
                if out_lab not in index:
                    raise ValueError(f"{self.name}: image label {out_lab} outside block")
                col[index[out_lab]] = coeff
            cols.append(col)
        return [[cols[j][i] for j in range(len(src))] for i in range(len(tgt))]


def contraction_op(u: TangentVector, n: int) -> LinearOp:
    return LinearOp(n, lambda a: contract(u, a), "i(u)")


def dual_wedge_op(u: TangentVector, n: int) -> LinearOp:
    return LinearOp(n, lambda a: metric_dual_wedge(u, a), "u*^")


def clifford_c(u: TangentVector, n: int | None = None) -> LinearOp:
    """c(u) = sqrt(2) u^* wedge on the antiholomorphic factor for (1,0) u,
    c(u) = -sqrt(2) i(u) for (0,1) u."""
    n = u.n if n is None else n
    if u.conjugated:
        return contraction_op(u, n).scaled(-SQRT2)
    return dual_wedge_op(u, n).scaled(SQRT2)


def clifford_hat_c(u: TangentVector, n: int | None = None) -> LinearOp:
    """hat_c(u) = -sqrt(-2) i(u) on the holomorphic factor for (1,0) u,
    hat_c(u) = -sqrt(-2) u^* wedge for (0,1) u, with sqrt(-2) = i sqrt(2)."""
    n = u.n if n is None else n
    if u.conjugated:
        base = dual_wedge_op(u, n)
    else:
        base = contraction_op(u, n)
    return base.scaled(-SQRT_M2)


def frame_vector(n: int, j: int, conjugated: bool = False) -> TangentVector:
    return TangentVector(tuple(ONE if i == j else ZERO for i in range(1, n + 1)),
                         conjugated)


def hermitian_inner(a: AlgebraElement, b: AlgebraElement) -> ExactScalar:
    """Unit-frame Hermitian pairing, conjugate linear in the first slot."""
    a._compatible(b)
    return sum((ca.conjugate() * b.terms[lab] for lab, ca in a.terms.items()
                if lab in b.terms), ZERO)


def norm_sq(a: AlgebraElement) -> ExactScalar:
    return hermitian_inner(a, a)


# ---------------------------------------------------------------------------
# Golden tables: the committed record of every sign convention above.
# ---------------------------------------------------------------------------

def _n1_operators() -> dict[str, LinearOp]:
    w = frame_vector(1, 1, conjugated=False)
    wbar = frame_vector(1, 1, conjugated=True)
    return {
        "c_w": clifford_c(w),
        "c_wbar": clifford_c(wbar),
        "hatc_w": clifford_hat_c(w),
        "hatc_wbar": clifford_hat_c(wbar),
    }


def golden_tables() -> dict:
    """Exact matrices of the four n=1 Clifford generators on the lex-ordered
    4-element basis, plus all pairwise anticommutators.  Committed as a
    fixture; regenerated and compared in the test suite."""
    labels = enumerate_basis(1)
    ops = _n1_operators()
    table = {
        "basis": [[list(l.anti), list(l.holo)] for l in labels],
        "operators": {},
        "anticommutators": {},
    }
    for name, op in ops.items():
        mat = op.matrix(labels, labels)
        table["operators"][name] = [[c.serialize() for c in row] for row in mat]
    for na, nb in itertools.combinations_with_replacement(ops, 2):
        anti = ops[na].anticommutator(ops[nb])
        mat = anti.matrix(labels, labels)
        table["anticommutators"][f"{na},{nb}"] = [[c.serialize() for c in row]
                                                  for row in mat]
    return table
