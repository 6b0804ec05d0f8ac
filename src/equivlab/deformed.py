"""The deformed complex d_T = dbar + T iv, its Dirac square, and spectra.

Per graded degree r = q - p the Dirac square is assembled in orthonormal
bases as

    D_T^2 |_r = 2 ( d_{r-1} d_{r-1}^* + d_r^* d_r ),

block-diagonally over the model's cells.  Kernel dimensions are read off by
a relative-gap clustering rule: eigenvalues are floored at a tiny multiple
of the spectral scale, the largest log-gap among the lowest quarter of the
spectrum is located (with the floor itself as a virtual level below the
smallest eigenvalue, so an empty kernel is a possible outcome), and the
count is marked resolved only if that gap ratio exceeds a configurable
criterion.  This keeps the rule cutoff-independent: no absolute eigenvalue
threshold is ever compared against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .geometry.base import AssembledModel, degree_map
from .geometry import cp1 as cp1mod
from .geometry.torus import laplace_eigenvalue, modes
from .linalg import hermitian_eigenvalues, hermiticity_defect


@dataclass(frozen=True)
class ThresholdRule:
    window_fraction: float = 0.25
    resolve_ratio: float = 1.0e3
    floor_rel: float = 1.0e-12

    def to_dict(self) -> dict:
        return {"window_fraction": self.window_fraction,
                "resolve_ratio": self.resolve_ratio,
                "floor_rel": self.floor_rel}


DEFAULT_RULE = ThresholdRule()


@dataclass
class DeformedOperator:
    """d_T blocks per (cell, degree).

    Bases are orthonormal, so the adjoint of each block is its conjugate
    transpose.
    """

    model: AssembledModel
    T: float
    blocks: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)


def assemble_deformed(model: AssembledModel, T: float) -> DeformedOperator:
    """Form d_T = dbar + T iv per cell and degree and verify the complex
    property ||d_{r+1} d_r|| at float precision (exact closure is separately
    certified in rational arithmetic for the curved model)."""
    op = DeformedOperator(model=model, T=float(T))
    for ci, cell in enumerate(model.cells):
        for r in range(-model.n, model.n + 1):
            op.blocks[(ci, r)] = degree_map(cell, model.n, r, T)
    return op


def complex_property_defect(op: DeformedOperator) -> float:
    """max over cells and degrees of ||d_{r+1} d_r||_2."""
    worst = 0.0
    model = op.model
    for ci in range(len(model.cells)):
        for r in range(-model.n, model.n):
            a = op.blocks[(ci, r)]
            b = op.blocks[(ci, r + 1)]
            if a.size and b.size and b.shape[1] == a.shape[0]:
                prod = b @ a
                if prod.size:
                    worst = max(worst, float(np.linalg.norm(prod, 2)))
    return worst


@dataclass
class DiracSquare:
    model: AssembledModel
    T: float
    cells: dict[tuple[int, int], np.ndarray]
    hermiticity: float

    def merged_eigenvalues(self, r: int) -> np.ndarray:
        parts = [hermitian_eigenvalues(h, {"cell": key[0], "r": r, "T": self.T})
                 for key, h in self.cells.items() if key[1] == r and h.size]
        if not parts:
            return np.zeros(0)
        return np.sort(np.concatenate(parts))


def dirac(op: DeformedOperator) -> DiracSquare:
    """Per-degree Hermitian matrices of the Dirac square in orthonormal
    bases, block-diagonal over cells."""
    model = op.model
    cells: dict[tuple[int, int], np.ndarray] = {}
    worst = 0.0
    for ci, cell in enumerate(model.cells):
        for r in range(-model.n, model.n + 1):
            dim = cell.degree_dim(r, model.n)
            if dim == 0:
                continue
            h = np.zeros((dim, dim), dtype=complex)
            below = op.blocks[(ci, r - 1)] if (ci, r - 1) in op.blocks else None
            here = op.blocks[(ci, r)]
            if below is not None and below.size:
                h += below @ below.conj().T
            if here.size:
                h += here.conj().T @ here
            h *= 2.0
            worst = max(worst, hermiticity_defect(h))
            cells[(ci, r)] = 0.5 * (h + h.conj().T)
    return DiracSquare(model=model, T=op.T, cells=cells, hermiticity=worst)


@dataclass
class SpectrumResult:
    degree: int
    eigenvalues: list[float]        # smallest `kept` eigenvalues, sorted
    dim: int
    kernel_count: int
    gap: float                      # ratio across the located cluster gap
    threshold: float                # geometric mean level at the split
    resolved: bool
    T: float


def cluster_kernel(evals: np.ndarray, rule: ThresholdRule = DEFAULT_RULE
                   ) -> tuple[int, float, bool, float]:
    """(kernel_count, gap_ratio, resolved, threshold) by the relative-gap
    rule described in the module docstring."""
    n = len(evals)
    if n == 0:
        return 0, float("inf"), True, 0.0
    scale = max(float(evals[-1]), 1.0)
    floor = rule.floor_rel * scale
    lam = np.maximum(np.asarray(evals, dtype=float), floor)
    if float(lam[-1]) <= floor:
        return n, float("inf"), True, floor
    window = max(1, int(np.ceil(rule.window_fraction * n)))
    best_i, best_ratio = 0, lam[0] / floor
    for i in range(1, min(window, n - 1) + 1):
        ratio = lam[i] / lam[i - 1]
        if ratio > best_ratio:
            best_i, best_ratio = i, ratio
    lo = floor if best_i == 0 else lam[best_i - 1]
    hi = lam[best_i] if best_i < n else lam[-1]
    threshold = float(np.sqrt(lo * hi))
    resolved = best_ratio >= rule.resolve_ratio
    return best_i, float(best_ratio), bool(resolved), threshold


class NotPSDError(ValueError):
    """The Dirac square, a sum of Gram products, has an eigenvalue below
    the PSD guard: the assembled operator is wrong."""

    def __init__(self, degree: int, eigenvalue: float):
        self.degree = degree
        self.eigenvalue = eigenvalue
        super().__init__(
            f"Dirac square not PSD at degree {degree}: {eigenvalue}")

    def __reduce__(self):
        return type(self), (self.degree, self.eigenvalue)


def spectrum(dsq: DiracSquare, r: int, how_many: int = 8,
             rule: ThresholdRule = DEFAULT_RULE) -> SpectrumResult:
    evals = dsq.merged_eigenvalues(r)
    if len(evals) and float(evals[0]) < -1.0e-10:
        raise NotPSDError(r, float(evals[0]))
    count, gap, resolved, threshold = cluster_kernel(evals, rule)
    return SpectrumResult(
        degree=r, eigenvalues=[float(x) for x in evals[:how_many]],
        dim=len(evals), kernel_count=count, gap=gap, threshold=threshold,
        resolved=resolved, T=dsq.T)


@dataclass
class CohomologyTable:
    dims: dict[int, int]
    source: str

    def __eq__(self, other):
        if not isinstance(other, CohomologyTable):
            return NotImplemented
        keys = set(self.dims) | set(other.dims)
        return all(self.dims.get(r, 0) == other.dims.get(r, 0) for r in keys)


def graded_euler(table: CohomologyTable) -> int:
    return sum((-1 if r % 2 else 1) * d for r, d in table.dims.items())


def spectral_table(model: AssembledModel, T: float,
                   rule: ThresholdRule = DEFAULT_RULE,
                   how_many: int = 8
                   ) -> tuple[CohomologyTable, dict[int, SpectrumResult]]:
    op = assemble_deformed(model, T)
    dsq = dirac(op)
    results = {}
    dims = {}
    for r in range(-model.n, model.n + 1):
        res = spectrum(dsq, r, how_many=how_many, rule=rule)
        results[r] = res
        dims[r] = res.kernel_count
    src = f"spectral(T={T:g}, cutoff={model.spec.cutoff or ''}, rule=relative-gap)"
    return CohomologyTable(dims=dims, source=src), results


# ---------------------------------------------------------------------------
# Curvature-identity check (exact on the curved model, float on the torus)
# ---------------------------------------------------------------------------

def bochner_check(model: AssembledModel, T) -> dict:
    """Residual of   D_T^2 = D^2 + 2 T^2 |v|^2 + 2 T (curvature terms)
    per block.

    Torus: assembled in floats; the curvature term vanishes identically for
    a constant field, and the residual is pure round-off.  Projective line:
    both sides are applied to every truncated basis section in exact
    rational arithmetic, so the reported residual is exact.
    """
    if model.spec.kind == "torus":
        return _bochner_torus(model, float(T))
    if model.spec.kind == "cp1":
        return _bochner_cp1(model, T)
    raise ValueError("curvature identity check supports torus and cp1 models")


def _bochner_torus(model: AssembledModel, T: float) -> dict:
    spec = model.spec
    shift = 2.0 * T * T * abs(spec.field.c) ** 2
    jks = modes(spec.cutoff)
    # per mode, both sides are scalar (2|mu|^2 + 2T^2|c|^2) on every label;
    # the left side is assembled from the blocks to keep the comparison
    # honest.  Cell ci is mode jks[ci].
    worst = 0.0
    for (ci, r), h in dirac(assemble_deformed(model, T)).cells.items():
        lam0 = laplace_eigenvalue(spec.tau, *jks[ci])
        target = (lam0 + shift) * np.eye(h.shape[0])
        worst = max(worst, float(np.linalg.norm(h - target, 2)))
    return {"residual": worst, "zero_order_term": 0.0, "exact": False}


def _add_section(out: dict, pq, sec) -> None:
    """Add sec into a (p,q)-keyed family that holds only nonzero sections."""
    if pq in out:
        sec = cp1mod.section_add(out[pq], sec)
    if sec.is_zero():
        out.pop(pq, None)
    else:
        out[pq] = sec


def _apply_d0(sections: dict) -> dict:
    """dbar + dbar^* on a (p,q)-keyed family of exact sections."""
    out: dict = {}
    for (p, q), sec in sections.items():
        if q == 0:
            _add_section(out, (p, 1), cp1mod.dbar(sec))
        else:
            _add_section(out, (p, 0), cp1mod.dbar_star(sec))
    return out


def _apply_v(sections: dict) -> dict:
    """iv + wedge by the dual field: the part of d_T + d_T^* linear in T."""
    out: dict = {}
    for (p, q), sec in sections.items():
        if p == 1:
            _add_section(out, (0, q), cp1mod.field_contract(sec))
        else:
            _add_section(out, (1, q), cp1mod.dual_field_wedge(sec))
    return out


def _largest_coefficient(sections) -> Fraction:
    return max((abs(co) for sec in sections for _, co in sec.terms),
               default=Fraction(0))


def _bochner_cp1(model: AssembledModel, T) -> dict:
    """With D = dbar + dbar^* and V = iv + (dual field) wedge, d_T + d_T^*
    = D + T V, so

        2 (D + T V)^2 - 2 D^2 - 2 T^2 |v|^2 - 2 T Theta
            = 2 T (D V + V D - Theta) + 2 T^2 (V^2 - |v|^2).

    Both brackets are T-free: the curvature identity D V + V D = Theta and
    the Clifford identity V^2 = |v|^2 are applied to every truncated basis
    section with integer coefficients.  The residual at T is the largest
    coefficient of the right side, exactly 0 when both identities hold."""
    T = Fraction(T)
    exact: cp1mod.Cp1Exact = model.exact
    worst = Fraction(0)
    curvature_norm = Fraction(0)
    for pq, block in exact.blocks.items():
        for a, b in block.monomials:
            e = cp1mod.CPSection.make(exact.k, *pq, block.den, {(a, b): 1})
            d0e, ve = _apply_d0({pq: e}), _apply_v({pq: e})
            curvature = _apply_d0(ve)
            for spq, sec in _apply_v(d0e).items():
                _add_section(curvature, spq, sec)
            if pq == (0, 0):
                theta = cp1mod.curvature_wedge(e)
                curvature_norm = max(curvature_norm,
                                     _largest_coefficient([theta]))
                _add_section(curvature, (1, 1), cp1mod.section_scale(theta, -1))
            if pq == (1, 1):
                theta = cp1mod.curvature_contract(e)
                _add_section(curvature, (0, 0), cp1mod.section_scale(theta, -1))
            clifford = _apply_v(ve)
            _add_section(clifford, pq, cp1mod.section_scale(
                cp1mod.field_norm_mul(e), -1))
            if not (curvature or clifford):
                continue
            residual: dict = {}
            for part, factor in ((curvature, 2 * T), (clifford, 2 * T * T)):
                for spq, sec in part.items():
                    _add_section(residual, spq,
                                 cp1mod.section_scale(sec, factor))
            worst = max(worst, _largest_coefficient(residual.values()))
    return {"residual": float(worst),
            "zero_order_term": float(abs(2 * T) * curvature_norm),
            "exact": True}


# ---------------------------------------------------------------------------
# Sweeps and exports
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    T: float
    degree: int
    result: SpectrumResult


@dataclass
class SweepResult:
    model: AssembledModel
    tables: dict[float, CohomologyTable]
    rows: list[SweepRow]
    unresolved: list[tuple[float, int]]
    min_eig_over_T2: dict[float, float]   # only for empty-zero-set models


def t_sweep(model: AssembledModel, T_list, rule: ThresholdRule = DEFAULT_RULE,
            how_many: int = 8) -> SweepResult:
    if not T_list:
        raise ValueError("T grid must be nonempty")
    if any(t <= 0 for t in T_list):
        raise ValueError("T grid must be positive")
    tables: dict[float, CohomologyTable] = {}
    rows: list[SweepRow] = []
    unresolved: list[tuple[float, int]] = []
    growth: dict[float, float] = {}
    empty_zero_set = (model.spec.kind == "torus"
                      and model.spec.field.kind == "constant")
    for T in T_list:
        table, results = spectral_table(model, T, rule=rule, how_many=how_many)
        tables[float(T)] = table
        all_eigs = []
        for r, res in sorted(results.items()):
            rows.append(SweepRow(T=float(T), degree=r, result=res))
            if not res.resolved:
                unresolved.append((float(T), r))
            all_eigs.extend(res.eigenvalues[:1])
        if empty_zero_set and all_eigs:
            growth[float(T)] = min(all_eigs) / float(T) ** 2
    return SweepResult(model=model, tables=tables, rows=rows,
                       unresolved=unresolved, min_eig_over_T2=growth)


CSV_FIELDS = ["model", "kind", "param", "cutoff", "T", "r", "dim",
              "kernel_count", "resolved", "gap_ratio", "threshold"] + [
    f"lam{i}" for i in range(1, 9)]


def sweep_rows_for_csv(sweep: SweepResult) -> list[dict]:
    spec = sweep.model.spec
    param = {"torus": f"tau={spec.tau:g};c={spec.field.c:g}",
             "cp1": f"k={spec.k}",
             "product": f"k={spec.left.k if spec.left else ''}"}[spec.kind]
    cutoff = (spec.cutoff if spec.kind != "product"
              else f"{spec.left.cutoff}x{spec.right.cutoff}")
    out = []
    for row in sweep.rows:
        res = row.result
        rec = {"model": spec.label(), "kind": spec.kind, "param": param,
               "cutoff": cutoff, "T": f"{row.T:.17g}", "r": row.degree,
               "dim": res.dim, "kernel_count": res.kernel_count,
               "resolved": int(res.resolved),
               "gap_ratio": f"{res.gap:.17g}",
               "threshold": f"{res.threshold:.17g}"}
        for i in range(8):
            val = res.eigenvalues[i] if i < len(res.eigenvalues) else ""
            rec[f"lam{i + 1}"] = f"{val:.17g}" if val != "" else ""
        out.append(rec)
    return out
