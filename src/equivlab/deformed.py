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


def spectrum(dsq: DiracSquare, r: int, how_many: int = 8,
             rule: ThresholdRule = DEFAULT_RULE) -> SpectrumResult:
    evals = dsq.merged_eigenvalues(r)
    if len(evals) and float(evals[0]) < -1.0e-10:
        raise ValueError(f"Dirac square not PSD at degree {r}: {evals[0]}")
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


def _apply_dt(sections: dict, T: Fraction, k: int) -> dict:
    """(dbar_T + dbar_T^*) on a tuple-keyed family of exact sections."""
    out: dict = {}

    def add(pq, sec):
        if sec.is_zero():
            return
        if pq in out:
            out[pq] = cp1mod.section_add(out[pq], sec)
        else:
            out[pq] = sec

    for pq, sec in sections.items():
        p, q = pq
        if q == 0:
            add((p, 1), cp1mod.dbar(sec))
        if p == 1:
            add((0, q), cp1mod.section_scale(cp1mod.field_contract(sec), T))
        if q == 1:
            add((p, 0), cp1mod.dbar_star(sec))
        if p == 0:
            add((1, q), cp1mod.section_scale(cp1mod.dual_field_wedge(sec), T))
    return out


def _bochner_cp1(model: AssembledModel, T) -> dict:
    T = Fraction(T)
    exact: cp1mod.Cp1Exact = model.exact
    k = exact.k
    worst = Fraction(0)
    zero_order_norm = Fraction(0)
    for pq, block in exact.blocks.items():
        for i in range(block.dim):
            e = block.basis_section(k, i)
            # left side: 2 (dbar_T + dbar_T^*)^2 e
            once = _apply_dt({pq: e}, T, k)
            lhs: dict = {}
            for spq, sec in _apply_dt(once, T, k).items():
                lhs[spq] = cp1mod.section_scale(sec, 2)
            # right side: 2 (dbar + dbar^*)^2 e + 2 T^2 |v|^2 e + 2 T Theta e
            rhs: dict = {}
            for spq, sec in _apply_dt(_apply_dt({pq: e}, Fraction(0), k),
                                      Fraction(0), k).items():
                rhs[spq] = cp1mod.section_scale(sec, 2)
            extra = cp1mod.section_scale(cp1mod.field_norm_mul(e), 2 * T * T)
            rhs[pq] = cp1mod.section_add(rhs[pq], extra) if pq in rhs else extra
            if pq == (0, 0):
                zterm = cp1mod.section_scale(cp1mod.curvature_wedge(e), 2 * T)
                if not zterm.is_zero():
                    rhs[(1, 1)] = (cp1mod.section_add(rhs[(1, 1)], zterm)
                                   if (1, 1) in rhs else zterm)
                    zero_order_norm = max(
                        zero_order_norm,
                        max(abs(co) for _, co in zterm.terms))
            if pq == (1, 1):
                zterm = cp1mod.section_scale(cp1mod.curvature_contract(e), 2 * T)
                if not zterm.is_zero():
                    rhs[(0, 0)] = (cp1mod.section_add(rhs[(0, 0)], zterm)
                                   if (0, 0) in rhs else zterm)
            for spq in set(lhs) | set(rhs):
                a = lhs.get(spq)
                b = rhs.get(spq)
                if a is None:
                    diff = cp1mod.section_scale(b, -1)
                elif b is None:
                    diff = a
                else:
                    diff = cp1mod.section_add(a, cp1mod.section_scale(b, -1))
                if not diff.is_zero():
                    worst = max(worst, max(abs(co) for _, co in diff.terms))
    return {"residual": float(worst), "zero_order_term": float(zero_order_norm),
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
