"""The deformed complex d_T = dbar + T iv, its Dirac square, and spectra.

Per graded degree r = q - p the Dirac square is assembled in orthonormal
bases as

    D_T^2 |_r = 2 ( d_{r-1} d_{r-1}^* + d_r^* d_r ),

block-diagonally over the model's cells.  The cells come in stacks of one
layout (see `geometry.base`), and every step works on a whole stack at
once: per stack and degree, d_T, the Dirac square, its eigensolve and the
d_T^2 defect are each one batched numpy call (`matmul`, `eigvalsh`, a 2-norm
over the last two axes).  Each applies the same BLAS/LAPACK routine to the
same member matrix as a per-cell call would, so the results are equal bit
for bit; cells are never merged into larger matrices, which would change
the eigenvalues' last bits.  The placement of the dbar and iv blocks in
each d_T block depends only on the model, so it is made once; each T then
forms A + T B.

The product cp1 x torus has no blocks of its own (`geometry.product`): d_T,
its defect, the Dirac square and the eigensolves are the cp1 factor's, and
in product degree r the spectrum is every cp1 eigenvalue of degree r - b
plus every torus level, once per torus label of degree b (`KunnethSquare`).

Kernel dimensions are read off by a relative-gap clustering rule:
eigenvalues are floored at FLOOR_REL times the spectral scale, the largest
log-gap among the lowest WINDOW_FRACTION (a quarter) of the spectrum is
located (with the floor itself as a virtual level below the smallest
eigenvalue, so an empty kernel is a possible outcome), and the count is
marked resolved only if that gap ratio reaches RESOLVE_RATIO.  This keeps
the rule cutoff-independent: no absolute eigenvalue threshold is ever
compared against.  The three values are fixed, not configurable, so no
config can loosen a count.

The curvature identity D_T^2 = D^2 + 2 T^2 |v|^2 + 2 T (zero order) is
checked in floats on the torus and, on the curved model, as a T-free exact
certificate (`Cp1Exact.bochner_brackets`) that `bochner_check` scales by
the exact T.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .geometry.base import AssembledModel, CellStack
from .geometry.product import RIGHT_MULTIPLICITY, ProductModel
from .geometry.torus import laplace_eigenvalue, modes
from .linalg import hermitian_eigenvalues
# not called here, but perfbench/tracing.py still wraps it under this name
from .linalg import hermiticity_defect  # noqa: F401

_EPS = float(np.finfo(float).eps)
# eigenvalues kept per spectrum: one per lam column of CSV_FIELDS
KEPT_EIGENVALUES = 8
# the kernel-count rule of the module docstring
FLOOR_REL = 1.0e-12
WINDOW_FRACTION = 0.25
RESOLVE_RATIO = 1.0e3


@dataclass
class DeformedOperator:
    """d_T blocks per (stack, degree), each of shape (members, rows, cols).

    Bases are orthonormal, so the adjoint of each block is its conjugate
    transpose.
    """

    model: AssembledModel
    T: float
    blocks: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _placed(stack: CellStack, n: int, r: int
            ) -> tuple[np.ndarray, np.ndarray]:
    """(A, B): the dbar blocks and the iv blocks of every member of a stack
    placed in the map from the degree-r block to the degree-(r+1) block, in
    the stack's orthonormal bases, so that d_T there is A + T B.  They keep
    the blocks' own type: real on the projective line, complex on the
    torus."""
    src = stack.pqs_of_degree(r, n)
    tgt = stack.pqs_of_degree(r + 1, n)
    rows = sum(stack.dim(pq) for pq in tgt)
    cols = sum(stack.dim(pq) for pq in src)
    a = np.zeros((stack.size, rows, cols), dtype=np.result_type(
        float, *stack.dbar.values(), *stack.iv.values()))
    b = np.zeros_like(a)
    row_off = {}
    off = 0
    for pq in tgt:
        row_off[pq] = off
        off += stack.dim(pq)
    col = 0
    for (p, q) in src:
        w = stack.dim((p, q))
        blk = stack.dbar.get((p, q))
        if blk is not None and (p, q + 1) in row_off and blk.size:
            top = row_off[(p, q + 1)]
            a[:, top:top + blk.shape[1], col:col + w] += blk
        blk = stack.iv.get((p, q))
        if blk is not None and (p - 1, q) in row_off and blk.size:
            top = row_off[(p - 1, q)]
            b[:, top:top + blk.shape[1], col:col + w] += blk
        col += w
    return a, b


def assemble_deformed(model: AssembledModel, T: float) -> DeformedOperator:
    """Form d_T = dbar + T iv per stack and degree, as the complex
    T B + A, from the placement of dbar (A) and iv (B) that the model
    keeps after its first d_T.  dbar raises q and iv lowers p, so A and B
    have disjoint supports: every entry is an entry of A or T times an
    entry of B, plus a zero, as when both are added into zeros."""
    op = DeformedOperator(model=model, T=float(T))
    placed = model.placed_dt
    for si, stack in enumerate(model.cells):
        for r in range(-model.n, model.n + 1):
            if (si, r) not in placed:
                placed[si, r] = _placed(stack, model.n, r)
            a, b = placed[si, r]
            d = np.multiply(b, op.T, out=np.empty(b.shape, dtype=complex))
            d += a
            op.blocks[(si, r)] = d
    return op


def complex_property_defect(op: DeformedOperator) -> float:
    """Worst ratio, over stacks, members and degrees, of ||d_{r+1} d_r||_F
    to its round-off bound (k + 8) eps ||d_{r+1}||_F ||d_r||_F, where k is
    the inner dimension: gamma_k covers the product, and the rest a few
    roundings per block entry.  The ratio is 0 where the product is exactly
    0, and above 1 where d_T^2 = 0 fails beyond round-off.  (Exact closure
    is separately certified in rational arithmetic for the curved model.)"""
    worst = 0.0
    model = op.model
    for si in range(len(model.cells)):
        for r in range(-model.n, model.n):
            a = op.blocks[(si, r)]
            b = op.blocks[(si, r + 1)]
            if a.size and b.size:
                defect = np.linalg.norm(b @ a, axis=(-2, -1))
                bound = ((a.shape[-2] + 8) * _EPS
                         * np.linalg.norm(b, axis=(-2, -1))
                         * np.linalg.norm(a, axis=(-2, -1)))
                ratio = np.divide(defect, bound, out=np.zeros_like(defect),
                                  where=defect > 0)
                worst = max(worst, float(ratio.max()))
    return worst


@dataclass
class DiracSquare:
    """Per (stack, degree), the Dirac squares of every member, shape
    (members, dim, dim)."""

    model: AssembledModel
    T: float
    cells: dict[tuple[int, int], np.ndarray]

    def merged_eigenvalues(self, r: int) -> np.ndarray:
        """Eigenvalues of every member in degree r, sorted."""
        parts = [hermitian_eigenvalues(h, {"stack": self.model.cells[si].name,
                                           "r": r, "T": self.T}).ravel()
                 for (si, rr), h in self.cells.items() if rr == r and h.size]
        if not parts:
            return np.zeros(0)
        return np.sort(np.concatenate(parts))

    def member_dim(self, r: int) -> int:
        """The largest member dimension in degree r."""
        return max((h.shape[-1] for (_, rr), h in self.cells.items()
                    if rr == r), default=0)


def dirac(op: DeformedOperator) -> DiracSquare:
    """Per-degree Hermitian matrices of the Dirac square in orthonormal
    bases, one batch per stack; each is exactly Hermitian, 0.5 (h + h^*)."""
    model = op.model
    cells: dict[tuple[int, int], np.ndarray] = {}
    for si, stack in enumerate(model.cells):
        for r in range(-model.n, model.n + 1):
            dim = stack.degree_dim(r, model.n)
            if dim == 0:
                continue
            h = np.zeros((stack.size, dim, dim), dtype=complex)
            below = op.blocks.get((si, r - 1))
            here = op.blocks[(si, r)]
            if below is not None and below.size:
                h += below @ _adjoint(below)
            if here.size:
                h += _adjoint(here) @ here
            h *= 2.0
            cells[(si, r)] = 0.5 * (h + _adjoint(h))
    return DiracSquare(model=model, T=op.T, cells=cells)


@dataclass
class KunnethSquare:
    """The Dirac square of a product, by its eigenvalues per degree: in
    degree r, for each right degree b, every sum of a left eigenvalue of
    degree r - b and a torus level, RIGHT_MULTIPLICITY[b] times."""

    model: ProductModel
    T: float
    left: dict[int, np.ndarray]     # the left factor's eigenvalues per degree
    dims: dict[int, int]            # member_dim per degree

    def merged_eigenvalues(self, r: int) -> np.ndarray:
        """Eigenvalues of degree r, sorted."""
        parts = [np.add.outer(self.left[r - b], self.model.levels).ravel()
                 for b, mult in RIGHT_MULTIPLICITY.items()
                 if r - b in self.left for _ in range(mult)]
        return np.sort(np.concatenate(parts))

    def member_dim(self, r: int) -> int:
        """The largest member dimension of the left factor over the
        degrees r - b that enter degree r."""
        return self.dims[r]


def deformed_square(model: AssembledModel | ProductModel, T: float
                    ) -> tuple[DeformedOperator, DiracSquare | KunnethSquare]:
    """d_T and the Dirac square at T.  For a product, d_T is the left
    factor's (d_T^2 = d_{T,L}^2 (x) 1) and the square is its Kunneth sum."""
    if not isinstance(model, ProductModel):
        op = assemble_deformed(model, T)
        return op, dirac(op)
    op = assemble_deformed(model.left, T)
    left = dirac(op)
    return op, KunnethSquare(
        model=model, T=op.T,
        left={r: left.merged_eigenvalues(r)
              for r in model.left.degree_range()},
        dims={r: max(left.member_dim(r - b) for b in RIGHT_MULTIPLICITY)
              for r in range(-model.n, model.n + 1)})


@dataclass
class SpectrumResult:
    degree: int
    eigenvalues: list[float]        # smallest KEPT_EIGENVALUES, sorted
    dim: int
    kernel_count: int
    gap: float                      # ratio across the located cluster gap
    threshold: float                # geometric mean level at the split
    resolved: bool
    T: float


def cluster_kernel(evals: np.ndarray) -> tuple[int, float, bool, float]:
    """(kernel_count, gap_ratio, resolved, threshold) by the relative-gap
    rule described in the module docstring."""
    n = len(evals)
    if n == 0:
        return 0, float("inf"), True, 0.0
    scale = max(float(evals[-1]), 1.0)
    floor = FLOOR_REL * scale
    lam = np.maximum(np.asarray(evals, dtype=float), floor)
    if float(lam[-1]) <= floor:
        return n, float("inf"), True, floor
    window = min(max(1, int(np.ceil(WINDOW_FRACTION * n))), n - 1)
    ratios = np.concatenate(([lam[0] / floor],
                             lam[1:window + 1] / lam[:window]))
    best_i = int(np.argmax(ratios))     # the first of tied maxima
    best_ratio = ratios[best_i]
    lo = floor if best_i == 0 else lam[best_i - 1]
    threshold = float(np.sqrt(lo * lam[best_i]))
    resolved = best_ratio >= RESOLVE_RATIO
    return best_i, float(best_ratio), bool(resolved), threshold


class NotPSDError(ValueError):
    """The Dirac square, a sum of Gram products, has an eigenvalue below
    the PSD guard -(n + 8) eps max(lambda_max, 1), n the largest member
    dimension in its degree (a round-off bound of the form
    `complex_property_defect` uses): the assembled operator is wrong."""

    def __init__(self, degree: int, eigenvalue: float):
        self.degree = degree
        self.eigenvalue = eigenvalue
        super().__init__(
            f"Dirac square not PSD at degree {degree}: {eigenvalue}")

    def __reduce__(self):
        return type(self), (self.degree, self.eigenvalue)


def spectrum(dsq: DiracSquare | KunnethSquare, r: int) -> SpectrumResult:
    evals = dsq.merged_eigenvalues(r)
    if len(evals) and float(evals[0]) < -((dsq.member_dim(r) + 8) * _EPS
                                          * max(float(evals[-1]), 1.0)):
        raise NotPSDError(r, float(evals[0]))
    count, gap, resolved, threshold = cluster_kernel(evals)
    return SpectrumResult(
        degree=r, eigenvalues=[float(x) for x in evals[:KEPT_EIGENVALUES]],
        dim=len(evals), kernel_count=count, gap=gap, threshold=threshold,
        resolved=resolved, T=dsq.T)


@dataclass
class CohomologyTable:
    dims: dict[int, int]

    def __eq__(self, other):
        if not isinstance(other, CohomologyTable):
            return NotImplemented
        keys = set(self.dims) | set(other.dims)
        return all(self.dims.get(r, 0) == other.dims.get(r, 0) for r in keys)


def graded_euler(table: CohomologyTable) -> int:
    return sum((-1 if r % 2 else 1) * d for r, d in table.dims.items())


def dirac_table(dsq: DiracSquare | KunnethSquare
                ) -> tuple[CohomologyTable, dict[int, SpectrumResult]]:
    """Kernel counts per degree read off one Dirac square."""
    model = dsq.model
    results = {}
    dims = {}
    for r in range(-model.n, model.n + 1):
        res = spectrum(dsq, r)
        results[r] = res
        dims[r] = res.kernel_count
    return CohomologyTable(dims=dims), results


def spectral_table(model: AssembledModel | ProductModel, T: float
                   ) -> tuple[CohomologyTable, dict[int, SpectrumResult]]:
    return dirac_table(deformed_square(model, T)[1])


# ---------------------------------------------------------------------------
# Curvature-identity check (exact on the curved model, float on the torus)
# ---------------------------------------------------------------------------

def bochner_check(model: AssembledModel, T) -> dict:
    """Residual of   D_T^2 = D^2 + 2 T^2 |v|^2 + 2 T (curvature terms)
    per block.

    Torus: assembled in floats; the curvature term vanishes identically for
    a constant field, and the residual is pure round-off.  Projective line:
    the T-free certificate `Cp1Exact.bochner_brackets` scaled by the exact
    T, so the reported residual is exact.
    """
    if model.spec.kind == "torus":
        return _bochner_torus(model, float(T))
    if model.spec.kind == "cp1":
        return _bochner_cp1(model, T)
    raise ValueError("curvature identity check supports torus and cp1 models")


def _bochner_torus(model: AssembledModel, T: float) -> dict:
    spec = model.spec
    shift = 2.0 * T * T * abs(spec.field.c) ** 2
    # per mode, both sides are scalar (2|mu|^2 + 2T^2|c|^2) on every label;
    # the left side is assembled from the blocks to keep the comparison
    # honest.  The model is one stack whose members are the modes.
    target = np.array([laplace_eigenvalue(spec.tau, *jk)
                       for jk in modes(spec.cutoff)]) + shift
    worst = 0.0
    for h in dirac(assemble_deformed(model, T)).cells.values():
        scalar = target[:, None, None] * np.eye(h.shape[-1])
        worst = max(worst, float(
            np.linalg.norm(h - scalar, 2, axis=(-2, -1)).max()))
    return {"residual": worst, "zero_order_term": 0.0, "exact": False}


def _bochner_cp1(model: AssembledModel, T) -> dict:
    """With D = dbar + dbar^* and V = iv + (dual field) wedge, d_T + d_T^*
    = D + T V, so

        2 (D + T V)^2 - 2 D^2 - 2 T^2 |v|^2 - 2 T Theta
            = 2 T (D V + V D - Theta) + 2 T^2 (V^2 - |v|^2).

    The two brackets are T-free and land in different blocks (degree r +- 1
    and degree r), so the residual at T is the larger of their largest
    coefficients, scaled by 2 |T| and 2 T^2; T is a float, so Fraction(T)
    is exact."""
    T = Fraction(T)
    curvature, clifford, theta = model.exact.bochner_brackets
    return {"residual": float(max(2 * abs(T) * curvature,
                                  2 * T * T * clifford)),
            "zero_order_term": float(2 * abs(T) * theta),
            "exact": True}


# ---------------------------------------------------------------------------
# Sweeps and exports
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    model: AssembledModel | ProductModel
    tables: dict[float, CohomologyTable]
    rows: list[SpectrumResult]      # per T, then per degree
    unresolved: list[tuple[float, int]]
    min_eig_over_T2: dict[float, float]   # only for empty-zero-set models
    complex_defect_ratio: dict[float, float]   # complex_property_defect per T


def t_sweep(model: AssembledModel | ProductModel, T_list) -> SweepResult:
    if not T_list:
        raise ValueError("T grid must be nonempty")
    if any(t <= 0 for t in T_list):
        raise ValueError("T grid must be positive")
    tables: dict[float, CohomologyTable] = {}
    rows: list[SpectrumResult] = []
    unresolved: list[tuple[float, int]] = []
    growth: dict[float, float] = {}
    defects: dict[float, float] = {}
    empty_zero_set = model.spec.kind == "torus"   # its field is constant
    for T in T_list:
        # one d_T per T serves both the complex property and the spectra
        op, dsq = deformed_square(model, T)
        defects[float(T)] = complex_property_defect(op)
        table, results = dirac_table(dsq)
        del op, dsq     # free this T's blocks before the next T builds its own
        tables[float(T)] = table
        all_eigs = []
        for r, res in sorted(results.items()):
            rows.append(res)
            if not res.resolved:
                unresolved.append((float(T), r))
            all_eigs.extend(res.eigenvalues[:1])
        if empty_zero_set and all_eigs:
            growth[float(T)] = min(all_eigs) / float(T) ** 2
    return SweepResult(model=model, tables=tables, rows=rows,
                       unresolved=unresolved, min_eig_over_T2=growth,
                       complex_defect_ratio=defects)


CSV_FIELDS = ["model", "kind", "param", "cutoff", "T", "r", "dim",
              "kernel_count", "resolved", "gap_ratio", "threshold"] + [
    f"lam{i}" for i in range(1, KEPT_EIGENVALUES + 1)]


def sweep_rows_for_csv(sweep: SweepResult) -> list[dict]:
    spec = sweep.model.spec
    if spec.kind == "torus":
        param, cutoff = f"tau={spec.tau:g};c={spec.field.c:g}", spec.cutoff
    elif spec.kind == "cp1":
        param, cutoff = f"k={spec.k}", spec.cutoff
    else:
        param = f"k={spec.left.k}"
        cutoff = f"{spec.left.cutoff}x{spec.right.cutoff}"
    out = []
    for res in sweep.rows:
        rec = {"model": spec.label(), "kind": spec.kind, "param": param,
               "cutoff": cutoff, "T": f"{res.T:.17g}", "r": res.degree,
               "dim": res.dim, "kernel_count": res.kernel_count,
               "resolved": int(res.resolved),
               "gap_ratio": f"{res.gap:.17g}",
               "threshold": f"{res.threshold:.17g}"}
        for i in range(KEPT_EIGENVALUES):
            val = res.eigenvalues[i] if i < len(res.eigenvalues) else ""
            rec[f"lam{i + 1}"] = f"{val:.17g}" if val != "" else ""
        out.append(rec)
    return out
