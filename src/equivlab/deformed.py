"""The deformed complex d_T = dbar + T iv, its Dirac square, and spectra.

Per graded degree r = q - p the Dirac square is assembled in orthonormal
bases as

    D_T^2 |_r = 2 ( d_{r-1} d_{r-1}^* + d_r^* d_r ),

block-diagonally over the model's cells.  The cells come in stacks of one
layout (see `geometry.base`), and a T grid is a leading axis: per stack and
degree, d_T at every T, the Dirac squares, their eigensolve and the d_T^2
defect are each one batched numpy call (`matmul`, `eigvalsh`, a 2-norm
over the last two axes).  Each applies the same BLAS/LAPACK routine to the
same member matrix as a per-cell, per-T call would, so the results are
equal bit for bit; cells are never merged into larger matrices, which
would change the eigenvalues' last bits.  d_T and the Dirac squares keep
the blocks' type: on cp1 and the product, whose blocks and T are real,
they are float64 and the eigensolve is the real symmetric one; the torus,
whose Dolbeault coefficients are complex, runs in complex128.

d_T is plain data, a {(stack, r): block} dict (`Blocks`), and the Dirac
square and the d_T^2 defect read T values, members and dimensions off the
blocks' shapes.  The product cp1 x torus has no blocks of its own
(`geometry.product`): d_T, its defect, the Dirac square and the
eigensolves are the cp1 factor's, and in product degree r the spectrum is
every cp1 eigenvalue of degree r - b plus every torus level, once per
torus label of degree b.

`spectral_pass` is the one path from a model and a T grid to the defects
and spectra, one stack at a time, and `spectrum` reads one degree's
`SpectrumResult` off it.  A sweep is one pass over its grid with T = 0
after it: its rows and the undeformed table, with cohomology tables
(degree -> count dicts), unresolved cells and growth read off the rows.

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
checked in floats on the torus, and, on the curved model, as a T-free exact
certificate (`Cp1Exact.bochner_brackets`) that `bochner_check` scales by
the exact T.  Each check returns its residual beside the bound it is held
to: 4 eps times the largest eigenvalue on the torus, 0 on the curved model.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import starmap
from fractions import Fraction

import numpy as np

from .geometry.base import AssembledModel, CellStack, ModelSpec
from .geometry.product import RIGHT_MULTIPLICITY, ProductModel
from .geometry import torus
from .linalg import EigensolverError, hermitian_eigenvalues
# not called here, but perfbench/tracing.py still wraps it under this name
from .linalg import hermiticity_defect  # noqa: F401

_EPS = float(np.finfo(float).eps)
# eigenvalues kept per spectrum: one per lam column of CSV_FIELDS
KEPT_EIGENVALUES = 8
# the kernel-count rule of the module docstring
FLOOR_REL = 1.0e-12
WINDOW_FRACTION = 0.25
RESOLVE_RATIO = 1.0e3


# per (stack, degree r), the stack's member matrices in its orthonormal
# bases, so a block's adjoint is its conjugate transpose; d_T's degree-r
# block has shape (members, dim_{r+1}, dim_r), after a T axis on a grid
Blocks = dict[tuple[int, int], np.ndarray]


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _placed(stack: CellStack, n: int, r: int, grid: np.ndarray
            ) -> np.ndarray:
    """d_T = A + T B of every member of a stack at every T of the grid, from
    the degree-r block to the degree-(r+1) block: shape (len(grid),
    members, rows, cols), in the blocks' own type (real unless a block is
    complex).  A (dbar) and B (iv) are placed once; their supports are
    disjoint, so every entry is one of A or T times one of B, plus a zero,
    as when both are added into zeros."""
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
    d = np.multiply(b, grid[:, None, None, None],
                    out=np.empty(grid.shape + b.shape, dtype=b.dtype))
    d += a
    return d


def assemble_deformed(model: AssembledModel, T: float) -> Blocks:
    """d_T at one T per stack and degree, shape (members, rows, cols): the
    one-T assembly that `bochner_check` reads."""
    grid = np.array([float(T)])
    return {(si, r): _placed(stack, model.n, r, grid)[0]
            for si, stack in enumerate(model.cells)
            for r in range(-model.n, model.n + 1)}


def complex_property_defect(blocks: Blocks) -> np.ndarray:
    """Worst ratio, over stacks, members and degrees, of ||d_{r+1} d_r||_F
    to its round-off bound (k + 8) eps ||d_{r+1}||_F ||d_r||_F, where k is
    the inner dimension: gamma_k covers the product, and the rest a few
    roundings per block entry.  The ratio is 0 where the product is exactly
    0, and above 1 where d_T^2 = 0 fails beyond round-off; one per T of a
    grid axis (0-d at one T).  (Exact closure is separately certified in
    rational arithmetic for the curved model.)"""
    worst = np.zeros(next(iter(blocks.values())).shape[:-3])
    for (si, r), a in blocks.items():
        b = blocks.get((si, r + 1))
        if b is not None and a.size and b.size:
            defect = np.linalg.norm(b @ a, axis=(-2, -1))
            bound = ((a.shape[-2] + 8) * _EPS
                     * np.linalg.norm(b, axis=(-2, -1))
                     * np.linalg.norm(a, axis=(-2, -1)))
            ratio = np.divide(defect, bound, out=np.zeros_like(defect),
                              where=defect > 0)
            worst = np.maximum(worst, ratio.max(axis=-1))
    return worst


def dirac(blocks: Blocks) -> Blocks:
    """Per (stack, degree), the Dirac squares of every member (and T) in
    orthonormal bases, shape (..., dim_r, dim_r), in d_T's type; each is
    exactly Hermitian, 0.5 (h + h^*).  A degree with no basis has none."""
    cells: Blocks = {}
    for (si, r), here in blocks.items():
        dim = here.shape[-1]
        if dim == 0:
            continue
        h = np.zeros(here.shape[:-2] + (dim, dim), dtype=here.dtype)
        below = blocks.get((si, r - 1))
        if below is not None and below.size:
            h += below @ _adjoint(below)
        if here.size:
            h += _adjoint(here) @ here
        h *= 2.0
        cells[si, r] = 0.5 * (h + _adjoint(h))
    return cells


# one degree of D_T^2 as the arguments of `spectrum`: (r, T, eigenvalues, n)
Degree = tuple[int, float, np.ndarray, int]


def spectral_pass(model: AssembledModel | ProductModel, T_list
                  ) -> tuple[np.ndarray, list[Iterator[Degree]]]:
    """The d_T^2 defect ratio at each T of T_list, and per T an iterator
    over the degrees r of D_T^2: its sorted eigenvalues with n, the largest
    member dimension entering them (the n of the PSD guard), each formed
    when the iterator reaches it.  A stack's work over the grid is done
    before the next stack's, so peak memory is one stack over the grid.

    For a product, degree r holds, for each right degree b, every sum of a
    left eigenvalue of degree r - b and a torus level, RIGHT_MULTIPLICITY[b]
    times, and n is the largest over those degrees."""
    Ts = [float(T) for T in T_list]
    grid = np.array(Ts)
    base = model.left if isinstance(model, ProductModel) else model
    defect = np.zeros(len(Ts))
    evals = []
    for si, stack in enumerate(base.cells):
        blocks = {(si, r): _placed(stack, base.n, r, grid)
                  for r in range(-base.n, base.n + 1)}
        defect = np.maximum(defect, complex_property_defect(blocks))
        # per degree, shape (len(grid), members, dim)
        evals.append({r: hermitian_eigenvalues(
            h, {"stack": stack.name, "r": r, "T": Ts})
            for (_, r), h in dirac(blocks).items() if h.size})
        del blocks      # before the next stack's are formed
    degrees = [_degrees(base, evals, t, T) for t, T in enumerate(Ts)]
    if base is not model:
        degrees = [_kunneth_degrees(model, left, T)
                   for left, T in zip(degrees, Ts)]
    return defect, degrees


def _degrees(model: AssembledModel, evals: list[dict[int, np.ndarray]],
             t: int, T: float) -> Iterator[Degree]:
    for r in range(-model.n, model.n + 1):
        stacks = [ev[r] for ev in evals if r in ev]
        n = max((e.shape[-1] for e in stacks), default=0)
        yield r, T, _merged([e[t].ravel() for e in stacks]), n


def _kunneth_degrees(model: ProductModel, left_degrees: Iterator[Degree],
                     T: float) -> Iterator[Degree]:
    left = {r: (evals, n) for r, _, evals, n in left_degrees}
    for r in range(-model.n, model.n + 1):
        terms = [(left[r - b], mult) for b, mult in RIGHT_MULTIPLICITY.items()
                 if r - b in left]
        # each term's sums are formed once and repeated per torus label
        yield r, T, _merged([
            sums for (evals, _), mult in terms
            for sums in [np.add.outer(evals, model.levels).ravel()] * mult
        ]), max(n for (_, n), _ in terms)


def _merged(parts: list[np.ndarray]) -> np.ndarray:
    # a function, so that no generator frame holds the parts past a yield
    return np.sort(np.concatenate(parts)) if parts else np.zeros(0)


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


def spectrum(r: int, T: float, evals: np.ndarray, n: int) -> SpectrumResult:
    """The SpectrumResult of degree r at T from its sorted eigenvalues, n
    the largest member dimension that enters them (see `NotPSDError`)."""
    if len(evals) and float(evals[0]) < -((n + 8) * _EPS
                                          * max(float(evals[-1]), 1.0)):
        raise NotPSDError(r, float(evals[0]))
    count, gap, resolved, threshold = cluster_kernel(evals)
    return SpectrumResult(
        degree=r, eigenvalues=[float(x) for x in evals[:KEPT_EIGENVALUES]],
        dim=len(evals), kernel_count=count, gap=gap, threshold=threshold,
        resolved=resolved, T=T)


def graded_euler(table: dict[int, int]) -> int:
    """sum_r (-1)^r h^r of a cohomology table, degree r -> dimension."""
    return sum((-1 if r % 2 else 1) * d for r, d in table.items())


# ---------------------------------------------------------------------------
# Curvature-identity check (exact on the curved model, float on the torus)
# ---------------------------------------------------------------------------

def bochner_check(model: AssembledModel, T) -> dict:
    """Residual of   D_T^2 = D^2 + 2 T^2 |v|^2 + 2 T (curvature terms)
    per block.

    Torus: assembled in floats; the curvature term vanishes identically for
    a constant field, and the residual is pure round-off, within the
    returned "bound".  Projective line: the T-free certificate
    `Cp1Exact.bochner_brackets` scaled by the exact T, so the reported
    residual is exact and its bound is 0.
    """
    if model.spec.kind == "torus":
        return _bochner_torus(model, float(T))
    if model.spec.kind == "cp1":
        return _bochner_cp1(model, T)
    raise ValueError("curvature identity check supports torus and cp1 models")


def _bochner_torus(model: AssembledModel, T: float) -> dict:
    """Per mode, both sides are the scalar 2|mu|^2 + 2T^2|c|^2 on every
    label; the left side is assembled from the blocks (one stack whose
    members are the modes) to keep the comparison honest.  The residual is
    round-off on entries of size lambda_top, the largest target, so its
    bound is 4 eps lambda_top; over 13 000 random tori (Im tau in [0.3, 2],
    cutoff 1-8, |Re c|, |Im c| <= 1.3, T in [0.01, 1e6]) it reached
    2.93 eps lambda_top, the largest values at large T."""
    spec = model.spec
    target = (torus.levels(spec.tau, spec.cutoff)
              + 2.0 * T * T * abs(spec.field.c) ** 2)
    worst = 0.0
    for h in dirac(assemble_deformed(model, T)).values():
        scalar = target[:, None, None] * np.eye(h.shape[-1])
        # a T whose square is finite can still overflow 2 T^2 |c|^2, and
        # the SVD of the 2-norm then fails: the check is left open, as a
        # failed eigensolve leaves it
        try:
            norms = np.linalg.norm(h - scalar, 2, axis=(-2, -1))
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(
                f"2-norm of the bochner residual: {exc}",
                {"check": "bochner", "T": T,
                 "level_max": float(target.max())}) from exc
        worst = max(worst, float(norms.max()))
    return {"residual": worst, "bound": 4.0 * _EPS * float(target.max()),
            "zero_order_term": 0.0, "exact": False}


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
            "bound": 0.0, "zero_order_term": float(2 * abs(T) * theta),
            "exact": True}


# ---------------------------------------------------------------------------
# Sweeps and exports
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    rows: list[SpectrumResult]      # per T, then per degree
    complex_defect_ratio: dict[float, float]   # complex_property_defect per T
    table0: dict[int, int]          # the kernel count per degree at T = 0

    @property
    def tables(self) -> dict[float, dict[int, int]]:
        tables: dict[float, dict[int, int]] = {}
        for res in self.rows:
            tables.setdefault(res.T, {})[res.degree] = res.kernel_count
        return tables

    @property
    def unresolved(self) -> list[tuple[float, int]]:
        return [(res.T, res.degree) for res in self.rows if not res.resolved]

    @property
    def min_eig_over_T2(self) -> dict[float, float]:
        """Per T, the smallest eigenvalue of any degree over T^2."""
        low: dict[float, list[float]] = {}
        for res in self.rows:
            low.setdefault(res.T, []).extend(res.eigenvalues[:1])
        return {T: min(v) / T ** 2 for T, v in low.items() if v}


def t_sweep(model: AssembledModel | ProductModel, T_list) -> SweepResult:
    # T = 0 goes last, so rows and errors come in grid order
    if not T_list:
        raise ValueError("T grid must be nonempty")
    if any(t <= 0 for t in T_list):
        raise ValueError("T grid must be positive")
    Ts = [float(T) for T in T_list]
    defect, degrees = spectral_pass(model, Ts + [0.0])
    rows = [res for per_T in degrees[:-1] for res in starmap(spectrum, per_T)]
    table0 = {res.degree: res.kernel_count
              for res in starmap(spectrum, degrees[-1])}
    return SweepResult(rows=rows,
                       complex_defect_ratio=dict(zip(Ts, defect.tolist())),
                       table0=table0)


CSV_FIELDS = ["model", "kind", "param", "cutoff", "T", "r", "dim",
              "kernel_count", "resolved", "gap_ratio", "threshold"] + [
    f"lam{i}" for i in range(1, KEPT_EIGENVALUES + 1)]


def sweep_rows_for_csv(spec: ModelSpec, sweep: SweepResult) -> list[dict]:
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
