"""Exact rational linear algebra for Gram factorizations.

The weighted monomial bases used on the curved model have exactly computable
but badly conditioned Gram matrices.  All factorization work is therefore
done in Fraction arithmetic: G = L D L^T with unit lower triangular L and a
positive rational diagonal D.  Floating point enters only in the final
diagonal scaling by D^{1/2}, which is entrywise stable, so the orthonormal
operator blocks fed to the dense eigensolver carry no factorization error.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

FMatrix = list[list[Fraction]]


class GramError(ValueError):
    """Gram matrix failed positive definiteness; carries the offending pivot."""

    def __init__(self, pivot_index: int, pivot_value: Fraction):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        super().__init__(
            f"Gram matrix not positive definite: pivot {pivot_index} = {pivot_value}")


class EigensolverError(RuntimeError):
    """Dense eigensolver failure with conditioning diagnostics attached."""

    def __init__(self, message: str, diagnostics: dict):
        self.diagnostics = diagnostics
        super().__init__(f"{message}; diagnostics: {diagnostics}")


def fzeros(rows: int, cols: int) -> FMatrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def fidentity(n: int) -> FMatrix:
    out = fzeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def fmatmul(a: FMatrix, b: FMatrix) -> FMatrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = fzeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if not aik:
                continue
            bk = b[k]
            for j in range(cols):
                if bk[j]:
                    oi[j] += aik * bk[j]
    return out


def ftranspose(a: FMatrix) -> FMatrix:
    return [list(row) for row in zip(*a)] if a else []


def is_zero_matrix(a: FMatrix) -> bool:
    return all(not x for row in a for x in row)


def ldlt(g: FMatrix) -> tuple[FMatrix, list[Fraction]]:
    """G = L D L^T for symmetric positive definite rational G."""
    n = len(g)
    L = fidentity(n)
    D: list[Fraction] = [Fraction(0)] * n
    for j in range(n):
        d = g[j][j] - sum(L[j][k] * L[j][k] * D[k] for k in range(j))
        if d <= 0:
            raise GramError(j, d)
        D[j] = d
        for i in range(j + 1, n):
            s = g[i][j] - sum(L[i][k] * L[j][k] * D[k] for k in range(j))
            L[i][j] = s / d
    return L, D


def invert_unit_lower(L: FMatrix) -> FMatrix:
    """Inverse of a unit lower triangular rational matrix."""
    n = len(L)
    inv = fidentity(n)
    for j in range(n):
        for i in range(j + 1, n):
            s = Fraction(0)
            for k in range(j, i):
                if L[i][k] and inv[k][j]:
                    s += L[i][k] * inv[k][j]
            inv[i][j] = -s
    return inv


def to_float(a: FMatrix) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in a], dtype=float)


class Orthonormalizer:
    """Exact change of basis to an orthonormal frame for one Gram block.

    With G = L D L^T, orthonormal coordinates are y = D^{1/2} L^T x; an
    operator with coefficient matrix M (source -> target) becomes
    D_t^{1/2} (L_t^T M L_s^{-T}) D_s^{-1/2}, where the bracket is exact.
    """

    def __init__(self, gram: FMatrix):
        self.dim = len(gram)
        if self.dim == 0:
            self.L, self.D, self.Linv = [], [], []
            self.sqrt_d = np.zeros(0)
            return
        self.L, self.D = ldlt(gram)
        self.Linv = invert_unit_lower(self.L)
        self.sqrt_d = np.sqrt(to_float([[d] for d in self.D])[:, 0])

    def transform_op(self, m: FMatrix, source: "Orthonormalizer") -> np.ndarray:
        """Float matrix of the operator in orthonormal bases on both sides."""
        if self.dim == 0 or source.dim == 0:
            return np.zeros((self.dim, source.dim))
        lt = ftranspose(self.L)
        core = fmatmul(fmatmul(lt, m), ftranspose(source.Linv))
        out = to_float(core)
        out *= self.sqrt_d[:, None]
        out /= source.sqrt_d[None, :]
        return out

    def solve(self, b: FMatrix) -> FMatrix:
        """Exact X with G X = B, as L^{-T} D^{-1} L^{-1} B."""
        y = fmatmul(self.Linv, b)
        y = [[x / d for x in row] for row, d in zip(y, self.D)]
        return fmatmul(ftranspose(self.Linv), y)


def hermitian_eigenvalues(h: np.ndarray, context: dict | None = None) -> np.ndarray:
    """Eigenvalues of a Hermitian float matrix, with an explicit-symmetrize
    guard and diagnostics surfaced on solver failure."""
    if h.size == 0:
        return np.zeros(0)
    hs = 0.5 * (h + h.conj().T)
    try:
        return np.linalg.eigvalsh(hs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        diag = dict(context or {})
        diag["shape"] = h.shape
        diag["norm"] = float(np.linalg.norm(h))
        diag["herm_defect"] = float(np.linalg.norm(h - h.conj().T))
        raise EigensolverError(str(exc), diag) from exc


def hermiticity_defect(h: np.ndarray) -> float:
    """Frobenius norm of h - h^*: an upper bound on its spectral norm that
    needs no singular value decomposition."""
    if h.size == 0:
        return 0.0
    return float(np.linalg.norm(h - h.conj().T))
