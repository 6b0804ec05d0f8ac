"""Stacked cells against a per-sector oracle.

The oracle rebuilds every invariant sector on its own, as plain 2-D blocks:
a torus mode, a charge of the projective line, and the tensor of one charge
with one torus mode.  It then assembles d_T, the Dirac square, the merged
eigenvalues and the complex-property defect one sector and one matrix at a
time.  The stacked pipeline runs the same floating-point operations on each
member, so every result must be equal, not merely close."""

import numpy as np
import pytest

from equivlab.deformed import (assemble_deformed, bochner_check,
                               complex_property_defect, dirac)
from equivlab.geometry import cp1_model, product_model, torus_model
from equivlab.geometry.torus import (dolbeault_coefficient,
                                     laplace_eigenvalue, modes)

TAU = 0.3 + 1.1j
_PQS1 = ((0, 0), (1, 0), (0, 1), (1, 1))


# --- the per-sector oracle ---------------------------------------------------

class Sector:
    def __init__(self, dims, dbar, iv):
        self.dims, self.dbar, self.iv = dims, dbar, iv

    def dim(self, pq):
        return self.dims.get(pq, 0)

    def pqs_of_degree(self, r, n):
        return [(p, q) for p in range(n + 1) for q in range(n + 1)
                if q - p == r and self.dim((p, q)) > 0]

    def degree_dim(self, r, n):
        return sum(self.dim(pq) for pq in self.pqs_of_degree(r, n))


def torus_sectors(tau, cutoff, c):
    one = np.ones((1, 1), dtype=complex)
    out = []
    for j, k in modes(cutoff):
        mu = dolbeault_coefficient(tau, j, k)
        out.append(Sector({pq: 1 for pq in _PQS1},
                          {(0, 0): mu * one, (1, 0): -mu * one},
                          {(1, 0): c * one, (1, 1): c * one}))
    return out


def cp1_sectors(model):
    return [Sector(dict(stack.dims),
                   {pq: b[0] for pq, b in stack.dbar.items()},
                   {pq: b[0] for pq, b in stack.iv.items()})
            for stack in model.cells]


def product_sector(left, mu):
    """Tensor one left sector with the four right labels of one mode."""
    dims, parts = {}, {}
    for lpq in _PQS1:
        d = left.dim(lpq)
        if not d:
            continue
        for rpq in _PQS1:
            pq = (lpq[0] + rpq[0], lpq[1] + rpq[1])
            parts[(lpq, rpq)] = dims.get(pq, 0)
            dims[pq] = dims.get(pq, 0) + d
    dbar, iv = {}, {}
    for pq in dims:
        tgt_q, tgt_p = (pq[0], pq[1] + 1), (pq[0] - 1, pq[1])
        dmat = np.zeros((dims.get(tgt_q, 0), dims[pq]), dtype=complex)
        imat = np.zeros((dims.get(tgt_p, 0), dims[pq]), dtype=complex)
        any_d = any_i = False
        for (lpq, rpq), off in parts.items():
            if (lpq[0] + rpq[0], lpq[1] + rpq[1]) != pq:
                continue
            d = left.dims[lpq]
            blk = left.dbar.get(lpq)
            t_off = parts.get(((lpq[0], lpq[1] + 1), rpq))
            if blk is not None and blk.size and t_off is not None:
                dmat[t_off:t_off + blk.shape[0], off:off + d] += blk
                any_d = True
            t_off = parts.get((lpq, (rpq[0], 1)))
            if rpq[1] == 0 and mu != 0 and t_off is not None:
                coeff = mu if rpq[0] == 0 else -mu
                sign = -1.0 if (lpq[0] + lpq[1]) % 2 else 1.0
                dmat[t_off:t_off + d, off:off + d] += sign * coeff * np.eye(d)
                any_d = True
            blk = left.iv.get(lpq)
            t_off = parts.get(((lpq[0] - 1, lpq[1]), rpq))
            if blk is not None and blk.size and t_off is not None:
                imat[t_off:t_off + blk.shape[0], off:off + d] += blk
                any_i = True
        if any_d:
            dbar[pq] = dmat
        if any_i:
            iv[pq] = imat
    return Sector(dims, dbar, iv)


def degree_map(sector, n, r, T):
    """Matrix of (dbar + T iv) from the degree-r block to the degree-(r+1)
    block of one sector."""
    src = sector.pqs_of_degree(r, n)
    tgt = sector.pqs_of_degree(r + 1, n)
    rows = sum(sector.dim(pq) for pq in tgt)
    cols = sum(sector.dim(pq) for pq in src)
    out = np.zeros((rows, cols), dtype=complex)
    row_off = {}
    off = 0
    for pq in tgt:
        row_off[pq] = off
        off += sector.dim(pq)
    col = 0
    for (p, q) in src:
        w = sector.dim((p, q))
        blk = sector.dbar.get((p, q))
        if blk is not None and (p, q + 1) in row_off and blk.size:
            top = row_off[(p, q + 1)]
            out[top:top + blk.shape[0], col:col + w] += blk
        blk = sector.iv.get((p, q))
        if blk is not None and (p - 1, q) in row_off and blk.size and T != 0:
            top = row_off[(p - 1, q)]
            out[top:top + blk.shape[0], col:col + w] += T * blk
        col += w
    return out


def sector_dirac(sector, n, r, T):
    dim = sector.degree_dim(r, n)
    h = np.zeros((dim, dim), dtype=complex)
    below = degree_map(sector, n, r - 1, T) if r > -n else None
    here = degree_map(sector, n, r, T)
    if below is not None and below.size:
        h += below @ below.conj().T
    if here.size:
        h += here.conj().T @ here
    h *= 2.0
    return 0.5 * (h + h.conj().T)


def sector_defect(sectors, n, T):
    """Worst ||d_{r+1} d_r||_F over (k + 8) eps ||d_{r+1}||_F ||d_r||_F."""
    eps = np.finfo(float).eps
    worst = 0.0
    for sector in sectors:
        for r in range(-n, n):
            a = degree_map(sector, n, r, T)
            b = degree_map(sector, n, r + 1, T)
            defect = np.linalg.norm(b @ a, axis=(-2, -1))
            if a.size and b.size and defect:
                bound = ((a.shape[0] + 8) * eps
                         * np.linalg.norm(b, axis=(-2, -1))
                         * np.linalg.norm(a, axis=(-2, -1)))
                worst = max(worst, float(defect / bound))
    return worst


# --- the cases ---------------------------------------------------------------

def torus_case():
    return torus_model(TAU, 2, 1.0), torus_sectors(TAU, 2, 1.0)


def cp1_case():
    model = cp1_model(1, 6)
    return model, cp1_sectors(model)


def product_case():
    model = product_model(1, 5, TAU, 1)
    mus = [dolbeault_coefficient(TAU, j, k) for j, k in modes(1)]
    sectors = [product_sector(left, mu)
               for left in cp1_sectors(cp1_model(1, 5)) for mu in mus]
    return model, sectors


CASES = {"torus": torus_case, "cp1": cp1_case, "product": product_case}
T_VALUES = (0.0, 2.0, 1.0 / 3.0)


def members(model):
    return [(si, i) for si, stack in enumerate(model.cells)
            for i in range(stack.size)]


def test_torus_stack_holds_the_constant_mode():
    model, _ = torus_case()
    (stack,) = model.cells
    zero = stack.names.index("jk(0,0)")
    assert stack.size == 25
    assert stack.dbar[(0, 0)][zero, 0, 0] == 0


@pytest.mark.parametrize("case", sorted(CASES))
def test_stacked_geometry_matches_sectors(case):
    model, sectors = CASES[case]()
    assert len(members(model)) == len(sectors)
    for (si, i), sector in zip(members(model), sectors):
        stack = model.cells[si]
        assert stack.dims == sector.dims
        for stacked, single in ((stack.dbar, sector.dbar),
                                (stack.iv, sector.iv)):
            assert set(single) <= set(stacked)
            for pq, blk in stacked.items():
                want = single.get(pq, np.zeros(blk.shape[1:]))
                assert np.array_equal(blk[i], want)


@pytest.mark.parametrize("T", T_VALUES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_stacked_pipeline_equals_per_sector(case, T):
    model, sectors = CASES[case]()
    n = model.n
    op = assemble_deformed(model, T)
    dsq = dirac(op)
    for (si, i), sector in zip(members(model), sectors):
        for r in range(-n, n + 1):
            assert np.array_equal(op.blocks[(si, r)][i],
                                  degree_map(sector, n, r, T))
            if sector.degree_dim(r, n):
                assert np.array_equal(dsq.cells[(si, r)][i],
                                      sector_dirac(sector, n, r, T))
    for r in range(-n, n + 1):
        parts = [np.linalg.eigvalsh(0.5 * (h + h.conj().T))
                 for h in (sector_dirac(s, n, r, T) for s in sectors)
                 if h.size]
        assert np.array_equal(dsq.merged_eigenvalues(r),
                              np.sort(np.concatenate(parts)))
    assert complex_property_defect(op) == sector_defect(sectors, n, T)


@pytest.mark.parametrize("T", T_VALUES)
def test_torus_bochner_equals_per_mode(T):
    model, sectors = torus_case()
    shift = 2.0 * T * T
    worst = 0.0
    for (j, k), sector in zip(modes(2), sectors):
        for r in (-1, 0, 1):
            h = sector_dirac(sector, 1, r, T)
            target = (laplace_eigenvalue(TAU, j, k) + shift) * np.eye(
                h.shape[0])
            worst = max(worst, float(np.linalg.norm(h - target, 2)))
    assert bochner_check(model, T)["residual"] == worst
