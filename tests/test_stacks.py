"""Stacked cells against a per-sector oracle.

The oracle rebuilds every invariant sector on its own, as plain 2-D blocks:
a torus mode, a charge of the projective line, and the tensor of one charge
with one torus mode (the stacked product is `product_oracle`'s).  It then
assembles d_T, the Dirac square, the merged eigenvalues and the
complex-property defect one sector and one matrix at a time.  The stacked
pipeline runs the same floating-point operations on each member, so every
result must be equal, not merely close."""

import numpy as np
import pytest

from equivlab import deformed
from equivlab.deformed import (assemble_deformed, bochner_check,
                               complex_property_defect, dirac)
from equivlab.geometry import (cp1, cp1_model, float_entries, product_model,
                                torus_model)
from equivlab.geometry.product import RIGHT_MULTIPLICITY
from equivlab.geometry import torus
from equivlab.geometry.torus import dolbeault_coefficient, modes
from product_oracle import tensored_product
from spectra import degree_eigenvalues

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
    """One sector per charge: every member of every stack, in member
    order."""
    return [Sector(dict(stack.dims),
                   {pq: b[i] for pq, b in stack.dbar.items()},
                   {pq: b[i] for pq, b in stack.iv.items()})
            for stack in model.cells for i in range(stack.size)]


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
    block of one sector, in the blocks' own type: real on a real model."""
    src = sector.pqs_of_degree(r, n)
    tgt = sector.pqs_of_degree(r + 1, n)
    rows = sum(sector.dim(pq) for pq in tgt)
    cols = sum(sector.dim(pq) for pq in src)
    out = np.zeros((rows, cols), dtype=np.result_type(
        float, *sector.dbar.values(), *sector.iv.values()))
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
    below = degree_map(sector, n, r - 1, T) if r > -n else None
    here = degree_map(sector, n, r, T)
    h = np.zeros((dim, dim), dtype=here.dtype)
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


def cp1_case(k=1, cutoff=6):
    model = cp1_model(k, cutoff)
    return model, cp1_sectors(model)


def product_case():
    model = tensored_product(1, 5, TAU, 1)
    mus = [dolbeault_coefficient(TAU, j, k) for j, k in modes(1)]
    sectors = [product_sector(left, mu)
               for left in cp1_sectors(cp1_model(1, 5)) for mu in mus]
    return model, sectors


def kunneth_case(k, cutoff):
    """The product held as its factors, and its cp1 factor's sectors."""
    model = product_model(k, cutoff, TAU, 1)
    return model, cp1_sectors(model.left)


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
    blocks = assemble_deformed(model, T)
    cells = dirac(blocks)
    for (si, i), sector in zip(members(model), sectors):
        for r in range(-n, n + 1):
            assert np.array_equal(blocks[(si, r)][i],
                                  degree_map(sector, n, r, T))
            if sector.degree_dim(r, n):
                assert np.array_equal(cells[(si, r)][i],
                                      sector_dirac(sector, n, r, T))
    spectra = degree_eigenvalues(model, T)
    for r in range(-n, n + 1):
        parts = [np.linalg.eigvalsh(0.5 * (h + h.conj().T))
                 for h in (sector_dirac(s, n, r, T) for s in sectors)
                 if h.size]
        assert np.array_equal(spectra[r],
                              np.sort(np.concatenate(parts)))
    assert complex_property_defect(blocks) == sector_defect(sectors, n, T)


@pytest.mark.parametrize("case", sorted(CASES))
def test_dt_placement_is_built_once_per_model(case, monkeypatch):
    # one pass over every T, each twice: dbar and iv are placed once per
    # stack and degree for the whole grid, and d_T equals the per-sector
    # zero-fill-then-add bit for bit, sign bits included
    model, sectors = CASES[case]()
    n = model.n
    placed = {}
    place = deformed._placed

    def recording(stack, n, r, grid):
        key = (stack.name, r)
        assert key not in placed
        placed[key] = place(stack, n, r, grid)
        return placed[key]

    monkeypatch.setattr(deformed, "_placed", recording)
    grid = T_VALUES + T_VALUES
    deformed.spectral_pass(model, grid)
    assert placed.keys() == {(stack.name, r) for stack in model.cells
                             for r in range(-n, n + 1)}
    for (si, i), sector in zip(members(model), sectors):
        for r in range(-n, n + 1):
            for t, T in enumerate(grid):
                got = placed[model.cells[si].name, r][t, i]
                want = degree_map(sector, n, r, T)
                assert np.array_equal(got, want)
                assert got.dtype == want.dtype
                assert np.array_equal(np.signbit(got.view(float)),
                                      np.signbit(want.view(float)))


# the pass's spectra against the per-sector oracle, on a one-value grid and
# an eight-value grid (T = 0 included, as a sweep appends it)
PASS_CASES = {"torus": torus_case,
              "cp1-k0": lambda: cp1_case(0, 6),
              "cp1-k2": lambda: cp1_case(2, 8),
              "product": lambda: kunneth_case(1, 5)}
PASS_GRIDS = {"one": (2.0,),
              "eight": (0.5, 1.0 / 3.0, 1.0, 2.0, 4.0, 8.0, 32.0, 0.0)}


def sector_spectra(sectors, n, T):
    """Per degree r, the sorted eigenvalues of every sector's Dirac square
    and the largest sector dimension among them."""
    out = {}
    for r in range(-n, n + 1):
        hs = [h for h in (sector_dirac(s, n, r, T) for s in sectors)
              if h.size]
        evals = [np.linalg.eigvalsh(0.5 * (h + h.conj().T)) for h in hs]
        out[r] = (np.sort(np.concatenate(evals)) if evals else np.zeros(0),
                  max((h.shape[0] for h in hs), default=0))
    return out


def kunneth_spectra(left, levels, T):
    """Per product degree r, the left sectors' eigenvalues plus every torus
    level, RIGHT_MULTIPLICITY[b] times per right degree b, sorted."""
    spectra = sector_spectra(left, 1, T)
    out = {}
    for r in range(-2, 3):
        terms = [spectra[r - b] for b, mult in RIGHT_MULTIPLICITY.items()
                 if r - b in spectra for _ in range(mult)]
        out[r] = (np.sort(np.concatenate(
            [np.add.outer(evals, levels).ravel() for evals, _ in terms])),
            max(dim for _, dim in terms))
    return out


@pytest.mark.parametrize("grid", sorted(PASS_GRIDS))
@pytest.mark.parametrize("case", sorted(PASS_CASES))
def test_pass_over_grid_equals_per_sector(case, grid):
    # one pass over the grid gives, at each T, what a one-T assembly of
    # each sector gives: the merged eigenvalues bit for bit, sign bits
    # included, the PSD guard's dimension and the defect ratio
    model, sectors = PASS_CASES[case]()
    grid = PASS_GRIDS[grid]
    defect, per_T = deformed.spectral_pass(model, grid)
    assert len(per_T) == len(grid) == defect.shape[0]
    for t, (T, degrees) in enumerate(zip(grid, per_T)):
        if case == "product":
            want = kunneth_spectra(sectors, model.levels, T)
            assert defect[t] == sector_defect(sectors, 1, T)
        else:
            want = sector_spectra(sectors, model.n, T)
            assert defect[t] == sector_defect(sectors, model.n, T)
        got = {r: (evals, n) for r, _, evals, n in degrees}
        assert got.keys() == want.keys()
        for r, (evals, n) in got.items():
            assert np.array_equal(evals, want[r][0])
            assert np.array_equal(np.signbit(evals), np.signbit(want[r][0]))
            assert n == want[r][1]


@pytest.mark.parametrize("case,dtype", [
    ("torus", np.complex128), ("cp1-k2", np.float64),
    ("product", np.float64)])
def test_pass_runs_in_the_blocks_type(case, dtype, monkeypatch):
    # a real model stays real: d_T, the Dirac squares and the matrices the
    # eigensolver reads are float64 on cp1 and the product, whose blocks
    # and T are real, and complex128 on the torus
    model, _ = PASS_CASES[case]()
    seen = []

    def recording(name, fn):
        def wrapped(*args):
            out = fn(*args)
            arrays = out.values() if name == "dirac" else [
                args[0] if name == "eigh" else out]
            seen.extend((name, a.dtype) for a in arrays)
            return out
        return wrapped

    for name, attr in (("placed", "_placed"), ("dirac", "dirac"),
                       ("eigh", "hermitian_eigenvalues")):
        monkeypatch.setattr(deformed, attr,
                            recording(name, getattr(deformed, attr)))
    deformed.spectral_pass(model, (2.0, 0.0))
    assert {name for name, _ in seen} == {"placed", "dirac", "eigh"}
    assert all(t == dtype for _, t in seen)


@pytest.mark.parametrize("T", T_VALUES)
def test_torus_bochner_equals_per_mode(T):
    model, sectors = torus_case()
    shift = 2.0 * T * T
    worst = 0.0
    for level, sector in zip(torus.levels(TAU, 2), sectors):
        for r in (-1, 0, 1):
            h = sector_dirac(sector, 1, r, T)
            target = (level + shift) * np.eye(h.shape[0])
            worst = max(worst, float(np.linalg.norm(h - target, 2)))
    assert bochner_check(model, T)["residual"] == worst


def stack_size(model):
    return sum(a.size for stack in model.cells
               for a in (*stack.dbar.values(), *stack.iv.values()))


@pytest.mark.parametrize("k", range(6))
def test_float_entries_count_what_assembly_allocates(k):
    # the closed forms that bound a model at parse time are the entries of
    # the assembled stacks and the cp1 basis size, at every cutoff a spec
    # allows (k <= 5, N <= 18); a product adds its spectrum at one T
    for cutoff in range(max(k + 2, 4), 19):
        model = cp1_model(k, cutoff)
        assert cp1.stack_entries(k, cutoff) == stack_size(model)
        assert cp1.dimension(k, cutoff) == sum(
            block.dim for block in model.exact.blocks.values())
        assert float_entries(model.spec) == stack_size(model)
    for cutoff in range(1, 5):
        model = torus_model(TAU, cutoff, 0.8 + 0.6j)
        assert float_entries(model.spec) == stack_size(model)
        product = product_model(k, max(k + 2, 4), TAU, cutoff)
        _, (degrees,) = deformed.spectral_pass(product, [2.0])
        assert float_entries(product.spec) == stack_size(product.left) + sum(
            len(evals) for _, _, evals, _ in degrees)
