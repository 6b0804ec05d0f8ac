"""Product of the projective-line model with a flat torus, field lifted
from the left factor.

Bases are graded tensor products of the factor bases (left labels first).
On the product, the Dolbeault operator is dbar_L (x) 1 + sign (x) dbar_R
with the sign (-1)^{p_L + q_L} of the left form degree, and the lifted field
contracts the left factor only.  Both factor models are orthonormalized
before tensoring, so every product Gram is the identity.

Each pair (left rotation charge, right Fourier mode) spans an exact
invariant sector; the assembled model is the list of those cells, built by
tensoring each cell of the assembled projective-line model with each mode.
"""

from __future__ import annotations

import numpy as np

from .base import AssembledModel, FieldSpec, ModelSpec, PQ, SpectralCell
from .cp1 import assemble_cp1
from .torus import dolbeault_coefficient, modes

_PQS1 = ((0, 0), (1, 0), (0, 1), (1, 1))


def _product_cell(name: str, ldims, llabels, ldbar, liv,
                  mu: complex, mode_tag: str) -> SpectralCell:
    """Tensor one left sector with the four right labels of one mode."""
    dims: dict[PQ, int] = {}
    labels: dict[PQ, list[str]] = {}
    parts: dict[PQ, list[tuple[PQ, PQ, int]]] = {}   # (left pq, right pq, offset)
    for lpq in _PQS1:
        d = ldims.get(lpq, 0)
        if not d:
            continue
        for rpq in _PQS1:
            pq = (lpq[0] + rpq[0], lpq[1] + rpq[1])
            off = dims.get(pq, 0)
            parts.setdefault(pq, []).append((lpq, rpq, off))
            dims[pq] = off + d
            labels.setdefault(pq, []).extend(
                f"{lab}*{mode_tag}:p{rpq[0]}q{rpq[1]}" for lab in llabels[lpq])

    def offset_of(pq: PQ, lpq: PQ, rpq: PQ) -> int | None:
        for a, b, off in parts.get(pq, []):
            if (a, b) == (lpq, rpq):
                return off
        return None

    dbar: dict[PQ, np.ndarray] = {}
    iv: dict[PQ, np.ndarray] = {}
    for pq, plist in parts.items():
        tgt_q = (pq[0], pq[1] + 1)
        tgt_p = (pq[0] - 1, pq[1])
        dmat = np.zeros((dims.get(tgt_q, 0), dims[pq]), dtype=complex)
        imat = np.zeros((dims.get(tgt_p, 0), dims[pq]), dtype=complex)
        any_d = any_i = False
        for lpq, rpq, off in plist:
            d = ldims[lpq]
            blk = ldbar.get(lpq)
            if blk is not None and blk.size and rpq in _PQS1:
                t_off = offset_of(tgt_q, (lpq[0], lpq[1] + 1), rpq)
                if t_off is not None:
                    dmat[t_off:t_off + blk.shape[0], off:off + d] += blk
                    any_d = True
            # right factor Dolbeault: mode coefficient, +mu on rq=0 scalars,
            # -mu on the right dz frame, with the left-degree parity sign
            if rpq[1] == 0 and mu != 0:
                coeff = mu if rpq[0] == 0 else -mu
                sign = -1.0 if (lpq[0] + lpq[1]) % 2 else 1.0
                t_off = offset_of(tgt_q, lpq, (rpq[0], 1))
                if t_off is not None:
                    dmat[t_off:t_off + d, off:off + d] += (
                        sign * coeff * np.eye(d))
                    any_d = True
            blk = liv.get(lpq)
            if blk is not None and blk.size:
                t_off = offset_of(tgt_p, (lpq[0] - 1, lpq[1]), rpq)
                if t_off is not None:
                    imat[t_off:t_off + blk.shape[0], off:off + d] += blk
                    any_i = True
        if any_d:
            dbar[pq] = dmat
        if any_i:
            iv[pq] = imat
    return SpectralCell(name=name, dims=dims, labels=labels, dbar=dbar, iv=iv)


def assemble_product(spec: ModelSpec) -> AssembledModel:
    spec.validate()
    left = assemble_cp1(spec.left)
    tau, jks = spec.right.tau, modes(spec.right.cutoff)
    cells = [_product_cell(f"{cell.name}/jk{jk}", cell.dims, cell.labels,
                           cell.dbar, cell.iv,
                           dolbeault_coefficient(tau, *jk), f"jk{jk}")
             for cell in left.cells for jk in jks]
    return AssembledModel(spec=spec, n=2, cells=cells,
                          leakage=dict(left.leakage),
                          gram_conditions=dict(left.gram_conditions))


def product_model(k: int, cp1_cutoff: int, tau: complex,
                  torus_cutoff: int) -> AssembledModel:
    """Projective line (twist k, linear field) times flat torus, with the
    field lifted from the projective-line factor."""
    spec = ModelSpec(
        kind="product",
        field=FieldSpec("product_lift", factor="left"),
        left=ModelSpec(kind="cp1", k=k, cutoff=cp1_cutoff,
                       field=FieldSpec("linear")),
        right=ModelSpec(kind="torus", tau=tau, cutoff=torus_cutoff,
                        field=FieldSpec("constant", c=1.0)),
    )
    return assemble_product(spec)
