"""Product of the projective-line model with a flat torus, field lifted
from the left factor.

Bases are graded tensor products of the factor bases (left labels first).
On the product, the Dolbeault operator is dbar_L (x) 1 + sign (x) dbar_R
with the sign (-1)^{p_L + q_L} of the left form degree, and the lifted field
contracts the left factor only.  Both factor models are orthonormalized
before tensoring, so every product Gram is the identity.

Each pair (left rotation charge, right Fourier mode) spans an exact
invariant sector, and the sectors of one charge share a layout.  The
assembled model is one stack per charge: each cell of the assembled
projective-line model is tensored once, with every mode as a member.
"""

from __future__ import annotations

import numpy as np

from .base import AssembledModel, CellStack, FieldSpec, ModelSpec, PQ
from .cp1 import assemble_cp1
from .torus import mode_coefficients, modes

_PQS1 = ((0, 0), (1, 0), (0, 1), (1, 1))


def _product_stack(left: CellStack, mu: np.ndarray,
                   mode_tags: list[str]) -> CellStack:
    """Tensor one left sector (a stack of one member) with the four right
    labels of every mode; mu holds the modes' Dolbeault coefficients.

    Within a member each entry of a block receives at most one term, so
    each is added once into zeros, as a per-mode assembly would."""
    dims: dict[PQ, int] = {}
    labels: dict[PQ, list[str]] = {}
    offsets: dict[tuple[PQ, PQ], int] = {}     # (left pq, right pq) -> row
    for lpq in _PQS1:
        d = left.dim(lpq)
        if not d:
            continue
        for rpq in _PQS1:
            pq = (lpq[0] + rpq[0], lpq[1] + rpq[1])
            offsets[(lpq, rpq)] = dims.get(pq, 0)
            dims[pq] = dims.get(pq, 0) + d
            labels.setdefault(pq, []).extend(
                f"{lab}*p{rpq[0]}q{rpq[1]}" for lab in left.labels[lpq])

    members = len(mu)
    dbar: dict[PQ, np.ndarray] = {}
    iv: dict[PQ, np.ndarray] = {}

    def block(ops: dict, pq: PQ, tgt: PQ) -> np.ndarray:
        if pq not in ops:
            ops[pq] = np.zeros((members, dims[tgt], dims[pq]), dtype=complex)
        return ops[pq]

    for (lpq, rpq), off in offsets.items():
        pq = (lpq[0] + rpq[0], lpq[1] + rpq[1])
        d = left.dims[lpq]
        cols = slice(off, off + d)
        blk = left.dbar.get(lpq)
        t_off = offsets.get(((lpq[0], lpq[1] + 1), rpq))
        if blk is not None and blk.size and t_off is not None:
            tgt = (pq[0], pq[1] + 1)
            block(dbar, pq, tgt)[:, t_off:t_off + blk.shape[1], cols] += blk
        # right factor Dolbeault: mode coefficient, +mu on rq=0 scalars,
        # -mu on the right dz frame, with the left-degree parity sign
        t_off = offsets.get((lpq, (rpq[0], 1)))
        if rpq[1] == 0 and t_off is not None:
            sign = -1.0 if (lpq[0] + lpq[1]) % 2 else 1.0
            coeff = sign * (mu if rpq[0] == 0 else -mu)
            diag = np.arange(d)
            tgt = (pq[0], pq[1] + 1)
            block(dbar, pq, tgt)[:, t_off + diag, off + diag] += coeff[:, None]
        blk = left.iv.get(lpq)
        t_off = offsets.get(((lpq[0] - 1, lpq[1]), rpq))
        if blk is not None and blk.size and t_off is not None:
            tgt = (pq[0] - 1, pq[1])
            block(iv, pq, tgt)[:, t_off:t_off + blk.shape[1], cols] += blk
    return CellStack(name=f"{left.name}/modes",
                     names=[f"{left.name}/{tag}" for tag in mode_tags],
                     dims=dims, labels=labels, dbar=dbar, iv=iv)


def assemble_product(spec: ModelSpec) -> AssembledModel:
    """One stack per rotation charge of the left factor, whose members are
    the right factor's Fourier modes."""
    spec.validate()
    left = assemble_cp1(spec.left)
    mu = mode_coefficients(spec.right.tau, spec.right.cutoff)
    tags = [f"jk{jk}" for jk in modes(spec.right.cutoff)]
    cells = [_product_stack(stack, mu, tags) for stack in left.cells]
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
