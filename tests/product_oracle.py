"""The tensored product assembly: the test oracle of the Kunneth route.

`tensored_product` builds cp1 x torus as blocks, one stack per rotation
charge of the cp1 factor (a member of one of its stacks, walked by name)
whose members are the torus modes.  Bases are graded tensor products of
the factor bases (left labels first).  The Dolbeault operator is
dbar_L (x) 1 + sign (x) dbar_R with the sign (-1)^{p_L + q_L} of the left
form degree, and the lifted field contracts the left factor only.  Both factors are orthonormal, so every product Gram is
the identity, and the generic `deformed` functions (d_T, the Dirac square,
eigensolves, the d_T^2 defect) run on the result unchanged.  The package
itself computes product spectra from the factors instead."""

import numpy as np

from equivlab.geometry.base import AssembledModel, CellStack, PQ
from equivlab.geometry.product import product_model
from equivlab.geometry.torus import mode_coefficients, modes

_PQS1 = ((0, 0), (1, 0), (0, 1), (1, 1))


def _product_stack(left: CellStack, name: str, mu: np.ndarray,
                   mode_tags: list[str]) -> CellStack:
    """Tensor the left sector `name`, a member of the stack left, with the
    four right labels of every mode; mu holds the modes' Dolbeault
    coefficients.

    Within a member each entry of a block receives at most one term, so
    each is added once into zeros, as a per-mode assembly would."""
    dims: dict[PQ, int] = {}
    offsets: dict[tuple[PQ, PQ], int] = {}     # (left pq, right pq) -> row
    for lpq in _PQS1:
        d = left.dim(lpq)
        if not d:
            continue
        for rpq in _PQS1:
            pq = (lpq[0] + rpq[0], lpq[1] + rpq[1])
            offsets[(lpq, rpq)] = dims.get(pq, 0)
            dims[pq] = dims.get(pq, 0) + d

    members = len(mu)
    # the member's blocks, with a member axis of length 1 to broadcast
    i = left.names.index(name)
    left_dbar = {pq: blk[i:i + 1] for pq, blk in left.dbar.items()}
    left_iv = {pq: blk[i:i + 1] for pq, blk in left.iv.items()}
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
        blk = left_dbar.get(lpq)
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
        blk = left_iv.get(lpq)
        t_off = offsets.get(((lpq[0] - 1, lpq[1]), rpq))
        if blk is not None and blk.size and t_off is not None:
            tgt = (pq[0] - 1, pq[1])
            block(iv, pq, tgt)[:, t_off:t_off + blk.shape[1], cols] += blk
    return CellStack(name=f"{name}/modes",
                     names=[f"{name}/{tag}" for tag in mode_tags],
                     dims=dims, dbar=dbar, iv=iv)


def tensored_product(k: int, cp1_cutoff: int, tau: complex,
                     torus_cutoff: int) -> AssembledModel:
    """The product of `product_model` with the same arguments, assembled as
    one tensored stack per rotation charge of the cp1 factor, in the order
    of the cp1 factor's members."""
    model = product_model(k, cp1_cutoff, tau, torus_cutoff)
    left = model.left
    mu = mode_coefficients(tau, torus_cutoff)
    tags = [f"jk{jk}" for jk in modes(torus_cutoff)]
    cells = [_product_stack(stack, name, mu, tags)
             for stack in left.cells for name in stack.names]
    return AssembledModel(spec=model.spec, cells=cells)
