"""Product of the projective-line model with a flat torus, field lifted
from the left factor, held as its factors.

The field contracts the left factor only, so d_T = d_{T,L} (x) 1 +
eps (x) dbar_R with eps = (-1)^{p_L + q_L}.  eps anticommutes with d_{T,L}
and dbar_R^2 = 0, so d_T^2 = d_{T,L}^2 (x) 1 and the Dirac square is
D_{T,L}^2 (x) 1 + 1 (x) D_R^2.  On the torus mode (j, k), D_R^2 is
2 |mu_jk|^2 on each label: dz in right degree -1, 1 and dz dzbar in degree
0, dzbar in degree +1.  A product is thus the assembled projective-line
model and one level per torus mode; its spectra are Kunneth sums of the
left factor's eigenvalues from the same `deformed.spectral_pass`, formed
one (T, degree) at a time, and no product-sized block is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import torus
from .base import AssembledModel, FieldSpec, ModelSpec
from .cp1 import assemble_cp1

# right degree b -> number of torus labels of that degree per mode
RIGHT_MULTIPLICITY = {-1: 1, 0: 2, 1: 1}


@dataclass
class ProductModel:
    """cp1 x torus as its factors.  The left factor's stacks are the only
    cells whose d_T is assembled; d_T^2 = d_{T,L}^2 (x) 1, so the left
    factor's exact layer, with its certificate and diagnostics, is the
    product's."""

    spec: ModelSpec
    left: AssembledModel
    levels: np.ndarray      # 2 |mu_jk|^2 per torus mode, in `modes` order

    n = property(lambda self: self.spec.n)
    cells = property(lambda self: self.left.cells)
    exact = property(lambda self: self.left.exact)


def assemble_product(spec: ModelSpec) -> ProductModel:
    """The assembled left factor and the torus levels."""
    return ProductModel(spec=spec, left=assemble_cp1(spec.left),
                        levels=torus.levels(spec.right.tau, spec.right.cutoff))


def product_model(k: int, cp1_cutoff: int, tau: complex,
                  torus_cutoff: int) -> ProductModel:
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
