"""Shared model descriptors and the assembled-model data contract.

A `ModelSpec` names a model and a `FieldSpec` its vector field.  Both are
valid by construction: a value out of range raises `ModelError` when the
spec is built, so assembly and the oracle take any spec as given.

An assembled model holds a list of cell stacks.  A cell is an exact invariant
sector of all operators involved (a Fourier mode, a rotation charge, or a
pair of them), so the spectrum of the full model is the union of the
spectra of its cells.  Cells of one layout, with the same dimension per
bidegree (p, q), form one stack: per (p, q) it holds an orthonormal section
basis shared by its members, together with the float matrices of the
Dolbeault operator (raising q) and of contraction by the model's vector
field (lowering p), stacked along a leading member axis.  The torus stacks
its Fourier modes, and the projective line stacks the rotation charges of
one layout (chi and k - chi share one).  Downstream float work makes one
batched call per stack over the whole T grid, and d_T's placement of these
blocks is made once per stack and degree in that pass
(`deformed.spectral_pass`).  The product is not assembled: it is held as
its factors (`geometry.product`).  Beside its stacks, a model holds its
spec and, for cp1, the exact layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PQ = tuple[int, int]

SCHEMA_VERSION = 1


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class FieldSpec:
    """Holomorphic vector field descriptor.

    kind "constant": c times the unit (1,0) frame field on the torus, c != 0,
    so the zero set is empty.  kind "linear": the field z d/dz on the
    projective line, vanishing transversally at 0 and infinity.  kind
    "product_lift": the linear field lifted from the named factor of a
    product (the other factor carries no field).
    """

    kind: str
    c: complex = 1.0 + 0.0j
    factor: str = "left"

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "linear", "product_lift"):
            raise ModelError(f"unsupported field kind: {self.kind!r}")
        if self.kind == "constant" and self.c == 0:
            raise ModelError("constant field requires c != 0")
        if self.kind == "product_lift" and self.factor != "left":
            raise ModelError("only lifts from the left factor are supported")

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == "constant":
            out["c"] = [self.c.real, self.c.imag]
        if self.kind == "product_lift":
            out["factor"] = self.factor
        return out


@dataclass(frozen=True)
class ModelSpec:
    """Descriptor of one spectral model; serializable, hashable, and valid
    by construction: a value out of range raises ModelError here, so every
    spec that exists describes a model that can be assembled."""

    kind: str                      # "torus" | "cp1" | "product"
    cutoff: int = 0
    tau: complex = 1j              # torus modulus
    k: int = 0                     # line bundle twist on the projective line
    field: FieldSpec = field(default_factory=lambda: FieldSpec("constant"))
    left: "ModelSpec | None" = None
    right: "ModelSpec | None" = None

    def __post_init__(self) -> None:
        if self.kind == "torus":
            if self.tau.imag <= 0:
                raise ModelError(f"degenerate modulus tau={self.tau}")
            if self.cutoff < 1:
                raise ModelError("torus cutoff must be >= 1")
            if self.field.kind != "constant":
                raise ModelError("torus supports only the constant field")
        elif self.kind == "cp1":
            if self.cutoff < max(self.k + 2, 4):
                raise ModelError(
                    f"cutoff {self.cutoff} too small to contain all twist-{self.k} "
                    f"holomorphic sections; need >= {max(self.k + 2, 4)}")
            if self.k < 0:
                raise ModelError("negative twists are not assembled")
            if self.field.kind != "linear":
                raise ModelError("the projective-line model requires the linear field")
        elif self.kind == "product":
            if self.left is None or self.right is None:
                raise ModelError("product requires left and right factors")
            if self.left.kind != "cp1" or self.right.kind != "torus":
                raise ModelError("supported product: cp1 (linear field) x torus")
            if self.field.kind != "product_lift":
                raise ModelError("product models use a lifted field")
        else:
            raise ModelError(f"unsupported model kind: {self.kind!r}")

    @property
    def n(self) -> int:
        return 2 if self.kind == "product" else 1

    def label(self) -> str:
        if self.kind == "torus":
            return f"torus(tau={self.tau:g},cut={self.cutoff},c={self.field.c:g})"
        if self.kind == "cp1":
            return f"cp1(k={self.k},cut={self.cutoff})"
        return f"product[{self.left.label()} x {self.right.label()}]"

    def to_dict(self) -> dict:
        out = {"schema_version": SCHEMA_VERSION, "kind": self.kind}
        if self.kind == "torus":
            out.update(tau=[self.tau.real, self.tau.imag], cutoff=self.cutoff,
                       field=self.field.to_dict())
        elif self.kind == "cp1":
            out.update(k=self.k, cutoff=self.cutoff, field=self.field.to_dict())
        else:
            out.update(left=self.left.to_dict(), right=self.right.to_dict(),
                       field=self.field.to_dict())
        return out


@dataclass
class CellStack:
    """Invariant sectors of one layout, stacked along a leading member axis.

    Every member has the same dims per (p, q).  dbar[pq] maps (p, q) ->
    (p, q+1) and iv[pq] maps (p, q) -> (p-1, q); each holds one block per
    member, shape (members, rows, cols).  A member whose block is absent
    holds zeros; a key missing for the whole stack means zero blocks or
    empty spaces.  A member is named by names[i].
    """

    name: str
    names: list[str]
    dims: dict[PQ, int]
    dbar: dict[PQ, np.ndarray]
    iv: dict[PQ, np.ndarray]

    @property
    def size(self) -> int:
        return len(self.names)

    def dim(self, pq: PQ) -> int:
        return self.dims.get(pq, 0)

    def pqs_of_degree(self, r: int, n: int) -> list[PQ]:
        return [(p, q) for p in range(n + 1) for q in range(n + 1)
                if q - p == r and self.dim((p, q)) > 0]


@dataclass
class AssembledModel:
    """The spectral pass's input: spec, stacks and cp1's exact layer."""

    spec: ModelSpec
    cells: list[CellStack]
    exact: object | None = None     # optional exact-arithmetic layer

    @property
    def n(self) -> int:
        return self.spec.n
