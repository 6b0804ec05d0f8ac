"""Shared model descriptors and the assembled-model data contract.

An assembled model is a list of cell stacks.  A cell is an exact invariant
sector of all operators involved (a Fourier mode, a rotation charge, or a
pair of them), so the spectrum of the full model is the union of the
spectra of its cells.  Cells of one layout, with the same dimension per
bidegree (p, q), form one stack: per (p, q) it holds an orthonormal section
basis shared by its members, together with the float matrices of the
Dolbeault operator (raising q) and of contraction by the model's vector
field (lowering p), stacked along a leading member axis.  The torus stacks
its Fourier modes, the product stacks the torus modes of one rotation charge
of the projective line, and each charge of the projective line is a stack
of one member.  Downstream float work makes one batched call per stack.
"""

from __future__ import annotations

import json
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

    def validate(self) -> None:
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

    @classmethod
    def from_dict(cls, d: dict) -> "FieldSpec":
        kind = d.get("kind")
        c = d.get("c", [1.0, 0.0])
        return cls(kind=kind, c=complex(c[0], c[1]), factor=d.get("factor", "left"))


@dataclass(frozen=True)
class ModelSpec:
    """Descriptor of one spectral model; serializable, hashable, validated."""

    kind: str                      # "torus" | "cp1" | "product"
    cutoff: int = 0
    tau: complex = 1j              # torus modulus
    k: int = 0                     # line bundle twist on the projective line
    field: FieldSpec = field(default_factory=lambda: FieldSpec("constant"))
    left: "ModelSpec | None" = None
    right: "ModelSpec | None" = None

    def validate(self) -> None:
        if self.kind == "torus":
            if self.tau.imag <= 0:
                raise ModelError(f"degenerate modulus tau={self.tau}")
            if self.cutoff < 1:
                raise ModelError("torus cutoff must be >= 1")
            self.field.validate()
            if self.field.kind not in ("constant",):
                raise ModelError("torus supports only the constant field")
        elif self.kind == "cp1":
            if self.cutoff < max(self.k + 2, 4):
                raise ModelError(
                    f"cutoff {self.cutoff} too small to contain all twist-{self.k} "
                    f"holomorphic sections; need >= {max(self.k + 2, 4)}")
            if self.k < 0:
                raise ModelError("negative twists are not assembled")
            self.field.validate()
            if self.field.kind != "linear":
                raise ModelError("the projective-line model requires the linear field")
        elif self.kind == "product":
            if self.left is None or self.right is None:
                raise ModelError("product requires left and right factors")
            if self.left.kind != "cp1" or self.right.kind != "torus":
                raise ModelError("supported product: cp1 (linear field) x torus")
            self.left.validate()
            if self.right.tau.imag <= 0:
                raise ModelError(f"degenerate modulus tau={self.right.tau}")
            if self.right.cutoff < 1:
                raise ModelError("torus cutoff must be >= 1")
            self.field.validate()
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

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        kind = d.get("kind")
        fld = FieldSpec.from_dict(d["field"]) if "field" in d else FieldSpec("constant")
        if kind == "torus":
            tau = d.get("tau", [0.0, 1.0])
            return cls(kind="torus", tau=complex(tau[0], tau[1]),
                       cutoff=int(d.get("cutoff", 0)), field=fld)
        if kind == "cp1":
            return cls(kind="cp1", k=int(d.get("k", 0)),
                       cutoff=int(d.get("cutoff", 0)), field=fld)
        if kind == "product":
            return cls(kind="product", field=fld,
                       left=cls.from_dict(d["left"]), right=cls.from_dict(d["right"]))
        raise ModelError(f"unsupported model kind: {kind!r}")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
        return cls.from_dict(json.loads(text))


@dataclass
class CellStack:
    """Invariant sectors of one layout, stacked along a leading member axis.

    Every member has the same dims per (p, q).  dbar[pq] maps (p, q) ->
    (p, q+1) and iv[pq] maps (p, q) -> (p-1, q); each holds one block per
    member, shape (members, rows, cols).  A member whose block is absent
    holds zeros; a key missing for the whole stack means zero blocks or
    empty spaces.  labels[pq] names the layout's basis vectors, which every
    member shares; a member is named by names[i].
    """

    name: str
    names: list[str]
    dims: dict[PQ, int]
    labels: dict[PQ, list[str]]
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

    def degree_dim(self, r: int, n: int) -> int:
        """Dimension of the degree-r block of one member."""
        return sum(self.dim(pq) for pq in self.pqs_of_degree(r, n))


@dataclass
class AssembledModel:
    spec: ModelSpec
    n: int
    cells: list[CellStack]
    leakage: dict[str, float] = field(default_factory=dict)
    gram_conditions: dict[str, float] = field(default_factory=dict)
    exact: object | None = None     # optional exact-arithmetic payload

    def degree_range(self) -> range:
        return range(-self.n, self.n + 1)

    def degree_dim(self, r: int) -> int:
        return sum(c.size * c.degree_dim(r, self.n) for c in self.cells)


def export_blocks(model: AssembledModel, path: str) -> None:
    """Write every operator block to a single npz container: dense complex
    row-major arrays plus a JSON metadata entry describing bases.  Members
    are numbered across stacks in model order."""
    arrays: dict[str, np.ndarray] = {}
    meta = {"schema_version": SCHEMA_VERSION, "model": model.spec.to_dict(),
            "cells": []}
    members = [(stack, i) for stack in model.cells for i in range(stack.size)]
    for ci, (stack, i) in enumerate(members):
        cell_meta = {"name": stack.names[i], "blocks": {}}
        for pq, dim in sorted(stack.dims.items()):
            key = f"c{ci}_p{pq[0]}q{pq[1]}"
            cell_meta["blocks"][f"{pq[0]},{pq[1]}"] = {
                "dim": dim, "labels": stack.labels[pq]}
            for op, blocks in (("dbar", stack.dbar), ("iv", stack.iv)):
                blk = blocks.get(pq)
                if blk is not None and blk.size:
                    arrays[f"{key}_{op}"] = np.ascontiguousarray(
                        blk[i].astype(complex))
        meta["cells"].append(cell_meta)
    arrays["metadata_json"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def load_blocks_metadata(path: str) -> dict:
    with np.load(path) as data:
        return json.loads(bytes(data["metadata_json"]).decode())
