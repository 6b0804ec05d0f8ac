"""Analytic ground truth: Hodge tables of the desk models, their zero-set
tables, Kunneth combination, and the localization prediction that the
deformed kernel dimensions per degree equal the cohomology of the field's
zero set.  A Hodge table is a plain dict, (p, q) -> h^{p,q}, of its
nonzero entries, and a per-degree table one of degree r -> dimension;
`per_degree` reads the second off the first.

Closed-form entries are never trusted alone: the test suite
cross-validates them against exact degree-(p,q) kernel counts of the
undeformed truncated complex.  No copy of them is committed; the code here
is their one statement.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry.base import ModelError, ModelSpec


# h^{p,q} of one model: its nonzero entries, (p, q) -> dim
HodgeTable = dict[tuple[int, int], int]

POINT_TABLE: HodgeTable = {(0, 0): 1}


def per_degree(table: HodgeTable, n: int) -> dict[int, int]:
    """The table's dimension per degree r = q - p, for r in [-n, n]; an
    entry outside that range raises KeyError."""
    dims = dict.fromkeys(range(-n, n + 1), 0)
    for (p, q), v in table.items():
        dims[q - p] += v
    return dims


def kunneth(left: HodgeTable, right: HodgeTable) -> HodgeTable:
    """h^{p,q} of a product as the bidegree convolution of the factors."""
    out: HodgeTable = {}
    for (a, b), u in left.items():
        for (c, d), v in right.items():
            key = (a + c, b + d)
            out[key] = out.get(key, 0) + u * v
    return out


def torus_table() -> HodgeTable:
    """Trivially twisted flat torus: every corner of the square is one."""
    return {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}


def cp1_table(k: int) -> HodgeTable:
    """Twist-k line bundle on the projective line: holomorphic sections are
    polynomials of degree <= k, the (1, q) row is the twist shifted by the
    canonical bundle, and duality fills the rest."""
    if k < 0:
        raise ModelError("negative twists are not modelled")
    # h^{0,1} = 0 for every k >= 0
    entries = {(0, 0): k + 1, (1, 0): k - 1, (1, 1): 1 - k}
    return {pq: v for pq, v in entries.items() if v > 0}


def model_hodge_table(spec: ModelSpec) -> HodgeTable:
    """Closed-form undeformed cohomology table of a supported model."""
    if spec.kind == "torus":
        return torus_table()
    if spec.kind == "cp1":
        return cp1_table(spec.k)
    if spec.kind == "product":
        return kunneth(model_hodge_table(spec.left),
                       model_hodge_table(spec.right))
    raise ModelError(f"no oracle table for model kind {spec.kind!r}")


@dataclass(frozen=True)
class ZeroSetDescriptor:
    """Connected components of the field's zero set: complex dimension,
    restricted fiber rank, and the component's own cohomology table."""

    components: tuple  # tuple of (dim, rank, HodgeTable)

    def total_per_degree(self, ambient_n: int) -> dict[int, int]:
        dims = {r: 0 for r in range(-ambient_n, ambient_n + 1)}
        for dim, rank, table in self.components:
            for r, v in per_degree(table, dim).items():
                dims[r] += rank * v
        return dims


def zero_set(spec: ModelSpec) -> ZeroSetDescriptor:
    if spec.kind == "torus":
        return ZeroSetDescriptor(components=())       # constant field: empty
    if spec.kind == "cp1":
        # linear field z d/dz: two transversal points (origin and infinity)
        return ZeroSetDescriptor(components=((0, 1, POINT_TABLE),
                                             (0, 1, POINT_TABLE)))
    if spec.kind == "product":
        # two disjoint copies of the torus factor
        return ZeroSetDescriptor(components=((1, 1, torus_table()),
                                             (1, 1, torus_table())))
    raise ModelError(f"no zero set descriptor for model kind {spec.kind!r}")


def localization_prediction(spec: ModelSpec) -> dict[int, int]:
    """Per-degree dimensions of the deformed cohomology for T != 0: the
    zero-set cohomology, summed over components (all-zero when the field
    never vanishes)."""
    return zero_set(spec).total_per_degree(spec.n)

