from .base import (  # noqa: F401
    AssembledModel,
    CellStack,
    FieldSpec,
    ModelError,
    ModelSpec,
)
from . import cp1
from .cp1 import cp1_model, assemble_cp1  # noqa: F401
from .product import (  # noqa: F401
    RIGHT_MULTIPLICITY, ProductModel, product_model, assemble_product)
from .torus import torus_model, assemble_torus  # noqa: F401


def float_entries(spec: ModelSpec) -> int:
    """The float entries that `assemble(spec)` allocates in its stacks, and
    for a product also in its spectrum at one T, the Kunneth sums of each
    cp1 eigenvalue and each torus level, once per torus label (four per
    mode); in closed form, so any cutoff is sized at once."""
    if spec.kind == "torus":     # one entry per mode in four 1 x 1 blocks
        return 4 * (2 * spec.cutoff + 1) ** 2
    if spec.kind == "cp1":
        return cp1.stack_entries(spec.k, spec.cutoff)
    left, modes = spec.left, (2 * spec.right.cutoff + 1) ** 2
    labels = sum(RIGHT_MULTIPLICITY.values()) * modes
    return float_entries(left) + cp1.dimension(left.k, left.cutoff) * labels


def assemble(spec: ModelSpec) -> AssembledModel | ProductModel:
    """Assemble any supported model from its descriptor; a product is held
    as its factors."""
    if spec.kind == "torus":
        return assemble_torus(spec)
    if spec.kind == "cp1":
        return assemble_cp1(spec)
    return assemble_product(spec)
