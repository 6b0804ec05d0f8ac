from .base import (  # noqa: F401
    AssembledModel,
    CellStack,
    FieldSpec,
    ModelError,
    ModelSpec,
    export_blocks,
    load_blocks_metadata,
)
from .cp1 import cp1_model, assemble_cp1  # noqa: F401
from .product import product_model, assemble_product  # noqa: F401
from .torus import torus_model, assemble_torus  # noqa: F401


def assemble(spec: ModelSpec) -> AssembledModel:
    """Assemble any supported model from its descriptor."""
    spec.validate()
    if spec.kind == "torus":
        return assemble_torus(spec)
    if spec.kind == "cp1":
        return assemble_cp1(spec)
    return assemble_product(spec)
