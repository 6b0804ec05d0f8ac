"""equivlab: a spectral laboratory for vector-field-deformed Dolbeault
complexes on exactly truncatable models, with eigenvalue-based verification
that the deformed cohomology localizes onto the zero set of the field."""

__version__ = "0.1.0"
