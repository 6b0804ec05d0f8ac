"""Per-degree reads of `deformed.spectral_pass` at one T, as a sweep makes
them, for tests that look at a single T (T = 0 included, which a sweep
grid refuses), and the degree dimensions of assembled stacks, counted from
their bidegree dims."""

from itertools import starmap

from equivlab.deformed import spectral_pass, spectrum


def degrees_at(model, T):
    """The one T's degrees of a spectral pass over the grid [T]."""
    (per_T,) = spectral_pass(model, [T])[1]
    return per_T


def degree_eigenvalues(model, T):
    """The sorted eigenvalues of D_T^2 per degree r."""
    return {r: evals for r, _, evals, _ in degrees_at(model, T)}


def degree_results(model, T):
    """The `SpectrumResult` per degree r."""
    return {res.degree: res
            for res in starmap(spectrum, degrees_at(model, T))}


def kernel_table(model, T):
    """The kernel count per degree r."""
    return {r: res.kernel_count for r, res in degree_results(model, T).items()}


def member_dim(stack, r):
    """The degree-r dimension of one member of a stack, from its dims."""
    return sum(d for (p, q), d in stack.dims.items() if q - p == r)


def degree_dim(model, r):
    """The degree-r dimension of an assembled model, from its stacks."""
    return sum(stack.size * member_dim(stack, r) for stack in model.cells)
