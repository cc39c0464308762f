"""Exception types shared across the package.

Input problems raise subclasses of :class:`InputError`, resource guards raise
:class:`TooLarge`, and numerical trouble raises subclasses of
:class:`NumericalError`.  The CLI maps these onto exit codes 2, 3 and 4.
"""


class MetastabError(Exception):
    """Base class for all package errors."""


class InputError(MetastabError):
    """Invalid user input (bad spec, bad labels, bad parameters)."""


class BadSpec(InputError):
    """Malformed chain specification (unknown label, self loop, too few states)."""


class DuplicateEdge(InputError):
    def __init__(self, src, dst):
        super().__init__(f"duplicate rate entry for edge ({src!r}, {dst!r})")
        self.edge = (src, dst)


class NonPositiveRate(InputError):
    def __init__(self, src, dst, rate):
        super().__init__(f"rate for edge ({src!r}, {dst!r}) must be finite and > 0, "
                         f"got {rate!r}")
        self.edge = (src, dst)
        self.rate = rate


class NotIrreducible(InputError):
    """The positive-rate digraph is not strongly connected.

    ``witness`` is a pair (a, b) such that b is unreachable from a.
    """

    def __init__(self, witness):
        a, b = witness
        super().__init__(f"chain is not irreducible: {b!r} is unreachable from {a!r}")
        self.witness = witness


class BadSets(InputError):
    """Source/sink sets overlap, are empty, or reference unknown labels."""


class BadSubset(InputError):
    """A state subset is empty, not proper, or references unknown labels."""


class BadPartition(InputError):
    """Valley partition is invalid for the chain at hand."""


class BadParams(InputError):
    """Model builder parameters out of range."""


class NotAdmissible(InputError):
    """A test function or test flow violates its variational class constraint."""

    def __init__(self, message, where=None):
        super().__init__(message if where is None else f"{message} (at {where!r})")
        self.where = where


class NotReversible(InputError):
    """Operation requires a chain satisfying detailed balance."""


class NotZeroMean(InputError):
    """Right-hand side of a Poisson equation must have zero pi-mean."""


class NotStationary(InputError):
    """Supplied measure is not stationary for the chain.

    ``column`` is the failing column when a check ran on one function per
    column, else None.
    """

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


class NotIrreducibleAfterReflection(InputError):
    """Restricting the rate digraph to a subset broke strong connectivity."""


class NonPositiveGamma(InputError):
    """Enlargement parameter gamma must be finite and > 0."""


class StartsInDelta(InputError):
    """Last-passage rewrite requires the coarse path to start in a valley."""


class TouchesDelta(InputError):
    """Valley projection applied to a path that visits the separating set."""


class BadTolerance(InputError):
    """The METASTAB_TOL environment variable is not a finite positive number."""


class TooLarge(MetastabError):
    """State count exceeds a configured resource guard."""


class NumericalError(MetastabError):
    """Numerical failure (singular solve, violated identity)."""


class SolverFailure(NumericalError):
    """A linear solve failed or left an out-of-tolerance residual."""


class ToleranceViolation(NumericalError):
    """An exact identity failed beyond its configured tolerance."""
