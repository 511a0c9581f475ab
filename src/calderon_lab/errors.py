"""Exception hierarchy shared by every module of the toolkit."""


class ToolkitError(Exception):
    """Base class for all errors raised by calderon_lab."""


class DomainError(ToolkitError):
    """Arguments outside the domain an operation is defined on."""


class NonConvergent(ToolkitError):
    """An integral that must be finite diverges: its integrand is not
    integrable at the singular endpoint."""


class TrivialSpace(ToolkitError):
    """The weight makes the function space degenerate (only f = 0, or a
    trivial lattice)."""


class Inconclusive(ToolkitError):
    """A finiteness classification did not stabilize under grid
    refinement.  Reported, never silently decided."""


class NoSolution(ToolkitError):
    """A root/bisection problem has no solution in the admissible range."""


class WitnessMissing(ToolkitError):
    """No monotonicity exponent witness could be found."""


class ResolutionTooCoarse(ToolkitError):
    """The singular-cell correction dominates a convolution cell."""


class NotEmbedded(ToolkitError):
    """The embedding criterion fails; the requested construction is not
    defined."""


class ConfigInvalid(ToolkitError):
    """An experiment configuration failed validation (field + reason)."""
