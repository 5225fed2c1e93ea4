"""Exception types shared across the toolkit.

Every domain error raised by the public API derives from ParetoKitError so
the command line can map all of them to exit code 1 uniformly.
"""


class ParetoKitError(Exception):
    """Base class for all domain errors raised by pareto_kit."""


class MalformedNumber(ParetoKitError):
    """Text is not an integer, a decimal, or an a/b fraction."""


class ZeroDenominator(ParetoKitError):
    """Fraction literal with a zero denominator."""


class MalformedInput(ParetoKitError):
    """An instance file or value does not match its schema."""


class DimensionMismatch(ParetoKitError):
    """Vectors or matrix rows of incompatible dimensions were combined."""


class EmptySet(ParetoKitError):
    """An operation that needs at least one point received none."""


class NotPointed(ParetoKitError):
    """The cone is not pointed (it contains a line)."""


class ImproperCone(ParetoKitError):
    """The cone is {0} or the whole space."""


class NotMember(ParetoKitError):
    """The query point does not belong to the set it must be drawn from."""


class NotNondominated(ParetoKitError):
    """The query point is dominated, so the requested quantity is undefined."""


class NotInHull(ParetoKitError):
    """The query point lies outside the convex hull of the generators."""


class EmptySelector(ParetoKitError):
    """An objective subset must be nonempty."""


class TooManyObjectives(ParetoKitError):
    """Subset enumeration over the objectives would exceed the cap."""


class ZeroWeights(ParetoKitError):
    """A weight vector must have at least one positive entry."""


class NegativeWeight(ParetoKitError):
    """Scalarization weights must be nonnegative."""


class EmptyPolyhedron(ParetoKitError):
    """The inequality system has no solution."""


class EmptyFrontier(ParetoKitError):
    """There are no nondominated points (or no grid weights) to sample."""


class InvalidEpsilon(ParetoKitError):
    """The connectivity radius must be positive."""


class SizeCap(ParetoKitError):
    """A size (a generator parameter, a grid, the digits of a number to
    write out) is outside its supported range."""


class InternalInconsistency(ParetoKitError):
    """Two routes that must agree disagreed; indicates a solver bug."""
