"""Exception types shared across the package."""


class PerevoError(Exception):
    """Base class for every error raised by this package."""


class SchemaError(PerevoError):
    """Configuration document has an unknown, missing, or malformed key."""


class InvariantError(PerevoError):
    """A constructed object violates one of its declared invariants."""


class BadScenarioParams(PerevoError):
    """A scenario or its weight was given inconsistent parameters."""


class DimensionMismatch(PerevoError):
    """Vector or matrix argument has the wrong shape."""


class LevelOrder(PerevoError):
    """Time levels passed in the wrong order (need from <= to)."""


class LevelMismatch(PerevoError):
    """Two kernels do not live on the same pair of time levels."""


class SingularStep(PerevoError):
    """A time-step matrix could not be factorized; dt or mesh is invalid."""


class NoConvergence(PerevoError):
    """Power iteration hit the iteration cap; the spectral gap is likely tiny.

    Carries the best available estimates in ``r_estimate`` and ``residual``.
    """

    def __init__(self, max_iter, r_estimate=None, residual=None):
        super().__init__(f"power iteration did not converge within {max_iter} iterations")
        self.max_iter = max_iter
        self.r_estimate = r_estimate
        self.residual = residual


class TrivialLimit(PerevoError):
    """The period map is (numerically) nilpotent: no eigenpair exists."""


class InsufficientData(PerevoError):
    """Not enough samples to fit the requested model."""


class BadExponents(PerevoError):
    """Operator-norm exponents outside 1 <= p <= q <= inf."""


class TrivialLimitComparison(PerevoError):
    """Comparison against a trivial (zero) limit operator was requested.

    Only the decay of the penalized period maps is meaningful in this case;
    it is attached as ``decay``: a list of (penalty, max-entry) pairs.
    """

    def __init__(self, decay=None):
        super().__init__("limit operator is trivial; only operator-norm decay is reported")
        self.decay = decay or []
