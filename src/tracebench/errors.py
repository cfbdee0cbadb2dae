"""Exception hierarchy shared by all tracebench modules.

The CLI maps failures onto its documented exit codes by class:
ValidationError (and ValueError) exits 2 for validation problems (bad
input, bad config, a representation that fails the one gate in
`reps.Representation`, violated preconditions); any other TracebenchError
exits 3 for numerical failures (solver or quadrature did not converge,
phi not evaluable at an argument, truncation not justified, enumeration
did not finish, a class word off its matrix).
"""


class TracebenchError(Exception):
    pass


class ValidationError(TracebenchError):
    pass


# -- validation-type errors (exit code 2) --

class ConfigError(ValidationError):
    pass


class NotHyperbolic(ValidationError):
    """Matrix trace too close to [-2, 2]: no translation axis."""


class CutoffTooLarge(ValidationError):
    """Projected enumeration size exceeds the fixed element budget."""


class RelatorViolation(ValidationError):
    """Generator images do not satisfy the surface-group relator."""


class SingularImage(ValidationError):
    """A generator image is below full numerical rank (numpy's default
    rule, so the verdict does not depend on the image's scale)."""


class CacheMismatch(ValidationError):
    """On-disk cache does not match the requested run (or is corrupted)."""


# -- numerical-type errors (exit code 3) --

class QuadratureNotConverged(TracebenchError):
    pass


class MeshQualityFailure(TracebenchError):
    pass


class SolverNotConverged(TracebenchError):
    pass


class TruncationNotJustified(TracebenchError):
    """Spectral sum cut off before the test function decayed enough."""


class EnumerationFailed(TracebenchError):
    """Class enumeration could not finish: an axis pull did not settle, or
    the power of a class inside the cutoff is not an enumerated class."""


class ClassWordMismatch(TracebenchError):
    """A class's representative word does not evaluate to its matrix."""

    def __init__(self, deviation: float, tol: float):
        super().__init__(
            "class word evaluates %.3e away from its matrix, tolerance %.3e"
            % (deviation, tol)
        )
        self.deviation = deviation
        self.tol = tol
