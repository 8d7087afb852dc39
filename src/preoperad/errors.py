"""Exception taxonomy shared by the backends, the calculus and the law engine."""


class PreOperadError(Exception):
    """Base class for everything raised on purpose by this package."""


class RingMismatch(PreOperadError):
    """Operands live over different coefficient rings."""


class UnsupportedRing(PreOperadError):
    """Operation needs a finite field but got something else."""


class ShapeMismatch(PreOperadError):
    """Coefficient table has the wrong number of entries for its degree."""


class TableTooLarge(PreOperadError):
    """A table, tree sum or region larger than the package allows."""


class DegreeMismatch(PreOperadError):
    """Elements of different degrees where equal degrees are required."""


class IndexOutOfScope(PreOperadError):
    """Composition slot index outside 0 <= i <= deg - 1."""


class BackendMismatch(PreOperadError):
    """Operands belong to different backends (ring, dimension or signature)."""


class InvalidDegree(PreOperadError):
    """Degree outside the range an operation is defined for."""


class IndexOutOfDomain(PreOperadError):
    """Lattice point outside the domain of an auxiliary-variable family."""


class UnknownGenerator(PreOperadError):
    """Generator name not present in the signature."""


class MissingAssignment(PreOperadError):
    """evaluate_hom needs a table for every generator that occurs."""


class UnknownLaw(PreOperadError):
    """Law id not present in the registry."""


class BadConfig(PreOperadError):
    """Trial configuration that cannot be run."""


class ScriptSyntaxError(PreOperadError):
    """Script text that does not parse; carries the source location."""

    def __init__(self, message: str, line: int, col: int, expected: str | None = None):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.expected = expected


class ScriptTypeError(PreOperadError):
    """Well-formed script whose degrees or indices do not fit."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.line = line
        self.col = col
