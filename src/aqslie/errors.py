"""Error taxonomy shared by the library and the CLI.

Three families, mapped to CLI exit codes:
  parse (2)        -- malformed files, bad scalars, inputs violating basic
                      algebraic sanity (Jacobi, duplicate bracket records).
  precondition (3) -- a well-formed input that does not satisfy a stated
                      hypothesis of the requested operation.
  internal (4)     -- a contradiction that the theory rules out under the
                      checked preconditions; always a defect signal.
"""

PARSE = "parse"
PRECONDITION = "precondition"
INTERNAL = "internal"

EXIT_CODES = {PARSE: 2, PRECONDITION: 3, INTERNAL: 4}


class AqslieError(Exception):
    family = PRECONDITION

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.family]

    @property
    def code(self) -> str:
        return type(self).__name__


class InputError(AqslieError):
    """Malformed or inconsistent input file / scalar string."""

    family = PARSE


class ScalarParseError(InputError):
    pass


class JacobiError(InputError):
    """Structure constants violate the Jacobi identity."""

    def __init__(self, triples):
        self.triples = list(triples)  # 0-based, as jacobi_check returns them
        named = [tuple(i + 1 for i in t) for t in self.triples]  # 1-based, as the file
        super().__init__(f"Jacobi identity fails on triples {named}")


class PreconditionError(AqslieError):
    family = PRECONDITION


class DimensionMismatch(PreconditionError):
    pass


class NotNilpotent(PreconditionError):
    pass


class NotMaximalRank(PreconditionError):
    pass


class NotAqs(PreconditionError):
    pass


class NotQs(PreconditionError):
    pass


class NotCompactSemisimple(PreconditionError):
    pass


class InvalidStructure(PreconditionError):
    """An (phi, xi, eta, g) quadruple failing its defining identities."""


class IrrationalSpectrum(PreconditionError):
    """Exact mode only: an operator is not diagonalizable over the rationals
    (a minimal polynomial that does not split or repeats a root, or
    eigenspaces that do not span).  Callers may retry in float mode."""


class ToleranceExceeded(PreconditionError):
    """Float mode only: rounding pushed a certificate's residual past the
    absolute tolerance; a precision limit of the input, not of the theory."""


class NoSolution(PreconditionError):
    """A linear system certified solvable by hypothesis has no solution;
    signals input outside the certified space."""


class InternalContradiction(AqslieError):
    """The theory guarantees this cannot happen under the checked
    preconditions; reaching it means an upstream check was bypassed."""

    family = INTERNAL


class CenterTooBig(InternalContradiction):
    pass


class NonAbelianQuotient(InternalContradiction):
    pass
