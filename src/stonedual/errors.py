"""Error hierarchy shared by all modules.

Two kinds matter for exit codes: InputError means the input itself is
malformed or too large (CLI exit 2), MathFail means a well-formed input
failed a mathematical check and carries a witness (CLI exit 1).
"""


class SdlError(Exception):
    pass


class InputError(SdlError):
    pass


class MathFail(SdlError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvariantViolation(MathFail):
    """A theorem the library relies on failed on a structure it built."""


class BadTableShape(InputError):
    pass


class TooLarge(InputError):
    def __init__(self, predicted, bound):
        super().__init__(f"size {predicted} exceeds bound {bound}")
        self.predicted = predicted
        self.bound = bound


class UnknownElement(InputError):
    pass


class NoPlusTable(InputError):
    pass


class CompositionMismatch(InputError):
    pass


class CompDomainMismatch(InputError):
    pass


class MissingBottom(MathFail):
    pass


class NotClosed(MathFail):
    def __init__(self, op, a, b, missing):
        super().__init__(
            f"family not closed under {op}: {op}({a}, {b}) = {missing} is absent",
            witness=(op, a, b))
        self.op = op
        self.a = a
        self.b = b
        self.missing = missing


class NotAssociative(MathFail):
    def __init__(self, i, j, k):
        super().__init__(f"(x{i}*x{j})*x{k} != x{i}*(x{j}*x{k})", witness=(i, j, k))


class AxiomFail(MathFail):
    def __init__(self, name, tup):
        super().__init__(f"category axiom {name} fails at {tup}", witness=(name, tup))
        self.axiom = name


class PlusStarMismatch(MathFail):
    pass


class NoLeftUnit(MathFail):
    def __init__(self, s):
        super().__init__(f"no projection f with f*x{s} = x{s}", witness=(s,))


class NotPreBoolean(MathFail):
    pass


class NoLocalUnits(MathFail):
    pass


class NotAMorphism(MathFail):
    pass


class NotBooleanBirestriction(MathFail):
    pass


class NotBijectiveOnArrows(MathFail):
    pass


class NotStarBijective(MathFail):
    pass
