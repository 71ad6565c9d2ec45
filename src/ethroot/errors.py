"""Exception taxonomy shared by all modules.

Every failure that callers are expected to catch and react to gets its own
class; plain ValueError is reserved for caller bugs (malformed input).
"""


class EthrootError(Exception):
    """Base class for library errors."""


class NotAPower(EthrootError):
    """The element is not an e-th power where one was required."""


class ZeroInput(EthrootError):
    """Zero where a unit / nonzero element was required."""


class IncompatibleFields(EthrootError):
    """Operands live in different fields."""


class NotInSubfield(EthrootError):
    """Element does not lie in the target subfield."""


class NotInGroup(EthrootError):
    """Element is outside the cyclic group a discrete log was asked in."""


class BudgetExceeded(EthrootError):
    """A configured work budget was hit before the answer."""


class BadConductor(EthrootError):
    """Conductor m < 3 or m = 2 mod 4 (no primitive cyclotomic field)."""


class DenominatorClash(EthrootError):
    """A denominator shares a factor with a chosen prime."""

    def __init__(self, p: int):
        super().__init__(f"denominator shares factor with prime {p}")
        self.p = p


class IncompleteCover(EthrootError):
    """Supplied prime ideals do not cover the full degree."""


class BoundViolation(EthrootError):
    """A reconstructed coefficient fell outside the certified bound."""


class SearchExhausted(EthrootError):
    """Prime search budget ran out (bad field, or budget too small)."""


class VerificationFailed(EthrootError):
    """A computed root failed its modular spot-check."""


class SeedInvalid(EthrootError):
    """Hensel seed does not satisfy its contract mod p."""


class RootSeedMissing(EthrootError):
    """Residue of y mod p is not an e-th power residue as required."""


class NormMismatch(EthrootError):
    """Norm anchor disagrees with a local norm by more than a root of unity."""


class NotApplicable(EthrootError):
    """A method does not apply to this field/exponent pair (e.g. no tower)."""


class RamifiedE(EthrootError):
    """e is ramified in K where unramified was required."""


class NotUnit(EthrootError):
    """Element is not a unit modulo the relevant modulus."""


class NotAnEthPower(EthrootError):
    """All applicable strategies failed; input is (probably) not an e-th power."""


class Unsupported(EthrootError):
    """Valid input outside the implemented envelope (even e, char 2, ...)."""
