"""e-th roots of number field elements kept in factored form.

Public surface: factoring mod p and e-th roots in residue fields F_q, whose
elements are coefficient lists in a `gfpoly._Packed` ring (fq), number fields
and factored elements (numfield), the root backends (crtroot, padic, couveignes), the
dispatcher (strategy) and the e-th power detection pipeline (saturation).
"""

from .couveignes import build_tower, eth_root_couveignes
from .crtroot import eth_root_double_crt, good_prime_stream, is_bad_field
from .errors import (
    BadConductor,
    BoundViolation,
    BudgetExceeded,
    DenominatorClash,
    EthrootError,
    IncompatibleFields,
    IncompleteCover,
    NormMismatch,
    NotAnEthPower,
    NotApplicable,
    NotAPower,
    NotInGroup,
    NotInSubfield,
    NotUnit,
    RamifiedE,
    RootSeedMissing,
    SearchExhausted,
    SeedInvalid,
    Unsupported,
    VerificationFailed,
    ZeroInput,
)
from .fq import factor_mod_p, fq_eth_root
from .numfield import (
    FactoredElement,
    FieldElement,
    NumberField,
    PrimeIdealRep,
    SubfieldEmbedding,
    coeff_bound_root,
    crt_ideals,
    crt_integers_symmetric,
    cyclotomic_poly,
    multi_reduce,
    normalize_exponents,
    relative_norm,
)
from .padic import eth_root_padic, eth_root_padic_reconstruct, find_inert_prime
from .saturation import (
    CharacterMatrix,
    CharacterPrime,
    GeneratingSet,
    build_character_matrix,
    chi,
    detect_eth_powers,
    kernel_mod_e,
    saturate,
    schirokauer_map,
    select_character_primes,
)
from .strategy import RootRequest, RootResult, eth_root, pick_reconstruct_ideal
from .verify import verify_root

__version__ = "0.1.0"
