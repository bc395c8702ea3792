"""Verifiable electronic voting: homomorphic tally, mix-net, bulletin board.

Also includes a proof-of-stake coin-voting model used for storage and
liveness comparisons against the cryptographic pipeline.
"""

from .ballot import (
    ChoiceVector,
    CoercionVerdict,
    EncryptedBallot,
    Receipt,
    ReceiptStatus,
    SignedBallot,
    coercion_evidence,
    compose_ballot,
    encode_choice,
    filter_latest,
    verify_ballot,
)
from .ballotcoin import SimConfig, SimReport, estimate_storage, simulate
from .bulletin import Board, BulletinEntry, VerificationReport, universal_verify, verify_chain
from .errors import (
    AlreadyClosed,
    DecodeRangeError,
    DuplicateShareError,
    DuplicateVoter,
    EvoteError,
    FairnessViolation,
    IndexOutOfRange,
    InvalidPartialProof,
    MalformedChoice,
    MissingShareError,
    MixRejected,
    NoOnlineNodes,
)
from .groups import (
    Ciphertext,
    ElectionKey,
    GroupParams,
    PROD_GROUP_3072,
    TEST_GROUP,
    decrypt,
    encrypt,
    keygen,
    reencrypt,
    threshold_decrypt,
    threshold_keygen,
)
from .mixnet import MixBatch, mix_once, run_mixnet, verify_mix
from .registry import Registry, VoterCredential
from .tally import (
    Election,
    ElectionConfig,
    ElectionResult,
    ElectionState,
    aggregate_check,
    run_tally,
)
from .zkp import WellformedProof, prove_wellformed

__version__ = "0.1.0"

__all__ = [
    "AlreadyClosed",
    "Board",
    "BulletinEntry",
    "ChoiceVector",
    "Ciphertext",
    "CoercionVerdict",
    "DecodeRangeError",
    "DuplicateShareError",
    "DuplicateVoter",
    "Election",
    "ElectionConfig",
    "ElectionKey",
    "ElectionResult",
    "ElectionState",
    "EncryptedBallot",
    "EvoteError",
    "FairnessViolation",
    "GroupParams",
    "IndexOutOfRange",
    "InvalidPartialProof",
    "MalformedChoice",
    "MissingShareError",
    "MixBatch",
    "MixRejected",
    "NoOnlineNodes",
    "PROD_GROUP_3072",
    "Receipt",
    "ReceiptStatus",
    "Registry",
    "SignedBallot",
    "SimConfig",
    "SimReport",
    "TEST_GROUP",
    "VerificationReport",
    "VoterCredential",
    "WellformedProof",
    "aggregate_check",
    "coercion_evidence",
    "compose_ballot",
    "decrypt",
    "encode_choice",
    "encrypt",
    "estimate_storage",
    "filter_latest",
    "keygen",
    "mix_once",
    "prove_wellformed",
    "reencrypt",
    "run_mixnet",
    "run_tally",
    "simulate",
    "threshold_decrypt",
    "threshold_keygen",
    "universal_verify",
    "verify_ballot",
    "verify_chain",
    "verify_mix",
]
