"""Exception types raised across the election pipeline."""


class EvoteError(Exception):
    """Base class for all library errors."""


class DecodeRangeError(EvoteError):
    """Exponential decoding scanned past its bound without a match."""


class MissingShareError(EvoteError):
    """A trustee's partial decryption is absent; n-of-n cannot proceed."""


class DuplicateShareError(EvoteError):
    """Two partial decryptions claim the same trustee index."""


class InvalidPartialProof(EvoteError):
    """A partial decryption's correctness proof failed to verify."""


class DuplicateVoter(EvoteError):
    """Enrollment attempted for an already-enrolled voter id."""


class IndexOutOfRange(EvoteError):
    """Candidate index outside [0, n_candidates)."""


class MalformedChoice(EvoteError):
    """Choice vector is not a unit vector."""


class FairnessViolation(EvoteError):
    """Decryption-capable operation attempted before the election closed."""


class AlreadyClosed(EvoteError):
    """Operation requires an open election."""


class MixRejected(EvoteError):
    """A mix stage failed verification during tallying."""


class NoOnlineNodes(EvoteError):
    """Forger selection found no online eligible node this round."""


class SupplyNotConserved(EvoteError):
    """A BallotCoin chain holds other than one coin per eligible voter."""
