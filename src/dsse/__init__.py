"""Forward-private dynamic searchable symmetric encryption with delegated
verifiability: protocol library plus a three-party simulator.
"""

from .bloom import BloomFilter, BloomParams
from .crypto import KeyBundle
from .errors import (
    AmbiguousCounterError,
    CounterBoundError,
    DecryptionError,
    DsseError,
    FormatError,
    NotFoundError,
    ProtocolError,
    StaleEpochError,
    StaleFilterError,
    TamperedFilterError,
    TransportError,
    UsageError,
)
from .owner import DataOwner
from .protocol import (
    AddPayload,
    BASIC,
    FULL,
    RefreshPayload,
    SearchTokenEnvelope,
    VerifyReport,
)
from .server import CloudServer
from .user import AuthorizedUser
from .wire import Client, WireServer

__all__ = [
    "AddPayload",
    "AmbiguousCounterError",
    "AuthorizedUser",
    "BASIC",
    "BloomFilter",
    "BloomParams",
    "Client",
    "CloudServer",
    "CounterBoundError",
    "DataOwner",
    "DecryptionError",
    "DsseError",
    "FormatError",
    "FULL",
    "KeyBundle",
    "NotFoundError",
    "ProtocolError",
    "RefreshPayload",
    "SearchTokenEnvelope",
    "StaleEpochError",
    "StaleFilterError",
    "TamperedFilterError",
    "TransportError",
    "UsageError",
    "VerifyReport",
    "WireServer",
]

__version__ = "0.1.0"
