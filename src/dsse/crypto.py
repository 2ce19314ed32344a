"""Keyed primitives with fixed output lengths and canonical input encodings.

Everything here is deterministic except key generation and symmetric
encryption (fresh nonce per call). Output lengths are part of the protocol:
the chain construction packs and XOR-splits masked entries by byte offset,
so prf1 outputs and mac tags are exactly LAMBDA bytes, and chain_link cuts
a prf3 output into a LAMBDA-byte label and a 2*LAMBDA-byte pad: the mask
of a full-mode entry, and in basic mode its first LAMBDA bytes.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
import struct
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import DecryptionError, UsageError

LAMBDA = 16  # security parameter in bytes (128 bits)
ZERO = b"\x00" * LAMBDA

_NONCE_LEN = 12

# Domain separation tags for PRF inputs. Bare concatenations like w||cnt and
# w||pos||digit could collide across uses, so every PRF input carries a tag.
TAG_KEY = 0x02    # key-derivation input w||cnt under k_prf
TAG_DIGIT = 0x03  # digit embedding w||pos||digit
# The filter MAC derives its two keys from k_mac under these tags, and each
# tags its own inputs with them too (protocol.FilterTags).
TAG_BLOCK = 0x04   # per-block tag i||block_i
TAG_FILTER = 0x05  # outer MAC m||k||agg||t
TAG_LABEL = 0x06   # the one-byte input from which a chain key gives its link
TAG_RESULT = 0x07  # per-file result tag w||i under k_mac, i the file's counter


# ---------------------------------------------------------------------------
# Canonical input encodings
# ---------------------------------------------------------------------------

def encode_counter_input(tag: int, keyword: str, counter: int) -> bytes:
    """tag(1) || len(kw)(4 BE) || kw utf-8 || counter(8 BE). Injective."""
    if not 0 <= counter < 2**64:
        raise UsageError(f"counter out of range: {counter}")
    kw = keyword.encode("utf-8")
    return struct.pack(">BI", tag, len(kw)) + kw + struct.pack(">Q", counter)


def encode_digit_input(keyword: str, pos: int, digit: int) -> bytes:
    """tag(1) || len(kw)(4 BE) || kw utf-8 || pos(4 BE) || digit(4 BE)."""
    if pos < 1:
        raise UsageError(f"digit position must be >= 1, got {pos}")
    if not 0 <= digit <= 9:
        raise UsageError(f"digit out of range: {digit}")
    kw = keyword.encode("utf-8")
    return struct.pack(">BI", TAG_DIGIT, len(kw)) + kw + struct.pack(">II", pos, digit)


# ---------------------------------------------------------------------------
# PRFs, MAC
# ---------------------------------------------------------------------------

def _check_key(key: bytes) -> None:
    if len(key) != LAMBDA:
        raise UsageError(f"key must be {LAMBDA} bytes, got {len(key)}")


def prf1(key: bytes, msg: bytes) -> bytes:
    """HMAC-SHA-256 truncated to LAMBDA bytes."""
    _check_key(key)
    return hmac.new(key, msg, hashlib.sha256).digest()[:LAMBDA]


# No caller in the package; perfbench/tracing.py wraps it by name.
def prf2(key: bytes, msg: bytes) -> bytes:
    """HMAC-SHA-512 truncated to 2*LAMBDA bytes."""
    _check_key(key)
    return hmac.new(key, msg, hashlib.sha512).digest()[: 2 * LAMBDA]


def prf3(key: bytes, msg: bytes) -> bytes:
    """HMAC-SHA-512 truncated to 3*LAMBDA bytes (a chain link)."""
    _check_key(key)
    return hmac.new(key, msg, hashlib.sha512).digest()[: 3 * LAMBDA]


def mac_generate(
    key: bytes, msg: bytes | memoryview, *more: bytes | memoryview
) -> bytes:
    """HMAC-SHA-256 of msg followed by each of more, truncated to LAMBDA
    bytes. The parts are hashed in place, so a large one is never copied
    into a concatenation."""
    _check_key(key)
    h = hmac.new(key, msg, hashlib.sha256)
    for part in more:
        h.update(part)
    return h.digest()[:LAMBDA]


def aggregate_mac(tags: list[bytes]) -> bytes:
    """XOR-fold a list of LAMBDA-byte tags; empty list folds to all zeros."""
    acc = 0
    for tag in tags:
        if len(tag) != LAMBDA:
            raise UsageError(f"tag must be {LAMBDA} bytes, got {len(tag)}")
        acc ^= int.from_bytes(tag, "big")
    return acc.to_bytes(LAMBDA, "big")


def xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise UsageError(f"xor length mismatch: {len(a)} vs {len(b)}")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


# ---------------------------------------------------------------------------
# Symmetric encryption (AEAD)
# ---------------------------------------------------------------------------

def se_encrypt(key: bytes, plaintext: bytes) -> bytes:
    """AES-GCM with a fresh random nonce; output is nonce || ciphertext+tag."""
    _check_key(key)
    nonce = secrets.token_bytes(_NONCE_LEN)
    return nonce + AESGCM(key).encrypt(nonce, plaintext, None)


def se_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    _check_key(key)
    if len(ciphertext) < _NONCE_LEN + 16:
        raise DecryptionError("ciphertext too short")
    nonce, body = ciphertext[:_NONCE_LEN], ciphertext[_NONCE_LEN:]
    try:
        return AESGCM(key).decrypt(nonce, body, None)
    except InvalidTag:
        raise DecryptionError("authentication failed") from None


def new_key() -> bytes:
    return secrets.token_bytes(LAMBDA)


# ---------------------------------------------------------------------------
# Scheme-specific derivations
# ---------------------------------------------------------------------------

def derived_key(k_prf: bytes, keyword: str, counter: int) -> bytes:
    """Per-counter chain key: prf1 over the (injective) counter input."""
    return prf1(k_prf, encode_counter_input(TAG_KEY, keyword, counter))


def chain_link(key: bytes) -> tuple[bytes, bytes]:
    """(tau, pad) of the chain entry whose key this is: one prf3 output cut
    into the entry's label and the pad whose first protocol.mask_width
    bytes mask its body. Only a holder of the key can name the label or
    open the mask, and the label, two slices away, tells nothing of the pad."""
    out = prf3(key, bytes((TAG_LABEL,)))
    return out[:LAMBDA], out[LAMBDA:]


def chain_label(k_prf: bytes, keyword: str, counter: int) -> bytes:
    """tau for (keyword, counter): the encrypted index key, the label of
    that counter's chain key."""
    return chain_link(derived_key(k_prf, keyword, counter))[0]


def digit_element(k_prf: bytes, keyword: str, pos: int, digit: int) -> bytes:
    """Bloom-filter element embedding one decimal digit of a counter."""
    return prf1(k_prf, encode_digit_input(keyword, pos, digit))


@dataclass
class KeyBundle:
    """Owner secret material plus the rotating group key.

    k_prf drives the index labels and chain keys, k_se encrypts files,
    k_mac authenticates filters and result sets. r is shared with the
    server and authorized users; its epoch increases on every rotation.
    """

    k_prf: bytes
    k_se: bytes
    k_mac: bytes
    r: bytes
    epoch: int = 1

    @classmethod
    def generate(cls) -> "KeyBundle":
        return cls(k_prf=new_key(), k_se=new_key(), k_mac=new_key(), r=new_key())

    def rotate(self) -> None:
        """Replace the group key and bump its epoch."""
        self.r = new_key()
        self.epoch += 1
