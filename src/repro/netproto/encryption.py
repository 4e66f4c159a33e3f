"""Password-keyed encryption of extracted debug data.

Paper §2.1/§2.2: "If encryption is requested, the data is encrypted by the
extract function before being transferred using the password of the database
user as a key.  The client then reverses the encryption".

The reproduction implements an authenticated stream cipher from the standard
library only (no external crypto dependency is available offline):

* key derivation: PBKDF2-HMAC-SHA256 over the password with a random
  per-process salt (a fresh random nonce per message),
* keystream: SHA-256 in counter mode over (key, nonce, block index),
* integrity: HMAC-SHA256 over the ciphertext (encrypt-then-MAC).

This is a faithful stand-in for "encrypt with the user's password": it
round-trips exactly, rejects wrong passwords, and has measurable CPU cost for
the C3 benchmark.  It is **not** intended as production-grade cryptography.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import os

from ..errors import DecryptionError

_MAGIC = b"dUE1"
_SALT_BYTES = 16
_NONCE_BYTES = 16
_TAG_BYTES = 32
_PBKDF2_ITERATIONS = 2000  # low on purpose: benchmark-friendly, still non-trivial
_BLOCK_BYTES = 32


@functools.lru_cache(maxsize=32)
def derive_key(password: str, salt: bytes, *, iterations: int = _PBKDF2_ITERATIONS) -> bytes:
    """Derive a 32-byte key from the database user's password.

    Memoised: a peer keeps one salt per process, so the stretch is paid once
    per (password, peer) instead of once per chunk.
    """
    return hashlib.pbkdf2_hmac("sha256", password.encode("utf-8"), salt, iterations)


@functools.cache
def _process_salt() -> bytes:
    """The salt of every blob this process encrypts (nonces stay per message)."""
    return os.urandom(_SALT_BYTES)


def _apply_keystream(data: bytes, key: bytes, nonce: bytes) -> bytes:
    """XOR ``data`` with the SHA-256 counter-mode keystream of (key, nonce)."""
    prefix = key + nonce
    keystream = b"".join([
        hashlib.sha256(prefix + counter.to_bytes(8, "big")).digest()
        for counter in range((len(data) + _BLOCK_BYTES - 1) // _BLOCK_BYTES)
    ])[:len(data)]
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(keystream, "big")
    return mixed.to_bytes(len(keystream), "big")


def encrypt(data: bytes, password: str) -> bytes:
    """Encrypt ``data`` with a key derived from ``password``.

    Output layout: ``MAGIC | salt | nonce | tag | ciphertext``.
    """
    salt = _process_salt()
    nonce = os.urandom(_NONCE_BYTES)
    key = derive_key(password, salt)
    ciphertext = _apply_keystream(data, key, nonce)
    tag = hmac.new(key, nonce + ciphertext, hashlib.sha256).digest()
    return _MAGIC + salt + nonce + tag + ciphertext


def decrypt(blob: bytes, password: str) -> bytes:
    """Reverse :func:`encrypt`; raises :class:`DecryptionError` on a wrong key
    or corrupted payload."""
    header_len = len(_MAGIC) + _SALT_BYTES + _NONCE_BYTES + _TAG_BYTES
    if len(blob) < header_len or not blob.startswith(_MAGIC):
        raise DecryptionError("payload is not a devUDF encrypted blob")
    offset = len(_MAGIC)
    salt = bytes(blob[offset:offset + _SALT_BYTES])
    offset += _SALT_BYTES
    nonce = blob[offset:offset + _NONCE_BYTES]
    offset += _NONCE_BYTES
    tag = blob[offset:offset + _TAG_BYTES]
    offset += _TAG_BYTES
    ciphertext = blob[offset:]
    key = derive_key(password, salt)
    expected = hmac.new(key, nonce + ciphertext, hashlib.sha256).digest()
    if not hmac.compare_digest(tag, expected):
        raise DecryptionError("integrity check failed (wrong password or corrupted data)")
    return _apply_keystream(ciphertext, key, nonce)


def is_encrypted(blob: bytes) -> bool:
    """True when ``blob`` looks like output of :func:`encrypt`."""
    return blob.startswith(_MAGIC)
