"""Password-keyed encryption of extracted debug data.

Paper §2.1/§2.2: "If encryption is requested, the data is encrypted by the
extract function before being transferred using the password of the database
user as a key.  The client then reverses the encryption".

The reproduction implements an authenticated stream cipher from the standard
library only (no external crypto dependency is available offline):

* key derivation: PBKDF2-HMAC-SHA256 over the password with a random
  per-process salt (a fresh random nonce per message),
* keystream: SHAKE-256 of (key, nonce), drawn to the payload's length in one
  call and XORed over it in one operation,
* integrity: HMAC-SHA256 over the magic, nonce and ciphertext
  (encrypt-then-MAC).

Blobs are ``dUE2 | salt | nonce | tag | ciphertext``, the only format
:func:`decrypt` accepts: any other magic, an earlier version's included, raises
:class:`DecryptionError`.  A transfer is decrypted as it arrives and
``input.bin`` is never encrypted, so no blob outlives the process that read it.

This is a faithful stand-in for "encrypt with the user's password": it
round-trips exactly, rejects wrong passwords, and has measurable CPU cost for
the C3 benchmark.  It is **not** intended as production-grade cryptography.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import os

import numpy as np

from ..errors import DecryptionError

_MAGIC = b"dUE2"
_SALT_BYTES = 16
_NONCE_BYTES = 16
_TAG_BYTES = 32
_PBKDF2_ITERATIONS = 2000  # low on purpose: benchmark-friendly, still non-trivial


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


def _shake_keystream(data: bytes, key: bytes, nonce: bytes) -> bytes:
    """XOR ``data`` with the SHAKE-256 keystream of (key, nonce)."""
    keystream = hashlib.shake_256(key + nonce).digest(len(data))
    return np.bitwise_xor(np.frombuffer(data, np.uint8),
                          np.frombuffer(keystream, np.uint8)).tobytes()


def _tag(key: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
    """HMAC-SHA256 of a blob's magic, nonce and ciphertext."""
    mac = hmac.new(key, _MAGIC + nonce, hashlib.sha256)
    mac.update(ciphertext)
    return mac.digest()


def encrypt(data: bytes, password: str) -> bytes:
    """Encrypt the bytes-like ``data`` with a key derived from ``password``.

    Output layout: ``dUE2 | salt | nonce | tag | ciphertext``.
    """
    data = memoryview(data).cast("B")
    salt = _process_salt()
    nonce = os.urandom(_NONCE_BYTES)
    key = derive_key(password, salt)
    ciphertext = _shake_keystream(data, key, nonce)
    tag = _tag(key, nonce, ciphertext)
    return _MAGIC + salt + nonce + tag + ciphertext


def decrypt(blob: bytes, password: str) -> bytes:
    """Reverse :func:`encrypt`; raises :class:`DecryptionError` on a wrong key,
    a corrupted payload or any magic but ``dUE2``."""
    try:
        blob = memoryview(blob).cast("B")
    except TypeError:
        raise DecryptionError("payload is not bytes-like") from None
    header_len = len(_MAGIC) + _SALT_BYTES + _NONCE_BYTES + _TAG_BYTES
    if blob[:len(_MAGIC)] != _MAGIC or len(blob) < header_len:
        raise DecryptionError("payload is not a devUDF encrypted blob")
    offset = len(_MAGIC)
    salt = bytes(blob[offset:offset + _SALT_BYTES])
    offset += _SALT_BYTES
    nonce = bytes(blob[offset:offset + _NONCE_BYTES])
    offset += _NONCE_BYTES
    tag = blob[offset:offset + _TAG_BYTES]
    offset += _TAG_BYTES
    ciphertext = blob[offset:]
    key = derive_key(password, salt)
    if not hmac.compare_digest(tag, _tag(key, nonce, ciphertext)):
        raise DecryptionError("integrity check failed (wrong password or corrupted data)")
    return _shake_keystream(ciphertext, key, nonce)
