"""Server-side user registry and challenge/response authentication.

The devUDF settings dialog (Figure 2) asks for the usual client connection
parameters: host, port, database, user and password.  The server verifies the
password with a salted challenge/response (in the spirit of MonetDB's MAPI
handshake) so that the plaintext password never crosses the wire; the same
password doubles as the encryption key for sensitive data transfers (§2.2).
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import os
from dataclasses import dataclass, field

from ..errors import AuthenticationError


def _password_digest(password: str, salt: bytes) -> bytes:
    return hashlib.pbkdf2_hmac("sha256", password.encode("utf-8"), salt, 5000)


@dataclass
class UserAccount:
    username: str
    salt: bytes
    digest: bytes
    database: str = "demo"


@functools.lru_cache(maxsize=32)
def client_digest(password: str, salt: bytes) -> bytes:
    """What a client derives at login: the proof's key and the transfer key.

    Memoised like :func:`~.encryption.derive_key` — an account keeps its
    salt, so a client pays the stretch once per account, not twice a connect.
    The server verifies against the digest ``add_user`` stored, deriving none.
    """
    return _password_digest(password, salt)


def compute_response(password: str, salt: bytes, challenge: bytes) -> bytes:
    """The client's proof: HMAC(password-digest, challenge)."""
    return hmac.new(client_digest(password, salt), challenge,
                    hashlib.sha256).digest()


@dataclass
class UserRegistry:
    """Registered database accounts, keyed by username."""

    accounts: dict[str, UserAccount] = field(default_factory=dict)

    def add_user(self, username: str, password: str, *, database: str = "demo") -> UserAccount:
        salt = os.urandom(16)
        account = UserAccount(
            username=username,
            salt=salt,
            digest=_password_digest(password, salt),
            database=database,
        )
        self.accounts[username] = account
        return account

    def has_user(self, username: str) -> bool:
        return username in self.accounts

    def challenge_for(self, username: str) -> tuple[bytes, bytes]:
        """Return (salt, fresh challenge) for the login handshake."""
        account = self.accounts.get(username)
        if account is None:
            # Return a decoy salt so user enumeration is not trivially possible;
            # verification will still fail.
            return hashlib.sha256(username.encode()).digest()[:16], os.urandom(16)
        return account.salt, os.urandom(16)

    def verify(self, username: str, challenge: bytes, response: bytes,
               *, database: str | None = None) -> UserAccount:
        """Verify a challenge response; raise on failure."""
        account = self.accounts.get(username)
        if account is None:
            raise AuthenticationError(f"unknown user {username!r}")
        expected = hmac.new(account.digest, challenge, hashlib.sha256).digest()
        if not hmac.compare_digest(expected, response):
            raise AuthenticationError("invalid credentials")
        if database is not None and database != account.database:
            raise AuthenticationError(
                f"user {username!r} has no access to database {database!r}"
            )
        return account
