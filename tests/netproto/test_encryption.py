"""Tests for the password-keyed encryption of extracted data (paper §2.1-2.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecryptionError
from repro.netproto import encryption
from repro.netproto.encryption import decrypt, derive_key, encrypt, is_encrypted


class TestRoundTrip:
    @pytest.mark.parametrize("payload", [b"", b"x", b"secret data" * 100, bytes(range(256))])
    def test_encrypt_decrypt(self, payload):
        blob = encrypt(payload, "monetdb")
        assert decrypt(blob, "monetdb") == payload

    def test_ciphertext_differs_from_plaintext(self):
        payload = b"sensitive customer records"
        blob = encrypt(payload, "password")
        assert payload not in blob

    def test_encryption_is_randomised(self):
        payload = b"same payload"
        assert encrypt(payload, "pw") != encrypt(payload, "pw")

    def test_is_encrypted_detector(self):
        assert is_encrypted(encrypt(b"data", "pw"))
        assert not is_encrypted(b"plain bytes")


class TestFrozenLayout:
    """``dUE1 | salt | nonce | tag | ciphertext`` is a wire and blob format."""

    PAYLOAD = bytes((i * 7 + 3) % 256 for i in range(77))
    SALT = bytes(range(16))
    NONCE = bytes(range(16, 32))
    #: produced by the byte-at-a-time implementation this one replaced
    GOLDEN = (
        "64554531000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
        "13908ceac67df731488675041ce578b0c3920ad02b697beaa702b07474db3f8152b552d8"
        "2240f49a70ac1030e6fc2bf338922d72606ab8450843f081d9a85b03414f1a54c5b6be43"
        "55449e04c2f13a2ee79d852ddb95e27f949c2b2a11a88da9344bdd2ff6f28d4eb01d22a6"
        "9c"
    )

    def test_golden_vector(self, monkeypatch):
        draws = iter([self.SALT, self.NONCE])
        monkeypatch.setattr(encryption.os, "urandom", lambda size: next(draws))
        encryption._process_salt.cache_clear()
        try:
            blob = encrypt(self.PAYLOAD, "monetdb")
        finally:
            encryption._process_salt.cache_clear()
        assert blob.hex() == self.GOLDEN
        assert blob[:4] == b"dUE1" and blob[4:20] == self.SALT and blob[20:36] == self.NONCE

    def test_blob_of_the_old_implementation_still_decrypts(self):
        assert decrypt(bytes.fromhex(self.GOLDEN), "monetdb") == self.PAYLOAD

    def test_one_salt_per_process_fresh_nonce_per_message(self):
        first, second = encrypt(b"same payload", "pw"), encrypt(b"same payload", "pw")
        assert first[4:20] == second[4:20]
        assert first[20:36] != second[20:36]
        assert first[68:] != second[68:]

    @pytest.mark.parametrize("size", [0, 1, 33, 1 << 20])
    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_round_trip_of_bytes_like_inputs(self, size, kind):
        payload = bytes(i * 31 % 251 for i in range(size))
        blob = encrypt(kind(payload), "monetdb")
        assert len(blob) == 68 + size
        assert decrypt(blob, "monetdb") == payload
        assert decrypt(bytearray(blob), "monetdb") == payload

    def test_flipped_byte_anywhere_rejected(self):
        blob = encrypt(b"the data" * 8, "pw")
        for position in (4, 20, 36, 68, len(blob) - 1):  # salt, nonce, tag, body
            tampered = bytearray(blob)
            tampered[position] ^= 0x01
            with pytest.raises(DecryptionError):
                decrypt(bytes(tampered), "pw")

    def test_derive_key_is_memoised_per_password_salt_and_iterations(self):
        assert derive_key("pw", b"salt", iterations=10) != derive_key("pw", b"salt")
        hits = derive_key.cache_info().hits
        derive_key("pw", b"salt")
        assert derive_key.cache_info().hits == hits + 1


class TestKeying:
    def test_wrong_password_rejected(self):
        blob = encrypt(b"the data", "correct horse")
        with pytest.raises(DecryptionError):
            decrypt(blob, "battery staple")

    def test_tampered_ciphertext_rejected(self):
        blob = bytearray(encrypt(b"the data", "pw"))
        blob[-1] ^= 0xFF
        with pytest.raises(DecryptionError):
            decrypt(bytes(blob), "pw")

    def test_truncated_blob_rejected(self):
        with pytest.raises(DecryptionError):
            decrypt(b"dUE1short", "pw")

    def test_not_a_blob_rejected(self):
        with pytest.raises(DecryptionError):
            decrypt(b"completely unrelated bytes", "pw")

    def test_derive_key_depends_on_salt_and_password(self):
        assert derive_key("pw", b"salt1") != derive_key("pw", b"salt2")
        assert derive_key("pw1", b"salt") != derive_key("pw2", b"salt")
        assert derive_key("pw", b"salt") == derive_key("pw", b"salt")
        assert len(derive_key("pw", b"salt")) == 32


class TestEncryptionProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.binary(max_size=2000), st.text(min_size=1, max_size=30))
    def test_roundtrip_property(self, payload, password):
        assert decrypt(encrypt(payload, password), password) == payload

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=1, max_size=500),
           st.text(min_size=1, max_size=20), st.text(min_size=1, max_size=20))
    def test_wrong_password_property(self, payload, password, other):
        if password == other:
            return
        with pytest.raises(DecryptionError):
            decrypt(encrypt(payload, password), other)
