"""Tests for the password-keyed encryption of extracted data (paper §2.1-2.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecryptionError
from repro.netproto import encryption
from repro.netproto.encryption import decrypt, derive_key, encrypt


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

    @pytest.mark.parametrize("payload", [42, None, "dUE2 text", memoryview(b"dUE2")])
    def test_what_is_not_a_blob_raises_only_decryption_error(self, payload):
        with pytest.raises(DecryptionError):
            decrypt(payload, "pw")


class TestFrozenLayout:
    """``dUE2 | salt | nonce | tag | ciphertext`` is a wire and blob format;
    ``dUE1`` blobs (SHA-256 counter keystream) are refused."""

    PAYLOAD = bytes((i * 7 + 3) % 256 for i in range(77))
    SALT = bytes(range(16))
    NONCE = bytes(range(16, 32))
    #: ``dUE2``: SHAKE-256(key | nonce) XOR payload,
    #: HMAC-SHA256(magic | nonce | ciphertext)
    GOLDEN_SHAKE = (
        "64554532000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
        "34a91422f5100926c273923b07a5cf3e8e07772cff5ff3feb8d6194ab6be455d2bf69831"
        "1a812a19b54223ccad87d52a8bfc25a5fa4f791cabc2559f96ba38e73c20fe849d887026"
        "27ff104a5c1928a5f554c142bf82c6fad1f647517881bbcd78582457171f9c66dc15e432"
        "4f"
    )
    #: ``dUE1``: recorded from the byte-at-a-time implementation, which the
    #: SHA-256 counter keystream that followed it reproduced; a refusal vector
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
        assert blob.hex() == self.GOLDEN_SHAKE
        assert blob[:4] == b"dUE2" and blob[4:20] == self.SALT and blob[20:36] == self.NONCE
        assert decrypt(blob, "monetdb") == self.PAYLOAD

    def test_blob_of_the_old_implementation_is_refused(self):
        with pytest.raises(DecryptionError):
            decrypt(bytes.fromhex(self.GOLDEN), "monetdb")

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
        assert decrypt(kind(blob), "monetdb") == payload

    def test_flipped_byte_anywhere_rejected(self):
        blob = encrypt(b"the data" * 8, "monetdb")
        assert decrypt(blob, "monetdb")
        # magic, salt, nonce, tag, body
        for position in (0, 3, 4, 20, 36, 68, len(blob) - 1):
            tampered = bytearray(blob)
            tampered[position] ^= 0x01
            with pytest.raises(DecryptionError):
                decrypt(bytes(tampered), "monetdb")

    def test_blob_relabelled_as_the_other_version_rejected(self):
        """A ``dUE2`` blob relabelled ``dUE1`` (``'2' ^ 3 == '1'``: a two-bit
        change) is refused."""
        relabelled = bytearray(encrypt(b"the data" * 8, "monetdb"))
        relabelled[3] ^= 0x03
        assert bytes(relabelled[:4]) == b"dUE1"
        with pytest.raises(DecryptionError):
            decrypt(bytes(relabelled), "monetdb")

    def test_magic_of_neither_version_rejected(self):
        blob = bytearray(encrypt(b"the data", "pw"))
        blob[3:4] = b"3"
        with pytest.raises(DecryptionError):
            decrypt(bytes(blob), "pw")

    @pytest.mark.parametrize("magic", [b"dUE0", b"dUE1", b"dUE3", b"DUE2", b"due2",
                                       b"\x00\x00\x00\x00"])
    def test_only_the_dUE2_magic_is_accepted(self, magic):
        blob = encrypt(b"the data" * 8, "monetdb")
        with pytest.raises(DecryptionError, match="not a devUDF encrypted blob"):
            decrypt(magic + blob[4:], "monetdb")

    @pytest.mark.parametrize("length", [0, 4, 20, 36, 67, 68])
    def test_blob_cut_at_a_header_boundary_rejected(self, length):
        """Cut in the magic, after it, after the salt, after the nonce, one
        byte short of the tag, and with the ciphertext gone."""
        blob = encrypt(b"the data" * 8, "monetdb")
        with pytest.raises(DecryptionError):
            decrypt(blob[:length], "monetdb")

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
