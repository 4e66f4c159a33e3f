"""Tests for the devUDF settings (Figure 2)."""

import pytest

from repro.core.settings import DataTransferSettings, DevUDFSettings
from repro.errors import SettingsError
from repro.netproto.compression import CODEC_NARROW, CODEC_SHUFFLE


class TestConnectionSettings:
    def test_figure2_fields_present(self):
        """Every connection field of the Figure 2 dialog exists."""
        settings = DevUDFSettings()
        for field_name in ("host", "port", "database", "username", "password",
                           "debug_query"):
            assert hasattr(settings, field_name)

    def test_validate_connection_ok(self):
        DevUDFSettings().validate_connection()

    def test_missing_fields_rejected(self):
        settings = DevUDFSettings(host="", password="")
        with pytest.raises(SettingsError, match="host"):
            settings.validate_connection()

    def test_bad_port_rejected(self):
        with pytest.raises(SettingsError):
            DevUDFSettings(port=0).validate_connection()
        with pytest.raises(SettingsError):
            DevUDFSettings(port=99999).validate_connection()

    def test_debug_requires_query(self):
        settings = DevUDFSettings()
        with pytest.raises(SettingsError, match="debug"):
            settings.validate_for_debug()
        settings.debug_query = "SELECT mean_deviation(i) FROM numbers"
        settings.validate_for_debug()

    def test_connection_info_conversion(self):
        settings = DevUDFSettings(host="dbhost", port=1234, username="alice",
                                  password="pw", database="prod")
        info = settings.connection_info()
        assert (info.host, info.port, info.username, info.database) == \
            ("dbhost", 1234, "alice", "prod")


class TestTransferSettings:
    def test_defaults_are_all_off(self):
        transfer = DataTransferSettings()
        assert not transfer.use_compression
        assert not transfer.use_encryption
        assert not transfer.use_sampling
        # compression off is the wire's default, which narrows integer buffers
        assert transfer.transfer_options().compression == CODEC_NARROW
        assert transfer.sample_spec() is None

    def test_compression_option(self):
        transfer = DataTransferSettings(use_compression=True)
        assert transfer.transfer_options().compression == CODEC_SHUFFLE

    def test_unknown_codec_rejected(self):
        transfer = DataTransferSettings(use_compression=True, compression_codec="lzma")
        with pytest.raises(SettingsError):
            transfer.validate()

    @pytest.mark.parametrize("name", ["Shuffle", "SHUFFLE", "shuffle"])
    def test_codec_name_in_any_case_is_stored_canonical(self, name):
        """``validate()`` used to refuse ``"Shuffle"``,
        which ``compression.compress`` accepts."""
        transfer = DataTransferSettings.from_dict(
            {"use_compression": True, "compression_codec": name})
        transfer.validate()
        assert transfer.compression_codec == CODEC_SHUFFLE
        assert transfer.transfer_options().compression == CODEC_SHUFFLE
        assert transfer.as_dict()["compression_codec"] == CODEC_SHUFFLE

    @pytest.mark.parametrize("name", [None, 3, b"shuffle", "", "shuffle "])
    def test_codec_that_is_no_name_rejected(self, name):
        transfer = DataTransferSettings(use_compression=True, compression_codec=name)
        with pytest.raises(SettingsError):
            transfer.validate()

    def test_sampling_requires_size_or_fraction(self):
        transfer = DataTransferSettings(use_sampling=True)
        with pytest.raises(SettingsError):
            transfer.validate()

    def test_sampling_size_spec(self):
        transfer = DataTransferSettings(use_sampling=True, sample_size=100)
        transfer.validate()
        assert transfer.sample_spec().size == 100

    def test_sampling_fraction_spec(self):
        transfer = DataTransferSettings(use_sampling=True, sample_fraction=0.1,
                                        sample_seed=7)
        spec = transfer.sample_spec()
        assert spec.fraction == 0.1 and spec.seed == 7

    def test_invalid_sampling_values(self):
        with pytest.raises(SettingsError):
            DataTransferSettings(use_sampling=True, sample_size=0).validate()
        with pytest.raises(SettingsError):
            DataTransferSettings(use_sampling=True, sample_fraction=2.0).validate()

    def test_encryption_flag_propagates(self):
        transfer = DataTransferSettings(use_encryption=True)
        assert transfer.transfer_options().encrypt is True


class TestSerialisation:
    def test_round_trip_through_dict(self):
        settings = DevUDFSettings(
            host="h", port=1111, database="db", username="u", password="p",
            debug_query="SELECT f(i) FROM t",
            transfer=DataTransferSettings(use_compression=True, use_sampling=True,
                                          sample_fraction=0.5),
        )
        clone = DevUDFSettings.from_dict(settings.as_dict())
        assert clone.as_dict() == settings.as_dict()

    def test_describe_mentions_options(self):
        settings = DevUDFSettings(
            transfer=DataTransferSettings(use_compression=True, use_encryption=True,
                                          use_sampling=True, sample_size=500))
        text = settings.describe()
        assert "compression" in text and "encryption" in text and "500" in text
