"""devUDF plugin settings (the Settings window, Figure 2).

The paper's settings dialog collects:

* the usual database client connection parameters — host, port, database,
  user, password (§2.1);
* the SQL query which executes the to-be-debugged UDF (§2.1, "This SQL query
  must be specified in the Settings menu");
* the data-transfer options — compression, a uniform random sample size, and
  optional encryption (§2.1-2.2).

Settings are serialisable to/from a dict so they can be persisted in the IDE
project (``.devudf/settings.json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..errors import SettingsError
from ..netproto.client import ConnectionInfo, TransferOptions
from ..netproto.compression import CODEC_NARROW, CODEC_SHUFFLE, available_codecs
from ..netproto.sampling import SampleSpec


@dataclass
class DataTransferSettings:
    """The transfer-option block of the settings dialog."""

    #: compress the extracted data on the wire (paper: "faster transfer times")
    use_compression: bool = False
    compression_codec: str = CODEC_SHUFFLE
    #: encrypt the extracted data with the user's password (paper: sensitive data)
    use_encryption: bool = False
    #: debug on a uniform random sample instead of the full input
    use_sampling: bool = False
    sample_size: int | None = None
    sample_fraction: float | None = None
    sample_seed: int | None = 42

    def validate(self) -> None:
        if self.use_compression and self.compression_codec not in available_codecs():
            raise SettingsError(
                f"unknown compression codec {self.compression_codec!r}; "
                f"available: {available_codecs()}"
            )
        if self.use_sampling:
            if self.sample_size is None and self.sample_fraction is None:
                raise SettingsError("sampling enabled but no sample size/fraction given")
            if self.sample_size is not None and self.sample_size <= 0:
                raise SettingsError("sample size must be positive")
            if self.sample_fraction is not None and not 0.0 < self.sample_fraction <= 1.0:
                raise SettingsError("sample fraction must be in (0, 1]")

    def sample_spec(self) -> SampleSpec | None:
        if not self.use_sampling:
            return None
        if self.sample_size is not None:
            return SampleSpec(size=self.sample_size, seed=self.sample_seed)
        return SampleSpec(fraction=self.sample_fraction, seed=self.sample_seed)

    def transfer_options(self) -> TransferOptions:
        return TransferOptions(
            compression=self.compression_codec if self.use_compression else CODEC_NARROW,
            encrypt=self.use_encryption,
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "use_compression": self.use_compression,
            "compression_codec": self.compression_codec,
            "use_encryption": self.use_encryption,
            "use_sampling": self.use_sampling,
            "sample_size": self.sample_size,
            "sample_fraction": self.sample_fraction,
            "sample_seed": self.sample_seed,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DataTransferSettings":
        return cls(**{key: data[key] for key in cls().as_dict() if key in data})


@dataclass
class DevUDFSettings:
    """Everything the Settings window (Figure 2) collects."""

    host: str = "localhost"
    port: int = 50000
    database: str = "demo"
    username: str = "monetdb"
    password: str = "monetdb"
    #: the SQL query that executes the UDF being debugged (Figure 2)
    debug_query: str = ""
    transfer: DataTransferSettings = field(default_factory=DataTransferSettings)

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    REQUIRED_CONNECTION_FIELDS = ("host", "port", "database", "username", "password")

    def validate_connection(self) -> None:
        missing = [
            name for name in self.REQUIRED_CONNECTION_FIELDS
            if not getattr(self, name) and getattr(self, name) != 0
        ]
        if missing:
            raise SettingsError(f"missing connection settings: {missing}")
        if not isinstance(self.port, int) or not 0 < self.port < 65536:
            raise SettingsError(f"port must be in 1..65535, got {self.port!r}")

    def validate_for_debug(self) -> None:
        """Debugging additionally needs the SQL query that calls the UDF."""
        self.validate_connection()
        if not self.debug_query.strip():
            raise SettingsError(
                "no debug query configured: the SQL query which executes the "
                "to-be-debugged UDF must be specified in the Settings menu"
            )
        self.transfer.validate()

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    def connection_info(self) -> ConnectionInfo:
        return ConnectionInfo(
            host=self.host,
            port=self.port,
            database=self.database,
            username=self.username,
            password=self.password,
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "host": self.host,
            "port": self.port,
            "database": self.database,
            "username": self.username,
            "password": self.password,
            "debug_query": self.debug_query,
            "transfer": self.transfer.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DevUDFSettings":
        transfer = DataTransferSettings.from_dict(data.get("transfer", {}))
        kwargs = {key: data[key] for key in
                  ("host", "port", "database", "username", "password", "debug_query")
                  if key in data}
        return cls(transfer=transfer, **kwargs)

    def describe(self) -> str:
        """One-line summary shown in the IDE status bar."""
        sample = ""
        if self.transfer.use_sampling:
            if self.transfer.sample_size is not None:
                sample = f", sample={self.transfer.sample_size} rows"
            else:
                sample = f", sample={self.transfer.sample_fraction:.0%}"
        options = []
        if self.transfer.use_compression:
            options.append(f"compression={self.transfer.compression_codec}")
        if self.transfer.use_encryption:
            options.append("encryption")
        option_text = f" [{', '.join(options)}{sample}]" if (options or sample) else ""
        return f"{self.username}@{self.host}:{self.port}/{self.database}{option_text}"
