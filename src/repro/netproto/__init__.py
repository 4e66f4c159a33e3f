"""``repro.netproto`` — the client protocol the devUDF plugin connects through.

A length-prefixed binary protocol (the JDBC stand-in) with challenge/response
authentication and the three transfer options the paper's settings dialog
exposes: compression, encryption with the user's password, and server-side
uniform sampling.
"""

from .auth import UserRegistry, compute_response
from .chaos import ChaosProxy, FaultSpec, FaultyTransport
from .client import (
    ClientStats,
    Connection,
    ConnectionInfo,
    Cursor,
    RetryPolicy,
    TransferOptions,
    is_idempotent_statement,
)
from .compression import (
    CODEC_NARROW,
    CODEC_NONE,
    CODEC_SHUFFLE,
    CODEC_ZLIB,
    available_codecs,
    compress,
    compression_ratio,
    decompress,
)
from .columnar import ChunkEncoder, decode_chunk, encode_result_chunk
from .encryption import decrypt, derive_key, encrypt
from .messages import (
    DEFAULT_CHUNK_ROWS,
    PROTOCOL_VERSION,
    ColumnarResultAssembler,
    TransferStats,
    result_messages,
)
from .sampling import SampleSpec, sample_columns, sample_indices
from .server import (
    AdmissionController,
    AsyncSocketServer,
    DatabaseServer,
    InProcessTransport,
    ServerLimits,
    Session,
    SocketTransport,
)

__all__ = [
    "AdmissionController",
    "AsyncSocketServer",
    "CODEC_NARROW",
    "CODEC_NONE",
    "CODEC_SHUFFLE",
    "CODEC_ZLIB",
    "ChaosProxy",
    "ChunkEncoder",
    "ClientStats",
    "ColumnarResultAssembler",
    "DEFAULT_CHUNK_ROWS",
    "FaultSpec",
    "FaultyTransport",
    "PROTOCOL_VERSION",
    "decode_chunk",
    "encode_result_chunk",
    "Connection",
    "ConnectionInfo",
    "Cursor",
    "DatabaseServer",
    "InProcessTransport",
    "RetryPolicy",
    "SampleSpec",
    "ServerLimits",
    "Session",
    "SocketTransport",
    "TransferOptions",
    "TransferStats",
    "UserRegistry",
    "is_idempotent_statement",
    "available_codecs",
    "compress",
    "compression_ratio",
    "compute_response",
    "decompress",
    "decrypt",
    "derive_key",
    "encrypt",
    "result_messages",
    "sample_columns",
    "sample_indices",
]
