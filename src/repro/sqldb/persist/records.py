"""Logical WAL/catalog record helpers shared by the executor and the store.

The executor imports these helpers only inside its WAL paths, which run on
a persistent database, whose store has loaded the wire stack already — so
the codec layer imported here adds no import cycle (``netproto.server``
imports the database).  The byte-level encoding of records lives in
:mod:`repro.sqldb.persist.wal`.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ...errors import PersistenceError
from ...netproto import compression
from ..schema import ColumnDef, FunctionParameter, FunctionSignature, TableSchema
from ..types import ColumnType, SQLType


# --------------------------------------------------------------------------- #
# schema + function-signature records
# --------------------------------------------------------------------------- #
def schema_to_record(schema: TableSchema) -> dict[str, Any]:
    return {
        "name": schema.name,
        "columns": [[col.name, col.sql_type.value, col.col_type.nullable]
                    for col in schema.columns],
    }


def schema_from_record(record: dict[str, Any]) -> TableSchema:
    try:
        columns = [
            ColumnDef(name, ColumnType(SQLType(type_name), bool(nullable)))
            for name, type_name, nullable in record["columns"]
        ]
        return TableSchema(str(record["name"]), columns)
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(f"invalid table schema record: {exc}") from exc


def signature_to_record(signature: FunctionSignature) -> dict[str, Any]:
    return {
        "name": signature.name,
        "parameters": [[p.name, p.sql_type.value, p.number]
                       for p in signature.parameters],
        "returns_table": signature.returns_table,
        "return_columns": [[c.name, c.sql_type.value, c.col_type.nullable]
                           for c in signature.return_columns],
        "return_type": signature.return_type.value
        if signature.return_type is not None else None,
        "language": signature.language,
        "body": signature.body,
    }


def signature_from_record(record: dict[str, Any]) -> FunctionSignature:
    try:
        return FunctionSignature(
            name=str(record["name"]),
            parameters=[FunctionParameter(name, SQLType(type_name), int(number))
                        for name, type_name, number in record["parameters"]],
            returns_table=bool(record["returns_table"]),
            return_columns=[
                ColumnDef(name, ColumnType(SQLType(type_name), bool(nullable)))
                for name, type_name, nullable in record["return_columns"]
            ],
            return_type=SQLType(record["return_type"])
            if record["return_type"] is not None else None,
            language=str(record["language"]),
            body=str(record["body"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(f"invalid function signature record: {exc}") from exc


# --------------------------------------------------------------------------- #
# row-mask packing (DELETE keep-masks)
# --------------------------------------------------------------------------- #
def pack_mask(mask: Sequence[bool]) -> bytes:
    """Pack a boolean row mask into a compressed bitmap for a WAL record (one
    byte lane: DEFLATE, so a run of n rows costs tens of bytes, not n / 8)."""
    return compression.compress(np.packbits(np.asarray(mask, dtype=bool)),
                                compression.CODEC_SHUFFLE)


def unpack_mask(data: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`pack_mask` (``count`` restores the exact length)."""
    bitmap = np.frombuffer(compression.decompress(data), dtype=np.uint8)
    return np.unpackbits(bitmap, count=count).astype(bool)
