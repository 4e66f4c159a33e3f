"""Packaging extracted input data into the local ``input.bin`` blob.

Listing 2 shows the generated file loading its inputs with
``pickle.load(open('./input.bin', 'rb'))``.  This module writes that blob from
an :class:`~repro.core.extract.ExtractedInputs` -- exactly the pickle Listing 2
loads, nothing wrapped around it -- and reads it back.  Compression and
encryption protect the data on the *transfer* (paper §2.1-2.2), not the local
copy.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from ..errors import ExtractionError
from .extract import ExtractedInputs

#: Key under which loopback replay data is stored inside the blob.
LOOPBACK_KEY = "_loopback"


@dataclass
class InputBlobStats:
    """Size accounting for one written input blob."""

    path: Path
    stored_bytes: int
    parameters: int
    loopback_queries: int


def build_input_parameters(inputs: ExtractedInputs) -> dict[str, Any]:
    """The ``input_parameters`` dictionary the generated file loads."""
    payload: dict[str, Any] = {}
    for name, value in inputs.parameters.items():
        payload[name] = _to_plain(value)
    if inputs.loopback:
        payload[LOOPBACK_KEY] = {
            query: {column: _to_plain(values) for column, values in columns.items()}
            for query, columns in inputs.loopback.items()
        }
    return payload


def _to_plain(value: Any) -> Any:
    """Keep numpy arrays (the UDF-facing format) but normalise other values."""
    if isinstance(value, np.ndarray):
        return value
    if isinstance(value, (list, tuple)):
        try:
            return np.array(value)
        except (ValueError, TypeError):
            return list(value)
    if isinstance(value, np.generic):
        return value.item()
    return value


def write_input_blob(inputs: ExtractedInputs, path: str | Path) -> InputBlobStats:
    """Write ``input.bin`` for a debug run; returns size statistics."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    pickled = pickle.dumps(build_input_parameters(inputs), protocol=pickle.HIGHEST_PROTOCOL)
    target.write_bytes(pickled)
    return InputBlobStats(
        path=target,
        stored_bytes=len(pickled),
        parameters=len(inputs.parameters),
        loopback_queries=len(inputs.loopback),
    )


def read_input_blob(path: str | Path) -> dict[str, Any]:
    """Read an ``input.bin`` written by :func:`write_input_blob`; a missing,
    corrupt or truncated blob raises :class:`ExtractionError`."""
    source = Path(path)
    if not source.exists():
        raise ExtractionError(f"input blob {source} does not exist")
    try:
        payload = pickle.loads(source.read_bytes())
    except Exception as exc:  # unpickling raises far more than UnpicklingError
        raise ExtractionError(f"input blob {source} is corrupt: {exc}") from exc
    if not isinstance(payload, dict):
        raise ExtractionError("input blob does not contain a parameter dictionary")
    return payload
