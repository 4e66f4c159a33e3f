"""C1 — §2.1 claim: "compressing the data during the transfer, leading to
faster transfer times".

Sweeps data sizes and codecs, measuring real bytes-on-the-wire through the
client protocol and the serialisation/compression time.  The shape that must
hold: compression shrinks the transfer substantially on the demo-style data,
and the saving grows with the data size; at realistic network bandwidths the
end-to-end (compress + transfer) time therefore drops.

The claim is about *time*, so bytes alone do not settle it: a codec that
takes longer than the bytes it saves would have taken to send makes the
transfer slower.  ``test_claim_compress_plus_transfer_beats_plain`` therefore
charges every codec its own time (the query's time with the codec minus the
same query's time with ``none``: compress on the server plus decompress on
the client) on top of bytes ÷ bandwidth, reports the crossover bandwidth
below which compressing wins, and asserts the claim for the codec the
settings dialog turns on; the ``zlib`` row is printed beside it.
"""

import time

import numpy as np
import pytest
from conftest import report

from repro.core.settings import DataTransferSettings
from repro.netproto.client import Connection, TransferOptions
from repro.netproto.compression import (
    CODEC_NONE,
    CODEC_SHUFFLE,
    CODEC_ZLIB,
)
from repro.netproto.server import DatabaseServer
from repro.sqldb.database import Database

CODECS = [CODEC_NONE, CODEC_ZLIB, CODEC_SHUFFLE]
#: what ticking "compress" in the settings dialog selects
DEFAULT_CODEC = DataTransferSettings().compression_codec

#: Simulated link bandwidths (bytes/second) used to convert bytes saved into
#: transfer-time saved (the paper's claim is about transfer times).
BANDWIDTHS = {"10 Mbit/s": 1.25e6, "100 Mbit/s": 12.5e6}

ROW_COUNTS = [1_000, 10_000]


@pytest.fixture(scope="module")
def transfer_server():
    database = Database()
    database.execute("CREATE TABLE readings (i INTEGER, station STRING, value DOUBLE)")
    table = database.storage.table("readings")
    for index in range(max(ROW_COUNTS)):
        table.insert_row([index % 100, f"station_{index % 7}", (index % 100) * 0.25])
    # the e2e benchmark's column (benchmarks/e2e/wl_devudf.py, seed 1): values
    # with no repetition to find, only three high bytes that are always zero
    database.execute("CREATE TABLE numbers (i INTEGER)")
    database.storage.table("numbers").column("i").extend(
        np.random.default_rng(1).integers(0, 100_000, 16_000).tolist())
    return DatabaseServer(database)


@pytest.fixture(scope="module")
def results_table():
    rows: list[dict] = []
    yield rows
    report("C1: bytes on the wire and estimated transfer times", rows)


@pytest.mark.parametrize("rows", ROW_COUNTS)
@pytest.mark.parametrize("codec", CODECS)
def test_compression_sweep(benchmark, transfer_server, results_table, rows, codec):
    connection = Connection.connect_in_process(transfer_server)
    options = TransferOptions(compression=codec)
    sql = f"SELECT * FROM readings WHERE i >= 0 LIMIT {rows}"

    def query_with_codec():
        return connection.execute(sql, options=options)

    result = benchmark(query_with_codec)
    transfer = connection.stats.last_transfer
    entry = {
        "rows": rows,
        "codec": codec,
        "raw_bytes": transfer.raw_bytes,
        "wire_bytes": transfer.wire_bytes,
        "compression_ratio": round(transfer.compression_ratio, 2),
    }
    for label, bandwidth in BANDWIDTHS.items():
        entry[f"transfer_s @{label}"] = round(transfer.wire_bytes / bandwidth, 4)
    results_table.append(entry)
    benchmark.extra_info.update(entry)

    assert result.row_count == rows
    if codec in (CODEC_ZLIB, CODEC_SHUFFLE):
        # the paper's claim: compressed transfers are much smaller
        assert transfer.wire_bytes < transfer.raw_bytes / 3
    if codec == CODEC_NONE:
        assert transfer.wire_bytes >= transfer.raw_bytes
    connection.close()


def test_compression_benefit_grows_with_size(benchmark, transfer_server):
    """The crossover shape: the absolute saving grows with the result size."""
    connection = Connection.connect_in_process(transfer_server)

    def measure_savings():
        savings = []
        for rows in ROW_COUNTS:
            sql = f"SELECT * FROM readings LIMIT {rows}"
            connection.execute(sql, options=TransferOptions(compression=CODEC_NONE))
            plain = connection.stats.last_transfer.wire_bytes
            connection.execute(sql, options=TransferOptions(compression=CODEC_ZLIB))
            compressed = connection.stats.last_transfer.wire_bytes
            savings.append(plain - compressed)
        return savings

    savings = benchmark.pedantic(measure_savings, rounds=1, iterations=1)
    report("C1: absolute bytes saved by zlib", dict(zip(ROW_COUNTS, savings)))
    assert savings[-1] > savings[0] > 0
    connection.close()


def _timed_transfer(connection, sql, codec, repeats=9):
    """(best-of-``repeats`` milliseconds, TransferStats) for one query, server
    encode and client decode included (in process: no link time at all)."""
    options = TransferOptions(compression=codec)
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        connection.execute(sql, options=options)
        best = min(best, time.perf_counter() - started)
    return best * 1e3, connection.stats.last_transfer


def _claim_table(connection, sql):
    """codec -> row: codec time, bytes, codec time + bytes ÷ bandwidth per
    link, and the bandwidth below which the codec beats ``none``."""
    plain_ms, plain = _timed_transfer(connection, sql, CODEC_NONE)
    table = {}
    for codec in CODECS:
        query_ms, transfer = (plain_ms, plain) if codec == CODEC_NONE \
            else _timed_transfer(connection, sql, codec)
        codec_ms = max(query_ms - plain_ms, 0.0)
        saved = plain.wire_bytes - transfer.wire_bytes
        row = {"codec": codec, "wire_bytes": transfer.wire_bytes,
               "ratio": round(transfer.compression_ratio, 2),
               "codec_ms": round(codec_ms, 2)}
        for label, bandwidth in BANDWIDTHS.items():
            row[f"codec+transfer_ms @{label}"] = round(
                codec_ms + transfer.wire_bytes / bandwidth * 1e3, 2)
        if codec != CODEC_NONE:
            row["wins_below_mbit_s"] = "never" if saved <= 0 else \
                "any" if codec_ms == 0 else round(saved * 8 / codec_ms / 1e3, 1)
        table[codec] = row
    return table


@pytest.mark.parametrize("label,sql", [
    ("readings, 10 000 rows", "SELECT * FROM readings LIMIT 10000"),
    ("e2e benchmark column, 16 000 rows", "SELECT i FROM numbers"),
], ids=["readings", "e2e_column"])
def test_claim_compress_plus_transfer_beats_plain(benchmark, transfer_server,
                                                  label, sql):
    """§2.1 in its own terms: at 100 Mbit/s, compressing with the default codec
    and sending fewer bytes takes less time than sending them plain."""
    connection = Connection.connect_in_process(transfer_server)
    table = benchmark.pedantic(_claim_table, args=(connection, sql),
                               rounds=1, iterations=1)
    report(f"C1: codec time + bytes / bandwidth ({label})", list(table.values()))
    at_100 = {codec: row["codec+transfer_ms @100 Mbit/s"]
              for codec, row in table.items()}
    report(f"C1: claim at 100 Mbit/s ({label})", {
        codec: f"{at_100[codec]} ms vs {at_100[CODEC_NONE]} ms plain -> "
               f"{'met' if at_100[codec] < at_100[CODEC_NONE] else 'NOT met'}"
        for codec in (DEFAULT_CODEC, CODEC_ZLIB)})
    assert DEFAULT_CODEC == CODEC_SHUFFLE
    assert at_100[DEFAULT_CODEC] < at_100[CODEC_NONE]
    assert table[DEFAULT_CODEC]["wire_bytes"] <= table[CODEC_ZLIB]["wire_bytes"]
    connection.close()
