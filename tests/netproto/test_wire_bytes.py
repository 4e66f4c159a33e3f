"""The result wire is pinned byte for byte, and a result ends at ``last``.

The wire sibling of ``tests/sqldb/test_durable_bytes.py``.  ``PINNED`` was
recorded by running this file as a script on the commit *before* the wire
dialects v1-v3 and the counted completion rule were deleted (8a5840a), from a
default (then v4) ``connect_in_process`` client: per query shape, server
``result_chunk_rows`` and codec, the SHA-256 of the concatenated
``result_chunk`` payloads plus the ``TransferStats`` totals.  How a result is
framed may change; the chunk payload bytes for the same query, chunk size,
codec and key may not — they are what ``io_bytes_per_op`` counts.  The
``none`` rows pin a client that names ``none``; the default codec's rows are
keyed by its name (``narrow``) and measured from a client that names none.
The ``narrow`` rows were re-recorded twice, on purpose: when the codec gained
its stride and decimal forms, and when it gained its frame of reference in
bits; every other row is unchanged.

An encrypted payload carries a random nonce, so with ``encrypt`` on the digest
is taken over the *decrypted* payloads (which must equal the plain digest) and
the encrypted ``wire_bytes`` total is pinned next to the plain one.
"""

import hashlib

import pytest

from repro.errors import ExecutionError
from repro.netproto import encryption
from repro.netproto.client import Connection, ConnectionInfo, TransferOptions
from repro.netproto.server import (
    AsyncSocketServer,
    DatabaseServer,
    SocketTransport,
)

ROWS = 200

#: (server chunk rows, codec) -> case -> (payload sha256, chunks, raw bytes,
#: wire bytes in the clear, wire bytes encrypted)
PINNED = {
    (7, "none"): {
        "streamed": (
            "dff96acbaf3d7a73adf1a9a7817642d2d59f63614c11cde30434426e09b2662c",
            29, 10186, 13014, 14986),
        "group_by": (
            "d4e714bfc4f8b70f3b33c3632ace45b995fb516d8b82b6ce833de81b54fa910d",
            29, 8162, 10413, 12385),
        "sorted": (
            "b66c177c0d299a851f6f2b2ff5e5c438940035045165129057c681a9f1ccab60",
            29, 9354, 12062, 14034),
        "prepared": (
            "3ddcbf74d8cadfae53974a515b3bb4a36d3089b41d18118e29bb5451fcfc51d0",
            26, 7357, 9246, 11014),
        "empty_streamed": (
            "ea4eac6cb9834603c1faf3256e6ff7b25d3e9b7b967e277d978b4dadab8ad42f",
            1, 4, 43, 111),
        "empty_materialised": (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            0, 0, 0, 0),
        "insert": (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            0, 0, 0, 0),
    },
    (7, "zlib"): {
        "streamed": (
            "5761ac5158bd789b95e7fc5792d8716a668bc1156fa8646bad5b587184d27671",
            29, 10186, 9449, 11421),
        "group_by": (
            "b763a2ad00f84235bcb9273023363130f2cbe8bfc6a69f6235e5b7688aaaee45",
            29, 8162, 6557, 8529),
        "sorted": (
            "5b943e0312f751552a8850aa41208f7dff1071d87d0b9b20467ed07ecba1c322",
            29, 9354, 8577, 10549),
        "prepared": (
            "2dd0e7f2c924e3d6ff5692003608026132d3fb984bbe40660a16201576e0338e",
            26, 7357, 6135, 7903),
        "empty_streamed": (
            "e78f453cac4ccc1df8a5994730c065095085e4b9b7cef22e3b8922435ed71570",
            1, 4, 67, 135),
        "empty_materialised": (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            0, 0, 0, 0),
        "insert": (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            0, 0, 0, 0),
    },
    (65536, "none"): {
        "streamed": (
            "eb77b95d695968b21c5e7e6203e4ff7ce6e18701b0fea5b7d6b1c89a9fa2be6b",
            1, 9004, 9183, 9251),
        "group_by": (
            "af146cfde01cf672b60e54c8aab4221b6d4a3e56cedcce317c3df3cfe3e07fd7",
            1, 8050, 8187, 8255),
        "sorted": (
            "f4561423f19c61fbad86510743314d95ae3f3f82b1a196891517e74d9ca44608",
            1, 9130, 9309, 9377),
        "prepared": (
            "9b70ee0b7e6092ae2ae511f898857aa57bcb94d9933a158bde9cb6184c8ea32d",
            1, 7257, 7385, 7453),
        "empty_streamed": (
            "ea4eac6cb9834603c1faf3256e6ff7b25d3e9b7b967e277d978b4dadab8ad42f",
            1, 4, 43, 111),
        "empty_materialised": (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            0, 0, 0, 0),
        "insert": (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            0, 0, 0, 0),
    },
    (65536, "zlib"): {
        "streamed": (
            "61002bb6d2a3ad30dfda4f9ba13c906f1a196eb2f1e9d8d944abbe9094f1fc24",
            1, 9004, 2456, 2524),
        "group_by": (
            "6490baaac3e6aff521eebd5724c4f4302f08e539bf59fd4a941b24ea011107a1",
            1, 8050, 1546, 1614),
        "sorted": (
            "6ad128241c3863447353fc1975284af78e976676c1c619abb79fb230a703f89f",
            1, 9130, 2462, 2530),
        "prepared": (
            "f9a4057cd74e3ccd1e76232e89a24ff2392f049de2d06b8e02598f896d97e692",
            1, 7257, 1704, 1772),
        "empty_streamed": (
            "e78f453cac4ccc1df8a5994730c065095085e4b9b7cef22e3b8922435ed71570",
            1, 4, 67, 135),
        "empty_materialised": (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            0, 0, 0, 0),
        "insert": (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            0, 0, 0, 0),
    },
    # codec 3 (``shuffle``), recorded on the commit that added it; the rows
    # above were not touched
    (7, "shuffle"): {
        "streamed": (
            "22dd4a5fb32facd8587990556ad6c9d2f6f0b7ce5614dcd15c53c5eae624de84",
            29, 10186, 8552, 10524),
        "group_by": (
            "999c688ed1bbb24ce0c2ef6fb7dba460d5d6b50d075aa5f34124144b1fb5a46d",
            29, 8162, 6042, 8014),
        "sorted": (
            "6f050eb51520dc70911a8048eb29e70beb0573e7ee569cd1482244c1e258bba3",
            29, 9354, 7727, 9699),
        "prepared": (
            "59b57da350e1122166db620106988d2a5b91d4e751353f7acd9fb05612de384f",
            26, 7357, 5467, 7235),
        "empty_streamed": (
            "4e45317740a5a01b1c6a37687fd97bacdd715bb5cf8769b29305571b2e772852",
            1, 4, 70, 138),
        "empty_materialised": (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            0, 0, 0, 0),
        "insert": (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            0, 0, 0, 0),
    },
    (65536, "shuffle"): {
        "streamed": (
            "dac526efe63f3f80a58d084334ebaeed49ea5cbf8e38492543360c010ff1af80",
            1, 9004, 2015, 2083),
        "group_by": (
            "95fd569634c7122e54bd08278988de91469c770dbfa58e1d1bd73b8a57a1aea9",
            1, 8050, 1264, 1332),
        "sorted": (
            "c27051b495921794beb24de6bd29f2ae66c3e2b0e2c335a42d5aef6ab03337b5",
            1, 9130, 2029, 2097),
        "prepared": (
            "9d276fba095a86a7b9f3e70445e4f5fcc381298f8bf07fc3bac65c3d9276f43f",
            1, 7257, 1360, 1428),
        "empty_streamed": (
            "4e45317740a5a01b1c6a37687fd97bacdd715bb5cf8769b29305571b2e772852",
            1, 4, 70, 138),
        "empty_materialised": (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            0, 0, 0, 0),
        "insert": (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            0, 0, 0, 0),
    },
    # codec 4 (``narrow``), the default since it was added: measured from a
    # client that names no codec, recorded on the commit that added it; the
    # rows above were not touched (a named ``none`` still ships raw bytes)
    (7, "narrow"): {
        "streamed": (
            "5af6bf43af2a4720b012610ea4bc6ad05f2d5d55f5528e59d9733eac42bc1d7b",
            29, 10186, 9918, 11890),
        "group_by": (
            "47f0c52768e55ccf7fd93e8589eade38a1a4b8b6b82faa9bf02ee4c2c357877a",
            29, 8162, 7668, 9640),
        "sorted": (
            "934dd4b5f19f067f1724332f2f3a1e89838d6a0de34110c5090524ad62f72684",
            29, 9354, 8971, 10943),
        "prepared": (
            "434356fa15b89c4f3621238325169c8504c6073a7c230be0642c6700c48859ae",
            26, 7357, 6829, 8597),
        "empty_streamed": (
            "ea4eac6cb9834603c1faf3256e6ff7b25d3e9b7b967e277d978b4dadab8ad42f",
            1, 4, 43, 111),
        "empty_materialised": (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            0, 0, 0, 0),
        "insert": (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            0, 0, 0, 0),
    },
    (65536, "narrow"): {
        "streamed": (
            "4afa66cb47a46db64e7c0ad90788e9610c2d48e15c29d792c465016270c64b53",
            1, 9004, 4653, 4721),
        "group_by": (
            "35d84a7851c2cfad9af428fd6a22049a5995b423af42cb020aa13e996ffda92f",
            1, 8050, 4150, 4218),
        "sorted": (
            "9605e7007598f29a736e2e2b9a9bc0c9f1eb580c36647d43a9f0556c5c91b202",
            1, 9130, 4716, 4784),
        "prepared": (
            "f97db1ab208fc20a6c64a28e4a898149e7377b2421ba3ede88ab2c908c904d2b",
            1, 7257, 3760, 3828),
        "empty_streamed": (
            "ea4eac6cb9834603c1faf3256e6ff7b25d3e9b7b967e277d978b4dadab8ad42f",
            1, 4, 43, 111),
        "empty_materialised": (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            0, 0, 0, 0),
        "insert": (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            0, 0, 0, 0),
    },
}


def make_server(chunk_rows: int) -> DatabaseServer:
    server = DatabaseServer(result_chunk_rows=chunk_rows)
    database = server.database
    database.execute("CREATE TABLE t (id INTEGER, v DOUBLE, low STRING, "
                     "high STRING, raw BLOB)")
    table = database.storage.table("t")
    ids = range(ROWS)
    table.column("id").extend(ids)
    table.column("v").extend(None if i % 7 == 0 else i * 0.25 for i in ids)
    table.column("low").extend(
        None if i % 11 == 0 else f"grp_{i % 5}" for i in ids)
    table.column("high").extend(f"unique-{i:04d}-{'x' * (i % 9)}" for i in ids)
    table.column("raw").extend(
        None if i % 13 == 0 else bytes([i % 256]) * (i % 4) for i in ids)
    database.execute("CREATE TABLE sink (id INTEGER, name STRING)")
    return server


def _prepared(connection: Connection, options: TransferOptions):
    handle = connection.prepare(
        "pin", "SELECT id, low, high, v FROM t WHERE id >= ?")
    return handle.execute([20], options=options)


#: case -> SQL text, or a callable for the one shape that is not a query text
CASES = {
    "streamed": "SELECT id, v, low, high, raw FROM t WHERE id >= 3",
    "group_by": "SELECT high, low, COUNT(*), SUM(v) FROM t GROUP BY high, low",
    "sorted": "SELECT id, v, low, high, raw FROM t ORDER BY id DESC",
    "prepared": _prepared,
    "empty_streamed": "SELECT id, low FROM t WHERE id < 0",
    "empty_materialised": "SELECT id, low FROM t WHERE id < 0 ORDER BY id",
    "insert": "INSERT INTO sink VALUES (1, 'a'), (2, NULL)",
}


def _record_chunks(connection: Connection) -> list[dict]:
    """Every ``result_chunk`` message the connection receives from now on."""
    transport = connection._transport
    receive = transport.receive
    seen: list[dict] = []

    def recording() -> dict:
        message = receive()
        if message.get("type") == "result_chunk":
            seen.append(message)
        return message

    transport.receive = recording
    return seen


def measure(chunk_rows: int, codec: str, encrypt: bool) -> dict:
    """case -> (sha256 of plain payloads, chunks, raw bytes, wire bytes)."""
    connection = Connection.connect_in_process(make_server(chunk_rows))
    seen = _record_chunks(connection)
    options = TransferOptions(encrypt=encrypt)
    if codec != options.compression:  # the default's rows: a client naming none
        options.compression = codec
    measured = {}
    for case, run in CASES.items():
        del seen[:]
        before = connection.stats.queries
        if callable(run):
            run(connection, options)
        else:
            connection.execute(run, options=options)
        assert connection.stats.queries == before + 1
        transfer = connection.stats.last_transfer
        payloads = [bytes(message["payload"]) for message in seen]
        assert transfer.wire_bytes == sum(map(len, payloads))
        assert transfer.chunks == len(payloads)
        if encrypt:
            payloads = [encryption.decrypt(blob, connection._transfer_key)
                        for blob in payloads]
        measured[case] = (hashlib.sha256(b"".join(payloads)).hexdigest(),
                          transfer.chunks, transfer.raw_bytes,
                          transfer.wire_bytes)
    connection.close()
    return measured


def _digests() -> dict:
    pinned = {}
    for chunk_rows in (7, 65_536):
        for codec in ("none", "zlib", "shuffle", "narrow"):
            plain = measure(chunk_rows, codec, False)
            sealed = measure(chunk_rows, codec, True)
            pinned[chunk_rows, codec] = {
                case: (*plain[case], sealed[case][3]) for case in CASES}
    return pinned


@pytest.mark.parametrize("encrypt", [False, True], ids=["clear", "encrypted"])
@pytest.mark.parametrize("chunk_rows,codec", sorted(PINNED))
def test_chunk_payloads_are_those_of_the_parent_commit(chunk_rows, codec,
                                                       encrypt):
    measured = measure(chunk_rows, codec, encrypt)
    for case, (sha, chunks, raw, wire, wire_sealed) in \
            PINNED[chunk_rows, codec].items():
        assert measured[case] == (
            sha, chunks, raw, wire_sealed if encrypt else wire), case


# --------------------------------------------------------------------------- #
# one completion rule: a result ends at the frame flagged ``last``
# --------------------------------------------------------------------------- #
@pytest.fixture(params=["in_process", "tcp"])
def connect(request):
    """A ``connect(server) -> Connection`` over either transport."""
    started = []

    def connect(server: DatabaseServer) -> Connection:
        if request.param == "in_process":
            return Connection.connect_in_process(server)
        front = AsyncSocketServer(server)
        started.append(front)
        host, port = front.start_background()
        # a short socket timeout: a client that waited for a frame that is
        # not coming would fail the test instead of hanging it
        connection = Connection(
            SocketTransport(host, port, timeout=3.0),
            ConnectionInfo(host=host, port=port, database="demo"))
        connection.login()
        return connection

    yield connect
    for front in started:
        front.stop()


@pytest.mark.parametrize("sql", [
    "INSERT INTO sink VALUES (1, 'a')",
    "CREATE TABLE other (i INTEGER)",
    "SELECT id, low FROM t WHERE id < 0 ORDER BY id",
], ids=["dml", "ddl", "empty_materialised_select"])
def test_header_terminal_result_needs_no_further_receive(connect, sql):
    connection = connect(make_server(7))
    transport = connection._transport
    receive, received = transport.receive, []
    transport.receive = lambda: received.append(receive()) or received[-1]
    stream = connection.execute_stream(sql)
    assert [message["type"] for message in received] == ["result"]
    assert received[0]["last"]
    assert stream.complete and connection._active_stream is None
    assert stream.result().row_count == 0 and stream.fetchall() == []
    assert len(received) == 1  # ... and reading it touched nothing either
    assert connection.execute("SELECT COUNT(*) FROM t").scalar() == ROWS
    connection.close()


def test_error_after_two_chunks_leaves_the_connection_usable(connect):
    server = DatabaseServer(result_chunk_rows=4)
    server.database.execute("CREATE TABLE logt (v DOUBLE)")
    # LOG(-1) raises inside the fourth morsel; the builder computes morsel
    # n + 1 before chunk n leaves, so two chunks are out when it does
    server.database.storage.table("logt").column("v").extend(
        [1.0] * 12 + [-1.0])
    connection = connect(server)
    stream = connection.execute_stream("SELECT LOG(v) FROM logt")
    assert stream.fetchmany(8) == [(0.0,)] * 8
    assert stream.chunks_received == 2 and not stream.complete
    with pytest.raises(ExecutionError):
        stream.fetchone()
    # the error frame took the place of the ``last`` chunk: nothing is left
    # on the wire, the query slot is free, the next statement just works
    assert connection._active_stream is None
    assert server.admission.active == 0
    assert connection.execute("SELECT COUNT(*) FROM logt").scalar() == 13
    connection.close()


@pytest.mark.parametrize("sql,rows", [(CASES["streamed"], ROWS - 3),
                                      (CASES["sorted"], ROWS)],
                         ids=["streamed", "materialised"])
def test_abandoned_stream_is_drained_by_the_next_query(connect, sql, rows):
    connection = connect(make_server(7))
    abandoned = connection.execute_stream(sql)
    assert abandoned.fetchone() is not None
    assert abandoned.chunks_received == 1 and not abandoned.complete
    assert connection.execute("SELECT COUNT(*) FROM t").scalar() == ROWS
    assert abandoned.complete and abandoned.chunks_received == 29
    assert len(abandoned.fetchall()) == rows - 1
    connection.close()


if __name__ == "__main__":
    import pprint

    pprint.pprint(_digests(), width=100)
