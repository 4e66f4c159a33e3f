"""``sql_serve``: read-only analytic serving over TCP, warm storage.

Two closed-loop connections (= ``nproc`` here) each repeat one fixed round of
eight statements against a server child in its shipped defaults (async front
end, plan cache, 8 MiB result cache).  Seven statements carry literals derived
from (seed, client, round), so their text never repeats and neither cache can
serve them; the eighth, ``repeat``, is verbatim every round and is the one
labelled *cache hit* — its cache-off twin is ``sqldb.executor.repeat_ms``.
Literals are chosen so every round returns the same number of rows (``v`` is a
permutation, so a fixed-width range holds a fixed row count): bytes per round
repeat, and only time varies.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np

import harness
from harness import Cleanup, ServerChild, Tracer, Workload, close_to, timed_ms

from repro.netproto.client import Connection, ConnectionInfo
from repro.sqldb.database import Database
from repro.sqldb.parser import parse_statement

STATEMENTS = ("point", "filter", "group", "strgroup", "join", "udf", "fetch",
              "repeat")
REPEAT_SQL = "SELECT k, COUNT(*), SUM(v) FROM facts GROUP BY k"
DIM_ROWS = 500
NAMES = 200
LABELS = 7
WARMUP_ROUNDS = 2
#: a prime above every modulus used below, so ``a -> a * PRIME % m`` never
#: repeats within a run and no statement text is seen twice
PRIME = 1_000_003

VEC_DEV_SQL = (
    "CREATE FUNCTION vec_dev(x DOUBLE) RETURNS DOUBLE LANGUAGE PYTHON {\n"
    "    import numpy\n"
    "    return float(numpy.abs(x - x.mean()).mean())\n"
    "};")


class SqlServe(Workload):
    name = "sql_serve"
    clients = 2
    op_definition = ("one round of 8 statements on one connection: point, "
                     "filter, group, strgroup, join, udf, fetch (25% of facts, "
                     "to_numpy_dict), repeat")

    # ------------------------------------------------------------------ #
    # setup / teardown
    # ------------------------------------------------------------------ #
    def setup(self, seed: int, workdir: Path, cleanup: Cleanup, smoke: bool) -> None:
        self.rows = 4_000 if smoke else 200_000
        self.filter_span = self.rows // 100
        self.fetch_span = self.rows // 4
        rng = np.random.default_rng(seed)
        rows = self.rows
        self.k = rng.integers(0, DIM_ROWS, rows)
        self.v = rng.permutation(rows) * 0.5
        self.name_code = rng.integers(0, NAMES, rows)
        self.nv = rng.random(rows)
        self.nv_null = rng.random(rows) < 0.1
        self.w = rng.integers(1, 9, DIM_ROWS) * 0.25
        self.shifts = rng.integers(0, rows, 3)
        self.names = np.array([f"n{code:03d}" for code in range(NAMES)], dtype=object)

        db_path = workdir / "serve.db"
        database = Database(path=db_path)
        self._load(database)
        database.close()  # checkpoints: the child starts from the image alone

        self.child = ServerChild(db_path, cleanup)
        self.info = ConnectionInfo(host=self.child.host, port=self.child.port)
        self.connections = [Connection.connect_tcp(self.info)
                            for _ in range(self.clients)]
        harness.warm_up(self, WARMUP_ROUNDS)
        self.stats_before = self.connections[0].server_stats()

    def _load(self, database: Database) -> None:
        database.execute("CREATE TABLE facts (id INTEGER, k INTEGER, v DOUBLE, "
                         "name STRING, nv DOUBLE)")
        facts = database.storage.table("facts")
        facts.column("id").extend(range(self.rows))
        facts.column("k").extend(self.k.tolist())
        facts.column("v").extend(self.v.tolist())
        facts.column("name").extend(self.names[self.name_code].tolist())
        facts.column("nv").extend(
            None if null else value
            for value, null in zip(self.nv.tolist(), self.nv_null.tolist()))
        database.execute("CREATE TABLE dim (k INTEGER, w DOUBLE, label STRING)")
        dim = database.storage.table("dim")
        dim.column("k").extend(range(DIM_ROWS))
        dim.column("w").extend(self.w.tolist())
        dim.column("label").extend(f"d{key % LABELS}" for key in range(DIM_ROWS))
        database.execute(VEC_DEV_SQL)

    def teardown(self) -> None:
        for connection in self.connections:
            connection.close()
        self.child.stop()

    def server_child(self) -> ServerChild:
        return self.child

    # ------------------------------------------------------------------ #
    # one round
    # ------------------------------------------------------------------ #
    def _literals(self, serial: int) -> dict[str, int]:
        """Literals of the round with run-unique number ``serial``."""
        rows = self.rows
        return {
            "serial": serial,
            "point": int((serial * PRIME + self.shifts[0]) % rows),
            "filter": int((serial * PRIME + self.shifts[1])
                          % (rows - self.filter_span)),
            "fetch": int((serial * PRIME + self.shifts[2])
                         % (rows - self.fetch_span)),
        }

    def _statements(self, literals: dict[str, int]) -> dict[str, str]:
        serial = literals["serial"]
        low = literals["filter"] * 0.5
        high = (literals["filter"] + self.filter_span) * 0.5
        start = literals["fetch"]
        return {
            "point": "SELECT id, k, v, name, nv FROM facts "
                     f"WHERE id = {literals['point']}",
            "filter": "SELECT id, k, v, nv FROM facts "
                      f"WHERE v >= {low!r} AND v < {high!r}",
            "group": "SELECT k, COUNT(*), SUM(v), AVG(v) FROM facts "
                     f"WHERE id >= {serial} GROUP BY k",
            "strgroup": "SELECT name, COUNT(*), SUM(v) FROM facts "
                        f"WHERE id >= {serial} GROUP BY name ORDER BY name",
            "join": "SELECT d.label, COUNT(*), SUM(f.v * d.w) FROM facts f "
                    f"JOIN dim d ON f.k = d.k WHERE f.id >= {serial} "
                    "GROUP BY d.label",
            "udf": f"SELECT vec_dev(v) FROM facts WHERE id >= {serial}",
            "fetch": "SELECT id, k, v, name FROM facts "
                     f"WHERE id >= {start} AND id < {start + self.fetch_span}",
            "repeat": REPEAT_SQL,
        }

    def inputs(self, client: int, index: int) -> dict[str, Any]:
        literals = self._literals((index + WARMUP_ROUNDS) * self.clients + client)
        return {"literals": literals, "sql": self._statements(literals)}

    @staticmethod
    def _run_round(execute: Any, sql: dict[str, str], tracer: Tracer,
                   span_prefix: str) -> dict[str, Any]:
        """Send the eight statements and materialise each result the way a
        client would: the big fetch as NumPy columns, the rest as rows."""
        output: dict[str, Any] = {}
        for kind in STATEMENTS:
            with tracer.span(span_prefix + kind):
                result = execute(sql[kind])
                output[kind] = (result.to_numpy_dict() if kind == "fetch"
                                else result.fetchall())
        return output

    def op(self, client: int, index: int, inputs: dict[str, Any],
           tracer: Tracer) -> dict[str, Any]:
        connection = self.connections[client]
        wire_before = connection.stats.wire_bytes_received
        output = self._run_round(connection.execute, inputs["sql"], tracer,
                                 "netproto.client.execute.")
        output["wire_bytes"] = connection.stats.wire_bytes_received - wire_before
        return output

    def after_op(self, client: int, index: int, inputs: dict[str, Any],
                 output: dict[str, Any] | None) -> dict[str, Any] | None:
        if output is None:
            return None
        # keep a digest of the two wide results, not 50 000 rows per round
        fetched = output["fetch"]
        count = len(fetched["id"])
        output["fetch"] = {
            "rows": count,
            "id_sum": int(fetched["id"].sum()),
            "k_sum": int(fetched["k"].sum()),
            "v_sum": float(fetched["v"].sum()),
            "names": [fetched["name"][at] for at in (0, count // 2, count - 1)],
        }
        filtered = output["filter"]
        output["filter"] = {
            "rows": len(filtered),
            "id_sum": sum(row[0] for row in filtered),
            "k_sum": sum(row[1] for row in filtered),
            "v_sum": sum(row[2] for row in filtered),
            "nv_nulls": sum(row[3] is None for row in filtered),
            "nv_sum": sum(row[3] for row in filtered if row[3] is not None),
        }
        return output

    def io_bytes(self, kept: dict[str, Any]) -> tuple[int, int]:
        return kept["wire_bytes"], 0

    # ------------------------------------------------------------------ #
    # the oracle: NumPy answers from the generated arrays
    # ------------------------------------------------------------------ #
    def check(self, client: int, index: int, inputs: dict[str, Any],
              kept: dict[str, Any] | None) -> bool:
        if kept is None:
            return False
        literals = inputs["literals"]
        ids = np.arange(self.rows)
        tail = ids >= literals["serial"]
        k, v = self.k, self.v

        def rows_match(actual: list[tuple], expected: list[tuple]) -> bool:
            if len(actual) != len(expected):
                return False
            for got, want in zip(sorted(actual), expected):
                for left, right in zip(got, want):
                    same = (close_to(left, right) if isinstance(right, float)
                            else left == right)
                    if not same:
                        return False
            return True

        at = literals["point"]
        point = [(at, int(k[at]), float(v[at]), self.names[self.name_code[at]],
                  None if self.nv_null[at] else float(self.nv[at]))]

        low = literals["filter"] * 0.5
        inside = (v >= low) & (v < low + self.filter_span * 0.5)
        valued = inside & ~self.nv_null
        filtered = kept["filter"]
        filter_ok = (filtered["rows"] == int(inside.sum()) == self.filter_span
                     and filtered["id_sum"] == int(ids[inside].sum())
                     and filtered["k_sum"] == int(k[inside].sum())
                     and close_to(filtered["v_sum"], float(v[inside].sum()))
                     and filtered["nv_nulls"] == int((inside & self.nv_null).sum())
                     and close_to(filtered["nv_sum"], float(self.nv[valued].sum())))

        def grouped(keys: np.ndarray, size: int, selected: np.ndarray,
                    weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return (np.bincount(keys[selected], minlength=size),
                    np.bincount(keys[selected], weights=weights[selected],
                                minlength=size))

        counts, sums = grouped(k, DIM_ROWS, tail, v)
        group = [(key, int(counts[key]), float(sums[key]),
                  float(sums[key] / counts[key]))
                 for key in range(DIM_ROWS) if counts[key]]
        counts, sums = grouped(self.name_code, NAMES, tail, v)
        strgroup = [(self.names[code], int(counts[code]), float(sums[code]))
                    for code in range(NAMES) if counts[code]]
        counts, sums = grouped(k % LABELS, LABELS, tail, v * self.w[k])
        join = [(f"d{label}", int(counts[label]), float(sums[label]))
                for label in range(LABELS) if counts[label]]
        selected = v[tail]
        udf = [(float(np.abs(selected - selected.mean()).mean()),)]
        counts, sums = grouped(k, DIM_ROWS, ids >= 0, v)
        repeat = [(key, int(counts[key]), float(sums[key]))
                  for key in range(DIM_ROWS) if counts[key]]

        start = literals["fetch"]
        window = slice(start, start + self.fetch_span)
        fetched = kept["fetch"]
        middle = start + self.fetch_span // 2
        fetch_ok = (fetched["rows"] == self.fetch_span
                    and fetched["id_sum"] == int(ids[window].sum())
                    and fetched["k_sum"] == int(k[window].sum())
                    and close_to(fetched["v_sum"], float(v[window].sum()))
                    and fetched["names"] == [
                        self.names[self.name_code[row]]
                        for row in (start, middle, start + self.fetch_span - 1)])

        return bool(rows_match(kept["point"], point) and filter_ok
                    and rows_match(kept["group"], group)
                    # ORDER BY name: the order itself is part of the answer
                    and [row[0] for row in kept["strgroup"]]
                    == [row[0] for row in strgroup]
                    and rows_match(kept["strgroup"], strgroup)
                    and rows_match(kept["join"], join)
                    and rows_match(kept["udf"], udf)
                    and fetch_ok
                    and rows_match(kept["repeat"], repeat))

    # ------------------------------------------------------------------ #
    # per-layer metrics (traced run)
    # ------------------------------------------------------------------ #
    def layer_metrics(self, records: list[harness.OpRecord], tracer: Tracer,
                      smoke: bool) -> dict[str, float]:
        repeats = 3 if smoke else 5
        after = self.connections[0].server_stats()
        delta = {key: after.get(key, 0) - self.stats_before.get(key, 0)
                 for key in after if key.startswith("server.")}

        def ratio(hits: str, misses: str) -> float:
            looked_up = delta[hits] + delta[misses]
            return delta[hits] / looked_up if looked_up else 0.0

        metrics = {
            "sqldb.cache.plan_hit_ratio": ratio("server.plan_cache_hits",
                                                "server.plan_cache_misses"),
            "sqldb.cache.result_hit_ratio": ratio("server.result_cache_hits",
                                                  "server.result_cache_misses"),
        }
        with tracer.span("probes", op="probes"):
            metrics.update(self._probes(records, tracer, repeats))
        return metrics

    def _probes(self, records: list[harness.OpRecord], tracer: Tracer,
                repeats: int) -> dict[str, float]:
        # fresh literals: numbered after every round the loop sent
        serial = (max(record.index for record in records) + WARMUP_ROUNDS + 1) \
            * self.clients
        fresh = [self._statements(self._literals(serial + step))
                 for step in range(3 * repeats)]
        tcp_rounds, twin_rounds, engine_rounds = (
            fresh[:repeats], fresh[repeats:2 * repeats], fresh[2 * repeats:])

        connection = Connection.connect_tcp(self.info)
        try:
            with tracer.span("netproto.client.roundtrip"):
                roundtrip_ms, _ = timed_ms(
                    lambda: connection.execute("SELECT 1").scalar(), repeats)
            tcp_ms, first_chunk, drain = [], [], []
            for sql in tcp_rounds:
                with tracer.span("netproto.client.round") as whole:
                    self._run_round(connection.execute, sql, harness.NULL_TRACER, "")
                tcp_ms.append(harness.span_ms(whole))
            for sql in twin_rounds:
                with tracer.span("netproto.client.first_chunk") as first:
                    stream = connection.execute_stream(sql["fetch"])
                    stream.fetchone()
                with tracer.span("netproto.client.drain") as rest:
                    stream.result()
                first_chunk.append(harness.span_ms(first))
                drain.append(harness.span_ms(rest))
        finally:
            connection.close()

        connect_ms = []
        for _ in range(repeats):
            with tracer.span("netproto.client.connect") as connecting:
                extra = Connection.connect_tcp(self.info)
            connect_ms.append(harness.span_ms(connecting))
            extra.close()

        # an identically built in-process database (result cache off, as the
        # embedded default is) splits engine time from wire time
        twin = Database()
        self._load(twin)
        self._run_round(twin.execute, fresh[0], harness.NULL_TRACER, "")  # warm
        twin_ms = []
        for sql in twin_rounds:
            with tracer.span("sqldb.database.round.in_process") as whole:
                self._run_round(twin.execute, sql, harness.NULL_TRACER, "")
            twin_ms.append(harness.span_ms(whole))
        per_statement: dict[str, list[float]] = {kind: [] for kind in STATEMENTS}
        for sql in engine_rounds:
            for kind in STATEMENTS:
                with tracer.span("sqldb.executor." + kind) as executing:
                    twin.execute(sql[kind])
                per_statement[kind].append(harness.span_ms(executing))
        with tracer.span("sqldb.parser.parse_statement"):
            parse_ms, _ = timed_ms(
                lambda: [parse_statement(text) for text in fresh[0].values()], repeats)

        metrics = {
            "netproto.client.connect_ms": harness.median(connect_ms),
            "netproto.client.roundtrip_ms": roundtrip_ms,
            "netproto.client.first_chunk_ms": harness.median(first_chunk),
            "netproto.client.drain_ms": harness.median(drain),
            "netproto.server.wire_overhead_ms":
                harness.median(tcp_ms) - harness.median(twin_ms),
            "sqldb.parser.parse_us_per_stmt": parse_ms * 1e3 / len(STATEMENTS),
            "sqldb.udf.query_ms": harness.median(per_statement["udf"]),
        }
        for kind in STATEMENTS:
            if kind != "udf":
                metrics[f"sqldb.executor.{kind}_ms"] = \
                    harness.median(per_statement[kind])
        metrics.update(harness.columnar_probe(twin.execute(fresh[0]["fetch"]), repeats))
        return metrics
