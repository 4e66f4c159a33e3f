"""``durable_cycle``: the storage layer with writes beside reads, embedded.

One op is a full stop/start cycle of a durable database: open (image load +
replay of the previous op's WAL tail) -> ``Q`` cold -> INSERT -> ``Q`` first
read after the write -> ``Q`` warm -> UPDATE the 10 newest rows -> DELETE the
oldest rows (the table keeps its size) -> CHECKPOINT -> INSERT again ->
close without a checkpoint, so the next open has a tail to replay.  Cold,
first-read-after-write and warm are three spans of the same statement.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np

import harness
from harness import Cleanup, Tracer, Workload, close_to, timed_ms

from repro.sqldb.database import Database

Q = "SELECT k, COUNT(*), SUM(v), MAX(name) FROM ev GROUP BY k"
KEYS = 20
NAMES = 97
UPDATED_ROWS = 10
WARMUP_OPS = 2


def _name(code: int) -> str:
    return f"e{code:02d}"


class _Model:
    """The harness's own copy of ``ev``: every acknowledged write is applied
    here too, and ``Q``'s answer is recomputed from it with NumPy."""

    def __init__(self, ids: np.ndarray, k: np.ndarray, v: np.ndarray,
                 code: np.ndarray) -> None:
        self.ids, self.k, self.v, self.code = ids, k, v, code

    def append(self, ids: np.ndarray, k: np.ndarray, v: np.ndarray,
               code: np.ndarray) -> None:
        self.ids = np.concatenate([self.ids, ids])
        self.k = np.concatenate([self.k, k])
        self.v = np.concatenate([self.v, v])
        self.code = np.concatenate([self.code, code])

    def add_to_newest(self, first_id: int, amount: float) -> int:
        newest = self.ids >= first_id
        self.v = np.where(newest, self.v + amount, self.v)
        return int(newest.sum())

    def delete_below(self, first_kept_id: int) -> int:
        keep = self.ids >= first_kept_id
        removed = int((~keep).sum())
        self.ids, self.k, self.v, self.code = (
            self.ids[keep], self.k[keep], self.v[keep], self.code[keep])
        return removed

    def answer(self) -> list[tuple[int, int, float, str]]:
        counts = np.bincount(self.k, minlength=KEYS)
        sums = np.bincount(self.k, weights=self.v, minlength=KEYS)
        top = np.full(KEYS, -1)
        np.maximum.at(top, self.k, self.code)
        return [(key, int(counts[key]), float(sums[key]), _name(int(top[key])))
                for key in range(KEYS) if counts[key]]


class DurableCycle(Workload):
    name = "durable_cycle"
    clients = 1
    op_definition = ("open, Q cold, INSERT, Q after write, Q warm, UPDATE 10 "
                     "newest, DELETE oldest, CHECKPOINT, INSERT, close without "
                     "checkpoint")

    # ------------------------------------------------------------------ #
    # setup / teardown
    # ------------------------------------------------------------------ #
    def setup(self, seed: int, workdir: Path, cleanup: Cleanup, smoke: bool) -> None:
        self.seed = seed
        self.rows = 1_500 if smoke else 24_000
        self.batch = 50 if smoke else 200
        self.db_path = workdir / "durable.db"
        self.wal_path = Path(str(self.db_path) + ".wal")
        rng = np.random.default_rng(seed)
        self.model = _Model(np.arange(self.rows), *self._draw(rng, self.rows))
        self.next_id = self.rows

        database = Database(path=self.db_path)
        database.execute("CREATE TABLE ev (id INTEGER, k INTEGER, v DOUBLE, name STRING)")
        table = database.storage.table("ev")
        table.column("id").extend(self.model.ids.tolist())
        table.column("k").extend(self.model.k.tolist())
        table.column("v").extend(self.model.v.tolist())
        table.column("name").extend(_name(code) for code in self.model.code.tolist())
        database.checkpoint()
        # leave a WAL tail behind, as every op does, so the first open replays one
        tail = self._batch_rows(rng)
        database.execute(self._insert_sql(tail))
        self.model.append(*tail)
        database.persistence.close(checkpoint=False)

        harness.warm_up(self, WARMUP_OPS)

    def teardown(self) -> None:
        return None  # nothing stays open between ops

    @staticmethod
    def _draw(rng: np.random.Generator, count: int) -> tuple[np.ndarray, ...]:
        return (rng.integers(0, KEYS, count),
                rng.integers(0, 1000, count).astype(np.float64),
                rng.integers(0, NAMES, count))

    def _batch_rows(self, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
        ids = np.arange(self.next_id, self.next_id + self.batch)
        self.next_id += self.batch
        return (ids, *self._draw(rng, self.batch))

    @staticmethod
    def _insert_sql(batch: tuple[np.ndarray, ...]) -> str:
        ids, k, v, code = (column.tolist() for column in batch)
        values = ", ".join(
            f"({row_id}, {key}, {value!r}, '{_name(name)}')"
            for row_id, key, value, name in zip(ids, k, v, code))
        return f"INSERT INTO ev VALUES {values}"

    # ------------------------------------------------------------------ #
    # one op
    # ------------------------------------------------------------------ #
    def inputs(self, client: int, index: int) -> dict[str, Any]:
        rng = np.random.default_rng([self.seed, index + WARMUP_OPS + 1])
        first, second = self._batch_rows(rng), self._batch_rows(rng)
        return {
            "first": first,
            "second": second,
            "insert_first": self._insert_sql(first),
            "insert_second": self._insert_sql(second),
            "update_from": int(first[0][-1]) - UPDATED_ROWS + 1,
            "delete_below": int(self.model.ids.min()) + 2 * self.batch,
        }

    def _wal_bytes(self) -> int:
        return self.wal_path.stat().st_size

    def op(self, client: int, index: int, inputs: dict[str, Any],
           tracer: Tracer) -> dict[str, Any]:
        with tracer.span("sqldb.persist.open"):
            database = Database(path=self.db_path)
        try:
            wal_at_open = self._wal_bytes()
            with tracer.span("sqldb.storage.q_cold"):
                cold = database.execute(Q).fetchall()
            with tracer.span("sqldb.persist.insert"):
                database.execute(inputs["insert_first"])
            wal_after_insert = self._wal_bytes()
            with tracer.span("sqldb.storage.q_after_write"):
                after_write = database.execute(Q).fetchall()
            with tracer.span("sqldb.storage.q_warm"):
                warm = database.execute(Q).fetchall()
            with tracer.span("sqldb.storage.update"):
                updated = database.execute(
                    f"UPDATE ev SET v = v + 1.0 WHERE id >= {inputs['update_from']}")
            with tracer.span("sqldb.storage.delete"):
                deleted = database.execute(
                    f"DELETE FROM ev WHERE id < {inputs['delete_below']}")
            wal_before_checkpoint = self._wal_bytes()
            with tracer.span("sqldb.persist.checkpoint"):
                database.execute("CHECKPOINT")
            wal_after_checkpoint = self._wal_bytes()
            with tracer.span("sqldb.persist.insert"):
                database.execute(inputs["insert_second"])
            image_bytes = database.persistence.last_checkpoint.file_bytes
            recovery = database.persistence.last_recovery
        finally:
            with tracer.span("sqldb.persist.close"):
                database.persistence.close(checkpoint=False)
        return {
            "cold": cold, "after_write": after_write, "warm": warm,
            "updated": updated.affected_rows, "deleted": deleted.affected_rows,
            "image_rows": recovery.image_rows,
            "wal_insert_bytes": wal_after_insert - wal_at_open,
            "image_bytes": image_bytes,
            "disk_bytes": (wal_before_checkpoint - wal_at_open) + image_bytes
                          + (self._wal_bytes() - wal_after_checkpoint),
            "wal_fsyncs": database.metrics.snapshot()["persist.wal_fsync_us_count"],
        }

    def after_op(self, client: int, index: int, inputs: dict[str, Any],
                 output: dict[str, Any] | None) -> dict[str, Any] | None:
        model = self.model
        expected_cold = model.answer()
        rows_at_open = len(model.ids)
        model.append(*inputs["first"])
        expected_after_write = model.answer()
        expected_updated = model.add_to_newest(inputs["update_from"], 1.0)
        expected_deleted = model.delete_below(inputs["delete_below"])
        model.append(*inputs["second"])
        if output is None:
            return None
        output["expected_cold"] = expected_cold
        output["expected_after_write"] = expected_after_write
        output["expected_updated"] = expected_updated
        output["expected_deleted"] = expected_deleted
        output["replayed_rows"] = rows_at_open - output["image_rows"]
        return output

    def check(self, client: int, index: int, inputs: dict[str, Any],
              kept: dict[str, Any] | None) -> bool:
        if kept is None:
            return False

        def same(actual: list[tuple], expected: list[tuple]) -> bool:
            return len(actual) == len(expected) and all(
                got[0] == want[0] and got[1] == want[1]
                and close_to(got[2], want[2]) and got[3] == want[3]
                for got, want in zip(sorted(actual), expected))

        # the cold answer comes from the timed query itself, so the check
        # never warms a column for the op it is checking
        return bool(same(kept["cold"], kept["expected_cold"])
                    and same(kept["after_write"], kept["expected_after_write"])
                    and same(kept["warm"], kept["expected_after_write"])
                    and kept["updated"] == kept["expected_updated"] == UPDATED_ROWS
                    and kept["deleted"] == kept["expected_deleted"]
                    and kept["replayed_rows"] == self.batch)

    def io_bytes(self, kept: dict[str, Any]) -> tuple[int, int]:
        return 0, kept["disk_bytes"]

    # ------------------------------------------------------------------ #
    # per-layer metrics (traced run)
    # ------------------------------------------------------------------ #
    def layer_metrics(self, records: list[harness.OpRecord], tracer: Tracer,
                      smoke: bool) -> dict[str, float]:
        repeats = 3 if smoke else 5

        def op_p50(name: str) -> float:
            return harness.span_p50_ms(tracer.spans, name)

        def kept_p50(key: str) -> float:
            return harness.kept_p50(records, key)

        warm_ms = op_p50("sqldb.storage.q_warm")
        metrics = {
            "sqldb.storage.cold_materialise_ms": op_p50("sqldb.storage.q_cold") - warm_ms,
            "sqldb.storage.rebuild_ms": op_p50("sqldb.storage.q_after_write") - warm_ms,
            "sqldb.storage.delete_ms": op_p50("sqldb.storage.delete"),
            "sqldb.persist.open_ms": op_p50("sqldb.persist.open"),
            "sqldb.persist.replayed_rows": kept_p50("replayed_rows"),
            "sqldb.persist.insert_ms": op_p50("sqldb.persist.insert"),
            "sqldb.persist.wal_bytes_per_row": kept_p50("wal_insert_bytes") / self.batch,
            "sqldb.persist.fsyncs_per_op": kept_p50("wal_fsyncs"),
            "sqldb.persist.checkpoint_ms": op_p50("sqldb.persist.checkpoint"),
            "sqldb.persist.image_bytes_per_row": kept_p50("image_bytes") / self.rows,
        }

        # an in-memory twin of ev prices Table.insert_rows without the WAL,
        # and its scan prices the codec the image's segments are written with
        model = self.model
        rows = list(zip(model.ids.tolist(), model.k.tolist(), model.v.tolist(),
                        (_name(code) for code in model.code.tolist())))

        def load_twin() -> Database:
            twin = Database()
            twin.execute("CREATE TABLE ev (id INTEGER, k INTEGER, v DOUBLE, name STRING)")
            twin.storage.table("ev").insert_rows(rows)
            return twin

        with tracer.span("probes", op="probes"):
            with tracer.span("sqldb.storage.insert_rows"):
                insert_ms, twin = timed_ms(load_twin, repeats)
            metrics["sqldb.storage.insert_rows_per_s"] = len(rows) / (insert_ms / 1e3)
            with tracer.span("netproto.columnar.segment"):
                metrics.update(harness.columnar_probe(
                    twin.execute("SELECT * FROM ev"), repeats))
        return metrics
