"""The per-connection UDF-catalog snapshot and the ``catalog_version`` that
keeps it honest — over TCP and over the in-process transport.

What is pinned here: how many statements a Debug-button press issues, that a
snapshot is never used past a catalog change the connection has seen, that a
change it has *not* yet seen (another session's, between Import and Debug) is
caught by the extraction reply and re-planned, and that the one-statement
catalog read reconstructs the same signatures as the two-statement read it
replaced.
"""

import pytest

from repro.core.extract import EXTRACT_FUNCTION_PREFIX
from repro.core.importer import UDFImporter
from repro.core.plugin import DevUDFPlugin
from repro.core.project import DevUDFProject
from repro.core.settings import DataTransferSettings, DevUDFSettings
from repro.core.transform import strip_catalog_braces
from repro.errors import ReproError
from repro.netproto.client import Connection, ConnectionInfo
from repro.netproto.server import AsyncSocketServer, DatabaseServer
from repro.sqldb.database import Database
from repro.sqldb.schema import ColumnDef, FunctionParameter, FunctionSignature
from repro.sqldb.types import ColumnType, parse_type_name
from repro.workloads.udf_corpus import (
    load_numbers_create_sql,
    mean_deviation_create_sql,
    setup_classifier_database,
    setup_mixed_catalog,
)

UDF = "mean_deviation"
HELPER = EXTRACT_FUNCTION_PREFIX + UDF
DEBUG_QUERY = "SELECT mean_deviation(i) FROM numbers"


class Peer:
    """One server and the two ways of reaching it."""

    def __init__(self, transport: str, tmp_path) -> None:
        self.database = Database()
        self.database.execute("CREATE TABLE numbers (i INTEGER)")
        self.database.execute("INSERT INTO numbers VALUES " + ", ".join(
            f"({value})" for value in range(60)))
        self.database.execute(mean_deviation_create_sql())
        self.server = DatabaseServer(self.database)
        self.tmp_path = tmp_path
        self.socket_server = None
        self.info = ConnectionInfo()
        if transport == "tcp":
            self.socket_server = AsyncSocketServer(self.server, host="127.0.0.1",
                                                   port=0)
            host, port = self.socket_server.start_background()
            self.info = ConnectionInfo(host=host, port=port)
        self._opened: list = []

    def connect(self) -> Connection:
        connection = (Connection.connect_tcp(self.info) if self.socket_server
                      else Connection.connect_in_process(self.server))
        self._opened.append(connection)
        return connection

    def plugin(self, name: str, **transfer) -> DevUDFPlugin:
        settings = DevUDFSettings(host=self.info.host, port=self.info.port,
                                  debug_query=DEBUG_QUERY,
                                  transfer=DataTransferSettings(**transfer))
        plugin = DevUDFPlugin(DevUDFProject(self.tmp_path / name), settings,
                              server=None if self.socket_server else self.server)
        self._opened.append(plugin)
        return plugin

    def close(self) -> None:
        for opened in self._opened:
            opened.close()
        if self.socket_server is not None:
            self.socket_server.stop()


@pytest.fixture(params=["tcp", "in_process"])
def peer(request, tmp_path):
    instance = Peer(request.param, tmp_path)
    yield instance
    instance.close()


def press(plugin: DevUDFPlugin) -> tuple[int, int]:
    """Import -> prepare_debug -> export -> confirm: (statements issued over
    the connection, statements the extraction issued)."""
    connection = plugin.connect()
    before = connection.stats.queries
    plugin.import_udfs([UDF])
    preparation = plugin.prepare_debug(UDF)
    assert len(preparation.inputs.parameters["column"]) == 60
    assert plugin.export_udfs([UDF]).ok
    plugin.execute_sql(DEBUG_QUERY)
    return (connection.stats.queries - before,
            len(preparation.inputs.queries_issued))


# --------------------------------------------------------------------------- #
# (a) the statement count of a press
# --------------------------------------------------------------------------- #
class TestStatementsPerPress:
    def test_first_press_five_later_presses_four(self, peer):
        # the very first press has to create the extract helper
        assert press(peer.plugin("first")) == (5, 2)
        # catalog read, extraction, export, confirm — on a new connection ...
        second = peer.plugin("second")
        assert press(second) == (4, 1)
        # ... and on a connection that has pressed before (its snapshot lapsed
        # at its own export, so the catalog is read again: still one statement)
        assert press(second) == (4, 1)

    def test_actions_share_one_catalog_read(self, peer):
        plugin = peer.plugin("shared")
        connection = plugin.connect()
        assert plugin.list_server_udfs() == [UDF]
        assert plugin.find_debug_target() == UDF
        plugin.import_udfs([UDF])
        assert connection.stats.queries == 1

    def test_helper_creation_keeps_the_snapshot_current(self, peer):
        """The helper's own CREATE bumps the version by exactly one, which the
        extractor accounts for instead of letting the snapshot lapse."""
        plugin = peer.plugin("own")
        connection = plugin.connect()
        plugin.import_udfs([UDF])
        first = plugin.prepare_debug(UDF)
        assert [sql.split()[0] for sql in first.inputs.queries_issued] == \
            ["CREATE", "SELECT"]
        again = plugin.prepare_debug(UDF)
        assert len(again.inputs.queries_issued) == 1
        assert connection.stats.queries == 4
        assert HELPER in UDFImporter(connection, plugin.project).fetch_signatures(
            include_internal=True)
        assert connection.stats.queries == 4


# --------------------------------------------------------------------------- #
# (b) a UDF replaced by another session between Import and Debug
# --------------------------------------------------------------------------- #
PLACEHOLDER_WARNING = "loopback query with runtime placeholders"
PLAIN_BODY = "return float(sum(vals)) / len(vals)"
WARNING_BODY = ("rows = _conn.execute('SELECT i FROM numbers WHERE i > %d' % 3)\n"
                "return float(len(vals))")


def replace_sql(parameter: str, body: str) -> str:
    return (f"CREATE OR REPLACE FUNCTION {UDF}({parameter} INTEGER) "
            f"RETURNS DOUBLE LANGUAGE PYTHON {{\n{body}\n}}")


class TestReplacedBetweenImportAndDebug:
    @pytest.mark.parametrize("helper_exists", [False, True],
                             ids=["no_helper", "helper_exists"])
    @pytest.mark.parametrize("old_body, new_body", [
        (PLAIN_BODY, WARNING_BODY), (WARNING_BODY, PLAIN_BODY)],
        ids=["warning_appears", "warning_goes"])
    def test_preparation_is_built_from_the_new_signature(
            self, peer, helper_exists, old_body, new_body):
        other = peer.connect()
        other.execute(replace_sql("column", old_body))
        if helper_exists:
            peer.plugin("earlier").prepare_debug(UDF)
        plugin = peer.plugin("stale")
        plugin.import_udfs([UDF])
        other.execute(replace_sql("vals", new_body))

        preparation = plugin.prepare_debug(UDF)

        assert list(preparation.inputs.parameters) == ["vals"]
        assert [source.name for source in preparation.plan.parameter_sources] == ["vals"]
        assert preparation.plan.extract_function.parameter_names == ["vals"]
        assert len(preparation.inputs.parameters["vals"]) == 60
        # the warnings are those of the signature the run is built from — not
        # the discarded attempt's, and not both
        warned = [warning for warning in preparation.warnings
                  if PLACEHOLDER_WARNING in warning]
        assert len(warned) == (1 if new_body is WARNING_BODY else 0)
        assert peer.database.catalog.get(HELPER).signature.parameter_names == ["vals"]

    def test_an_error_is_never_reported_from_a_stale_snapshot(self, peer):
        """The old signature does not fit the debug query any more, the new
        one does: planning from the snapshot alone would raise a false error."""
        other = peer.connect()
        plugin = peer.plugin("arity")
        other.execute(f"CREATE OR REPLACE FUNCTION {UDF}(a INTEGER, b INTEGER) "
                      "RETURNS DOUBLE LANGUAGE PYTHON { return 0.0 }")
        plugin.import_udfs([UDF])
        other.execute(mean_deviation_create_sql(or_replace=True))
        assert list(plugin.prepare_debug(UDF).inputs.parameters) == ["column"]

    def test_a_true_error_is_still_raised(self, peer):
        plugin = peer.plugin("gone")
        plugin.import_udfs([UDF])
        peer.connect().execute("DROP TABLE numbers")
        with pytest.raises(ReproError):
            plugin.prepare_debug(UDF)


# --------------------------------------------------------------------------- #
# (c), (d) when the helper is created again
# --------------------------------------------------------------------------- #
class TestHelperReuse:
    def test_changed_sample_size_recreates_the_helper(self, peer):
        peer.plugin("warm", use_sampling=True, sample_size=10).prepare_debug(UDF)

        same = peer.plugin("same", use_sampling=True, sample_size=10)
        same.import_udfs([UDF])
        preparation = same.prepare_debug(UDF)
        assert len(preparation.inputs.queries_issued) == 1
        assert len(preparation.inputs.parameters["column"]) == 10

        changed = peer.plugin("changed", use_sampling=True, sample_size=25)
        changed.import_udfs([UDF])
        preparation = changed.prepare_debug(UDF)
        assert [sql.split()[0] for sql in preparation.inputs.queries_issued] == \
            ["CREATE", "SELECT"]
        assert len(preparation.inputs.parameters["column"]) == 25
        assert "min(25, _n)" in peer.database.catalog.get(HELPER).signature.body

    def test_helper_dropped_by_another_session_is_recreated(self, peer):
        peer.plugin("warm").prepare_debug(UDF)
        plugin = peer.plugin("dropped")
        plugin.import_udfs([UDF])
        peer.connect().execute(f"DROP FUNCTION {HELPER}")
        assert not peer.database.has_function(HELPER)

        preparation = plugin.prepare_debug(UDF)

        assert len(preparation.inputs.parameters["column"]) == 60
        assert peer.database.has_function(HELPER)
        assert preparation.warnings == []


# --------------------------------------------------------------------------- #
# (e) what moves catalog_version
# --------------------------------------------------------------------------- #
class TestCatalogVersion:
    def test_plus_one_per_effective_create_or_drop_function_only(self, peer):
        connection = peer.connect()
        assert connection.catalog_version is None  # no result header seen yet

        def version_after(sql: str) -> int:
            connection.execute(sql)
            assert connection.catalog_version == peer.database.catalog_version
            return connection.catalog_version

        start = version_after("SELECT COUNT(*) FROM numbers")
        for sql in ("SELECT name FROM sys.functions",
                    "INSERT INTO numbers VALUES (100)",
                    "UPDATE numbers SET i = 101 WHERE i = 100",
                    "DELETE FROM numbers WHERE i = 101",
                    "CREATE TABLE scratch (i INTEGER)",
                    "DROP TABLE scratch",
                    f"SELECT {UDF}(i) FROM numbers",
                    "DROP FUNCTION IF EXISTS never_there"):
            assert version_after(sql) == start, sql
        for sql in ("CREATE FUNCTION mean_deviation(x INTEGER) RETURNS DOUBLE "
                    "LANGUAGE PYTHON { return 0.0 }",      # exists, no OR REPLACE
                    "DROP FUNCTION never_there",
                    "CREATE FUNCTION broken("):
            with pytest.raises(ReproError):
                connection.execute(sql)
            assert peer.database.catalog_version == start, sql
        assert version_after("SELECT 1") == start

        create = "FUNCTION plus_one(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return x + 1 }"
        assert version_after("CREATE " + create) == start + 1
        assert version_after("CREATE OR REPLACE " + create) == start + 2
        assert version_after("DROP FUNCTION plus_one") == start + 3
        assert version_after("DROP FUNCTION IF EXISTS plus_one") == start + 3

    def test_another_sessions_change_shows_in_the_next_reply(self, peer):
        connection, other = peer.connect(), peer.connect()
        importer = UDFImporter(connection, DevUDFProject(peer.tmp_path / "seen"))
        assert list(importer.fetch_signatures()) == [UDF]
        other.execute("CREATE FUNCTION plus_one(x INTEGER) RETURNS INTEGER "
                      "LANGUAGE PYTHON { return x + 1 }")
        # nothing has told this connection yet: the snapshot still answers
        assert list(importer.fetch_signatures()) == [UDF]
        connection.execute("SELECT 1")
        assert sorted(importer.fetch_signatures()) == [UDF, "plus_one"]
        assert connection.stats.queries == 3

    def test_a_new_login_forgets_the_old_server(self, peer):
        connection = peer.connect()
        importer = UDFImporter(connection, DevUDFProject(peer.tmp_path / "relogin"))
        importer.fetch_signatures()
        assert connection.cached_catalog() is not None
        connection.reconnect()
        assert connection.catalog_version is None
        assert connection.cached_catalog() is None

    def test_a_peer_that_omits_the_version_never_lets_the_client_cache(
            self, peer, monkeypatch):
        from repro.netproto import server as server_module

        def without_version(*args, catalog_version=None, **kwargs):
            return real(*args, **kwargs)

        real = server_module.result_messages
        monkeypatch.setattr(server_module, "result_messages", without_version)
        plugin = peer.plugin("old_peer")
        connection = plugin.connect()
        plugin.import_udfs([UDF])
        preparation = plugin.prepare_debug(UDF)
        assert connection.catalog_version is None
        # as before the snapshot existed: a catalog read per action, the
        # helper created every time, and no second attempt
        assert connection.stats.queries == 4
        assert len(preparation.inputs.queries_issued) == 2


# --------------------------------------------------------------------------- #
# (f) one statement reconstructs what the two statements did
# --------------------------------------------------------------------------- #
def two_query_signatures(connection: Connection, *, include_internal: bool
                         ) -> dict[str, FunctionSignature]:
    """The catalog read as it was: one statement per meta table, reassembled
    on the client.  Kept as the reference for the joined read."""
    functions = connection.execute(
        "SELECT id, name, func, language, type FROM sys.functions")
    args = connection.execute(
        "SELECT func_id, name, type, number, inout FROM sys.args")
    args_by_function: dict[int, list[tuple]] = {}
    for func_id, arg_name, arg_type, number, inout in args.rows():
        args_by_function.setdefault(int(func_id), []).append(
            (arg_name, arg_type, int(number), int(inout)))
    signatures: dict[str, FunctionSignature] = {}
    for oid, name, func_text, language, func_type in functions.rows():
        if int(language) not in (6, 7):
            continue
        if not include_internal and name.lower().startswith(EXTRACT_FUNCTION_PREFIX):
            continue
        parameters, return_columns, return_type = [], [], None
        for arg_name, arg_type, number, inout in sorted(
                args_by_function.get(int(oid), []),
                key=lambda item: (item[3], item[2])):
            sql_type = parse_type_name(arg_type)
            if inout == 1:
                parameters.append(FunctionParameter(arg_name, sql_type, number))
            else:
                return_columns.append(ColumnDef(arg_name, ColumnType(sql_type)))
        returns_table = int(func_type) == 5
        if not returns_table:
            return_type = return_columns[0].sql_type if return_columns else None
            return_columns = []
        signatures[name.lower()] = FunctionSignature(
            name=name, parameters=parameters, returns_table=returns_table,
            return_columns=return_columns, return_type=return_type,
            language="PYTHON", body=strip_catalog_braces(func_text))
    return signatures


class TestJoinedCatalogRead:
    @pytest.mark.parametrize("include_internal", [False, True])
    def test_same_signatures_as_the_two_query_read(self, peer, include_internal):
        database = peer.database
        database.execute(load_numbers_create_sql())        # table-returning
        setup_mixed_catalog(database)                      # scalar, table, no-arg
        setup_classifier_database(database, n_rows=20)     # nested + table UDFs
        database.execute("CREATE FUNCTION answer() RETURNS INTEGER "
                         "LANGUAGE PYTHON { return 42 }")
        peer.plugin("helper").prepare_debug(UDF)           # a devudf_extract_*
        connection = peer.connect()
        importer = UDFImporter(connection, DevUDFProject(peer.tmp_path / "joined"))

        fetched = importer.fetch_signatures(include_internal=include_internal)

        assert connection.stats.queries == 1
        assert fetched == two_query_signatures(
            connection, include_internal=include_internal)
        assert (HELPER in fetched) == include_internal
        assert {"loadnumbers", "find_best_classifier", "train_rnforest",
                "answer", UDF} <= set(fetched)
        assert fetched["loadnumbers"].returns_table
        assert fetched["answer"].parameters == []

    def test_callers_cannot_edit_the_snapshot(self, peer):
        importer = UDFImporter(peer.connect(), DevUDFProject(peer.tmp_path / "copy"))
        importer.fetch_signatures().clear()
        assert list(importer.fetch_signatures()) == [UDF]
