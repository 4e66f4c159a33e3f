"""Input-data extraction for local debugging (paper §2.2).

To debug a UDF locally, devUDF needs the data the UDF would have received
inside the server:

    "we take the user-submitted SQL query containing the call to the UDF, and
     we replace the call to the UDF with a predefined extract function that
     transfers the input data back to the client instead of executing the UDF
     inside the server"

The rewriting is done on the parsed query: the arguments of the UDF call are
turned into a projection over the original FROM/WHERE clause, and that
projection is routed through a server-side *extract function* — a Python
table UDF registered on the fly — which applies the uniform random sample
(when the sample option is enabled) before the data leaves the server.
Compression and encryption are applied by the transfer layer on the way out.

Loopback queries inside the UDF body (paper §2.3) are extracted "in
conjunction with the main UDF data": plain data queries are executed and their
results stored for replay; queries that call nested UDFs have the nested
functions imported and their subquery inputs extracted instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from ..errors import ExtractionError
from ..netproto.client import Connection, TransferOptions
from ..sqldb import ast_nodes as ast
from ..sqldb.catalog import make_signature
from ..sqldb.parser import parse_statement
from ..sqldb.render import render_expression, render_select, render_table_ref
from ..sqldb.result import QueryResult
from ..sqldb.schema import FunctionSignature
from .nested import LoopbackQuery, analyse_loopback_queries, normalize_query
from .settings import DataTransferSettings
from .transform import strip_catalog_braces

#: Prefix of the server-side extract functions the plugin registers.
EXTRACT_FUNCTION_PREFIX = "devudf_extract_"


# --------------------------------------------------------------------------- #
# plan data structures
# --------------------------------------------------------------------------- #
@dataclass
class ParameterSource:
    """Where one UDF parameter's debug value comes from."""

    name: str
    kind: str  # "column" (extracted from the server) or "constant" (from the query text)
    expression: str | None = None  # SQL text for column sources
    value: Any = None  # literal value for constant sources
    position: int = 0


@dataclass
class ExtractionPlan:
    """Everything needed to pull a UDF's inputs out of the server."""

    udf_name: str
    parameter_sources: list[ParameterSource] = field(default_factory=list)
    #: The server-side extract function (None when no column inputs).
    extract_function: FunctionSignature | None = None
    #: The rewritten query that returns the input data instead of running the UDF.
    extraction_query: str | None = None
    #: Loopback queries found in the UDF body, classified.
    loopback_queries: list[LoopbackQuery] = field(default_factory=list)
    #: Nested UDF names that must be imported alongside the main UDF.
    nested_udfs: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def extract_function_name(self) -> str | None:
        return self.extract_function.name if self.extract_function else None

    @property
    def extract_function_sql(self) -> str | None:
        """SQL creating the server-side extract function."""
        return (self.extract_function.to_create_sql(or_replace=True)
                if self.extract_function else None)

    @property
    def column_parameters(self) -> list[ParameterSource]:
        return [source for source in self.parameter_sources if source.kind == "column"]

    @property
    def constant_parameters(self) -> list[ParameterSource]:
        return [source for source in self.parameter_sources if source.kind == "constant"]


@dataclass
class ExtractedInputs:
    """The extracted data, ready to be packaged into ``input.bin``."""

    udf_name: str
    parameters: dict[str, Any] = field(default_factory=dict)
    loopback: dict[str, dict[str, list[Any]]] = field(default_factory=dict)
    rows_extracted: int = 0
    queries_issued: list[str] = field(default_factory=list)
    wire_bytes: int = 0
    raw_bytes: int = 0
    warnings: list[str] = field(default_factory=list)


# --------------------------------------------------------------------------- #
# query rewriting
# --------------------------------------------------------------------------- #
class ExtractQueryRewriter:
    """Builds an :class:`ExtractionPlan` from the user's debug query."""

    def __init__(self, signatures: Mapping[str, FunctionSignature],
                 transfer: DataTransferSettings | None = None) -> None:
        self._signatures = {name.lower(): sig for name, sig in signatures.items()}
        self.transfer = transfer or DataTransferSettings()

    # -- public API -------------------------------------------------------- #
    def plan(self, debug_query: str, udf_name: str) -> ExtractionPlan:
        signature = self._signature(udf_name)
        try:
            statement = parse_statement(debug_query)
        except Exception as exc:
            raise ExtractionError(f"cannot parse debug query: {exc}") from exc
        if not isinstance(statement, ast.Select):
            raise ExtractionError("the debug query must be a SELECT statement")

        if signature.returns_table:
            plan = self._plan_table_udf(statement, signature)
        else:
            plan = self._plan_scalar_udf(statement, signature)

        plan.loopback_queries = analyse_loopback_queries(
            signature.body, self._signatures.keys()
        )
        plan.nested_udfs = []
        for query in plan.loopback_queries:
            for name in query.nested_udfs:
                if name != udf_name.lower() and name not in plan.nested_udfs:
                    plan.nested_udfs.append(name)
        return plan

    def _signature(self, udf_name: str) -> FunctionSignature:
        signature = self._signatures.get(udf_name.lower())
        if signature is None:
            raise ExtractionError(f"unknown UDF {udf_name!r}")
        return signature

    # -- scalar UDFs --------------------------------------------------------- #
    def _plan_scalar_udf(self, statement: ast.Select,
                         signature: FunctionSignature) -> ExtractionPlan:
        call = self._find_scalar_call(statement, signature.name)
        if call is None:
            raise ExtractionError(
                f"the debug query does not call UDF {signature.name!r}"
            )
        if len(call.args) != len(signature.parameters):
            raise ExtractionError(
                f"debug query calls {signature.name!r} with {len(call.args)} "
                f"arguments but the catalog declares {len(signature.parameters)}"
            )
        plan = ExtractionPlan(udf_name=signature.name)
        column_items: list[tuple[str, str]] = []
        for position, (arg, parameter) in enumerate(zip(call.args, signature.parameters)):
            if isinstance(arg, ast.Literal):
                plan.parameter_sources.append(ParameterSource(
                    name=parameter.name, kind="constant", value=arg.value,
                    position=position))
                continue
            expression_sql = render_expression(arg)
            plan.parameter_sources.append(ParameterSource(
                name=parameter.name, kind="column", expression=expression_sql,
                position=position))
            column_items.append((parameter.name, expression_sql))

        if column_items:
            inner = self._render_projection(statement, column_items)
            plan.extract_function = self._build_extract_function(
                signature, plan.column_parameters)
            plan.extraction_query = (
                f"SELECT * FROM {plan.extract_function_name}(({inner}))"
            )
        return plan

    @staticmethod
    def _render_projection(statement: ast.Select,
                           column_items: list[tuple[str, str]]) -> str:
        parts = ["SELECT " + ", ".join(f"{sql} AS {name}" for name, sql in column_items)]
        if statement.from_clause is not None:
            parts.append("FROM " + render_table_ref(statement.from_clause))
        if statement.where is not None:
            parts.append("WHERE " + render_expression(statement.where))
        return " ".join(parts)

    def _find_scalar_call(self, node: Any, udf_name: str) -> ast.FunctionCall | None:
        target = udf_name.lower()
        if isinstance(node, ast.FunctionCall) and node.name.lower() == target:
            return node
        if isinstance(node, ast.Select):
            for item in node.items:
                found = self._find_scalar_call(item.expression, udf_name)
                if found is not None:
                    return found
            for child in (node.where, node.having):
                if child is not None:
                    found = self._find_scalar_call(child, udf_name)
                    if found is not None:
                        return found
            return None
        if isinstance(node, ast.BinaryOp):
            return (self._find_scalar_call(node.left, udf_name)
                    or self._find_scalar_call(node.right, udf_name))
        if isinstance(node, ast.UnaryOp):
            return self._find_scalar_call(node.operand, udf_name)
        if isinstance(node, ast.FunctionCall):
            for arg in node.args:
                found = self._find_scalar_call(arg, udf_name)
                if found is not None:
                    return found
        return None

    # -- table UDFs ----------------------------------------------------------- #
    def _plan_table_udf(self, statement: ast.Select,
                        signature: FunctionSignature) -> ExtractionPlan:
        call = self._find_table_call(statement.from_clause, signature.name)
        if call is None:
            raise ExtractionError(
                f"the debug query does not call table UDF {signature.name!r} "
                "in its FROM clause"
            )
        plan = ExtractionPlan(udf_name=signature.name)
        parameters = list(signature.parameters)
        position = 0
        column_subqueries: list[tuple[str, list[str]]] = []
        for arg in call.args:
            if isinstance(arg, ast.Select):
                subquery_sql = render_select(arg)
                names: list[str] = []
                for item in arg.items:
                    if position >= len(parameters):
                        raise ExtractionError(
                            f"too many arguments for {signature.name!r}")
                    parameter = parameters[position]
                    plan.parameter_sources.append(ParameterSource(
                        name=parameter.name, kind="column",
                        expression=render_expression(item.expression),
                        position=position))
                    names.append(parameter.name)
                    position += 1
                column_subqueries.append((subquery_sql, names))
            else:
                if position >= len(parameters):
                    raise ExtractionError(f"too many arguments for {signature.name!r}")
                parameter = parameters[position]
                if isinstance(arg, ast.Literal):
                    value = arg.value
                else:
                    value = None
                    plan.warnings.append(
                        f"argument {position} of {signature.name!r} is not a literal; "
                        "its value cannot be extracted statically"
                    )
                plan.parameter_sources.append(ParameterSource(
                    name=parameter.name, kind="constant", value=value, position=position))
                position += 1
        if position != len(parameters):
            raise ExtractionError(
                f"debug query provides {position} arguments for {signature.name!r}, "
                f"expected {len(parameters)}"
            )

        if column_subqueries:
            # A single extract function covering all column parameters, fed by
            # the first subquery (multiple subqueries are handled one by one).
            plan.extract_function = self._build_extract_function(
                signature, plan.column_parameters)
            if len(column_subqueries) == 1:
                inner = column_subqueries[0][0]
                plan.extraction_query = (
                    f"SELECT * FROM {plan.extract_function_name}(({inner}))"
                )
            else:
                plan.warnings.append(
                    "multiple subquery arguments; extracting each separately without sampling"
                )
                plan.extraction_query = None
                for subquery_sql, names in column_subqueries:
                    plan.warnings.append(f"extract: {subquery_sql} -> {names}")
        return plan

    def _find_table_call(self, node: ast.TableRef | None,
                         udf_name: str) -> ast.TableFunctionCall | None:
        if node is None:
            return None
        target = udf_name.lower()
        if isinstance(node, ast.TableFunctionCall) and node.name.lower() == target:
            return node
        if isinstance(node, ast.Join):
            return (self._find_table_call(node.left, udf_name)
                    or self._find_table_call(node.right, udf_name))
        if isinstance(node, ast.SubquerySource):
            return self._find_table_call(node.query.from_clause, udf_name)
        return None

    # -- the server-side extract function ------------------------------------- #
    def _build_extract_function(self, signature: FunctionSignature,
                                column_parameters: list[ParameterSource]
                                ) -> FunctionSignature:
        """The predefined extract function, created with ``CREATE OR REPLACE``.

        The function takes the UDF's column parameters, optionally applies the
        uniform random sample server-side, and returns the columns unchanged —
        "transfers the input data back to the client instead of executing the
        UDF inside the server".
        """
        types = {p.name: p.sql_type for p in signature.parameters}
        columns = [(source.name, types[source.name]) for source in column_parameters]
        names_literal = ", ".join(f"'{source.name}': {source.name}"
                                  for source in column_parameters)

        sampling_lines = ""
        spec = self.transfer.sample_spec()
        if spec is not None:
            if spec.size is not None:
                size_expr = f"min({spec.size}, _n)"
            else:
                size_expr = f"max(1, min(_n, int(round(_n * {float(spec.fraction)}))))"
            seed = spec.seed if spec.seed is not None else 0
            sampling_lines = (
                "    _rng = numpy.random.default_rng(%d)\n"
                "    _size = %s\n"
                "    if _size < _n:\n"
                "        _idx = numpy.sort(_rng.choice(_n, size=_size, replace=False))\n"
                "        _columns = {_k: numpy.asarray(_v)[_idx] for _k, _v in _columns.items()}\n"
                % (seed, size_expr)
            )

        body = (
            "    import numpy\n"
            f"    _columns = {{{names_literal}}}\n"
            "    _n = 0\n"
            "    for _v in _columns.values():\n"
            "        if hasattr(_v, '__len__'):\n"
            "            _n = max(_n, len(_v))\n"
            f"{sampling_lines}"
            "    return _columns\n"
        )
        return make_signature(EXTRACT_FUNCTION_PREFIX + signature.name.lower(),
                              columns, returns_table=True,
                              return_columns=columns, body=body)


# --------------------------------------------------------------------------- #
# executing a plan against the server
# --------------------------------------------------------------------------- #
class InputExtractor:
    """Runs an :class:`ExtractionPlan` over a client connection."""

    def __init__(self, connection: Connection,
                 signatures: Mapping[str, FunctionSignature],
                 transfer: DataTransferSettings | None = None) -> None:
        self.connection = connection
        self._signatures = {name.lower(): sig for name, sig in signatures.items()}
        self.transfer = transfer or DataTransferSettings()

    def _options(self) -> TransferOptions:
        return self.transfer.transfer_options()

    def extract(self, plan: ExtractionPlan) -> ExtractedInputs:
        """Execute the extraction queries and collect the UDF's local inputs."""
        inputs = ExtractedInputs(udf_name=plan.udf_name,
                                 warnings=list(plan.warnings))
        options = self._options()

        # constants straight from the parsed debug query
        for source in plan.constant_parameters:
            inputs.parameters[source.name] = source.value

        # column inputs through the server-side extract function
        if plan.extraction_query is not None:
            if plan.extract_function is not None:
                self._ensure_extract_function(inputs, plan, options)
            result = self._execute(inputs, plan.extraction_query, options)
            columns = result.to_numpy_dict()
            for source in plan.column_parameters:
                if source.name in columns:
                    inputs.parameters[source.name] = columns[source.name]
            inputs.rows_extracted += result.row_count

        # loopback data (paper §2.3): replayable data queries and nested-UDF inputs
        for loopback in plan.loopback_queries:
            if loopback.calls_nested_udf:
                for subquery in loopback.subqueries:
                    key = normalize_query(subquery)
                    if key in inputs.loopback:
                        continue
                    result = self._execute(inputs, subquery, options)
                    inputs.loopback[key] = result.to_dict()
                    inputs.rows_extracted += result.row_count
            elif loopback.has_placeholders:
                inputs.warnings.append(
                    "loopback query with runtime placeholders cannot be extracted "
                    f"statically: {loopback.normalized!r}"
                )
            else:
                key = loopback.normalized
                if key in inputs.loopback:
                    continue
                result = self._execute(inputs, loopback.text, options)
                inputs.loopback[key] = result.to_dict()
                inputs.rows_extracted += result.row_count

        # nested UDFs one level deeper: their bodies may also contain plain
        # loopback queries (kept shallow, like the paper's example)
        for nested_name in plan.nested_udfs:
            nested_signature = self._signatures.get(nested_name)
            if nested_signature is None:
                inputs.warnings.append(f"nested UDF {nested_name!r} not found in catalog")
                continue
            for loopback in analyse_loopback_queries(nested_signature.body,
                                                     self._signatures.keys()):
                if loopback.calls_nested_udf or loopback.has_placeholders:
                    continue
                key = loopback.normalized
                if key in inputs.loopback:
                    continue
                result = self._execute(inputs, loopback.text, options)
                inputs.loopback[key] = result.to_dict()
                inputs.rows_extracted += result.row_count
        return inputs

    def _ensure_extract_function(self, inputs: ExtractedInputs,
                                 plan: ExtractionPlan,
                                 options: TransferOptions) -> None:
        """Create the plan's extract function — unless the connection's catalog
        snapshot shows that the server stores exactly this one already."""
        helper, connection = plan.extract_function, self.connection
        # in the form a catalog read returns it
        stored = replace(helper, body=strip_catalog_braces("{" + helper.body + "}"))
        snapshot, version = connection.cached_catalog(), connection.catalog_version
        if snapshot is not None and snapshot.get(helper.name) == stored:
            return
        self._execute(inputs, plan.extract_function_sql, options)
        if snapshot is not None and connection.catalog_version == version + 1:
            # the one change since the snapshot is this statement's own:
            # recorded, the snapshot stays current instead of lapsing
            snapshot[helper.name] = stored
            connection.cache_catalog(snapshot)

    def _execute(self, inputs: ExtractedInputs, sql: str,
                 options: TransferOptions) -> QueryResult:
        result = self.connection.execute(sql, options=options)
        inputs.queries_issued.append(sql)
        transfer = self.connection.stats.last_transfer
        if transfer is not None:
            inputs.wire_bytes += transfer.wire_bytes
            inputs.raw_bytes += transfer.raw_bytes
        return result
