"""Importing UDFs from the database into the IDE project (Figure 3a).

"The development process begins by importing the existing UDFs within the
server into the development environment. ... The developer has the option to
select the functions that he wishes to import, or he can choose to import all
functions stored within the database server." (paper §2.1)

The importer queries the server's meta tables (``sys.functions`` joined to
``sys.args``), reconstructs each UDF's signature, applies the Listing 1 ->
Listing 2 code transformation, and writes one file per UDF into the project.
UDFs whose loopback queries call other UDFs get those nested UDFs embedded in
the same file (paper §2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ImportUDFError
from ..netproto.client import Connection
from ..sqldb.schema import ColumnDef, FunctionParameter, FunctionSignature
from ..sqldb.types import ColumnType, parse_type_name
from .extract import EXTRACT_FUNCTION_PREFIX
from .nested import find_nested_udf_names
from .project import DevUDFProject
from .transform import UDFCodeTransformer, strip_catalog_braces

#: MonetDB language codes for Python UDFs (sys.functions.language).
_PYTHON_LANGUAGE_CODES = (6, 7)
_TABLE_FUNCTION_TYPE = 5


@dataclass
class ImportedUDF:
    """One UDF imported into the project."""

    name: str
    relative_path: str
    nested_udfs: list[str] = field(default_factory=list)
    parameter_names: list[str] = field(default_factory=list)
    returns_table: bool = False


@dataclass
class ImportReport:
    """Outcome of one Import UDFs action."""

    imported: list[ImportedUDF] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    available: list[str] = field(default_factory=list)
    queries_issued: int = 0

    @property
    def imported_names(self) -> list[str]:
        return [udf.name for udf in self.imported]


class UDFImporter:
    """Reads UDFs out of the server catalog and materialises them as files."""

    def __init__(self, connection: Connection, project: DevUDFProject) -> None:
        self.connection = connection
        self.project = project
        self.transformer = UDFCodeTransformer()

    # ------------------------------------------------------------------ #
    # catalog introspection
    # ------------------------------------------------------------------ #
    def fetch_signatures(self, *, include_internal: bool = False
                         ) -> dict[str, FunctionSignature]:
        """Reconstruct the signature of every Python UDF on the server.

        One statement reads both meta tables, and what it yields is kept on
        the connection: until a reply shows another ``catalog_version``,
        every later call is answered from that snapshot.
        """
        signatures = self.connection.cached_catalog()
        if signatures is None:
            signatures = self._read_catalog()
            self.connection.cache_catalog(signatures)
        return {key: signature for key, signature in signatures.items()
                if include_internal
                or not key.startswith(EXTRACT_FUNCTION_PREFIX)}

    def _read_catalog(self) -> dict[str, FunctionSignature]:
        signatures: dict[str, FunctionSignature] = {}
        for (name, func_text, language, func_type,
             arg_name, arg_type, number, inout) in self.connection.execute(
                "SELECT f.name, f.func, f.language, f.type, "
                "a.name, a.type, a.number, a.inout "
                "FROM sys.functions f LEFT JOIN sys.args a ON a.func_id = f.id "
                "ORDER BY f.id, a.inout, a.number").rows():
            if int(language) not in _PYTHON_LANGUAGE_CODES:
                continue
            key = name.lower()
            signature = signatures.get(key)
            if signature is None:
                signature = signatures[key] = FunctionSignature(
                    name=name, language="PYTHON",
                    returns_table=int(func_type) == _TABLE_FUNCTION_TYPE,
                    body=strip_catalog_braces(func_text))
            if arg_name is None:  # a function without arguments or result
                continue
            sql_type = parse_type_name(arg_type)
            if int(inout) == 1:
                signature.parameters.append(
                    FunctionParameter(arg_name, sql_type, int(number)))
            elif signature.returns_table:
                signature.return_columns.append(
                    ColumnDef(arg_name, ColumnType(sql_type)))
            elif signature.return_type is None:
                signature.return_type = sql_type
        return signatures

    def list_available(self) -> list[str]:
        """Names of the Python UDFs stored on the server (the import dialog list)."""
        return sorted(sig.name for sig in self.fetch_signatures().values())

    # ------------------------------------------------------------------ #
    # the Import UDFs action
    # ------------------------------------------------------------------ #
    def import_udfs(self, names: list[str] | None = None, *,
                    commit_message: str | None = "Import UDFs from database"
                    ) -> ImportReport:
        """Import selected UDFs (or all of them when ``names`` is None)."""
        queries_before = self.connection.stats.queries
        signatures = self.fetch_signatures()
        report = ImportReport(available=sorted(s.name for s in signatures.values()))

        if names is None:
            selected = list(signatures.values())
        else:
            selected = []
            for name in names:
                signature = signatures.get(name.lower())
                if signature is None:
                    raise ImportUDFError(
                        f"UDF {name!r} does not exist on the server; "
                        f"available: {report.available}"
                    )
                selected.append(signature)

        known_names = set(signatures.keys())
        for signature in selected:
            nested_names = find_nested_udf_names(signature.body, known_names)
            nested_names = [n for n in nested_names if n != signature.name.lower()]
            nested_signatures = [signatures[n] for n in nested_names if n in signatures]
            transformed = self.transformer.udf_to_standalone(
                signature, nested=nested_signatures
            )
            relative_path = self.project.udf_file_path(signature.name)
            self.project.ide_project.create_file(relative_path, transformed.source)
            self.project.register_udf_file(
                signature.name, relative_path,
                nested_udfs=transformed.nested_names,
                imported_from=self.connection.info.describe(),
            )
            report.imported.append(ImportedUDF(
                name=signature.name,
                relative_path=relative_path,
                nested_udfs=transformed.nested_names,
                parameter_names=signature.parameter_names,
                returns_table=signature.returns_table,
            ))

        report.skipped = [
            name for name in report.available
            if name.lower() not in {udf.name.lower() for udf in report.imported}
        ]
        report.queries_issued = self.connection.stats.queries - queries_before
        if report.imported and commit_message and self.project.vcs is not None:
            self.project.commit(commit_message)
        return report
