"""System catalog: registered functions and the ``sys.functions`` / ``sys.args``
meta tables.

devUDF discovers UDFs by querying the database's meta tables (paper §2.2,
Listing 1).  MonetDB stores only the *function body* in ``sys.functions.func``
and the parameters in ``sys.args``; this module reproduces that layout so that
the plugin-side catalog queries behave exactly as described.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..errors import CatalogError
from .schema import ColumnDef, FunctionParameter, FunctionSignature
from .types import ColumnType, SQLType

#: Language codes as used by MonetDB's sys.functions.language column.
LANGUAGE_CODES = {"SQL": 2, "C": 3, "R": 5, "PYTHON": 6, "PYTHON_MAP": 7}

#: func_type code for regular functions and table-returning functions.
FUNCTION_TYPE_SCALAR = 1
FUNCTION_TYPE_TABLE = 5


@dataclass
class CatalogFunction:
    """A function as registered in the catalog."""

    oid: int
    signature: FunctionSignature
    is_builtin: bool = False

    @property
    def name(self) -> str:
        return self.signature.name

    @property
    def language(self) -> str:
        return self.signature.language


class FunctionCatalog:
    """Registry of user-defined functions.

    Functions are addressed case-insensitively by name (MonetDB allows
    overloading by arity; the devUDF workflow does not rely on it, so one
    name maps to one function here and re-creation requires OR REPLACE).
    """

    def __init__(self) -> None:
        self._functions: dict[str, CatalogFunction] = {}
        self._next_oid = 1000

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(self, signature: FunctionSignature, *, replace: bool = False,
                 is_builtin: bool = False) -> CatalogFunction:
        key = signature.name.lower()
        if key in self._functions and not replace:
            raise CatalogError(
                f"function {signature.name!r} already exists "
                "(use CREATE OR REPLACE FUNCTION)"
            )
        oid = self._functions[key].oid if key in self._functions else self._next_oid
        if key not in self._functions:
            self._next_oid += 1
        entry = CatalogFunction(oid=oid, signature=signature, is_builtin=is_builtin)
        self._functions[key] = entry
        return entry

    def drop(self, name: str, *, if_exists: bool = False) -> None:
        key = name.lower()
        if key not in self._functions:
            if if_exists:
                return
            raise CatalogError(f"function {name!r} does not exist")
        del self._functions[key]

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def has(self, name: str) -> bool:
        return name.lower() in self._functions

    def get(self, name: str) -> CatalogFunction:
        try:
            return self._functions[name.lower()]
        except KeyError:
            raise CatalogError(f"function {name!r} does not exist") from None

    def names(self) -> list[str]:
        return sorted(entry.name for entry in self._functions.values())

    def functions(self) -> list[CatalogFunction]:
        return sorted(self._functions.values(), key=lambda entry: entry.oid)

    def __len__(self) -> int:
        return len(self._functions)

    # ------------------------------------------------------------------ #
    # meta tables (sys.functions / sys.args), paper Listing 1
    # ------------------------------------------------------------------ #
    def sys_functions_rows(self) -> list[tuple]:
        """Rows of the ``sys.functions`` meta table.

        Columns: id, name, func, mod, language, type.  ``func`` holds the
        *body only*, wrapped in braces exactly as MonetDB renders it, which is
        what forces devUDF to synthesise the header on import.
        """
        rows = []
        for entry in self.functions():
            sig = entry.signature
            body = sig.body if sig.body.endswith("\n") or not sig.body else sig.body + "\n"
            func_text = "{\n" + body + "};" if sig.language.upper().startswith("PYTHON") else sig.body
            func_type = FUNCTION_TYPE_TABLE if sig.returns_table else FUNCTION_TYPE_SCALAR
            rows.append(
                (
                    entry.oid,
                    sig.name,
                    func_text,
                    "pyapi" if sig.language.upper().startswith("PYTHON") else "user",
                    LANGUAGE_CODES.get(sig.language.upper(), 0),
                    func_type,
                )
            )
        return rows

    def sys_args_rows(self) -> list[tuple]:
        """Rows of the ``sys.args`` meta table.

        Columns: id, func_id, name, type, number, inout.  Output columns of
        table-returning functions are listed with inout=0 (MonetDB's
        convention), input parameters with inout=1.
        """
        rows = []
        arg_id = 10000
        for entry in self.functions():
            sig = entry.signature
            if sig.returns_table:
                for number, col in enumerate(sig.return_columns):
                    rows.append((arg_id, entry.oid, col.name, str(col.sql_type), number, 0))
                    arg_id += 1
            elif sig.return_type is not None:
                rows.append((arg_id, entry.oid, "result", str(sig.return_type), 0, 0))
                arg_id += 1
            for param in sig.parameters:
                rows.append(
                    (arg_id, entry.oid, param.name, str(param.sql_type), param.number, 1)
                )
                arg_id += 1
        return rows


def make_signature(
    name: str,
    parameters: Iterable[tuple[str, SQLType]],
    *,
    returns_table: bool = False,
    return_columns: Iterable[tuple[str, SQLType]] = (),
    return_type: SQLType | None = None,
    language: str = "PYTHON",
    body: str = "",
) -> FunctionSignature:
    """Convenience constructor used by tests and the workload corpus."""
    params = [
        FunctionParameter(name=pname, sql_type=ptype, number=index)
        for index, (pname, ptype) in enumerate(parameters)
    ]
    ret_cols = [
        ColumnDef(cname, ColumnType(ctype)) for cname, ctype in return_columns
    ]
    return FunctionSignature(
        name=name,
        parameters=params,
        returns_table=returns_table,
        return_columns=ret_cols,
        return_type=return_type,
        language=language,
        body=body,
    )
