"""UDF code transformations (paper §2.2, Listings 1 and 2).

MonetDB stores only the *body* of a Python UDF in its meta tables.  To edit
and debug the function inside the IDE, devUDF synthesises a runnable
standalone Python file:

* the ``def`` header is rebuilt from the function name and its catalog
  parameters,
* the input data is loaded from a binary blob (``./input.bin``) with
  ``pickle`` and passed as the arguments,
* a trailing call executes the function so that running the file runs the UDF.

When the developer exports the UDF back to the database "these transformations
are reversed and only the function body is committed".  Both directions live
here, together with the embedded-metadata header that lets a generated file be
exported without access to the original catalog entry.
"""

from __future__ import annotations

import ast as python_ast
import json
import textwrap
from dataclasses import dataclass, field
from typing import Any

from ..errors import TransformError
from ..sqldb.schema import ColumnDef, FunctionParameter, FunctionSignature
from ..sqldb.types import ColumnType, SQLType

#: Default location of the pickled input parameters, as in Listing 2.
DEFAULT_INPUT_FILE = "./input.bin"

#: Marker line embedding the catalog signature in generated files.
SIGNATURE_MARKER = "# devudf:signature:"

#: Marker naming nested UDFs included in a generated file (paper §2.3).
NESTED_MARKER = "# devudf:nested:"


# --------------------------------------------------------------------------- #
# signature <-> JSON (the embedded metadata header)
# --------------------------------------------------------------------------- #
def signature_to_json(signature: FunctionSignature) -> str:
    payload = {
        "name": signature.name,
        "language": signature.language,
        "parameters": [
            {"name": p.name, "type": p.sql_type.value, "number": p.number}
            for p in signature.parameters
        ],
        "returns_table": signature.returns_table,
        "return_columns": [
            {"name": c.name, "type": c.sql_type.value} for c in signature.return_columns
        ],
        "return_type": signature.return_type.value if signature.return_type else None,
    }
    return json.dumps(payload, sort_keys=True)


def signature_from_json(payload_text: str, *, body: str = "") -> FunctionSignature:
    try:
        payload = json.loads(payload_text)
    except json.JSONDecodeError as exc:
        raise TransformError(f"invalid embedded signature metadata: {exc}") from exc
    parameters = [
        FunctionParameter(p["name"], SQLType(p["type"]), int(p.get("number", i)))
        for i, p in enumerate(payload.get("parameters", []))
    ]
    return_columns = [
        ColumnDef(c["name"], ColumnType(SQLType(c["type"])))
        for c in payload.get("return_columns", [])
    ]
    return_type = SQLType(payload["return_type"]) if payload.get("return_type") else None
    return FunctionSignature(
        name=payload["name"],
        parameters=parameters,
        returns_table=bool(payload.get("returns_table", False)),
        return_columns=return_columns,
        return_type=return_type,
        language=payload.get("language", "PYTHON"),
        body=body,
    )


# --------------------------------------------------------------------------- #
# catalog text -> body
# --------------------------------------------------------------------------- #
def strip_catalog_braces(func_text: str) -> str:
    """Strip the ``{ ... };`` wrapper MonetDB stores around a Python UDF body.

    Listing 1 shows the stored format: the body is wrapped in braces and
    terminated with a semicolon.  Bodies that are already bare pass through.
    """
    text = func_text.strip()
    if text.startswith("{"):
        text = text[1:]
        if text.rstrip().endswith("};"):
            text = text.rstrip()[:-2]
        elif text.rstrip().endswith("}"):
            text = text.rstrip()[:-1]
    return textwrap.dedent(text).strip("\n").rstrip()


def normalise_body(body: str) -> str:
    """Canonical form of a UDF body used for round-trip comparisons."""
    return textwrap.dedent(body).strip("\n").rstrip() + "\n"


# --------------------------------------------------------------------------- #
# the local loopback connection template (nested UDFs, paper §2.3)
# --------------------------------------------------------------------------- #
_LOCAL_CONNECTION_TEMPLATE = '''\
class _DevUDFLocalConnection:
    """Local stand-in for the MonetDB/Python ``_conn`` loopback object.

    Loopback queries whose results were extracted from the server are replayed
    from the transferred data; loopback queries that call a nested UDF are
    executed locally against the nested function defined in this file.  The
    text of a string literal (or a comment) is taken as written: it is never
    case-folded, split at a comma or searched for a parenthesis.
    """

    #: a string literal or a comment, found the way the server's tokenizer
    #: finds them
    _LITERAL_OR_COMMENT = (r"""( ' [^']*+ (?: '' [^']*+ )*+ ' """
                           r"""| " [^"]*+ (?: "" [^"]*+ )*+ " """
                           r"""| --[^\\n]*\\n? | /\\*.*?\\*/ )""")

    def __init__(self, loopback_data, local_functions):
        self._loopback_data = dict(loopback_data or {})
        self._local_functions = dict(local_functions or {})
        self.queries = []

    @classmethod
    def _pieces(cls, query):
        """[outside, literal or comment, outside, ...]"""
        import re
        return re.split(cls._LITERAL_OR_COMMENT, str(query),
                        flags=re.VERBOSE | re.DOTALL)

    @classmethod
    def _normalize(cls, query):
        """The extracted data's key: blanks collapsed and case folded outside
        literals and comments, the trailing ``;`` dropped."""
        import re
        pieces = cls._pieces(query)
        pieces[::2] = [re.sub(r"\\s+", " ", piece).lower() for piece in pieces[::2]]
        return "".join(pieces).strip("; ")

    @classmethod
    def _code(cls, query):
        """``query`` with its literals and comments blanked, position for
        position: what is left is the SQL its calls and commas are in."""
        pieces = cls._pieces(query)
        pieces[1::2] = [" " * len(piece) for piece in pieces[1::2]]
        return "".join(pieces)

    def execute(self, query):
        import re
        query = str(query)
        normalized = self._normalize(query)
        self.queries.append(normalized)
        code = self._code(query)
        for name, function in self._local_functions.items():
            match = re.search(r"from\\s+" + re.escape(name) + r"\\s*\\(", code,
                              re.IGNORECASE)
            if match:
                return self._call_local(name, function, query, code, match.end() - 1)
        if normalized in self._loopback_data:
            return self._loopback_data[normalized]
        raise KeyError(
            "devUDF: no extracted data available for loopback query: %r" % normalized
        )

    def _call_local(self, name, function, query, code, open_position):
        arguments = []
        for start, stop in self._argument_spans(code, open_position):
            part = query[start:stop].strip()
            if not part:
                continue
            if part.startswith("(") and part.endswith(")"):
                inner = self._normalize(part[1:-1])
                if inner.startswith("select"):
                    data = self._loopback_data.get(inner)
                    if data is None:
                        raise KeyError(
                            "devUDF: no extracted data for nested subquery: %r" % inner
                        )
                    arguments.extend(data[key] for key in data)
                    continue
                part = part[1:-1].strip()
            arguments.append(self._parse_scalar(part))
        result = function(*arguments, _conn=self)
        if isinstance(result, dict):
            # normalise to column shape (as the server would return it)
            normalized = {}
            for key, value in result.items():
                if isinstance(value, (str, bytes)) or not hasattr(value, "__len__"):
                    normalized[key] = [value]
                else:
                    normalized[key] = value
            return normalized
        return {name: result}

    @staticmethod
    def _argument_spans(code, open_position):
        """(start, stop) of each top-level argument of the call whose ``(``
        is at ``open_position``."""
        spans, depth, start = [], 0, open_position + 1
        for index in range(open_position, len(code)):
            char = code[index]
            if char == "(":
                depth += 1
            elif char == ")":
                depth -= 1
                if depth == 0:
                    spans.append((start, index))
                    return spans
            elif char == "," and depth == 1:
                spans.append((start, index))
                start = index + 1
        raise ValueError("devUDF: unbalanced parentheses in loopback query")

    @staticmethod
    def _parse_scalar(text):
        text = text.strip()
        if len(text) >= 2 and text[0] == text[-1] == "'":
            return text[1:-1].replace("''", "'")
        try:
            return int(text)
        except ValueError:
            pass
        try:
            return float(text)
        except ValueError:
            return text
'''


@dataclass
class TransformedUDF:
    """The result of transforming a stored UDF into a standalone file."""

    signature: FunctionSignature
    source: str
    file_name: str
    nested_names: list[str] = field(default_factory=list)


class UDFCodeTransformer:
    """Implements the Listing 1 -> Listing 2 transformation and its reverse."""

    def __init__(self, *, input_file: str = DEFAULT_INPUT_FILE) -> None:
        self.input_file = input_file

    # ------------------------------------------------------------------ #
    # forward: catalog signature -> standalone runnable file
    # ------------------------------------------------------------------ #
    def render_function_def(self, signature: FunctionSignature) -> str:
        """Only the ``def`` for the UDF (used for nested UDFs too)."""
        params = list(signature.parameter_names) + ["_conn=None"]
        header = f"def {signature.name}({', '.join(params)}):"
        body = normalise_body(signature.body) if signature.body.strip() else "pass\n"
        indented = textwrap.indent(body.rstrip("\n"), "    ")
        return f"{header}\n{indented}\n"

    def udf_to_standalone(
        self,
        signature: FunctionSignature,
        *,
        nested: list[FunctionSignature] | None = None,
        input_file: str | None = None,
    ) -> TransformedUDF:
        """Generate the full standalone debug/edit file for a UDF.

        The layout follows Listing 2: imports, the synthesised function
        definition(s), loading of ``input_parameters`` from the pickled blob,
        and the trailing call that executes the UDF with those inputs.  Files
        with nested UDFs additionally define the nested functions and a local
        ``_conn`` replacement (paper §2.3).
        """
        nested = nested or []
        input_file = input_file or self.input_file
        parts: list[str] = []
        parts.append(f'"""devUDF export of UDF {signature.name!r}.\n\n'
                     "Generated by the devUDF plugin: edit the function below, debug it\n"
                     "locally with the IDE's interactive debugger, then export it back to\n"
                     "the database through the 'Export UDFs' action.\n"
                     '"""\n')
        parts.append(f"{SIGNATURE_MARKER} {signature_to_json(signature)}\n")
        if nested:
            nested_names = ",".join(sig.name for sig in nested)
            parts.append(f"{NESTED_MARKER} {nested_names}\n")
        # MonetDB/Python pre-imports numpy into the UDF namespace; the
        # generated file has to do so explicitly to run outside the server.
        parts.append("\nimport pickle\n\nimport numpy\n\n")

        for nested_signature in nested:
            parts.append("\n# --- nested UDF (imported together with the main UDF) ---\n")
            parts.append(f"{SIGNATURE_MARKER} {signature_to_json(nested_signature)}\n")
            parts.append(self.render_function_def(nested_signature))
            parts.append("\n")

        parts.append("\n# --- main UDF ---\n")
        parts.append(self.render_function_def(signature))
        parts.append("\n")

        needs_conn = bool(nested) or "_conn" in signature.body
        if needs_conn:
            parts.append("\n" + _LOCAL_CONNECTION_TEMPLATE + "\n")

        # Trailing load-and-call block, exactly like Listing 2: running the
        # file loads the transferred inputs and executes the UDF locally.
        parts.append("\n")
        parts.append(f"input_parameters = pickle.load(open({input_file!r}, 'rb'))\n\n")
        if needs_conn:
            local_functions = "{" + ", ".join(
                f"{sig.name!r}: {sig.name}" for sig in nested
            ) + "}"
            parts.append("_conn = _DevUDFLocalConnection(\n")
            parts.append("    input_parameters.get('_loopback', {}),\n")
            parts.append(f"    {local_functions},\n")
            parts.append(")\n\n")
        else:
            parts.append("_conn = None\n\n")
        call_args = ",\n    ".join(
            f"input_parameters[{p!r}]" for p in signature.parameter_names
        )
        if call_args:
            call = (f"__devudf_result__ = {signature.name}(\n"
                    f"    {call_args},\n    _conn=_conn)\n")
        else:
            call = f"__devudf_result__ = {signature.name}(_conn=_conn)\n"
        parts.append(call)
        parts.append("print('devUDF result:', __devudf_result__)\n")

        source = "".join(parts)
        self._check_compiles(signature.name, source)
        return TransformedUDF(
            signature=signature,
            source=source,
            file_name=f"{signature.name}.py",
            nested_names=[sig.name for sig in nested],
        )

    @staticmethod
    def _check_compiles(name: str, source: str) -> None:
        try:
            compile(source, f"<devudf {name}>", "exec")
        except SyntaxError as exc:
            raise TransformError(
                f"generated file for UDF {name!r} does not compile: {exc}"
            ) from exc

    # ------------------------------------------------------------------ #
    # reverse: standalone file -> body + signature (paper: "transformations
    # are reversed and only the function body is committed")
    # ------------------------------------------------------------------ #
    def standalone_to_signature(self, source: str,
                                expected_name: str | None = None) -> FunctionSignature:
        """Parse a generated (and possibly edited) file back into a signature.

        The declared SQL types come from the embedded metadata header; the
        body is re-extracted from the (edited) function definition so that the
        developer's changes are what gets exported.
        """
        metadata = self._extract_metadata(source, expected_name)
        name = expected_name or metadata["name"]
        body = extract_function_body(source, name)
        signature = signature_from_json(json.dumps(metadata), body=body)
        return signature

    def _extract_metadata(self, source: str, expected_name: str | None) -> dict[str, Any]:
        candidates: list[dict[str, Any]] = []
        for line in source.splitlines():
            stripped = line.strip()
            if stripped.startswith(SIGNATURE_MARKER):
                payload_text = stripped[len(SIGNATURE_MARKER):].strip()
                try:
                    candidates.append(json.loads(payload_text))
                except json.JSONDecodeError as exc:
                    raise TransformError(f"corrupt signature metadata: {exc}") from exc
        if not candidates:
            raise TransformError(
                "file has no devUDF signature metadata; was it generated by Import UDFs?"
            )
        if expected_name is None:
            # the *first* signature block belongs to the main UDF (it is
            # emitted in the file header, before the nested ones)
            return candidates[0]
        for candidate in candidates:
            if candidate.get("name", "").lower() == expected_name.lower():
                return candidate
        raise TransformError(f"no signature metadata for UDF {expected_name!r} in file")

    def list_embedded_udfs(self, source: str) -> list[str]:
        """Names of every UDF (main + nested) defined in a generated file."""
        names = []
        for line in source.splitlines():
            stripped = line.strip()
            if stripped.startswith(SIGNATURE_MARKER):
                payload = json.loads(stripped[len(SIGNATURE_MARKER):].strip())
                names.append(payload["name"])
        return names


def extract_function_body(source: str, function_name: str) -> str:
    """Extract the (dedented) body text of ``def function_name`` from a file."""
    try:
        module = python_ast.parse(source)
    except SyntaxError as exc:
        raise TransformError(f"cannot parse exported file: {exc}") from exc
    for node in python_ast.walk(module):
        if isinstance(node, python_ast.FunctionDef) and node.name == function_name:
            lines = source.splitlines()
            first = node.body[0].lineno
            last = node.body[-1].end_lineno or node.body[-1].lineno
            body_lines = lines[first - 1:last]
            return textwrap.dedent("\n".join(body_lines)).rstrip() + "\n"
    raise TransformError(f"no function definition {function_name!r} found in file")
