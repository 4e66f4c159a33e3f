"""Tests for the result-stream builder, its assembler and transfer statistics."""

import pytest

from repro.errors import ProtocolError
from repro.netproto.compression import CODEC_ZLIB
from repro.netproto.messages import (
    MSG_RESULT,
    MSG_RESULT_CHUNK,
    ColumnarResultAssembler,
    TransferStats,
    result_messages,
)
from repro.sqldb.operators import slice_result
from repro.sqldb.result import QueryResult, ResultColumn
from repro.sqldb.types import SQLType


@pytest.fixture()
def sample_result() -> QueryResult:
    return QueryResult([
        ResultColumn("i", SQLType.INTEGER, [1, 2, 3]),
        ResultColumn("name", SQLType.STRING, ["a", "b", None]),
    ], affected_rows=0, statement_type="SELECT")


def assemble(messages, **kwargs):
    assembler = ColumnarResultAssembler(messages[0], **kwargs)
    for message in messages[1:]:
        assembler.add_chunk(message)
    return assembler.finish()


class TestEncodeDecodeResult:
    def test_plain(self, sample_result):
        messages = list(result_messages(sample_result))
        assert not messages[0]["encrypted"] and not messages[1]["encrypted"]
        decoded, _ = assemble(messages)
        assert decoded.fetchall() == sample_result.fetchall()
        assert decoded.column("name").sql_type is SQLType.STRING

    def test_encrypted_requires_key_to_decode(self, sample_result):
        messages = list(result_messages(sample_result, encryption_key="k"))
        with pytest.raises(ProtocolError):
            assemble(messages)
        decoded, stats = assemble(messages, encryption_key="k")
        assert decoded.row_count == 3
        assert stats.encrypted

    def test_no_codec_means_narrow_and_a_named_none_stays_raw(self, sample_result):
        messages = list(result_messages(sample_result, compression="none"))
        assert messages[0]["compression"] == "none"
        default = list(result_messages(sample_result))
        assert default[0]["compression"] == "narrow"
        assert default[1]["payload"] == \
            list(result_messages(sample_result, compression="narrow"))[1]["payload"]
        assert len(default[1]["payload"]) < len(messages[1]["payload"])
        assert assemble(messages)[1].compression_codec == "none"
        assert assemble(default)[0].fetchall() == assemble(messages)[0].fetchall()

    def test_stats_compression_ratio(self, sample_result):
        big = QueryResult([ResultColumn("s", SQLType.STRING,
                                        [f"{i:04d}" + "x" * 50 for i in range(500)])])
        _, stats = assemble(list(result_messages(big, compression=CODEC_ZLIB)))
        assert stats.compression_ratio > 10
        assert stats.wire_bytes == stats.compressed_bytes < stats.raw_bytes
        assert stats.total_rows == 500


class TestCompletionRule:
    """A result ends at the message flagged ``last`` and nowhere else."""

    def test_complete_result_is_one_piece_cut_by_chunk_rows(self):
        result = QueryResult([ResultColumn("i", SQLType.INTEGER, list(range(10)))])
        header, *chunks = result_messages(result, chunk_rows=4)
        assert header["type"] == MSG_RESULT
        assert header["row_count"] == 10 and not header["last"]
        assert [c["type"] for c in chunks] == [MSG_RESULT_CHUNK] * 3
        assert [(c["row_start"], c["row_count"], c["last"]) for c in chunks] \
            == [(0, 4, False), (4, 4, False), (8, 2, True)]
        decoded, stats = assemble([header, *chunks])
        assert decoded.fetchall() == result.fetchall()
        assert stats.chunks == 3 and stats.total_rows == 10

    @pytest.mark.parametrize("result", [
        QueryResult.empty(affected_rows=7, statement_type="INSERT"),
        QueryResult([ResultColumn("i", SQLType.INTEGER, [])]),
    ], ids=["dml", "empty_select"])
    def test_header_is_last_when_a_complete_result_has_no_rows(self, result):
        (header,) = result_messages(result)
        assert header["last"] and header["row_count"] == 0
        assembler = ColumnarResultAssembler(header)
        assert assembler.complete
        rebuilt, stats = assembler.finish()
        assert rebuilt.affected_rows == result.affected_rows
        assert rebuilt.statement_type == result.statement_type
        assert rebuilt.column_names == result.column_names
        assert rebuilt.row_count == 0 and stats.wire_bytes == 0

    def test_streamed_pieces_end_at_the_last_piece(self, sample_result):
        pieces = [slice_result(sample_result, 0, 2),
                  slice_result(sample_result, 2, 1)]
        header, *chunks = result_messages(iter(pieces))
        assert header["row_count"] == -1 and not header["last"]
        assert [(c["row_start"], c["row_count"], c["last"]) for c in chunks] \
            == [(0, 2, False), (2, 1, True)]
        assert assemble([header, *chunks])[0].fetchall() \
            == sample_result.fetchall()

    def test_empty_streamed_piece_still_ships_its_schema_chunk(
            self, sample_result):
        header, chunk = result_messages(iter([slice_result(sample_result, 0, 0)]))
        assert not header["last"]
        assert chunk["row_count"] == 0 and chunk["last"]
        decoded, _ = assemble([header, chunk])
        assert decoded.column_names == ["i", "name"]
        assert decoded.row_count == 0

    def test_oversize_streamed_piece_is_cut_like_any_other(self, sample_result):
        header, *chunks = result_messages(iter([sample_result]), chunk_rows=2)
        assert [(c["row_count"], c["last"]) for c in chunks] \
            == [(2, False), (1, True)]

    def test_truncated_stream_and_miscounted_rows_are_refused(self):
        result = QueryResult([ResultColumn("i", SQLType.INTEGER, list(range(6)))])
        header, first, second = result_messages(result, chunk_rows=3)
        with pytest.raises(ProtocolError, match="truncated"):
            assemble([header, first])
        with pytest.raises(ProtocolError, match="row counts"):
            assemble([header, second])


class TestTransferStats:
    def test_ratio_defaults_to_one(self):
        assert TransferStats().compression_ratio == 1.0

    def test_as_dict_keys(self):
        stats = TransferStats(raw_bytes=100, compressed_bytes=50, wire_bytes=50,
                              compression_codec=CODEC_ZLIB)
        payload = stats.as_dict()
        assert payload["compression_ratio"] == 2.0
        assert payload["compression_codec"] == CODEC_ZLIB
        assert set(payload) >= {"raw_bytes", "wire_bytes", "encrypted", "total_rows"}
