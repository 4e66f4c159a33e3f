"""Unit tests for the CLI argument parser (behavioural tests live in
tests/integration/test_cli.py)."""

import pytest

from repro.cli import build_parser


@pytest.fixture()
def parser():
    return build_parser()


class TestParser:
    def test_all_subcommands_registered(self, parser):
        text = parser.format_help()
        for command in ("configure", "list", "import", "export", "debug",
                        "history", "table1", "demo-server"):
            assert command in text

    def test_configure_arguments(self, parser):
        args = parser.parse_args([
            "configure", "--project", "p", "--host", "h", "--port", "1234",
            "--debug-query", "SELECT f(i) FROM t", "--compression", "zlib",
            "--encrypt", "--sample-size", "10"])
        assert args.port == 1234
        assert args.debug_query == "SELECT f(i) FROM t"
        assert args.compression == "zlib"
        assert args.encrypt is True
        assert args.sample_size == 10

    def test_no_encrypt_flag(self, parser):
        args = parser.parse_args(["configure", "--project", "p", "--no-encrypt"])
        assert args.encrypt is False

    def test_import_accepts_multiple_udfs(self, parser):
        args = parser.parse_args(["import", "--project", "p", "a", "b", "c"])
        assert args.udfs == ["a", "b", "c"]

    def test_debug_arguments(self, parser):
        args = parser.parse_args([
            "debug", "--project", "p", "--udf", "f", "--breakpoint", "3",
            "--breakpoint", "9", "--breakpoint-text", "distance +=",
            "--watch", "total", "--run-only", "--max-stops", "7"])
        assert args.breakpoint == [3, 9]
        assert args.breakpoint_text == "distance +="
        assert args.watch == ["total"]
        assert args.run_only is True
        assert args.max_stops == 7

    def test_missing_subcommand_rejected(self, parser):
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_invalid_compression_choice_rejected(self, parser):
        with pytest.raises(SystemExit):
            parser.parse_args(["configure", "--project", "p", "--compression", "lz4"])

    def test_every_registered_codec_is_a_compression_choice(self, parser):
        from repro.netproto.compression import available_codecs

        assert "shuffle" in available_codecs() and "none" in available_codecs()
        for codec in available_codecs():
            args = parser.parse_args(["configure", "--project", "p",
                                      "--compression", codec])
            assert args.compression == codec

    @pytest.mark.parametrize("spelling", ["Shuffle", "NONE"])
    def test_compression_choice_in_any_case_is_lower_cased(self, parser, spelling):
        args = parser.parse_args(["configure", "--project", "p",
                                  "--compression", spelling])
        assert args.compression == spelling.lower()

    def test_demo_server_defaults(self, parser):
        args = parser.parse_args(["demo-server", "--csv-dir", "/tmp/x"])
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.fixed is False
