"""Tests for Table 1 (development-environment popularity)."""

from repro.core.surveys import (
    TABLE_1,
    format_table,
    ide_vs_text_editor_share,
    pycharm_rank,
    table_rows,
    total_share,
)


class TestTableContents:
    def test_twelve_rows_as_in_the_paper(self):
        assert len(TABLE_1) == 12

    def test_exact_rows_match_the_paper(self):
        rows = dict((name, (share, kind)) for name, share, kind in table_rows())
        assert rows["Eclipse"] == (25.2, "IDE")
        assert rows["Visual Studio"] == (19.5, "IDE")
        assert rows["Vim"] == (7.9, "Text Editor")
        assert rows["PyCharm"] == (2.3, "IDE")
        assert rows["Visual Studio Code"] == (3.3, "Text Editor")

    def test_rows_sorted_by_share_as_printed(self):
        shares = [share for _, share, _ in table_rows()]
        assert shares == sorted(shares, reverse=True)


class TestDerivedStatistics:
    def test_total_share(self):
        assert total_share() == 92.2
        assert total_share("IDE") == 77.7
        assert total_share("Text Editor") == 14.5

    def test_ide_vs_text_editor_share(self):
        shares = ide_vs_text_editor_share()
        assert shares["IDE"] == 77.7
        assert shares["Text Editor"] == 14.5

    def test_papers_claim_holds(self):
        """'IDEs are heavily preferred for development over simplistic text editors'."""
        shares = ide_vs_text_editor_share()
        assert shares["IDE"] > 5 * shares["Text Editor"]

    def test_pycharm_is_least_popular_listed(self):
        assert pycharm_rank() == 12


class TestRendering:
    def test_format_table_contains_all_rows(self):
        text = format_table()
        for env in TABLE_1:
            assert env.name in text
        assert "Market Share" in text
