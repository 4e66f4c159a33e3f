"""Grouped and joined answers, bit for bit, against a recorded reference.

``data/grouping_golden.jsonl`` was written by ``grouping_golden.py`` on the
commit before grouping stopped building per-row group ids for its sort
layout, the partial merge stopped matching keys through a dict, an all-true
filter stopped copying its morsel and a unique-key join stopped expanding
pairs; its ``_MERGED`` entries (what a partial-aggregate merge can get
wrong) were added on the commit before a filter keeping one run of rows
began to slice its morsel.  None of those may change an answer:
every statement must return the same column names and types and the same
rows in the same order, with every float equal to the bit, at each recorded
morsel size.  Two entries were re-recorded on purpose, both at 1,024 rows:
``SELECT c, MIN(n), MAX(n), SUM(n), AVG(n) FROM g [WHERE id >= 1000] GROUP
BY c``, whose MIN / MAX of a group holding a NaN depended on whether the NaN
came in the group's first morsel; they now answer NaN, as one morsel does.
Two more were re-recorded on purpose at 65,536 rows: ``SELECT c, COUNT(*),
SUM(big), AVG(big), MIN(big), MAX(big) FROM g [WHERE id >= 2500] GROUP BY
c``, whose one-morsel AVG summed ``big`` (values near 2^52) as doubles and
rounded in the last place; it now sums integers exactly and divides once,
as the partial merge at 1,024 and 4,096 rows does, and all three sizes
agree.
"""

import json

import pytest

from grouping_golden import (
    GOLDEN,
    MORSEL_ROWS,
    answer,
    database,
    invariance_report,
    statements,
)

ENTRIES = [json.loads(line)
           for line in GOLDEN.read_text(encoding="utf-8").splitlines()]


def test_the_statements_are_the_recorded_ones():
    assert [(entry["morsel_rows"], entry["sql"]) for entry in ENTRIES] == [
        (morsel_rows, sql) for morsel_rows in MORSEL_ROWS
        for sql in statements()]
    # every WHERE shape is there, and some answers are long
    assert any(not entry["expect"]["rows"] for entry in ENTRIES)
    assert max(len(entry["expect"]["rows"]) for entry in ENTRIES) >= 5_000


@pytest.mark.parametrize("morsel_rows", MORSEL_ROWS)
def test_every_statement_answers_as_recorded(morsel_rows):
    db = database(morsel_rows)
    different = {}
    for entry in ENTRIES:
        if entry["morsel_rows"] != morsel_rows:
            continue
        got = answer(db, entry["sql"])
        if got != entry["expect"]:
            different[entry["sql"]] = got
    db.close()
    assert not different, (len(different), list(different)[:5])


def test_the_recorded_answers_agree_across_morsel_sizes():
    # COUNT, MIN, MAX, integer SUM and the keys cannot depend on how rows
    # were split into morsels; before the re-recording this listed the two
    # NaN statements above
    assert invariance_report(ENTRIES) == []
