"""Every input reader numbers a record by the physical line it ends on, so a
quoted line break, a blank line or a comment before a bad record does not
shift the number in its message."""

from __future__ import annotations

import pytest

from tweetflow.categorize import load_gazetteer
from tweetflow.corpus import load_corpus
from tweetflow.domainfilter import load_dictionary
from tweetflow.errors import ConfigError, DataError
from tweetflow.resources import (
    default_path,
    load_boosters,
    load_lemma_table,
    load_stopwords,
    load_valences,
)
from tweetflow.storage import read_jsonl


def load_csv_corpus(path):
    return load_corpus(path, "csv", strict=True)


CSV_CASES = [
    (load_csv_corpus, "id,text,lang\n", "1,\"two\nlines\",en\n", ",no id,en\n",
     "line 4: row must have non-empty id and text"),
    (load_gazetteer, "name,kind,aliases,lat,lon\n", 'bari,city,"Bari\nvecchia",41.1,16.8\n',
     "lecce,town,,40.3,18.1\n", "in.csv line 4: bad kind 'town'"),
    (load_dictionary, "term,label,frequency\n", '"sea\nside",Tourism,3\n', "beach,Maybe,3\n",
     "in.csv line 4: unknown label 'Maybe'"),
]
CSV_IDS = ["corpus", "gazetteer", "dictionary"]


# a valid row whose quoted field spans lines 2-3, or two blank lines, before a bad line 4
@pytest.mark.parametrize("before", ["quoted-line-break", "blank-lines"])
@pytest.mark.parametrize("load, header, multiline, bad, message", CSV_CASES, ids=CSV_IDS)
def test_a_csv_row_is_numbered_by_the_line_it_ends_on(
    tmp_path, load, header, multiline, bad, message, before
):
    path = tmp_path / "in.csv"
    path.write_text(
        header + (multiline if before == "quoted-line-break" else "\n\n") + bad, encoding="utf-8"
    )
    with pytest.raises(DataError, match=message):
        load(path)


@pytest.mark.parametrize(
    "load, noun",
    [(load_corpus, "corpus"), (load_csv_corpus, "corpus"), (load_gazetteer, "gazetteer"),
     (load_dictionary, "dictionary")],
    ids=["corpus-jsonl", "corpus-csv", "gazetteer", "dictionary"],
)
def test_missing_input_names_its_kind(tmp_path, load, noun):
    with pytest.raises(DataError, match=f"^{noun} file not found: .*absent"):
        load(tmp_path / "absent")


class TestJsonl:
    def test_read_jsonl_names_the_physical_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\nnot json\n', encoding="utf-8")
        with pytest.raises(DataError, match=r"^line 3: invalid JSON"):
            read_jsonl(path)

    def test_read_jsonl_rejects_a_row_that_is_no_object(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n[1, 2]\n', encoding="utf-8")
        with pytest.raises(DataError, match=r"^line 2: row is not an object"):
            read_jsonl(path)

    def test_read_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n  \n{"a": 2}\n', encoding="utf-8")
        assert read_jsonl(path) == [{"a": 1}, {"a": 2}]

    def test_a_line_separator_inside_a_text_is_not_a_line_break(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"text": "a b\u0085c"}\n', encoding="utf-8")
        assert read_jsonl(path) == [{"text": "a b\u0085c"}]

    def test_lenient_corpus_load_skips_the_bad_line_and_goes_on(self, tmp_path, caplog):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"id": "1", "text": "a"}\n\n[]\n{"id": "2", "text": "b"}\n',
                        encoding="utf-8")
        assert [r.id for r in load_corpus(path)] == ["1", "2"]
        assert "rows.jsonl: skipping malformed row at line 3" in caplog.text


class TestResourceLines:
    @pytest.mark.parametrize(
        "load, text, message",
        [
            (load_boosters, "# '+' intensifies\n\n+very\nvery\n", "bad booster row 4: 'very'"),
            (load_valences, "# token\tvalence\ngood\t2.0\n\ngood\n", "bad valence row 4: 'good'"),
            (load_lemma_table, "\n# surface\tlemma\nbeaches\n", "bad lemma row 3: 'beaches'"),
        ],
        ids=["booster", "valence", "lemma"],
    )
    def test_row_number_is_the_physical_line(self, tmp_path, load, text, message):
        path = tmp_path / "res.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=f"res.txt: {message}"):
            load(path)

    def test_bad_row_in_the_bundled_boosters_counts_the_comment_line(self, tmp_path):
        bundled = default_path("boosters_en.txt").read_text(encoding="utf-8")
        assert bundled.startswith("#") and bundled.endswith("\n")
        path = tmp_path / "boosters_en.txt"
        path.write_text(bundled + "very\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"bad booster row {bundled.count(chr(10)) + 1}:"):
            load_boosters(path)

    def test_missing_resource_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="resource file not found"):
            load_stopwords(tmp_path / "absent.txt")
