from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest
import yaml

import tweetflow
from tweetflow import exports, pipeline, preprocess, resources, wordgraph
from tweetflow.cli import main
from tweetflow.config import STAGES, PipelineConfig, load_config
from tweetflow.errors import ConfigError, StageError
from tweetflow.pipeline import REPORT_COPIES, run_all, run_stage
from tweetflow.resources import default_path


def make_config(tmp_path, corpus_path, **overrides) -> Path:
    payload = {
        "input": str(corpus_path),
        "out": str(tmp_path / "out"),
        "seed": 42,
        "languages": ["en", "it"],
        "topics": {"k": 3, "alpha": 0.5, "iterations": 150, "max_rounds": 1, "top_words": 10},
        "cluster": {"k_min": 2, "k_max": 3, "lda_refine": False},
    }
    payload.update(overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory, fixture_corpus_path):
    """One full pipeline run shared by the read-only assertions below."""
    tmp_path = tmp_path_factory.mktemp("pipeline")
    config_path = make_config(tmp_path, fixture_corpus_path)
    config = load_config(config_path)
    run_all(config)
    return config


class TestConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.yaml")

    def test_missing_seed_rejected(self, tmp_path, fixture_corpus_path):
        path = tmp_path / "c.yaml"
        path.write_text(
            yaml.safe_dump({"input": str(fixture_corpus_path), "out": str(tmp_path)}),
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match="seed"):
            load_config(path)

    def test_bad_language_rejected(self, tmp_path, fixture_corpus_path):
        path = make_config(tmp_path, fixture_corpus_path, languages=["fr"])
        with pytest.raises(ConfigError):
            load_config(path)

    def test_relative_paths_resolve_against_config(self, tmp_path, fixture_corpus_path):
        shutil.copy(fixture_corpus_path, tmp_path / "corpus.jsonl")
        path = make_config(tmp_path, "corpus.jsonl")
        config = load_config(path)
        assert config.input == tmp_path / "corpus.jsonl"

    def test_stage_seeds_differ_and_are_stable(self, tmp_path, fixture_corpus_path):
        config = load_config(make_config(tmp_path, fixture_corpus_path))
        assert config.stage_seed("topics:en") != config.stage_seed("topics:it")
        assert config.stage_seed("topics:en") == config.stage_seed("topics:en")

    def test_lang_override_restricts(self, tmp_path, fixture_corpus_path):
        config = load_config(
            make_config(tmp_path, fixture_corpus_path), lang_override="it"
        )
        assert config.languages == ("it",)

    def test_unset_keys_take_their_defaults(self, tmp_path, fixture_corpus_path):
        path = tmp_path / "c.yaml"
        path.write_text(
            yaml.safe_dump({"input": str(fixture_corpus_path), "out": "out", "seed": 1}),
            encoding="utf-8",
        )
        config = load_config(path)
        settings = [f for f in fields(PipelineConfig) if "key" in f.metadata]
        assert len(settings) == 19
        for setting in settings:
            assert getattr(config, setting.name) == setting.default, setting.metadata["key"]

    def test_null_accepted_where_it_has_a_meaning(self, tmp_path, fixture_corpus_path):
        path = make_config(
            tmp_path,
            fixture_corpus_path,
            topics={"k": 3, "alpha": None},
            cluster={"k_min": 2, "k_max": 3, "sample_size": None},
        )
        config = load_config(path)
        assert config.lda_alpha is None
        assert config.cluster_sample_size is None

    def test_numbers_load_as_their_kind(self, tmp_path, fixture_corpus_path):
        path = make_config(tmp_path, fixture_corpus_path, topics={"k": 3, "beta": 1}, strict=True)
        config = load_config(path)
        assert config.lda_beta == 1.0 and isinstance(config.lda_beta, float)
        assert config.strict is True

    def test_readme_lists_every_key_with_its_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        for setting in fields(PipelineConfig):
            if "key" in setting.metadata:
                default = yaml.safe_dump(setting.default).split("\n")[0]
                row = f"| `{setting.metadata['key']}` | `{default}` |"
                assert row in readme, row

    def test_unknown_resource_key_rejected(self, tmp_path, fixture_corpus_path):
        path = make_config(
            tmp_path, fixture_corpus_path, resources={"mystery": "x.txt"}
        )
        with pytest.raises(ConfigError):
            load_config(path)


class TestConfigValues:
    """Bad settings stop at config load with exit 1 and a message."""

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"cluster": {"k_min": 2, "k_max": 3, "sample_size": 0}}, "cluster.sample_size"),
            ({"cluster": {"k_min": 2, "k_max": 3, "sample_size": "all"}}, "cluster.sample_size"),
            ({"cluster": {"k_min": 2, "k_max": 3, "max_iters": 0}}, "cluster.max_iters"),
            ({"topics": {"k": 3, "alpha": "auto"}}, "topics.alpha"),
            ({"topics": {"k": 3, "alpha": 0}}, "topics.alpha"),
            ({"topics": {"k": 3, "beta": -0.1}}, "topics.beta"),
            ({"topics": {"k": 2.5}}, "topics.k"),
            ({"threads": "two"}, "threads"),
            ({"seed": "abc"}, "seed must be an integer"),
            ({"seed": True}, "seed must be an integer"),
            ({"seed": 4.0}, "seed must be an integer"),
            ({"threads": 4}, "unknown config keys: threads"),
            ({"topics": {"k": 3, "iteratons": 5}}, "unknown config keys: topics.iteratons"),
            ({"cluster": {"k_max": 3, "lda_refne": False}}, "cluster.lda_refne"),
            ({"resources": {"mystery": "x.txt"}}, "resources.mystery"),
            ({"metric": {"top_k": 5}}, "unknown config keys: metric"),
            ({"strict": "false"}, "strict must be true or false"),
            ({"cluster": {"k_max": 3, "lda_refine": "no"}}, "cluster.lda_refine must be true or"),
            ({"topics": {"k": None}}, "topics.k must be an integer, got None"),
            ({"metrics": {"top_k": None}}, "metrics.top_k must be an integer, got None"),
            ({"explore": {"top_n": -5}}, "explore.top_n must be >= 1"),
            ({"explore": {"top_n": 0}}, "explore.top_n must be >= 1"),
            ({"topics": {"k": 3, "top_words": 0}}, "topics.top_words must be >= 1"),
            ({"languages": ["en", "en"]}, "languages must be en, it or both, each once"),
            ({"languages": "en"}, "languages must be"),
            ({"graph": {"clique_cap": True}}, "graph.clique_cap must be an integer"),
            ({"format": "xml"}, "format must be one of jsonl, csv"),
            ({"filter": {"merge_mode": "both"}}, "filter.merge_mode must be one of union"),
            ({"topics": {"k": 3, "overlap_threshold": 1.5}}, "topics.overlap_threshold must be <="),
            ({"cluster": {"k_min": 4, "k_max": 3}}, "k_min <= k_max"),
            ({"topics": {"k": 3}, "explore": None, "filter": ["x"]}, "section 'filter' must be a"),
            ({"topics": {"k": 3, "beta": float("inf")}}, "topics.beta must be a finite number"),
            ({"topics": {"k": 3, "alpha": 10**400}}, "topics.alpha must be a finite number"),
        ],
    )
    def test_bad_value_is_config_error(
        self, tmp_path, fixture_corpus_path, caplog, overrides, message
    ):
        config_path = make_config(tmp_path, fixture_corpus_path, **overrides)
        assert main(["ingest", "--config", str(config_path)]) == 1
        assert message in caplog.text


class TestExitCodes:
    def test_config_error_is_1(self, tmp_path):
        assert main(["ingest", "--config", str(tmp_path / "absent.yaml")]) == 1

    def test_missing_upstream_is_3(self, tmp_path, fixture_corpus_path):
        config_path = make_config(tmp_path, fixture_corpus_path)
        assert main(["metrics", "--config", str(config_path)]) == 3

    def test_success_is_0(self, tmp_path, fixture_corpus_path):
        config_path = make_config(tmp_path, fixture_corpus_path)
        assert main(["ingest", "--config", str(config_path)]) == 0

    @pytest.mark.parametrize("present, missing", [("en", "it"), ("it", "en")])
    def test_configured_language_without_records_is_2(
        self, tmp_path, fixture_corpus_path, caplog, present, missing
    ):
        lines = fixture_corpus_path.read_text(encoding="utf-8").splitlines()
        corpus = tmp_path / f"corpus_{present}.jsonl"
        corpus.write_text(
            "".join(line + "\n" for line in lines if json.loads(line)["lang"] == present),
            encoding="utf-8",
        )
        config_path = make_config(tmp_path, corpus)
        assert main(["ingest", "--config", str(config_path)]) == 2
        assert f"in language {missing!r}" in caplog.text
        assert not (tmp_path / "out" / "ingest").exists()
        assert main(["ingest", "--config", str(config_path), "--lang", present]) == 0

    def test_empty_on_domain_set_is_2_at_cluster(self, tmp_path, caplog):
        # stopword-only texts: no route finds a tweet on-domain in either language
        texts = {
            "en": ["the and for", "are the so", "some such same"],
            "it": ["là cosa fa", "fare fatto ne", "può ce ne"],
        }
        rows = [
            {"id": f"{lang}{i}", "lang": lang, "text": text}
            for lang, lang_texts in texts.items()
            for i, text in enumerate(lang_texts)
        ]
        corpus = tmp_path / "stopwords.jsonl"
        corpus.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        config_path = make_config(tmp_path, corpus)
        assert main(["all", "--config", str(config_path)]) == 2
        assert "cluster: 0 of the 3 clustered 'en' tweets are on-domain" in caplog.text
        assert not (tmp_path / "out" / "cluster" / "tourism_en.jsonl").exists()
        assert not (tmp_path / "out" / "categorize").exists()

    def test_unknown_stage_rejected_by_parser(self, tmp_path, fixture_corpus_path):
        config_path = make_config(tmp_path, fixture_corpus_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["transmogrify", "--config", str(config_path)])
        assert exit_info.value.code == 1

    def test_threads_flag_is_gone(self, tmp_path, fixture_corpus_path):
        config_path = make_config(tmp_path, fixture_corpus_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["ingest", "--config", str(config_path), "--threads", "1"])
        assert exit_info.value.code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["ingest"], "the following arguments are required: --config"),
            (
                ["ingest", "--config", "{config}", "--seed", "abc"],
                "argument --seed: invalid int value: 'abc'",
            ),
            (
                ["ingest", "--config", "{config}", "--lang", "fr"],
                "argument --lang: invalid choice: 'fr'",
            ),
        ],
    )
    def test_usage_error_is_1_with_message(
        self, tmp_path, fixture_corpus_path, capsys, argv, message
    ):
        config_path = make_config(tmp_path, fixture_corpus_path)
        with pytest.raises(SystemExit) as exit_info:
            main([arg.format(config=config_path) for arg in argv])
        assert exit_info.value.code == 1
        assert message in capsys.readouterr().err

    def test_help_is_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert "usage: tweetflow" in capsys.readouterr().out

    def test_unexpected_failure_is_stage_error_3(
        self, tmp_path, fixture_corpus_path, monkeypatch, caplog
    ):
        def broken(config, out):
            raise RuntimeError("boom")

        monkeypatch.setitem(pipeline._STAGE_FUNCS, "explore", broken)
        config_path = make_config(tmp_path, fixture_corpus_path)
        assert main(["explore", "--config", str(config_path)]) == 3
        assert "stage explore failed: RuntimeError: boom" in caplog.text

    def test_write_outside_the_stage_directory_is_stage_error_3(
        self, tmp_path, fixture_corpus_path, monkeypatch, caplog
    ):
        def misplaced(config, out):
            out("ingest/corpus_en.jsonl")
            return {}

        monkeypatch.setitem(pipeline._STAGE_FUNCS, "explore", misplaced)
        config_path = make_config(tmp_path, fixture_corpus_path)
        assert main(["explore", "--config", str(config_path)]) == 3
        assert "stage explore cannot write ingest/corpus_en.jsonl" in caplog.text

    def test_missing_compiler_is_3_naming_the_command(
        self, tmp_path, fixture_corpus_path, pipeline_out
    ):
        # an empty kernel cache, and no cc on the PATH to build it with:
        # topics needs the Gibbs kernel, metrics the betweenness and power
        # iteration kernels, communities the greedy modularity kernel
        shutil.copytree(pipeline_out.out, tmp_path / "out")
        config_path = make_config(tmp_path, fixture_corpus_path)
        for stage in ("topics", "metrics", "communities"):
            result = subprocess.run(
                [sys.executable, "-m", "tweetflow.cli", stage, "--config", str(config_path)],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": str(Path(tweetflow.__file__).parents[1]),
                     "PATH": str(tmp_path / "no-cc"), "XDG_CACHE_HOME": str(tmp_path / "cache")},
            )
            assert result.returncode == 3, result.stderr
            assert "stage failure: cannot build the C kernels with `cc -O2 -std=c99" in result.stderr


def _cut_first_line(text: str) -> str:
    first, rest = text.split("\n", 1)
    return first[: len(first) // 2] + "\n" + rest


def _edit_csv_row(edit):
    def corrupt(text: str) -> str:
        rows = list(csv.reader(text.splitlines()))
        rows[1] = edit(rows[1])
        return "".join(",".join(row) + "\n" for row in rows)

    return corrupt


def _dangling_edge(text: str) -> str:
    """The graph file with one more edge, to a node it does not list."""
    doc = json.loads(text)
    doc["edges"].append([next(iter(doc["nodes"])), "zzzz", 1])
    return json.dumps(doc)


class TestCorruptUpstream:
    """Malformed upstream files stop the reading stage with exit 2, naming the file."""

    @pytest.mark.parametrize(
        "rel, corrupt, stage",
        [
            ("graph/wordgraph_en_positive.json", lambda t: t[: len(t) // 2], "metrics"),
            (
                "graph/wordgraph_it_negative.json",
                lambda t: t.replace('"edges"', '"arcs"'),
                "communities",
            ),
            ("graph/placegraph_en.json", lambda t: t[: len(t) // 2], "report"),
            ("graph/wordgraph_en_positive.json", _dangling_edge, "metrics"),
            ("graph/wordgraph_it_negative.json", _dangling_edge, "communities"),
            ("graph/placegraph_en.json", _dangling_edge, "report"),
            ("categorize/entities_en.jsonl", _cut_first_line, "graph"),
            ("sentiment/scores_en.csv", _edit_csv_row(lambda r: [r[0], "abc", r[2]]), "graph"),
            ("sentiment/scores_en.csv", _edit_csv_row(lambda r: [r[0], r[1], "neutral"]), "graph"),
            ("categorize/categories_en.csv", _edit_csv_row(lambda r: r[:1]), "sentiment"),
            ("cluster/tourism_en.jsonl", _cut_first_line, "categorize"),
        ],
    )
    def test_corrupt_file_is_data_error(
        self, tmp_path, fixture_corpus_path, pipeline_out, caplog, rel, corrupt, stage
    ):
        shutil.copytree(pipeline_out.out, tmp_path / "out")
        path = tmp_path / "out" / rel
        path.write_text(corrupt(path.read_text(encoding="utf-8")), encoding="utf-8")
        config_path = make_config(tmp_path, fixture_corpus_path)
        assert main([stage, "--config", str(config_path)]) == 2
        assert f"malformed upstream output {rel}" in caplog.text

    def test_corrupt_entities_line_is_named(
        self, tmp_path, fixture_corpus_path, pipeline_out, caplog
    ):
        shutil.copytree(pipeline_out.out, tmp_path / "out")
        path = tmp_path / "out" / "categorize" / "entities_en.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = lines[2][: len(lines[2]) // 2] + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        config_path = make_config(tmp_path, fixture_corpus_path)
        assert main(["graph", "--config", str(config_path), "--lang", "en"]) == 2
        assert (
            "malformed upstream output categorize/entities_en.jsonl: "
            "DataError: line 3: invalid JSON"
        ) in caplog.text

    @pytest.mark.parametrize("lang", ["en", "it"])
    @pytest.mark.parametrize(
        "rel, stage",
        [
            ("ingest/corpus_{lang}.jsonl", "explore"),
            ("filter/matched_{lang}.jsonl", "topics"),
            ("topics/refined_{lang}.jsonl", "cluster"),
            ("cluster/tourism_{lang}.jsonl", "categorize"),
            ("categorize/categories_{lang}.csv", "sentiment"),
            ("categorize/entities_{lang}.jsonl", "graph"),
            ("sentiment/scores_{lang}.csv", "graph"),
            ("graph/wordgraph_{lang}_positive.json", "metrics"),
            ("graph/wordgraph_{lang}_negative.json", "metrics"),
            ("graph/placegraph_{lang}.json", "report"),
        ],
    )
    def test_file_cut_inside_last_record_is_data_error(
        self, tmp_path, fixture_corpus_path, pipeline_out, caplog, rel, stage, lang
    ):
        rel = rel.format(lang=lang)
        shutil.copytree(pipeline_out.out, tmp_path / "out")
        path = tmp_path / "out" / rel
        intact = path.read_bytes()
        assert intact.endswith(b"\n") and intact.count(b"\n") >= 2, rel
        path.write_bytes(intact[:-4])  # the final newline and 3 bytes of the last record
        config_path = make_config(tmp_path, fixture_corpus_path)
        assert main([stage, "--config", str(config_path), "--lang", lang]) == 2
        assert f"malformed upstream output {rel}" in caplog.text

    def test_truncated_report_copy_is_data_error(
        self, tmp_path, fixture_corpus_path, pipeline_out, caplog
    ):
        shutil.copytree(pipeline_out.out, tmp_path / "out")
        config_path = make_config(tmp_path, fixture_corpus_path)
        copied = list(dict.fromkeys(
            rel.format(lang=lang) for lang in ("en", "it") for rel in REPORT_COPIES
        ))
        assert len(copied) == 19
        for rel in copied:
            path = tmp_path / "out" / rel
            intact = path.read_bytes()
            path.write_bytes(intact[:-7])
            caplog.clear()
            assert main(["report", "--config", str(config_path)]) == 2, rel
            assert f"malformed upstream output {rel}" in caplog.text
            path.write_bytes(intact)
        assert main(["report", "--config", str(config_path)]) == 0
        for path in sorted((pipeline_out.out / "report").iterdir()):
            assert (tmp_path / "out" / "report" / path.name).read_bytes() == path.read_bytes()

    def test_short_row_in_report_copy_is_data_error(
        self, tmp_path, fixture_corpus_path, pipeline_out, caplog
    ):
        shutil.copytree(pipeline_out.out, tmp_path / "out")
        path = tmp_path / "out" / "metrics" / "centrality_degree.csv"
        path.write_text(
            _edit_csv_row(lambda r: r[:1])(path.read_text(encoding="utf-8")), encoding="utf-8"
        )
        config_path = make_config(tmp_path, fixture_corpus_path)
        assert main(["report", "--config", str(config_path)]) == 2
        assert (
            "malformed upstream output metrics/centrality_degree.csv: "
            "ValueError: row 2 has 1 fields, the header 6"
        ) in caplog.text

    def test_unscored_tweet_is_data_error(
        self, tmp_path, fixture_corpus_path, pipeline_out, caplog
    ):
        shutil.copytree(pipeline_out.out, tmp_path / "out")
        path = tmp_path / "out" / "sentiment" / "scores_en.csv"
        header, dropped, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text(header + "".join(rest), encoding="utf-8")
        config_path = make_config(tmp_path, fixture_corpus_path)
        assert main(["graph", "--config", str(config_path)]) == 2
        tweet_id = dropped.split(",")[0]
        assert f"sentiment/scores_en.csv has no score for tweet {tweet_id!r}" in caplog.text

    def test_uncategorized_tweet_is_data_error(
        self, tmp_path, fixture_corpus_path, pipeline_out, caplog
    ):
        shutil.copytree(pipeline_out.out, tmp_path / "out")
        path = tmp_path / "out" / "categorize" / "categories_en.csv"
        header, dropped, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text(header + "".join(rest), encoding="utf-8")
        config_path = make_config(tmp_path, fixture_corpus_path)
        assert main(["sentiment", "--config", str(config_path)]) == 2
        tweet_id = dropped.split(",")[0]
        assert (
            f"categorize/categories_en.csv has no category for tweet {tweet_id!r}: "
            "rerun categorize"
        ) in caplog.text


class TestStageFiles:
    def test_every_read_is_an_earlier_stage_output(
        self, tmp_path, fixture_corpus_path, monkeypatch
    ):
        reads: list[tuple[str, str]] = []
        read = pipeline._read

        def recording_read(config, rel, reader):
            reads.append((stage, rel))
            return read(config, rel, reader)

        monkeypatch.setattr(pipeline, "_read", recording_read)
        config = load_config(make_config(tmp_path, fixture_corpus_path))
        for stage in STAGES:
            run_stage(stage, config)
        manifest = json.loads((config.out / "manifest.json").read_text())["stages"]
        assert {reader for reader, _ in reads} == set(STAGES[1:])
        for reader, rel in reads:
            producer = rel.split("/")[0]
            assert STAGES.index(producer) < STAGES.index(reader), (reader, rel)
            assert rel in manifest[producer]["outputs"], (reader, rel)
        assert (len(reads), len({rel for _, rel in reads})) == (53, 39)


RULES_TEXT = default_path("category_rules.json").read_text(encoding="utf-8")


class TestMalformedResources:
    """A malformed resource file stops the first stage that loads it with
    the error type of its loader's other bad rows, naming the file."""

    @pytest.mark.parametrize(
        "key, name, text, stage, code, message",
        [
            ("dictionary", "dict.csv", "term,label,frequency\nbeach,Tourism,abc\n",
             "filter", 2, "dict.csv line 2: bad frequency 'abc'"),
            ("gazetteer", "places.csv", "name,kind,aliases,lat,lon\nbari,city,,north,16.87\n",
             "categorize", 2, "places.csv line 2: bad lat/lon 'north', '16.87'"),
            ("category_rules", "cut.json", RULES_TEXT[: len(RULES_TEXT) // 2],
             "categorize", 2, "cut.json line "),
            ("category_rules", "regex.json", '{"categories": [{"name": "Sea", "regexes": ["("]}]}',
             "categorize", 2, "regex.json: category 'Sea': bad regex '('"),
            ("category_rules", "unnamed.json", '{"categories": [{"keywords": ["sea"]}]}',
             "categorize", 2, "unnamed.json: category 1 has no name"),
            ("category_rules", "list.json", "[]",
             "categorize", 2, "list.json: the top level is not an object"),
            ("category_rules", "regex5.json", '{"categories": [{"name": "Sea", "regexes": [5]}]}',
             "categorize", 2, "regex5.json: category 'Sea': 'regexes' must list strings"),
            ("category_rules", "kw5.json", '{"categories": [{"name": "Sea", "keywords": [5]}]}',
             "categorize", 2, "kw5.json: category 'Sea': 'keywords' must list strings"),
            ("category_rules", "kw.json", '{"categories": [{"name": "Sea", "keywords": "sea"}]}',
             "categorize", 2, "kw.json: category 'Sea': 'keywords' must list strings"),
            ("category_rules", "fallback.json", '{"fallback": 5}',
             "categorize", 2, "fallback.json: 'categories' must be a list and 'fallback' a string"),
            ("category_rules", "object.json", '{"categories": {"name": "Sea"}}',
             "categorize", 2, "object.json: 'categories' must be a list and 'fallback' a string"),
            ("category_rules", "twice.json", '{"categories": [{"name": "Sea"}], "fallback": "Sea"}',
             "categorize", 2, "twice.json: duplicate category name 'Sea'"),
            ("sentiment_en", "valences.tsv", "beautiful\tabc\n",
             "categorize", 1, "valences.tsv: bad valence row 1"),
        ],
        ids=["frequency", "lat", "cut-json", "regex", "no-name", "rules-list", "regex-not-str",
             "keyword-not-str", "keywords-str", "fallback-not-str", "categories-object",
             "fallback-repeats-name", "valence"],
    )
    def test_exit_code_names_the_file(
        self, tmp_path, fixture_corpus_path, pipeline_out, key, name, text, stage, code, message
    ):
        shutil.copytree(pipeline_out.out, tmp_path / "out")
        (tmp_path / name).write_text(text, encoding="utf-8")
        config_path = make_config(tmp_path, fixture_corpus_path, resources={key: name})
        result = subprocess.run(
            [sys.executable, "-m", "tweetflow.cli", stage, "--config", str(config_path),
             "--lang", "en"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(tweetflow.__file__).parents[1])},
        )
        assert result.returncode == code, result.stderr
        assert message in result.stderr


class TestStages:
    def test_ingest_counts(self, pipeline_out):
        manifest = json.loads((pipeline_out.out / "manifest.json").read_text())
        counts = manifest["stages"]["ingest"]["counts"]
        assert counts["loaded"] == 200
        assert counts["after_dedup"] == 197
        assert counts["kept_en"] + counts["kept_it"] == 197

    def test_explore_emits_min_vocab_rows(self, pipeline_out):
        # the fixture vocabulary is smaller than the top-1000 cap, so the
        # label template has exactly one row per vocabulary term
        for lang in ("en", "it"):
            words_path = pipeline_out.out / "explore" / f"words_{lang}.csv"
            with words_path.open(newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            corpus_rows = [
                json.loads(line)
                for line in (pipeline_out.out / "ingest" / f"corpus_{lang}.jsonl")
                .read_text(encoding="utf-8")
                .splitlines()
            ]
            assert 0 < len(rows) <= 1000
            assert rows[0].keys() == {"term", "label", "frequency"}
            assert all(r["label"] == "" for r in rows)
            assert len(corpus_rows) > 0

    def test_explore_honors_top_n(self, tmp_path, fixture_corpus_path):
        config = load_config(
            make_config(tmp_path, fixture_corpus_path, explore={"top_n": 5})
        )
        run_stage("ingest", config)
        run_stage("explore", config)
        lines = (config.out / "explore" / "words_en.csv").read_text().splitlines()
        assert len(lines) == 6  # header + 5

    def test_filter_subset_of_ingest(self, pipeline_out):
        for lang in ("en", "it"):
            ingest_ids = {
                json.loads(line)["id"]
                for line in (pipeline_out.out / "ingest" / f"corpus_{lang}.jsonl")
                .read_text(encoding="utf-8").splitlines()
            }
            matched_ids = [
                json.loads(line)["id"]
                for line in (pipeline_out.out / "filter" / f"matched_{lang}.jsonl")
                .read_text(encoding="utf-8").splitlines()
            ]
            assert set(matched_ids) <= ingest_ids

    def test_topic_report_schema(self, pipeline_out):
        path = pipeline_out.out / "topics" / "topic_words_en.csv"
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            assert next(reader) == ["round", "topic_id", "rank", "word", "probability"]
            rows = list(reader)
        assert rows, "topic report should not be empty"
        probabilities = [float(r[4]) for r in rows]
        assert all(0.0 < p <= 1.0 for p in probabilities)

    def test_cluster_report_schema(self, pipeline_out):
        path = pipeline_out.out / "cluster" / "clusters_en.csv"
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            assert next(reader) == ["k", "silhouette", "cluster_id", "size", "top_words"]
            rows = list(reader)
        sizes_by_k: dict[str, int] = {}
        for k, _, _, size, _ in rows:
            sizes_by_k[k] = sizes_by_k.get(k, 0) + int(size)
        # every k-row partitions the same corpus
        assert len(set(sizes_by_k.values())) == 1

    def test_cluster_diagnostics_in_manifest(self, pipeline_out):
        manifest = json.loads((pipeline_out.out / "manifest.json").read_text())
        counts = manifest["stages"]["cluster"]["counts"]
        for lang in ("en", "it"):
            fits = counts[f"fits_{lang}"]
            assert [fit["k"] for fit in fits] == [2, 3]
            with (pipeline_out.out / "cluster" / f"clusters_{lang}.csv").open(
                newline="", encoding="utf-8"
            ) as fh:
                reported = {int(r["k"]): r["silhouette"] for r in csv.DictReader(fh)}
            for fit in fits:
                assert f"{fit['silhouette']:.4f}" == reported[fit["k"]]
                assert fit["n_iters"] >= 1 and fit["wcss"] >= 0.0
                # the fixture's fits all stop on unchanged assignments
                assert fit["converged"] is True
            best = max(fits, key=lambda fit: fit["silhouette"])
            assert counts[f"best_k_{lang}"] == best["k"]

    def test_lda_log_likelihood_in_manifest(self, pipeline_out):
        manifest = json.loads((pipeline_out.out / "manifest.json").read_text())
        counts = manifest["stages"]["topics"]["counts"]
        for lang in ("en", "it"):
            logliks = counts[f"loglik_{lang}"]
            assert len(logliks) == counts[f"rounds_{lang}"] >= 1
            assert all(isinstance(v, float) and v < 0.0 for v in logliks)

    def test_community_diagnostics_in_manifest(self, tmp_path, fixture_corpus_path, pipeline_out):
        shutil.copytree(pipeline_out.out, tmp_path / "out")
        config_path = make_config(tmp_path, fixture_corpus_path)
        assert main(["communities", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        counts = json.loads((out / "manifest.json").read_text())["stages"]["communities"]["counts"]
        for lang in ("en", "it"):
            for polarity in ("positive", "negative"):
                network = f"{lang}_{polarity}"
                membership = json.loads(
                    (out / "communities" / f"membership_{network}.json").read_text()
                )
                nodes = sum(map(len, membership["greedy_modularity"]["communities"]))
                greedy = counts[f"greedy_{network}"]
                peak = membership["greedy_modularity"]
                # each merge joins two communities of the n singletons
                assert nodes - greedy["merges_to_peak"] == len(peak["communities"])
                assert greedy["merges_to_peak"] <= greedy["merges"] <= greedy["heap_pops"]
                assert greedy["peak_q"] == peak["modularity"]
                lpa = counts[f"lpa_{network}"]
                largest = max(map(len, membership["label_propagation"]["communities"]))
                assert lpa["largest_share"] == largest / nodes
                assert lpa["hit_sweep_cap"] is False and lpa["sweeps"] >= 2

    def test_metrics_and_communities_build_each_adjacency_once(
        self, tmp_path, fixture_corpus_path, pipeline_out, monkeypatch
    ):
        shutil.copytree(pipeline_out.out, tmp_path / "out")
        config = load_config(make_config(tmp_path, fixture_corpus_path))
        graphs = [
            exports.word_graph_from_json(path.read_text(encoding="utf-8"))
            for path in sorted((config.out / "graph").glob("wordgraph_*.json"))
        ]
        assert len(graphs) == 4 and all(graph.edges for graph in graphs)
        every_graph = Counter((tuple(g.nodes), tuple(g.edges)) for g in graphs)
        built: Counter = Counter()
        build = wordgraph.adjacency_from_edges

        def counted(nodes, edges):
            built[tuple(nodes), tuple(edges)] += 1
            return build(nodes, edges)

        monkeypatch.setattr(wordgraph, "adjacency_from_edges", counted)
        for stage in ("metrics", "communities"):
            built.clear()
            run_stage(stage, config)
            assert built == every_graph, stage

    def test_eigenvector_diagnostics_in_manifest(self, pipeline_out):
        manifest = json.loads((pipeline_out.out / "manifest.json").read_text())
        counts = manifest["stages"]["metrics"]["counts"]
        networks = [key[len("ranked_"):] for key in counts if key.startswith("ranked_")]
        assert networks
        for network in networks:
            diagnostics = counts[f"eigenvector_{network}"]
            assert set(diagnostics) == {"iterations", "damped"}
            assert 1 <= diagnostics["iterations"] <= 1000
            assert isinstance(diagnostics["damped"], bool)

    def test_graph_counts_capped_tweets(self, pipeline_out):
        manifest = json.loads((pipeline_out.out / "manifest.json").read_text())
        counts = manifest["stages"]["graph"]["counts"]
        for lang in ("en", "it"):
            for polarity in ("positive", "negative"):
                # fixture tweets are far below the 50-lemma clique cap
                assert counts[f"clique_capped_{lang}_{polarity}"] == 0

    def test_tourism_ids_unique(self, pipeline_out):
        for lang in ("en", "it"):
            ids = [
                json.loads(line)["id"]
                for line in (pipeline_out.out / "cluster" / f"tourism_{lang}.jsonl")
                .read_text(encoding="utf-8").splitlines()
            ]
            assert len(ids) == len(set(ids))

    def test_categories_cover_tourism_corpus(self, pipeline_out):
        for lang in ("en", "it"):
            ids = {
                json.loads(line)["id"]
                for line in (pipeline_out.out / "cluster" / f"tourism_{lang}.jsonl")
                .read_text(encoding="utf-8").splitlines()
            }
            with (pipeline_out.out / "categorize" / f"categories_{lang}.csv").open(
                newline="", encoding="utf-8"
            ) as fh:
                rows = list(csv.DictReader(fh))
            assert {r["tweet_id"] for r in rows} == ids

    def test_sentiment_scores_in_range(self, pipeline_out):
        with (pipeline_out.out / "sentiment" / "scores_en.csv").open(
            newline="", encoding="utf-8"
        ) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            compound = float(row["compound"])
            assert -1.0 < compound < 1.0
            assert row["label"] == ("positive" if compound > 0 else "negative")

    def test_graph_stats_consistent(self, pipeline_out):
        with (pipeline_out.out / "graph" / "graph_stats.csv").open(
            newline="", encoding="utf-8"
        ) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["Network"] for r in rows] == [
            "en_positive", "en_negative", "it_positive", "it_negative",
        ]
        for row in rows:
            n, e = int(row["Nodes"]), int(row["Edges"])
            if n >= 2:
                assert float(row["Density"]) == pytest.approx(
                    2 * e / (n * (n - 1)), abs=5e-5
                )

    def test_manifest_counts_match_files(self, pipeline_out):
        manifest = json.loads((pipeline_out.out / "manifest.json").read_text())
        for stage, entry in manifest["stages"].items():
            for rel, meta in entry["outputs"].items():
                path = pipeline_out.out / rel
                assert path.is_file(), rel
                if path.suffix == ".csv":
                    n_rows = len(path.read_text(encoding="utf-8").splitlines()) - 1
                    assert meta["rows"] == n_rows, rel

    def test_manifest_records_process_peak_rss(self, pipeline_out):
        manifest = json.loads((pipeline_out.out / "manifest.json").read_text())
        entries = [manifest["stages"][stage] for stage in STAGES]
        assert all(entry["peak_rss_scope"] == "process peak so far" for entry in entries)
        peaks = [entry["peak_rss_mb"] for entry in entries]
        assert all(isinstance(peak, float) and peak > 0 for peak in peaks)
        assert peaks == sorted(peaks)

    def test_manifest_lists_exactly_each_stage_directory(self, pipeline_out):
        manifest = json.loads((pipeline_out.out / "manifest.json").read_text())
        assert set(manifest["stages"]) == set(STAGES)
        for stage, entry in manifest["stages"].items():
            on_disk = {
                path.relative_to(pipeline_out.out).as_posix()
                for path in (pipeline_out.out / stage).iterdir()
            }
            assert set(entry["outputs"]) == on_disk, stage

    def test_rerun_stage_reproduces_outputs(self, tmp_path, fixture_corpus_path):
        config = load_config(make_config(tmp_path, fixture_corpus_path))
        run_stage("ingest", config)
        first = (config.out / "ingest" / "corpus_en.jsonl").read_bytes()
        (config.out / "ingest" / "corpus_en.jsonl").unlink()
        run_stage("ingest", config)
        assert (config.out / "ingest" / "corpus_en.jsonl").read_bytes() == first


class TestRunStage:
    def test_unknown_stage_is_stage_error(self, tmp_path, fixture_corpus_path):
        config = load_config(make_config(tmp_path, fixture_corpus_path))
        with pytest.raises(StageError, match="unknown stage"):
            run_stage("transmogrify", config)

    def test_interactive_selector_reads_stdin(self, monkeypatch, capsys):
        from tweetflow.pipeline import _interactive_selector
        from tweetflow.topics import TopicSummary

        summaries = [TopicSummary(0, (("sea", 0.5),)), TopicSummary(1, (("mud", 0.5),))]
        monkeypatch.setattr("builtins.input", lambda prompt: "0, 1")
        assert _interactive_selector(summaries) == {0, 1}


def _file_bytes(out: Path) -> dict[str, bytes]:
    """Every output file but the manifest, by run-relative path."""
    return {
        path.relative_to(out).as_posix(): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }


def _manifest_counts(out: Path) -> dict:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return {stage: entry["counts"] for stage, entry in manifest["stages"].items()}


class TestTokenizedOnce:
    """Each distinct text is tokenized once per run_all or lone run_stage call,
    and the map of tokenized docs never outlives that call."""

    def test_second_run_in_the_process_repeats_bytes_and_counts(
        self, tmp_path, fixture_corpus_path, pipeline_out
    ):
        config = load_config(make_config(tmp_path, fixture_corpus_path))
        run_all(config)
        assert _file_bytes(config.out) == _file_bytes(pipeline_out.out)
        assert _manifest_counts(config.out) == _manifest_counts(pipeline_out.out)
        assert pipeline._docs is None

    def test_each_distinct_text_is_tokenized_once(
        self, tmp_path, fixture_corpus_path, monkeypatch
    ):
        tokenized = []
        original = preprocess.pipeline_doc

        def counting(tweet_id, text, lemma_table, stoplist):
            tokenized.append(text)
            return original(tweet_id, text, lemma_table, stoplist)

        monkeypatch.setattr(preprocess, "pipeline_doc", counting)
        config = load_config(make_config(tmp_path, fixture_corpus_path))
        counts = run_all(config)
        assert len(tokenized) == len(set(tokenized))
        assert 0 < len(tokenized) <= counts["ingest"]["after_dedup"]

    def test_each_lemma_table_and_stoplist_is_loaded_once(
        self, tmp_path, fixture_corpus_path, monkeypatch
    ):
        # only the first text that the run's map misses needs them
        loaded = Counter()
        for name in ("load_lemma_table", "load_stopwords"):
            def counting(path, original=getattr(resources, name)):
                loaded[Path(path).name] += 1
                return original(path)

            monkeypatch.setattr(resources, name, counting)
        config = load_config(make_config(tmp_path, fixture_corpus_path))
        run_all(config)
        assert config.languages == ("en", "it")
        for lang in config.languages:
            assert loaded[f"lemmas_{lang}.tsv"] == 1
            assert loaded[f"stopwords_{lang}.txt"] == 1

    def test_failed_run_leaves_no_map(self, tmp_path, fixture_corpus_path, monkeypatch):
        open_maps = []

        def failing_stage(config, out):
            open_maps.append(dict(pipeline._docs))
            raise RuntimeError("boom")

        monkeypatch.setitem(pipeline._STAGE_FUNCS, "graph", failing_stage)
        config = load_config(make_config(tmp_path, fixture_corpus_path))
        with pytest.raises(StageError, match="stage graph failed: RuntimeError: boom"):
            run_all(config)
        assert len(open_maps) == 1 and open_maps[0]  # the earlier stages had filled it
        assert pipeline._docs is None

    def test_stage_by_stage_repeats_run_all_bytes(
        self, tmp_path, fixture_corpus_path, pipeline_out
    ):
        config = load_config(make_config(tmp_path, fixture_corpus_path))
        for stage in STAGES:
            run_stage(stage, config)
            assert pipeline._docs is None
        assert _file_bytes(config.out) == _file_bytes(pipeline_out.out)
        assert _manifest_counts(config.out) == _manifest_counts(pipeline_out.out)


class TestEmptyPolaritySplit:
    def test_pipeline_survives_all_positive_corpus(self, tmp_path):
        # a tiny corpus whose negative splits are empty end to end
        extras = ["sand", "coast", "sunset", "swim", "boat", "cliff", "harbor", "dune"]
        rows = [
            {"id": f"p{i}", "lang": "en",
             "text": f"A beautiful beach holiday at the sea, lovely {extras[i]} travel #puglia"}
            for i in range(8)
        ]
        corpus_path = tmp_path / "tiny.jsonl"
        corpus_path.write_text(
            "\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8"
        )
        config_path = make_config(
            tmp_path,
            corpus_path,
            languages=["en"],
            topics={"k": 2, "alpha": 0.5, "iterations": 60, "max_rounds": 1, "top_words": 10},
            cluster={"k_min": 2, "k_max": 2, "lda_refine": False},
        )
        config = load_config(config_path)
        run_all(config)
        stats = (config.out / "graph" / "graph_stats.csv").read_text(encoding="utf-8")
        negative_row = next(
            line for line in stats.splitlines() if line.startswith("en_negative")
        )
        assert negative_row.split(",")[1] == "0"  # zero nodes
        # metrics and communities skip the empty network but still emit files
        assert (config.out / "metrics" / "centrality_degree.csv").is_file()
        assert (config.out / "communities" / "communities.csv").is_file()
        assert (config.out / "report" / "places_en.geojson").is_file()

    def test_cluster_k_capped_by_distinct_rows(self, tmp_path):
        # six distinct texts, two lemma sets: only two distinct TF-IDF rows,
        # so k stops at 2 (k = 3 used to re-seed an empty cluster every iteration)
        rows = [
            {"id": f"d{i}", "lang": "en", "text": f"beach sunset coast {i}"}
            for i in range(4)
        ] + [
            {"id": f"m{i}", "lang": "en", "text": f"museum castle history {i}"}
            for i in range(2)
        ]
        corpus_path = tmp_path / "twins.jsonl"
        corpus_path.write_text(
            "\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8"
        )
        config_path = make_config(
            tmp_path,
            corpus_path,
            languages=["en"],
            topics={"k": 2, "alpha": 0.5, "iterations": 40, "max_rounds": 1, "top_words": 10},
            cluster={"k_min": 2, "k_max": 3, "lda_refine": False},
        )
        config = load_config(config_path)
        for stage in ("ingest", "explore", "filter", "topics", "cluster"):
            run_stage(stage, config)
        counts = json.loads((config.out / "manifest.json").read_text())["stages"]["cluster"]["counts"]
        assert counts["clustered_en"] == 6
        assert [fit["k"] for fit in counts["fits_en"]] == [2]
        assert counts["fits_en"][0]["n_iters"] < config.cluster_max_iters
        assert counts["fits_en"][0]["converged"] is True
        assert counts["best_k_en"] == 2

    def test_cluster_stage_degrades_when_nothing_to_cluster(self, tmp_path):
        # all docs share one token multiset: every TF-IDF row is empty
        rows = [
            {"id": f"d{i}", "lang": "en", "text": f"beach sea holiday travel {i}"}
            for i in range(6)
        ]
        corpus_path = tmp_path / "flat.jsonl"
        corpus_path.write_text(
            "\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8"
        )
        config_path = make_config(
            tmp_path,
            corpus_path,
            languages=["en"],
            topics={"k": 2, "alpha": 0.5, "iterations": 40, "max_rounds": 1, "top_words": 10},
            cluster={"k_min": 2, "k_max": 3, "lda_refine": False},
        )
        config = load_config(config_path)
        for stage in ("ingest", "explore", "filter", "topics", "cluster"):
            run_stage(stage, config)
        manifest = json.loads((config.out / "manifest.json").read_text())
        counts = manifest["stages"]["cluster"]["counts"]
        assert counts["best_k_en"] == 0 and counts["route_b_en"] == 0
        # the matched route still flows through the merge
        assert counts["merged_en"] == counts["route_b_en"] + len(
            (config.out / "topics" / "refined_en.jsonl").read_text().splitlines()
        )
