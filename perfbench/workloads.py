"""Seeded inputs and per-op commands for the three benchmark workloads.

Each workload turns a workload seed into a corpus file and a pipeline
config inside a work directory; the pipeline only ever sees those files.
The tweet texts come from the template lists of
``scripts/generate_fixture.py``, imported read-only.

    fixture-200   the bundled 200-tweet fixture (relabelled with seeded ids and
                  dates at any other seed), `tweetflow all`
    scale-1k      1,000 unique tweets + 250 near-duplicate retweets (the default
                  seed's rows, relabelled at any other seed), `tweetflow all`
    graphs-rerun  1,000 tourism tweets over a shared 300-word pool; set-up runs the
                  upstream stages once, each op deletes and reruns the
                  graph/metrics/communities/report stages (for traced and manual
                  runs; not in BENCHMARK.json, see run.py)
"""

from __future__ import annotations

import importlib.util
import json
import random
import re
import shutil
import string
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import yaml

DEFAULT_SEED = 0
PIPELINE_SEED = 42

UPSTREAM_STAGES = ("ingest", "explore", "filter", "topics", "cluster", "categorize", "sentiment")
RERUN_STAGES = ("graph", "metrics", "communities", "report")

# per-language row mix of the bundled fixture: (positive tourism, negative tourism, noise)
_MIX = {"en": (62, 10, 46), "it": (42, 8, 29)}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rows: int          # input rows handed to the pipeline
    stages: tuple[str, ...]  # CLI invocations of one op, in order


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fixture-200",
            "200-row bundled fixture, the only input checked against the golden checksums; "
            "fixed per-run costs (imports, resource loads, re-tokenising, manifest) dominate",
            200,
            ("all",),
        ),
        Workload(
            "scale-1k",
            "1,250 rows: 1,000 unique tweets plus 250 near-duplicate retweets that dedup drops; "
            "the cluster (silhouette) and topics (LDA) kernels do most of the work",
            1250,
            ("all",),
        ),
        Workload(
            "graphs-rerun",
            "1,000 tourism rows sharing a 300-word pool; graph..report rerun from files on disk, "
            "so netmetrics and community dominate and kmeans, silhouette and LDA never run",
            1000,
            RERUN_STAGES,
        ),
    )
}


def _templates(root: Path):
    """Import scripts/generate_fixture.py for its template lists."""
    path = root / "scripts" / "generate_fixture.py"
    spec = importlib.util.spec_from_file_location("_tweetflow_fixture_templates", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _word(i: int, prefix: str) -> str:
    """A letters-only token no resource table contains: prefix + base-26 of i."""
    letters = []
    while True:
        i, r = divmod(i, 26)
        letters.append(string.ascii_lowercase[r])
        if i == 0:
            break
    return prefix + "".join(reversed(letters))


class _TextMaker:
    """Fills fixture templates with seeded places, adjectives and numbers."""

    def __init__(self, tpl, rng: random.Random):
        self.rng = rng
        self.counter = 100
        self.pools = {
            "en": (tpl.EN_TOURISM, tpl.EN_TOURISM_NEG, tpl.EN_NOISE, tpl.EN_PLACES, tpl.EN_ADJ),
            "it": (tpl.IT_TOURISM, tpl.IT_TOURISM_NEG, tpl.IT_NOISE, tpl.IT_PLACES, tpl.IT_ADJ),
        }

    def texts(self, lang: str, n: int, noise_rows: bool = True) -> list[str]:
        """n template texts in the fixture's tourism/negative/noise mix
        (tourism rows only, positive and negative, without `noise_rows`)."""
        pos, neg, noise, places, adjectives = self.pools[lang]
        weights = _MIX[lang] if noise_rows else _MIX[lang][:2] + (0,)
        total = sum(weights)
        counts = [n * w // total for w in weights]
        counts[2] += n - sum(counts)
        out = []
        for pool, count in zip((pos, neg, noise), counts):
            for i in range(count):
                template = pool[i % len(pool)]
                out.append(self.fill(template[0] if isinstance(template, tuple) else template,
                                     places, adjectives))
        return out

    def fill(self, text: str, places, adjectives) -> str:
        if "{n}" in text:
            self.counter += 1
            text = text.replace("{n}", str(self.counter))
        if "{place}" in text:
            text = text.replace("{place}", self.rng.choice(places))
        if "{adj}" in text:
            text = text.replace("{adj}", self.rng.choice(adjectives))
        return text


def _records(rows: list[tuple[str, str]], id_prefix: str) -> list[dict]:
    start = datetime(2020, 6, 1, 8, 0, 0, tzinfo=timezone.utc)
    out = []
    for pos, (lang, text) in enumerate(rows):
        row = {
            "id": f"{id_prefix}{pos + 1:05d}",
            "text": text,
            "lang": lang,
            "created_at": (start + timedelta(minutes=pos)).isoformat(),
        }
        if pos % 2 == 0:  # like the fixture: half the rows carry explicit hashtags
            row["hashtags"] = sorted({tag.casefold() for tag in re.findall(r"#(\w+)", text)})
        out.append(row)
    return out


def _relabel(rows: list[dict], rng: random.Random) -> list[dict]:
    """The rows under seeded ids and dates, texts and order unchanged.

    Redrawing the texts changes the op's work from seed to seed: on the
    fixture, how many LDA refinement rounds run (4 to 6 fits, up to 1.7x the
    work); on scale-1k, the Gibbs tokens, k-means iterations and graph sizes
    (each by 5-10%). Relabelling keeps the work of the default seed.
    """
    prefix = _word(rng.randrange(26 ** 4), "r")
    shift = timedelta(days=rng.randrange(3650))
    relabelled = []
    for pos, row in enumerate(rows, start=1):
        row = dict(row, id=f"{prefix}{pos:05d}")
        row["created_at"] = (datetime.fromisoformat(row["created_at"]) + shift).isoformat()
        relabelled.append(row)
    return relabelled


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _scale_rows(tpl, rng: random.Random, n_unique: int = 1000, n_retweets: int = 250) -> list[dict]:
    """Unique tweets with one unique suffix token each, plus retweets that copy an
    earlier text behind an @handle and in front of a URL."""
    maker = _TextMaker(tpl, rng)
    n_en = n_unique * 3 // 5
    unique = [("en", t) for t in maker.texts("en", n_en)]
    unique += [("it", t) for t in maker.texts("it", n_unique - n_en)]
    rng.shuffle(unique)
    unique = [(lang, f"{text} {_word(i, 'zq')}") for i, (lang, text) in enumerate(unique)]
    keyed = [(float(i), lang, text) for i, (lang, text) in enumerate(unique)]
    for j in range(n_retweets):
        src = rng.randrange(n_unique)
        lang, text = unique[src]
        retweet = f"@{_word(rng.randrange(5000), 'fan')} {text} https://t.co/{_word(j, 'r')}"
        keyed.append((rng.uniform(src + 0.001, n_unique), lang, retweet))
    keyed.sort()
    return _records([(lang, text) for _, lang, text in keyed], "s")


def _pool_rows(tpl, rng: random.Random, n: int = 1000, pool_size: int = 300) -> list[dict]:
    """Tourism tweets that each carry 3 distinct words drawn from one shared pool.

    Without noise rows nearly every tweet survives the filter routes, so the
    graphs (and the op's work) stay about the same size from seed to seed.
    """
    maker = _TextMaker(tpl, rng)
    pool = [_word(i, "zv") for i in range(pool_size)]
    n_en = n * 3 // 5
    rows = [("en", t) for t in maker.texts("en", n_en, noise_rows=False)]
    rows += [("it", t) for t in maker.texts("it", n - n_en, noise_rows=False)]
    rng.shuffle(rows)
    rows = [(lang, f"{text} {' '.join(rng.sample(pool, 3))}") for lang, text in rows]
    return _records(rows, "g")


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n")


def write_inputs(root: Path, name: str, seed: int, work: Path) -> Path:
    """Write the workload's corpus and config under `work`; returns the config path."""
    fixtures = root / "tests" / "fixtures"
    config = yaml.safe_load((fixtures / "pipeline.yaml").read_text(encoding="utf-8"))
    work.mkdir(parents=True, exist_ok=True)
    corpus = work / "corpus.jsonl"
    rng = random.Random(f"{name}:{seed}")
    if name == "fixture-200":
        if seed == DEFAULT_SEED:
            shutil.copyfile(fixtures / "corpus200.jsonl", corpus)
        else:
            _write_jsonl(corpus, _relabel(_read_jsonl(fixtures / "corpus200.jsonl"), rng))
    elif name == "scale-1k":
        rows = _scale_rows(_templates(root), random.Random(f"{name}:{DEFAULT_SEED}"))
        _write_jsonl(corpus, rows if seed == DEFAULT_SEED else _relabel(rows, rng))
        # one refinement round per fit: a second round runs or not depending on the
        # drawn texts, which moved the op's Gibbs work by 1.6x from seed to seed
        config["topics"]["max_rounds"] = 1
    elif name == "graphs-rerun":
        _write_jsonl(corpus, _pool_rows(_templates(root), rng))
        config["cluster"].update(k_min=2, k_max=2, sample_size=200)
        config["topics"]["iterations"] = 100
    else:
        raise KeyError(name)
    config.update(input=corpus.name, out="out", seed=PIPELINE_SEED)
    path = work / "pipeline.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
    return path
