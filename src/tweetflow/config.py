"""Pipeline configuration: a single YAML file plus CLI overrides.

Each key a config file may set is declared once, as a `_setting` field of
`PipelineConfig` that carries its dotted key, default, kind and bounds.
Relative paths in the config resolve against the config file's directory.
One global seed drives everything: per-stage seeds derive from it by
hashing the stage name, so adding a stage never perturbs another stage's
randomness.
"""

from __future__ import annotations

import hashlib
import operator
import sys
from dataclasses import Field, dataclass, field, fields
from pathlib import Path

import yaml

from .errors import ConfigError
from .resources import default_path

STAGES = (
    "ingest",
    "explore",
    "filter",
    "topics",
    "cluster",
    "categorize",
    "sentiment",
    "graph",
    "metrics",
    "communities",
    "report",
)

_RESOURCE_DEFAULTS = {
    "stopwords_en": "stopwords_en.txt",
    "stopwords_it": "stopwords_it.txt",
    "lemmas_en": "lemmas_en.tsv",
    "lemmas_it": "lemmas_it.tsv",
    "sentiment_en": "sentiment_en.tsv",
    "sentiment_it": "sentiment_it.tsv",
    "boosters_en": "boosters_en.txt",
    "boosters_it": "boosters_it.txt",
    "negators_en": "negators_en.txt",
    "negators_it": "negators_it.txt",
    "gazetteer": "gazetteer.csv",
    "category_rules": "category_rules.json",
    "dictionary": "dictionary_default.csv",
}


def _setting(key: str, default, kind: type | None = None, choices: tuple = (), **bounds):
    """A field that a config file sets under the dotted `key` ("topics.k").

    `kind` is int, float (any finite number) or bool, and is the type of
    `default` unless given; a key with `choices` accepts those values only.
    `bounds` are inclusive `ge`/`le` and exclusive `gt` limits. null is
    accepted only by the keys whose default is null.
    """
    section, _, name = key.rpartition(".")
    meta = {
        "key": key,
        "section": section,
        "name": name,
        "kind": kind or type(default),
        "choices": choices,
        "bounds": bounds,
    }
    return field(default=default, metadata=meta)


@dataclass
class PipelineConfig:
    input: Path
    out: Path
    format: str = _setting("format", "jsonl", choices=("jsonl", "csv"))
    languages: tuple[str, ...] = ("en", "it")
    seed: int = 0
    strict: bool = _setting("strict", False)
    interactive: bool = False
    resources: dict[str, Path] = field(default_factory=dict)

    explore_top_n: int = _setting("explore.top_n", 1000, ge=1)
    filter_min_hits: int = _setting("filter.min_hits", 3, ge=0)
    merge_mode: str = _setting("filter.merge_mode", "union", choices=("union", "exclusive"))

    lda_k: int = _setting("topics.k", 3, ge=2)
    # null: 50/k
    lda_alpha: float | None = _setting("topics.alpha", None, float, gt=0)
    lda_beta: float = _setting("topics.beta", 0.01, gt=0)
    lda_iterations: int = _setting("topics.iterations", 1000, ge=1)
    lda_max_rounds: int = _setting("topics.max_rounds", 3, ge=0)
    lda_top_words: int = _setting("topics.top_words", 20, ge=1)
    overlap_threshold: float = _setting("topics.overlap_threshold", 0.3, ge=0, le=1)

    cluster_k_min: int = _setting("cluster.k_min", 2, ge=2)
    cluster_k_max: int = _setting("cluster.k_max", 12, ge=2)
    cluster_max_iters: int = _setting("cluster.max_iters", 100, ge=1)
    # null: exact silhouette over every row
    cluster_sample_size: int | None = _setting("cluster.sample_size", None, int, ge=1)
    cluster_lda_refine: bool = _setting("cluster.lda_refine", True)

    graph_clique_cap: int = _setting("graph.clique_cap", 50, ge=2)
    metrics_top_k: int = _setting("metrics.top_k", 10, ge=1)

    def resource(self, key: str) -> Path:
        return self.resources[key]

    def stage_seed(self, stage: str) -> int:
        digest = hashlib.sha256(f"{self.seed}:{stage}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def snapshot(self) -> dict:
        """JSON-serializable view of the config, recorded in the manifest."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Path):
                value = str(value)
            elif isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, dict):
                value = {k: str(v) for k, v in sorted(value.items())}
            out[f.name] = value
        return out


def _resolve(base: Path, value: str) -> Path:
    path = Path(value)
    return path if path.is_absolute() else (base / path).resolve()


_KIND_NAMES = {int: "an integer", float: "a number", bool: "true or false"}
_BOUNDS = {"ge": (">=", operator.ge), "gt": (">", operator.gt), "le": ("<=", operator.le)}


def _checked(setting: Field, table: dict):
    """The setting's value in its section's `table` (its default when absent),
    as the setting's kind; a ConfigError naming its key if it is not allowed."""
    meta = setting.metadata
    key, kind = meta["key"], meta["kind"]
    value = table.get(meta["name"], setting.default)
    if value is None and setting.default is None:
        return None
    if meta["choices"]:
        if value not in meta["choices"]:
            raise ConfigError(f"{key} must be one of {', '.join(meta['choices'])}, got {value!r}")
        return value
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
        raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")
    if kind is float and not abs(value) <= sys.float_info.max:  # nan, inf, or too large
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    value = kind(value)
    for bound, limit in meta["bounds"].items():
        sign, holds = _BOUNDS[bound]
        if not holds(value, limit):
            raise ConfigError(f"{key} must be {sign} {limit}, got {value!r}")
    return value


def load_config(
    path: str | Path,
    input_override: str | None = None,
    out_override: str | None = None,
    seed_override: int | None = None,
    lang_override: str | None = None,
    interactive: bool = False,
) -> PipelineConfig:
    """Read and validate the YAML config, applying CLI overrides."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8")) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping: {path}")
    base = path.parent.resolve()

    settings = [f for f in fields(PipelineConfig) if "key" in f.metadata]
    sections = sorted({setting.metadata["section"] for setting in settings} - {""})
    tables = {"": raw}
    for name in (*sections, "resources"):
        tables[name] = raw.get(name) or {}
        if not isinstance(tables[name], dict):
            raise ConfigError(f"config section {name!r} must be a mapping")
    known = {("", key) for key in ("input", "out", "languages", "seed", *sections, "resources")}
    known.update((s.metadata["section"], s.metadata["name"]) for s in settings)
    known.update(("resources", key) for key in _RESOURCE_DEFAULTS)
    unknown = sorted(
        f"{section}.{key}" if section else str(key)
        for section, table in tables.items()
        for key in table
        if (section, key) not in known
    )
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    input_value = input_override or raw.get("input")
    if not input_value:
        raise ConfigError("config needs an 'input' path (or pass --input)")
    out_value = out_override or raw.get("out")
    if not out_value:
        raise ConfigError("config needs an 'out' directory (or pass --out)")

    languages = [lang_override] if lang_override else raw.get("languages", ["en", "it"])
    if languages not in (["en"], ["it"], ["en", "it"], ["it", "en"]):
        raise ConfigError(f"languages must be en, it or both, each once, got {languages!r}")

    resources = {}
    for key, name in _RESOURCE_DEFAULTS.items():
        if key in tables["resources"]:
            resources[key] = _resolve(base, str(tables["resources"][key]))
        else:
            resources[key] = default_path(name)
        if not resources[key].is_file():
            raise ConfigError(f"resource {key}: file not found: {resources[key]}")

    seed = seed_override if seed_override is not None else raw.get("seed")
    if seed is None:
        raise ConfigError("a seed is required (config 'seed' or --seed)")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"seed must be an integer, got {seed!r}")

    values = {s.name: _checked(s, tables[s.metadata["section"]]) for s in settings}
    config = PipelineConfig(
        input=_resolve(base, str(input_value)),
        out=_resolve(base, str(out_value)),
        languages=tuple(languages),
        seed=seed,
        interactive=interactive,
        resources=resources,
        **values,
    )
    if config.cluster_k_max < config.cluster_k_min:
        raise ConfigError("cluster k range must satisfy k_min <= k_max")
    if not config.input.is_file():
        raise ConfigError(f"input file not found: {config.input}")
    return config
