"""Pipeline configuration: a single YAML file plus CLI overrides.

Relative paths in the config resolve against the config file's directory.
One global seed drives everything: per-stage seeds derive from it by
hashing the stage name, so adding a stage never perturbs another stage's
randomness.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
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

# every key a config file may set, per section
_SECTION_KEYS = {
    "resources": tuple(_RESOURCE_DEFAULTS),
    "explore": ("top_n",),
    "filter": ("min_hits", "merge_mode"),
    "topics": ("k", "alpha", "beta", "iterations", "max_rounds", "top_words", "overlap_threshold"),
    "cluster": ("k_min", "k_max", "max_iters", "sample_size", "lda_refine"),
    "graph": ("clique_cap",),
    "metrics": ("top_k",),
}
_TOP_KEYS = ("input", "out", "format", "languages", "seed", "strict", *_SECTION_KEYS)


@dataclass
class PipelineConfig:
    input: Path
    out: Path
    format: str = "jsonl"
    languages: tuple[str, ...] = ("en", "it")
    seed: int = 0
    strict: bool = False
    interactive: bool = False
    resources: dict[str, Path] = field(default_factory=dict)

    explore_top_n: int = 1000
    filter_min_hits: int = 3
    merge_mode: str = "union"

    lda_k: int = 3
    lda_alpha: float | None = None
    lda_beta: float = 0.01
    lda_iterations: int = 1000
    lda_max_rounds: int = 3
    lda_top_words: int = 20
    overlap_threshold: float = 0.3

    cluster_k_min: int = 2
    cluster_k_max: int = 12
    cluster_max_iters: int = 100
    cluster_sample_size: int | None = None
    cluster_lda_refine: bool = True

    graph_clique_cap: int = 50
    metrics_top_k: int = 10

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

    def section(name: str) -> dict:
        value = raw.get(name, {}) or {}
        if not isinstance(value, dict):
            raise ConfigError(f"config section {name!r} must be a mapping")
        return value

    unknown = sorted(str(key) for key in raw if key not in _TOP_KEYS)
    for name, keys in _SECTION_KEYS.items():
        unknown += sorted(f"{name}.{key}" for key in section(name) if key not in keys)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    input_value = input_override or raw.get("input")
    if not input_value:
        raise ConfigError("config needs an 'input' path (or pass --input)")
    out_value = out_override or raw.get("out")
    if not out_value:
        raise ConfigError("config needs an 'out' directory (or pass --out)")

    languages = raw.get("languages", ["en", "it"])
    if lang_override:
        languages = [lang_override]
    if not languages or any(lang not in ("en", "it") for lang in languages):
        raise ConfigError(f"languages must be a subset of en/it, got {languages!r}")

    resources_raw = section("resources")
    resources = {}
    for key in _RESOURCE_DEFAULTS:
        if key in resources_raw:
            resources[key] = _resolve(base, str(resources_raw[key]))
        else:
            resources[key] = default_path(_RESOURCE_DEFAULTS[key])
        if not resources[key].is_file():
            raise ConfigError(f"resource {key}: file not found: {resources[key]}")

    def number(name: str, key: str, default, kind: type = int):
        """section.key as a kind (int or float); None stays None."""
        value = section(name).get(key, default)
        if value is None:
            return None
        allowed = (int,) if kind is int else (int, float)
        if isinstance(value, bool) or not isinstance(value, allowed):
            what = "an integer" if kind is int else "a number"
            raise ConfigError(f"{name}.{key} must be {what}, got {value!r}")
        return kind(value)

    seed = seed_override if seed_override is not None else raw.get("seed")
    if seed is None:
        raise ConfigError("a seed is required (config 'seed' or --seed)")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"seed must be an integer, got {seed!r}")

    config = PipelineConfig(
        input=_resolve(base, str(input_value)),
        out=_resolve(base, str(out_value)),
        format=raw.get("format", "jsonl"),
        languages=tuple(languages),
        seed=seed,
        strict=bool(raw.get("strict", False)),
        interactive=interactive,
        resources=resources,
        explore_top_n=number("explore", "top_n", 1000),
        filter_min_hits=number("filter", "min_hits", 3),
        merge_mode=str(section("filter").get("merge_mode", "union")),
        lda_k=number("topics", "k", 3),
        lda_alpha=number("topics", "alpha", None, float),
        lda_beta=number("topics", "beta", 0.01, float),
        lda_iterations=number("topics", "iterations", 1000),
        lda_max_rounds=number("topics", "max_rounds", 3),
        lda_top_words=number("topics", "top_words", 20),
        overlap_threshold=number("topics", "overlap_threshold", 0.3, float),
        cluster_k_min=number("cluster", "k_min", 2),
        cluster_k_max=number("cluster", "k_max", 12),
        cluster_max_iters=number("cluster", "max_iters", 100),
        cluster_sample_size=number("cluster", "sample_size", None),
        cluster_lda_refine=bool(section("cluster").get("lda_refine", True)),
        graph_clique_cap=number("graph", "clique_cap", 50),
        metrics_top_k=number("metrics", "top_k", 10),
    )
    _validate(config)
    return config


def _validate(config: PipelineConfig) -> None:
    if config.format not in ("jsonl", "csv"):
        raise ConfigError(f"format must be jsonl or csv, got {config.format!r}")
    if config.merge_mode not in ("union", "exclusive"):
        raise ConfigError(f"merge_mode must be union or exclusive, got {config.merge_mode!r}")
    if config.lda_k < 2:
        raise ConfigError("topics.k must be >= 2")
    if config.lda_alpha is not None and config.lda_alpha <= 0:
        raise ConfigError("topics.alpha must be > 0")
    if config.lda_beta <= 0:
        raise ConfigError("topics.beta must be > 0")
    if config.lda_iterations < 1:
        raise ConfigError("topics.iterations must be >= 1")
    if config.lda_max_rounds < 0:
        raise ConfigError("topics.max_rounds must be >= 0")
    if not 0.0 <= config.overlap_threshold <= 1.0:
        raise ConfigError("topics.overlap_threshold must be within [0, 1]")
    if config.cluster_k_min < 2 or config.cluster_k_max < config.cluster_k_min:
        raise ConfigError("cluster k range must satisfy 2 <= k_min <= k_max")
    if config.cluster_max_iters < 1:
        raise ConfigError("cluster.max_iters must be >= 1")
    if config.cluster_sample_size is not None and config.cluster_sample_size < 1:
        raise ConfigError("cluster.sample_size must be >= 1")
    if config.filter_min_hits < 0:
        raise ConfigError("filter.min_hits must be >= 0")
    if config.graph_clique_cap < 2:
        raise ConfigError("graph.clique_cap must be >= 2")
    if config.metrics_top_k < 1:
        raise ConfigError("metrics.top_k must be >= 1")
    if not config.input.is_file():
        raise ConfigError(f"input file not found: {config.input}")
