"""Latent Dirichlet Allocation by collapsed Gibbs sampling.

The sampler resamples every token's topic from the full conditional

    p(z | rest) ~ (n_dk + alpha) * (n_kw + beta) / (n_k + V*beta)

with the token's own assignment excluded from all counts. Sampling is
driven by a single seeded RNG, so identical seed and input give a
bit-identical model.

The sweeps run in one compiled C function, `tf_gibbs_sweeps` of
_gibbs.c, over flat arrays: the token word ids and topics, per-document
offsets into them, and the doc-topic, word-topic and topic-total counts as
floats that always hold exact small integers. Its samples are bit-equal to
those of the plain loop over int tables (kept as `fit_lda` in
tests/oracles.py and checked against this one), because it evaluates the
same expressions in the same order and draws the same uniforms: it runs
CPython's MT19937 `random()` on the state of the seeded `random.Random`,
which goes back into that generator after the last sweep.

The kernel is built with the system C compiler `cc` and loaded through
ctypes (see `_kernels`), so this module needs no numpy.

On top of the sampler sits the iterative refinement loop that repeatedly
fits a model, keeps only documents whose dominant topic a selector marks
as on-domain, and refits on the survivors.
"""

from __future__ import annotations

import logging
import math
import random
from array import array
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import accumulate

from . import _kernels
from .corpus import Corpus
from .errors import DataError, StageError
from .floats import _sum_left
from .preprocess import TokenizedDoc, ranked

log = logging.getLogger(__name__)

# iterative_refine stops once a round drops less than this share of its docs
MIN_CHANGE = 0.01


@dataclass(frozen=True)
class LdaConfig:
    k: int
    alpha: float | None = None  # defaults to 50/k
    beta: float = 0.01
    iterations: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 2:
            raise DataError(f"topic count must be >= 2, got {self.k}")
        if self.alpha is not None and self.alpha <= 0:
            raise DataError("alpha must be strictly positive")
        if self.beta <= 0:
            raise DataError("beta must be strictly positive")
        if self.iterations < 1:
            raise DataError("iterations must be >= 1")

    @property
    def effective_alpha(self) -> float:
        return self.alpha if self.alpha is not None else 50.0 / self.k


@dataclass
class LdaModel:
    topic_word_counts: list[list[int]]  # k x V
    doc_topic_counts: list[list[int]]   # D x k
    topic_totals: list[int]             # length k
    assignments: list[list[int]]        # per-doc token topic labels
    vocab: list[str]                    # sorted; columns of topic_word_counts
    config: LdaConfig

    def check_invariants(self) -> None:
        """Raise if the count tables disagree with the assignments."""
        for z, row in enumerate(self.topic_word_counts):
            if sum(row) != self.topic_totals[z]:
                raise AssertionError(f"topic {z}: word counts do not sum to total")
        for d, zs in enumerate(self.assignments):
            if sum(self.doc_topic_counts[d]) != len(zs):
                raise AssertionError(f"doc {d}: topic counts do not sum to token count")
        if any(c < 0 for row in self.topic_word_counts for c in row):
            raise AssertionError("negative topic-word count")
        if any(c < 0 for row in self.doc_topic_counts for c in row):
            raise AssertionError("negative doc-topic count")


@dataclass(frozen=True)
class TopicSummary:
    topic_id: int
    top_words: tuple[tuple[str, float], ...]


def fit_lda(docs: Sequence[TokenizedDoc], config: LdaConfig) -> LdaModel:
    """Fit an LDA model over the documents' lemma streams.

    Empty documents keep their row in the doc-topic table (all zeros) but
    contribute no tokens. A fit of i iterations is the state after sweep i
    of a longer fit with the same seed.
    """
    vocab = sorted({lem for doc in docs for lem in doc.lemmas})
    if not vocab:
        raise DataError("cannot fit LDA on an empty vocabulary")
    n_nonempty = sum(1 for doc in docs if doc.lemmas)
    if config.k > n_nonempty:
        raise DataError(
            f"k={config.k} exceeds the {n_nonempty} non-empty documents"
        )
    word_index = {w: i for i, w in enumerate(vocab)}
    words = array("i", [word_index[lem] for doc in docs for lem in doc.lemmas])
    doc_start = array("q", accumulate((len(doc.lemmas) for doc in docs), initial=0))

    k = config.k
    v_size = len(vocab)
    rng = random.Random(config.seed)
    topic = array("i", [rng.randrange(k) for _ in words])
    doc_topic = array("d", [0.0]) * (len(docs) * k)
    word_topic = array("d", [0.0]) * (v_size * k)
    topic_total = array("d", [0.0]) * k
    for d in range(len(docs)):
        for i in range(doc_start[d], doc_start[d + 1]):
            z = topic[i]
            doc_topic[d * k + z] += 1.0
            word_topic[words[i] * k + z] += 1.0
            topic_total[z] += 1.0

    version, state, gauss_next = rng.getstate()
    mt = array("I", state)
    cumulative = array("d", [0.0]) * k
    beta = config.beta
    _kernels._call("tf_gibbs_sweeps", len(docs), doc_start, words, topic, doc_topic, word_topic,
                   topic_total, k, config.effective_alpha, beta, v_size * beta,
                   config.iterations, mt, cumulative)
    rng.setstate((version, tuple(mt), gauss_next))
    return LdaModel(
        [[int(c) for c in word_topic[t::k]] for t in range(k)],
        [[int(c) for c in doc_topic[d * k:(d + 1) * k]] for d in range(len(docs))],
        [int(n) for n in topic_total],
        [topic[doc_start[d]:doc_start[d + 1]].tolist() for d in range(len(docs))],
        vocab,
        config,
    )


def log_likelihood(model: LdaModel) -> float:
    """log p(w | z) of the model's assignments (Griffiths & Steyvers 2004, eq. 2).

    A word a topic never drew adds lgamma(beta) - lgamma(beta) = 0, so only
    the non-zero counts are summed.
    """
    beta = model.config.beta
    v_beta = len(model.vocab) * beta
    lgamma_beta = math.lgamma(beta)
    total = 0.0
    for row, n in zip(model.topic_word_counts, model.topic_totals):
        total += math.lgamma(v_beta) - math.lgamma(n + v_beta)
        total += _sum_left(math.lgamma(c + beta) - lgamma_beta for c in row if c)
    return total


def top_words(model: LdaModel, topic: int, n: int) -> TopicSummary:
    """Rank a topic's words by smoothed probability, ties lexicographic."""
    k = model.config.k
    if not 0 <= topic < k:
        raise DataError(f"topic {topic} out of range 0..{k - 1}")
    beta = model.config.beta
    denom = model.topic_totals[topic] + len(model.vocab) * beta
    probabilities = {
        word: (count + beta) / denom
        for word, count in zip(model.vocab, model.topic_word_counts[topic])
    }
    return TopicSummary(topic, ranked(probabilities, n))


def dominant_topic(model: LdaModel, doc: int) -> int:
    """Topic with maximal smoothed count for the document; ties take the lowest id."""
    if not 0 <= doc < len(model.doc_topic_counts):
        raise DataError(f"document index {doc} out of range")
    counts = model.doc_topic_counts[doc]
    alpha = model.config.effective_alpha
    best, best_score = 0, counts[0] + alpha
    for z in range(1, len(counts)):
        score = counts[z] + alpha
        if score > best_score:
            best, best_score = z, score
    return best


TopicSelector = Callable[[Sequence[TopicSummary]], set[int]]


def dictionary_selector(
    tourism_terms: frozenset[str] | set[str],
    top_n: int = 20,
    threshold: float = 0.3,
) -> TopicSelector:
    """Selector that keeps topics whose top words overlap the domain dictionary.

    A topic qualifies when at least `threshold` of its top_n words appear
    among the domain-labeled terms.
    """
    terms = frozenset(tourism_terms)

    def select(summaries: Sequence[TopicSummary]) -> set[int]:
        chosen = set()
        for summary in summaries:
            words = [w for w, _ in summary.top_words[:top_n]]
            if not words:
                continue
            overlap = sum(1 for w in words if w in terms) / len(words)
            if overlap >= threshold:
                chosen.add(summary.topic_id)
        return chosen

    return select


@dataclass(frozen=True)
class RefineRound:
    round_no: int
    n_docs: int
    n_survivors: int
    selected_topics: tuple[int, ...]
    summaries: tuple[TopicSummary, ...]
    log_likelihood: float  # log p(w | z) of the round's fit


@dataclass(frozen=True)
class RefineResult:
    corpus: Corpus
    rounds: tuple[RefineRound, ...]


class SelectorAbort(StageError):
    """The topic selector kept nothing; carries the round log so far."""

    def __init__(self, rounds: Sequence[RefineRound]):
        super().__init__("topic selector selected no topic")
        self.rounds = tuple(rounds)


def iterative_refine(
    corpus: Corpus,
    docs: Sequence[TokenizedDoc],
    config: LdaConfig,
    selector: TopicSelector,
    max_rounds: int,
    top_n: int = 20,
) -> RefineResult:
    """Repeatedly fit LDA and keep only tweets in selector-chosen topics.

    `docs` must be parallel to `corpus`. Each round fits on the
    surviving subset; refinement stops at max_rounds, when the surviving
    set shrinks by less than MIN_CHANGE, or when too few non-empty
    documents remain to fit k topics. Survivor sets are monotonically
    non-increasing.
    """
    if len(docs) != len(corpus):
        raise DataError("docs must be parallel to corpus records")
    survivors = list(range(len(corpus)))
    rounds: list[RefineRound] = []
    for round_no in range(1, max_rounds + 1):
        live_docs = [docs[i] for i in survivors]
        n_nonempty = sum(1 for d in live_docs if d.lemmas)
        if n_nonempty < config.k:
            log.info(
                "refine round %d: only %d non-empty docs for k=%d, stopping",
                round_no,
                n_nonempty,
                config.k,
            )
            break
        model = fit_lda(live_docs, config)
        summaries = tuple(top_words(model, z, top_n) for z in range(config.k))
        selected = selector(summaries)
        if not selected:
            raise SelectorAbort(rounds)
        kept = [
            idx
            for pos, idx in enumerate(survivors)
            if dominant_topic(model, pos) in selected
        ]
        rounds.append(
            RefineRound(
                round_no=round_no,
                n_docs=len(survivors),
                n_survivors=len(kept),
                selected_topics=tuple(sorted(selected)),
                summaries=summaries,
                log_likelihood=log_likelihood(model),
            )
        )
        log.info(
            "refine round %d: %d -> %d docs (topics %s)",
            round_no,
            len(survivors),
            len(kept),
            sorted(selected),
        )
        change = (len(survivors) - len(kept)) / len(survivors) if survivors else 0.0
        survivors = kept
        if change < MIN_CHANGE:
            break
    return RefineResult(tuple(corpus[i] for i in survivors), tuple(rounds))
