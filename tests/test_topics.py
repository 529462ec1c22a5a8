from __future__ import annotations

import math
import random
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import oracles
import pytest

from tweetflow import _kernels, topics
from tweetflow.corpus import TweetRecord
from tweetflow.errors import DataError, StageError
from tweetflow.preprocess import TokenizedDoc
from tweetflow.topics import (
    LdaConfig,
    LdaModel,
    SelectorAbort,
    dictionary_selector,
    dominant_topic,
    fit_lda,
    iterative_refine,
    log_likelihood,
    top_words,
)

TOURISM_VOCAB = [
    "beach", "sea", "hotel", "travel", "holiday", "summer", "visit",
    "trip", "coast", "sunset", "resort", "swim", "relax", "town", "wine",
]
NOISE_VOCAB = [
    "match", "wrestling", "arena", "champion", "takeover", "roster",
    "heel", "promo", "belt", "crowd", "referee", "smackdown", "cage",
    "rematch", "entrance",
]


def doc(tweet_id, lemmas):
    return TokenizedDoc(tweet_id, tuple(lemmas))


def planted_corpus(seed, docs_per_side=50, tokens_per_doc=8):
    rng = random.Random(seed)
    docs = []
    for i in range(docs_per_side):
        docs.append(doc(f"a{i}", [rng.choice(TOURISM_VOCAB) for _ in range(tokens_per_doc)]))
    for i in range(docs_per_side):
        docs.append(doc(f"b{i}", [rng.choice(NOISE_VOCAB) for _ in range(tokens_per_doc)]))
    return docs


def topic_purity(model, n=10):
    """Best-alignment purity of the two topics' top-n word sets."""
    tops = [
        {w for w, _ in top_words(model, z, n).top_words} for z in (0, 1)
    ]
    tourism, noise = set(TOURISM_VOCAB), set(NOISE_VOCAB)
    straight = len(tops[0] & tourism) + len(tops[1] & noise)
    swapped = len(tops[0] & noise) + len(tops[1] & tourism)
    return max(straight, swapped) / (len(tops[0]) + len(tops[1]))


class TestLdaConfig:
    def test_default_alpha_is_50_over_k(self):
        assert LdaConfig(k=5).effective_alpha == 10.0

    def test_rejects_bad_values(self):
        with pytest.raises(DataError):
            LdaConfig(k=1)
        with pytest.raises(DataError):
            LdaConfig(k=2, beta=0.0)
        with pytest.raises(DataError):
            LdaConfig(k=2, iterations=0)


class TestFitLda:
    def test_count_conservation_single_word_corpus(self):
        # a fit of i sweeps is the state after sweep i of a longer fit
        docs = [doc(str(i), ["sea"] * 3) for i in range(5)]
        for iterations in range(1, 21):
            model = fit_lda(docs, LdaConfig(k=2, iterations=iterations, seed=1))
            model.check_invariants()
            assert sum(model.topic_totals) == 15

    def test_same_seed_bit_identical(self):
        docs = planted_corpus(0, docs_per_side=10)
        config = LdaConfig(k=2, alpha=0.5, iterations=50, seed=7)
        a = fit_lda(docs, config)
        b = fit_lda(docs, config)
        assert a.assignments == b.assignments
        assert a.topic_word_counts == b.topic_word_counts

    def test_planted_vocabulary_recovery(self):
        docs = planted_corpus(3)
        model = fit_lda(docs, LdaConfig(k=2, alpha=0.5, iterations=500, seed=3))
        assert topic_purity(model) >= 0.8

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(DataError):
            fit_lda([doc("1", [])], LdaConfig(k=2, iterations=1))

    def test_k_exceeding_nonempty_docs_rejected(self):
        with pytest.raises(DataError):
            fit_lda([doc("1", ["sea"]), doc("2", [])], LdaConfig(k=2, iterations=1))

    def test_empty_docs_keep_rows(self):
        docs = [doc("1", ["sea"]), doc("2", []), doc("3", ["sun"])]
        model = fit_lda(docs, LdaConfig(k=2, iterations=5, seed=0))
        assert len(model.doc_topic_counts) == 3
        assert sum(model.doc_topic_counts[1]) == 0


def random_corpus(seed, n_docs, vocab_size, lengths, empty_docs=True):
    """Seeded docs over w0..w{vocab_size-1}; every 5th doc is empty unless
    empty_docs is false, and some docs repeat a word."""
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(vocab_size)]
    docs = []
    for i in range(n_docs):
        if empty_docs and i % 5 == 4:
            lemmas = []
        else:
            lemmas = [rng.choice(vocab) for _ in range(rng.choice(lengths))]
        if len(lemmas) > 1 and rng.random() < 0.5:
            lemmas.append(lemmas[0])
        docs.append(doc(f"d{i}", lemmas))
    return docs


ORACLE_CORPORA = {
    "mixed": dict(n_docs=30, vocab_size=12, lengths=(1, 2, 4, 9)),
    "one_word_vocabulary": dict(n_docs=20, vocab_size=1, lengths=(1, 3, 6)),
    "length_one_docs": dict(n_docs=25, vocab_size=7, lengths=(1,)),
    "all_length_one_docs": dict(n_docs=20, vocab_size=6, lengths=(1,), empty_docs=False),
}


def oracle_docs(corpus, k):
    """ORACLE_CORPORA[corpus] seeded by k, grown to 2k documents when its
    listed size would hold fewer than k non-empty ones."""
    spec = dict(ORACLE_CORPORA[corpus])
    if spec["n_docs"] * 4 // 5 < k:
        spec["n_docs"] = 2 * k
    return random_corpus(k, **spec)


def assert_same_model(fast, slow):
    # repr, so a float count of 3.0 does not pass for the int 3
    assert repr(fast.topic_word_counts) == repr(slow.topic_word_counts)
    assert repr(fast.doc_topic_counts) == repr(slow.doc_topic_counts)
    assert repr(fast.topic_totals) == repr(slow.topic_totals)
    assert fast.assignments == slow.assignments
    assert fast.vocab == slow.vocab
    n = len(fast.vocab)
    for z in range(fast.config.k):
        assert repr(top_words(fast, z, n)) == repr(top_words(slow, z, n))


class ZeroRuns(random.Random):
    """Seeded as usual, then set through setstate to output its state words
    from the first one on, with every other run of four words zeroed.
    MT19937 tempering maps the word 0 to 0, so each zero run holds two words
    that one random() call turns into exactly 0.0, however the calls pair
    up the words."""

    def seed(self, *args, **kwargs):
        super().seed(*args, **kwargs)
        version, state, gauss_next = self.getstate()
        words = [0 if i % 8 < 4 else word for i, word in enumerate(state[:-1])]
        self.setstate((version, (*words, 0), gauss_next))


class TestOracleEquivalence:
    """fit_lda against the decrement/re-increment loop over int tables in
    tests/oracles.py: the same samples, counts and probabilities, bit for bit."""

    # k = 4 and k = 40 have own topics first, in the middle and last that
    # keep their token (the sweep's early continue) and that move it
    @pytest.mark.parametrize("corpus", sorted(ORACLE_CORPORA))
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 8, 13, 40])
    @pytest.mark.parametrize("alpha", [None, 0.5])
    @pytest.mark.parametrize("beta", [0.01, 1e-6])
    def test_matches_oracle(self, corpus, k, alpha, beta):
        docs = oracle_docs(corpus, k)
        config = LdaConfig(k=k, alpha=alpha, beta=beta, iterations=25, seed=k)
        model = fit_lda(docs, config)
        assert_same_model(model, oracles.fit_lda(docs, config))
        model.check_invariants()

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_exact_ties_match_oracle(self, monkeypatch, k):
        # Every word occurs once and alpha * beta underflows to 0.0, so a
        # topic no other token of the doc holds weighs exactly 0.0, and a
        # one-token doc weighs 0.0 in every topic. With uniforms of exactly
        # 0.0 the search must skip leading zero-weight topics (r < cumulative,
        # not <=) and fall through to the last topic when the total is 0.0.
        lengths = [0 if i % 5 == 4 else 1 + i % 3 for i in range(24)]
        words = iter(range(sum(lengths)))
        docs = [doc(f"d{i}", [f"u{next(words)}" for _ in range(n)]) for i, n in enumerate(lengths)]
        config = LdaConfig(k=k, alpha=1e-200, beta=1e-200, iterations=10, seed=k)

        monkeypatch.setattr(random, "Random", ZeroRuns)
        assert_same_model(fit_lda(docs, config), oracles.fit_lda(docs, config))
        # the uniforms both samplers drew: a randrange per token, then one
        # random() per token and sweep
        rng = ZeroRuns(config.seed)
        for _ in range(sum(lengths)):
            rng.randrange(k)
        uniforms = [rng.random() for _ in range(sum(lengths) * config.iterations)]
        assert uniforms.count(0.0) >= 30

    def test_iterative_refine_matches_oracle(self, monkeypatch):
        corpus, docs = mixture_corpus(7)
        config = LdaConfig(k=3, iterations=60, seed=13)
        selector = dictionary_selector(frozenset(TOURISM_VOCAB), top_n=10, threshold=0.5)
        fast = iterative_refine(corpus, docs, config, selector, max_rounds=3)
        monkeypatch.setattr(topics, "fit_lda", oracles.fit_lda)
        slow = iterative_refine(corpus, docs, config, selector, max_rounds=3)
        assert len(fast.rounds) >= 2
        assert fast == slow
        assert repr(fast.rounds) == repr(slow.rounds)


SRC = Path(__file__).resolve().parents[1] / "src"
KERNEL_SOURCE = SRC / "tweetflow" / "_gibbs.c"
STRICT_C = ("-std=c99", "-Wall", "-Wextra", "-Werror", "-pedantic")

# reads the 625 words of random.Random.getstate()[1] and a count n from
# stdin; prints n uniforms of the kernel's generator as hex floats, then its
# state
STREAM_HARNESS = r"""
#include <inttypes.h>
#include <stdio.h>
#include "SOURCE"

int main(void)
{
    uint32_t mt[MT_N + 1];
    long n;
    int i;
    for (i = 0; i <= MT_N; i++)
        if (scanf("%" SCNu32, &mt[i]) != 1)
            return 1;
    if (scanf("%ld", &n) != 1)
        return 1;
    while (n-- > 0)
        printf("%a\n", mt_random(mt));
    for (i = 0; i <= MT_N; i++)
        printf("%" PRIu32 "\n", mt[i]);
    return 0;
}
"""


class TestGibbsKernel:
    """The compiled sweep of src/tweetflow/_gibbs.c and the kernels' loader."""

    @pytest.fixture
    def fresh_kernel(self, monkeypatch, tmp_path):
        """An empty library cache under tmp_path, with the kernel unloaded
        before and after the test."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        _kernels._library.cache_clear()
        yield tmp_path / "cache" / "tweetflow"
        _kernels._library.cache_clear()

    def test_draws_cpython_random_stream(self, tmp_path):
        # 1,000 draws take 2,000 state words: four refills of 624 words. The
        # harness includes _gibbs.c and is linked with the other kernel
        # sources, so this also builds every one under -Wall -Wextra -Werror
        # -pedantic.
        harness = tmp_path / "stream.c"
        harness.write_text(STREAM_HARNESS.replace("SOURCE", str(KERNEL_SOURCE)), encoding="utf-8")
        program = tmp_path / "stream"
        others = [str(source) for source in _kernels._SOURCES if source.name != KERNEL_SOURCE.name]
        subprocess.run(["cc", *STRICT_C, "-o", str(program), str(harness), *others,
                        *_kernels._LINK], check=True, capture_output=True, timeout=120)
        n = 1000
        for seed in (0, 1, 42, 2**40, 123456789):
            rng = random.Random(seed)
            state = rng.getstate()[1]
            result = subprocess.run(
                [str(program)], input=" ".join(map(str, (*state, n))),
                capture_output=True, text=True, check=True, timeout=120,
            )
            lines = result.stdout.split()
            assert [float.fromhex(u) for u in lines[:n]] == [rng.random() for _ in range(n)]
            assert tuple(int(w) for w in lines[n:]) == rng.getstate()[1]

    def test_fit_hands_back_the_generator_state(self, monkeypatch):
        made = []

        class Recorded(random.Random):
            def seed(self, *args, **kwargs):
                super().seed(*args, **kwargs)
                made.append(self)

        docs = planted_corpus(1, docs_per_side=6)
        config = LdaConfig(k=3, iterations=9, seed=5)
        monkeypatch.setattr(random, "Random", Recorded)
        fit_lda(docs, config)
        (rng,) = made
        expected = random.Random(config.seed)
        n_tokens = sum(len(d.lemmas) for d in docs)
        for _ in range(n_tokens):
            expected.randrange(config.k)
        for _ in range(n_tokens * config.iterations):
            expected.random()
        assert rng.getstate() == expected.getstate()

    def test_built_once_then_loaded_from_the_cache(self, fresh_kernel, monkeypatch, tmp_path):
        docs = planted_corpus(0, docs_per_side=5)
        config = LdaConfig(k=3, iterations=20, seed=4)
        first = fit_lda(docs, config)
        (library,) = fresh_kernel.iterdir()
        assert library.name.startswith("kernels-") and library.suffix == ".so"
        assert stat.S_IMODE(fresh_kernel.stat().st_mode) == 0o700
        # from here on no cc can be found: a second fit, and a new process
        # with the library in the cache, must not need one
        monkeypatch.setenv("PATH", str(tmp_path / "no-cc"))
        assert fit_lda(docs, config) == first
        code = "\n".join([
            "import sys",
            f"sys.path.insert(0, {str(SRC)!r})",
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})",
            "from test_topics import planted_corpus",
            "from tweetflow.topics import LdaConfig, fit_lda",
            f"print(fit_lda(planted_corpus(0, docs_per_side=5), {config!r}).assignments)",
        ])
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"{first.assignments}\n"
        assert list(fresh_kernel.iterdir()) == [library]

    def test_unwritable_cache_still_fits(self, fresh_kernel, monkeypatch, tmp_path):
        docs = planted_corpus(2, docs_per_side=5)
        config = LdaConfig(k=4, iterations=20, seed=6)
        # a regular file where the cache directory's parent should be
        (tmp_path / "cache").write_text("", encoding="utf-8")
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert_same_model(fit_lda(docs, config), oracles.fit_lda(docs, config))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache"]

    def test_missing_compiler_is_stage_error(self, fresh_kernel, monkeypatch, tmp_path):
        monkeypatch.setenv("PATH", str(tmp_path / "no-cc"))
        with pytest.raises(StageError, match=r"cannot build the C kernels with `cc -O2 "):
            fit_lda(planted_corpus(0, docs_per_side=5), LdaConfig(k=2, iterations=1))

    def test_failed_compile_names_command_and_stderr(self, fresh_kernel, monkeypatch, tmp_path):
        broken = tmp_path / "broken.c"
        broken.write_text("this is not C\n", encoding="utf-8")
        monkeypatch.setattr(_kernels, "_SOURCES", (broken,))
        with pytest.raises(StageError) as raised:
            fit_lda(planted_corpus(0, docs_per_side=5), LdaConfig(k=2, iterations=1))
        message = str(raised.value)
        assert "`cc -O2 -std=c99 -fPIC -shared -ffp-contract=off -o " in message
        assert f"{broken} -lm` exited 1: " in message and "error" in message
        assert list(fresh_kernel.iterdir()) == []


class TestLogLikelihood:
    def _model(self, topic_word_counts, beta):
        totals = [sum(row) for row in topic_word_counts]
        return LdaModel(
            topic_word_counts=topic_word_counts,
            doc_topic_counts=[totals],
            topic_totals=totals,
            assignments=[[]],
            vocab=["a", "b"],
            config=LdaConfig(k=2, beta=beta, iterations=1),
        )

    def test_uniform_prior_by_hand(self):
        # beta = 1 over two words: topic 0 draws "a" twice, p = 1/2 * 2/3;
        # topic 1 draws "a" then "b", p = 1/2 * 1/3; together 1/18
        model = self._model([[2, 0], [1, 1]], beta=1.0)
        assert math.isclose(log_likelihood(model), -math.log(18), rel_tol=1e-12)

    def test_matches_polya_urn(self):
        # the same tables drawn one word at a time from a Polya urn, beta = 0.5
        model = self._model([[2, 0], [1, 1]], beta=0.5)
        p = (0.5 / 1.0) * (1.5 / 2.0) * (0.5 / 1.0) * (0.5 / 2.0)
        assert math.isclose(log_likelihood(model), math.log(p), rel_tol=1e-12)

    def test_refine_rounds_carry_it(self):
        corpus, docs = mixture_corpus(8)
        config = LdaConfig(k=2, alpha=0.5, iterations=50, seed=3)
        result = iterative_refine(corpus, docs, config, lambda s: {0, 1}, max_rounds=1)
        (round_log,) = result.rounds
        assert round_log.log_likelihood == log_likelihood(fit_lda(docs, config))
        assert round_log.log_likelihood < 0.0


class TestTopWords:
    def _model(self, counts, vocab):
        # pad with an empty second topic so k >= 2 holds
        counts = [list(c) for c in counts] + [[0] * len(vocab)]
        return LdaModel(
            topic_word_counts=counts,
            doc_topic_counts=[],
            topic_totals=[sum(c) for c in counts],
            assignments=[],
            vocab=list(vocab),
            config=LdaConfig(k=len(counts), beta=1e-9, iterations=1),
        )

    def test_tiny_beta_recovers_count_ratios(self):
        model = self._model([[9, 1]], ["sea", "sun"])
        summary = top_words(model, 0, 2)
        assert summary.top_words[0][0] == "sea"
        assert summary.top_words[0][1] == pytest.approx(0.9, abs=1e-6)
        assert summary.top_words[1][1] == pytest.approx(0.1, abs=1e-6)

    def test_zero_counts_tie_lexicographic(self):
        model = self._model([[0, 0, 0]], ["pear", "apple", "mango"])
        summary = top_words(model, 0, 2)
        assert [w for w, _ in summary.top_words] == ["apple", "mango"]

    def test_full_vocabulary_sums_to_one(self):
        model = self._model([[3, 2, 5]], ["a", "b", "c"])
        summary = top_words(model, 0, 3)
        assert sum(p for _, p in summary.top_words) == pytest.approx(1.0, abs=1e-9)

    def test_out_of_range_topic(self):
        model = self._model([[1]], ["a"])
        with pytest.raises(DataError):
            top_words(model, 2, 1)


class TestDominantTopic:
    def _model(self, doc_counts):
        k = len(doc_counts[0])
        return LdaModel(
            topic_word_counts=[[] for _ in range(k)],
            doc_topic_counts=[list(c) for c in doc_counts],
            topic_totals=[0] * k,
            assignments=[[] for _ in doc_counts],
            vocab=[],
            config=LdaConfig(k=k, iterations=1),
        )

    def test_argmax(self):
        assert dominant_topic(self._model([[5, 0, 0]]), 0) == 0
        assert dominant_topic(self._model([[2, 3]]), 0) == 1

    def test_empty_doc_ties_to_lowest(self):
        assert dominant_topic(self._model([[0, 0, 0]]), 0) == 0

    def test_out_of_range(self):
        with pytest.raises(DataError):
            dominant_topic(self._model([[1, 0]]), 5)


def mixture_corpus(seed, n_tourism=70, n_noise=30):
    rng = random.Random(seed)
    records, docs = [], []
    for i in range(n_tourism + n_noise):
        vocab = TOURISM_VOCAB if i < n_tourism else NOISE_VOCAB
        lemmas = [rng.choice(vocab) for _ in range(8)]
        records.append(TweetRecord(id=f"t{i}", text=" ".join(lemmas), lang="en"))
        docs.append(doc(f"t{i}", lemmas))
    return tuple(records), docs


def ids(corpus):
    return [r.id for r in corpus]


class TestIterativeRefine:
    config = LdaConfig(k=2, alpha=0.5, iterations=300, seed=11)

    def test_pure_corpus_is_fixpoint(self):
        corpus, docs = mixture_corpus(1, n_tourism=40, n_noise=0)
        keep_all = lambda summaries: {s.topic_id for s in summaries}
        result = iterative_refine(corpus, docs, self.config, keep_all, max_rounds=3)
        assert ids(result.corpus) == ids(corpus)
        assert len(result.rounds) == 1

    def test_mixture_separation(self):
        corpus, docs = mixture_corpus(2)
        selector = dictionary_selector(frozenset(TOURISM_VOCAB), top_n=10, threshold=0.5)
        result = iterative_refine(corpus, docs, self.config, selector, max_rounds=3)
        survivors = ids(result.corpus)
        tourism_share = sum(1 for tid in survivors if int(tid[1:]) < 70) / len(survivors)
        assert tourism_share >= 0.95

    def test_zero_rounds_identity(self):
        corpus, docs = mixture_corpus(3)
        result = iterative_refine(
            corpus, docs, self.config, lambda s: {0}, max_rounds=0
        )
        assert ids(result.corpus) == ids(corpus)
        assert result.rounds == ()

    def test_survivors_monotone_non_increasing(self):
        corpus, docs = mixture_corpus(4)
        selector = dictionary_selector(frozenset(TOURISM_VOCAB), top_n=10, threshold=0.5)
        result = iterative_refine(corpus, docs, self.config, selector, max_rounds=4)
        sizes = [r.n_docs for r in result.rounds] + [len(result.corpus)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        parent_ids = set(ids(corpus))
        assert all(tid in parent_ids for tid in ids(result.corpus))

    def test_selector_abort(self):
        corpus, docs = mixture_corpus(5)
        with pytest.raises(SelectorAbort):
            iterative_refine(corpus, docs, self.config, lambda s: set(), max_rounds=2)

    def test_docs_corpus_mismatch(self):
        corpus, docs = mixture_corpus(6)
        with pytest.raises(DataError):
            iterative_refine(corpus, docs[:-1], self.config, lambda s: {0}, max_rounds=1)


class TestDictionarySelector:
    def test_threshold_boundary(self):
        from tweetflow.topics import TopicSummary

        tourism = frozenset({"sea", "beach", "sun"})
        summaries = [
            TopicSummary(0, (("sea", 0.5), ("beach", 0.3), ("rock", 0.1), ("mud", 0.1))),
            TopicSummary(1, (("rock", 0.5), ("mud", 0.3), ("dust", 0.1), ("ash", 0.1))),
        ]
        assert dictionary_selector(tourism, top_n=4, threshold=0.5)(summaries) == {0}
        assert dictionary_selector(tourism, top_n=4, threshold=0.6)(summaries) == set()
