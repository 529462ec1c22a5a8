/* Collapsed Gibbs sweeps of tweetflow.topics.fit_lda.
 *
 * The counts are doubles that always hold exact small integers, so every
 * increment, decrement and int-to-float step is exact. For each token the
 * own assignment is taken out of its three counts, the k terms
 *
 *     (d + alpha) * (w + beta) / (n + v_beta)
 *
 * are summed left to right into cumulative sums starting from 0.0, one
 * uniform u scales the total, and the first topic whose cumulative sum
 * exceeds u * total is drawn, the last topic when none does. These are
 * the expressions of the plain int-table loop in tests/oracles.py, in its
 * order, so with -ffp-contract=off (no fused multiply-add) every sample
 * is bit-equal to it.
 *
 * u is CPython's random.Random.random(): genrand_res53 over the MT19937
 * words of _mt.h.
 */

#include "_mt.h"

static double mt_random(uint32_t *mt)
{
    uint32_t a = mt_word(mt) >> 5;
    uint32_t b = mt_word(mt) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* Run `iterations` sweeps over every token. Document d's tokens are
 * words[doc_start[d] .. doc_start[d + 1]) with topics in `topics`;
 * doc_topic is n_docs x k and word_topic is V x k, both row-major;
 * cumulative is room for k doubles of working space. */
void tf_gibbs_sweeps(int64_t n_docs, const int64_t *doc_start, const int32_t *words,
                     int32_t *topics, double *doc_topic, double *word_topic,
                     double *topic_total, int32_t k, double alpha, double beta,
                     double v_beta, int64_t iterations, uint32_t *mt, double *cumulative)
{
    int64_t sweep, d, i;
    int32_t t, z;
    double *dt, *wt, total, r;
    for (sweep = 0; sweep < iterations; sweep++) {
        for (d = 0; d < n_docs; d++) {
            dt = doc_topic + d * k;
            for (i = doc_start[d]; i < doc_start[d + 1]; i++) {
                wt = word_topic + (int64_t)words[i] * k;
                z = topics[i];
                dt[z] -= 1.0;
                wt[z] -= 1.0;
                topic_total[z] -= 1.0;
                total = 0.0;
                for (t = 0; t < k; t++) {
                    total += (dt[t] + alpha) * (wt[t] + beta) / (topic_total[t] + v_beta);
                    cumulative[t] = total;
                }
                r = mt_random(mt) * total;
                for (t = 0; t < k - 1 && !(r < cumulative[t]); t++)
                    ;
                topics[i] = t;
                dt[t] += 1.0;
                wt[t] += 1.0;
                topic_total[t] += 1.0;
            }
        }
    }
}
