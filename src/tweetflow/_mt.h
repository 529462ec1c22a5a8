/* CPython's MT19937 generator (Modules/_randommodule.c), shared by the
 * kernels that draw what a random.Random draws. mt holds the 624 state
 * words and then the read index, as in random.Random.getstate()[1]. */

#ifndef TWEETFLOW_MT_H
#define TWEETFLOW_MT_H

#include <stdint.h>

#define MT_N 624
#define MT_M 397
#define MT_UPPER 0x80000000U
#define MT_LOWER 0x7fffffffU

static uint32_t mt_twist(uint32_t upper, uint32_t lower, uint32_t far)
{
    uint32_t y = (upper & MT_UPPER) | (lower & MT_LOWER);
    return far ^ (y >> 1) ^ ((y & 1U) ? 0x9908b0dfU : 0U);
}

/* genrand_uint32: the next 32-bit word */
static uint32_t mt_word(uint32_t *mt)
{
    uint32_t y;
    int i;
    if (mt[MT_N] >= MT_N) {
        for (i = 0; i < MT_N - MT_M; i++)
            mt[i] = mt_twist(mt[i], mt[i + 1], mt[i + MT_M]);
        for (; i < MT_N - 1; i++)
            mt[i] = mt_twist(mt[i], mt[i + 1], mt[i + MT_M - MT_N]);
        mt[MT_N - 1] = mt_twist(mt[MT_N - 1], mt[0], mt[MT_M - 1]);
        mt[MT_N] = 0;
    }
    y = mt[mt[MT_N]++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= y >> 18;
    return y;
}

#endif
