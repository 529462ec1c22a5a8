/* k-means and silhouette of tweetflow.clustering over one CSR of the rows:
 * row i's terms and weights are terms/weights[starts[i] .. starts[i + 1]),
 * in the row's own order, and sq[i] is its squared norm. Every dot product
 * of a row with another vector adds the row's products in the row's order,
 * starting from 0.0, and every sum over rows is a left fold in row-index
 * order, so with -ffp-contract=off each result has the bits of the loops
 * over the row dicts in tests/oracles.py. A centroid's squared norm is the
 * one sum in another fixed order, sq_norm's, which fuses each square into
 * its sum with libm's correctly rounded fma(). */

#include <math.h>
#include <stdint.h>

/* L2-normalize each row in place and store its squared norm. A row whose
 * squares sum to 0 gets weights 0.0 and norm 0.0: it is an empty row. */
void tf_normalize(int64_t n, const int64_t *starts, double *weights, double *sq)
{
    int64_t i, e;
    double s, norm;
    for (i = 0; i < n; i++) {
        s = 0.0;
        for (e = starts[i]; e < starts[i + 1]; e++)
            s += weights[e] * weights[e];
        norm = sqrt(s);
        s = 0.0;
        for (e = starts[i]; e < starts[i + 1]; e++) {
            weights[e] = norm > 0.0 ? weights[e] / norm : 0.0;
            s += weights[e] * weights[e];
        }
        sq[i] = s;
    }
}

static double dot(int64_t from, int64_t to, const int32_t *terms, const double *weights,
                  const double *dense)
{
    double acc = 0.0;
    for (; from < to; from++)
        acc += weights[from] * dense[terms[from]];
    return acc;
}

static double clamped(double x)
{
    return x < 0.0 ? 0.0 : x;
}

/* out[i]: the distance from row i to row j. dense holds v zeros, and holds
 * them again on return. */
void tf_row_distances(int64_t n, const int64_t *starts, const int32_t *terms,
                      const double *weights, const double *sq, int64_t j, double *dense,
                      double *out)
{
    int64_t i, e;
    for (e = starts[j]; e < starts[j + 1]; e++)
        dense[terms[e]] = weights[e];
    for (i = 0; i < n; i++)
        out[i] = sqrt(clamped((sq[i] + sq[j]) - 2.0 * dot(starts[i], starts[i + 1], terms,
                                                          weights, dense)));
    for (e = starts[j]; e < starts[j + 1]; e++)
        dense[terms[e]] = 0.0;
}

/* x.x for the n doubles of x, in the order of OpenBLAS 0.3.31's SkylakeX
 * ddot on one thread, the order the goldens were frozen under: four 8-lane
 * accumulators over blocks of 32, each folded to 4 lanes; then four 4-lane
 * accumulators over blocks of 16 up to n & -16, added per lane and the
 * lanes paired as (s0 + s2) + (s1 + s3); then the tail, one term at a
 * time. Lane l of accumulator u takes term 8u + l (4u + l) of each block. */
static double sq_norm(int64_t n, const double *x)
{
    int64_t i = 0, n16 = n & -16, u, l;
    double wide[4][8] = {{0.0}}, narrow[4][4], s[4], acc = 0.0;
    if (n16 > 0) {
        for (; i < (n & -32); i += 32)
            for (u = 0; u < 4; u++)
                for (l = 0; l < 8; l++)
                    wide[u][l] = fma(x[i + 8 * u + l], x[i + 8 * u + l], wide[u][l]);
        for (u = 0; u < 4; u++)
            for (l = 0; l < 4; l++)
                narrow[u][l] = wide[u][l] + wide[u][l + 4];
        for (; i < n16; i += 16)
            for (u = 0; u < 4; u++)
                for (l = 0; l < 4; l++)
                    narrow[u][l] = fma(x[i + 4 * u + l], x[i + 4 * u + l], narrow[u][l]);
        for (l = 0; l < 4; l++)
            s[l] = ((narrow[0][l] + narrow[1][l]) + narrow[2][l]) + narrow[3][l];
        acc = (s[0] + s[2]) + (s[1] + s[3]);
    }
    for (; i < n; i++)
        acc = fma(x[i], x[i], acc);
    return acc;
}

/* Each row's nearest of the k centroids (rows of the k x v array), ties to
 * the lowest index, and its squared distance to it. c_sq (k entries) is
 * working space for the centroids' squared norms. */
void tf_assign(int64_t n, int32_t k, int64_t v, const int64_t *starts, const int32_t *terms,
               const double *weights, const double *sq, const double *centroids,
               double *c_sq, int32_t *nearest, double *best)
{
    int64_t i;
    int32_t c;
    double d;
    for (c = 0; c < k; c++)
        c_sq[c] = sq_norm(v, centroids + c * v);
    for (i = 0; i < n; i++) {
        for (c = 0; c < k; c++) {
            d = clamped((sq[i] - 2.0 * dot(starts[i], starts[i + 1], terms, weights,
                                            centroids + c * v)) + c_sq[c]);
            if (c == 0 || d < best[i]) {
                nearest[i] = c;
                best[i] = d;
            }
        }
    }
}

/* The k x v centroids: each cluster's rows summed in row-index order, then
 * divided by its count when it has rows. */
void tf_centroids(int64_t n, int32_t k, int64_t v, const int64_t *starts,
                  const int32_t *terms, const double *weights, const int32_t *assignments,
                  const int64_t *counts, double *centroids)
{
    int64_t i, e, t;
    int32_t c;
    for (t = 0; t < k * v; t++)
        centroids[t] = 0.0;
    for (i = 0; i < n; i++)
        for (e = starts[i]; e < starts[i + 1]; e++)
            centroids[assignments[i] * v + terms[e]] += weights[e];
    for (c = 0; c < k; c++)
        if (counts[c] > 0)
            for (t = c * v; t < (c + 1) * v; t++)
                centroids[t] /= (double)counts[c];
}

/* scores[q]: the silhouette value of row query[q], for rows labelled
 * 0 .. n_labels - 1 with sizes[l] rows each. The dot products of the query
 * row with every row come from postings lists (each term's rows and
 * weights, in row order), adding the query row's products in its own
 * order. Working space: post_start (v + 1 entries, zeros), post_row and
 * post_weight (starts[n] each), gram (n) and sums (n_labels). */
void tf_silhouette(int64_t n, int64_t v, const int64_t *starts, const int32_t *terms,
                   const double *weights, const double *sq, int32_t n_labels,
                   const int32_t *label, const int64_t *sizes, int64_t n_query,
                   const int64_t *query, int64_t *post_start, int32_t *post_row,
                   double *post_weight, double *gram, double *sums, double *scores)
{
    int64_t i, j, e, p, q, t;
    int32_t c, own;
    double d, a, b, mean, denom;
    for (e = 0; e < starts[n]; e++)
        post_start[terms[e] + 1]++;
    for (t = 0; t < v; t++)
        post_start[t + 1] += post_start[t];
    for (j = 0; j < n; j++)  /* post_start[t] walks to the end of term t's list */
        for (e = starts[j]; e < starts[j + 1]; e++) {
            p = post_start[terms[e]]++;
            post_row[p] = (int32_t)j;
            post_weight[p] = weights[e];
        }
    for (t = v; t > 0; t--)
        post_start[t] = post_start[t - 1];
    post_start[0] = 0;

    for (q = 0; q < n_query; q++) {
        i = query[q];
        for (j = 0; j < n; j++)
            gram[j] = 0.0;
        for (e = starts[i]; e < starts[i + 1]; e++)
            for (p = post_start[terms[e]]; p < post_start[terms[e] + 1]; p++)
                gram[post_row[p]] += weights[e] * post_weight[p];
        for (c = 0; c < n_labels; c++)
            sums[c] = 0.0;
        for (j = 0; j < n; j++) {
            d = j == i ? 0.0 : sqrt(clamped((sq[i] + sq[j]) - 2.0 * gram[j]));
            sums[label[j]] += d;
        }
        own = label[i];
        a = sums[own] / (double)(sizes[own] > 1 ? sizes[own] - 1 : 1);
        b = INFINITY;
        for (c = 0; c < n_labels; c++) {
            mean = sums[c] / (double)sizes[c];
            if (c != own && mean < b)
                b = mean;
        }
        denom = a < b ? b : a;
        /* a point in a singleton cluster contributes 0 */
        scores[q] = sizes[own] > 1 && denom > 0.0 ? (b - a) / denom : 0.0;
    }
}
