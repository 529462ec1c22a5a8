/* Eigenvector power iteration of tweetflow.netmetrics, and the merge loop of
 * tweetflow.community.greedy_modularity and the sweeps of its
 * label_propagation. All three run over the CSR arrays of one prepared
 * graph, node i's neighbours being heads[arc_start[i] .. arc_start[i + 1]).
 * The power iteration and the merge loop add the same terms in the same
 * order as the Python loops in tests/oracles.py, so with -ffp-contract=off
 * every value is bit-equal to theirs; label propagation counts integers and
 * draws the MT19937 words (_mt.h) that the loop there draws. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include "_mt.h"

/* Power iteration over the CSR arrays from the vector of 1 / n ** 0.5.
 * Each step sets nxt[i] to damping * x[i] plus x[j] in neighbour order,
 * divides by the norm (a left fold of the squares, ** 0.5 being libm pow)
 * and stops once no entry moved by tol or more. status gets the iterations
 * run and 1 when the last one converged, x the converged vector; a zero
 * norm stops the iteration unconverged. */
void tf_power_iteration(int32_t n, const int64_t *arc_start, const int32_t *heads,
                        double damping, double tol, int64_t max_iters, double *x,
                        double *nxt, int64_t *status)
{
    int32_t i;
    int64_t a, iteration;
    double acc, norm, moved, d, *swap;
    double *out = x, start = 1.0 / pow((double)n, 0.5);
    status[0] = max_iters;
    status[1] = 0;
    for (i = 0; i < n; i++)
        x[i] = start;
    for (iteration = 1; iteration <= max_iters; iteration++) {
        norm = 0.0;
        for (i = 0; i < n; i++) {
            acc = damping * x[i];
            for (a = arc_start[i]; a < arc_start[i + 1]; a++)
                acc += x[heads[a]];
            nxt[i] = acc;
            norm += acc * acc;
        }
        norm = pow(norm, 0.5);
        if (norm == 0.0) {
            status[0] = iteration;
            return;
        }
        moved = 0.0;
        for (i = 0; i < n; i++) {
            nxt[i] = nxt[i] / norm;
            d = fabs(nxt[i] - x[i]);
            if (i == 0 || d > moved)  /* Python's max keeps the first of equals */
                moved = d;
        }
        swap = x;
        x = nxt;
        nxt = swap;
        if (moved < tol) {
            status[0] = iteration;
            status[1] = 1;
            if (x != out)
                memcpy(out, x, (size_t)n * sizeof(double));
            return;
        }
    }
}

/* Greedy modularity, one best pair per row (see the docstring of
 * community.greedy_modularity). Row r holds its linked communities in
 * ascending order with their link counts; a merge of v into u makes row u
 * the sorted union of both rows and renames v to u in the rows that held v,
 * so no row but u ever grows. */

typedef struct {
    int32_t col;
    int64_t count;
} link_t;

typedef struct {
    link_t *links;
    int32_t len;
} row_t;

typedef struct {
    double neg_gain;
    int32_t r, c;
} entry_t;

typedef struct {
    int32_t n;
    double m, m2;
    const int64_t *degree;
    row_t *rows;
    double *best_gain;
    int32_t *best_to;
    entry_t *heap;
    int64_t heap_len, heap_cap;
} greedy_t;

/* the order of heapq over (-gain, r, c) tuples */
static int before(const entry_t *a, const entry_t *b)
{
    if (a->neg_gain != b->neg_gain)
        return a->neg_gain < b->neg_gain;
    if (a->r != b->r)
        return a->r < b->r;
    return a->c < b->c;
}

static int push(greedy_t *g, double neg_gain, int32_t r, int32_t c)
{
    int64_t at, up;
    entry_t entry = {neg_gain, r, c};
    if (g->heap_len == g->heap_cap) {
        int64_t cap = g->heap_cap ? 2 * g->heap_cap : 1024;
        entry_t *grown = realloc(g->heap, (size_t)cap * sizeof(entry_t));
        if (!grown)
            return -1;
        g->heap = grown;
        g->heap_cap = cap;
    }
    for (at = g->heap_len++; at > 0; at = up) {
        up = (at - 1) / 2;
        if (!before(&entry, &g->heap[up]))
            break;
        g->heap[at] = g->heap[up];
    }
    g->heap[at] = entry;
    return 0;
}

static entry_t pop(greedy_t *g)
{
    entry_t top = g->heap[0], last = g->heap[--g->heap_len];
    int64_t at = 0, child;
    while ((child = 2 * at + 1) < g->heap_len) {
        if (child + 1 < g->heap_len && before(&g->heap[child + 1], &g->heap[child]))
            child++;
        if (!before(&g->heap[child], &last))
            break;
        g->heap[at] = g->heap[child];
        at = child;
    }
    g->heap[at] = last;
    return top;
}

static int settle(greedy_t *g, int32_t r, double gain, int32_t c)
{
    g->best_gain[r] = gain;
    g->best_to[r] = c;
    return push(g, -gain, r, c);
}

/* row r's largest gain over c > r, ties to the smallest c */
static int rescan(greedy_t *g, int32_t r)
{
    const row_t *row = &g->rows[r];
    double scale = 2.0 * ((double)g->degree[r] / g->m2), gain, top = 0.0;
    int32_t k, c, best = -1;
    for (k = 0; k < row->len; k++) {
        c = row->links[k].col;
        if (c <= r)
            continue;
        gain = (double)row->links[k].count / g->m - scale * ((double)g->degree[c] / g->m2);
        if (best < 0 || gain > top) {
            top = gain;
            best = c;
        }
    }
    if (best < 0) {
        g->best_to[r] = -1;
        return 0;
    }
    return settle(g, r, top, best);
}

/* the index of col in row, or of where it would go */
static int32_t find(const row_t *row, int32_t col)
{
    int32_t lo = 0, hi = row->len, mid;
    while (lo < hi) {
        mid = lo + (hi - lo) / 2;
        if (row->links[mid].col < col)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Row u becomes the union of rows u and v less u and v, counts added; each
 * row that held v holds u instead, with u's new count. */
static int merge_rows(greedy_t *g, int32_t u, int32_t v)
{
    row_t *ru = &g->rows[u], *rv = &g->rows[v], *ro;
    link_t *merged = malloc(((size_t)ru->len + rv->len + 1) * sizeof(link_t));
    int32_t i = 0, j = 0, len = 0, at, o;
    if (!merged)
        return -1;
    while (i < ru->len || j < rv->len) {
        if (j == rv->len || (i < ru->len && ru->links[i].col < rv->links[j].col))
            merged[len] = ru->links[i++];
        else if (i == ru->len || rv->links[j].col < ru->links[i].col)
            merged[len] = rv->links[j++];
        else {
            merged[len] = ru->links[i++];
            merged[len].count += rv->links[j++].count;
        }
        if (merged[len].col != u && merged[len].col != v)
            len++;
    }
    for (i = 0, j = 0; j < rv->len; j++) {
        o = rv->links[j].col;
        if (o == u)
            continue;
        while (merged[i].col < o)  /* both rows ascend, and merged holds o */
            i++;
        ro = &g->rows[o];
        at = find(ro, v);
        memmove(ro->links + at, ro->links + at + 1, (size_t)(ro->len - at - 1) * sizeof(link_t));
        ro->len--;
        at = find(ro, u);
        if (at == ro->len || ro->links[at].col != u) {
            memmove(ro->links + at + 1, ro->links + at, (size_t)(ro->len - at) * sizeof(link_t));
            ro->links[at].col = u;
            ro->len++;
        }
        ro->links[at].count = merged[i].count;
    }
    free(ru->links);
    free(rv->links);
    ru->links = merged;
    ru->len = len;
    rv->links = NULL;
    rv->len = 0;
    return 0;
}

static int by_col(const void *a, const void *b)
{
    int32_t x = ((const link_t *)a)->col, y = ((const link_t *)b)->col;
    return (x > y) - (x < y);
}

/* Row r from the upper arcs: each arc (i, j) with i < j adds a link to rows
 * i and j, so a repeated arc adds to the count, and a self-loop or an arc
 * (j, i) adds none. Filled for i ascending, row r gets its columns below r
 * in order, then its own arcs, sorted here. */
static int build_rows(greedy_t *g, const int64_t *arc_start, const int32_t *heads)
{
    int32_t r, k, len, w;
    int64_t a;
    row_t *row;
    for (r = 0; r < g->n; r++)
        for (a = arc_start[r]; a < arc_start[r + 1]; a++)
            if (heads[a] > r) {
                g->rows[r].len++;
                g->rows[heads[a]].len++;
            }
    for (r = 0; r < g->n; r++) {
        g->rows[r].links = malloc(((size_t)g->rows[r].len + 1) * sizeof(link_t));
        if (!g->rows[r].links)
            return -1;
        g->rows[r].len = 0;
    }
    for (r = 0; r < g->n; r++) {
        row = &g->rows[r];
        len = row->len;
        for (a = arc_start[r]; a < arc_start[r + 1]; a++) {
            w = heads[a];
            if (w <= r)
                continue;
            row->links[row->len++] = (link_t){w, 1};
            g->rows[w].links[g->rows[w].len++] = (link_t){r, 1};
        }
        qsort(row->links + len, (size_t)(row->len - len), sizeof(link_t), by_col);
        for (k = 0, len = 0; k < row->len; k++)
            if (len > 0 && row->links[len - 1].col == row->links[k].col)
                row->links[len - 1].count++;
            else
                row->links[len++] = row->links[k];
        row->len = len;
    }
    return 0;
}

/* Runs the merges for the n nodes of the CSR arrays, numbered so that
 * comparing numbers compares names. A node's degree counts its arcs, and
 * m2 = arc_start[n] their sum; q is the singletons' modularity. log_u and
 * log_v (n entries each) get the merges in order, each v merged into u;
 * result gets the merges, the merges up to the peak, the heap entries popped
 * and 0, or -1 if memory ran out; peak_q the peak modularity. */
void tf_greedy_modularity(int32_t n, const int64_t *arc_start, const int32_t *heads, double q,
                          int32_t *log_u, int32_t *log_v, int64_t *result, double *peak_q)
{
    greedy_t g = {0};
    entry_t top;
    int32_t r, k, u, v, o;
    int64_t merges = 0, peak = 0, pops = 0;
    int64_t *degree = malloc((size_t)n * sizeof(int64_t));
    double best_q = q, gain;
    int failed;

    g.n = n;
    g.m2 = (double)arc_start[n];
    g.m = (double)arc_start[n] / 2.0;
    g.degree = degree;
    g.rows = calloc((size_t)n, sizeof(row_t));
    g.best_gain = calloc((size_t)n, sizeof(double));
    g.best_to = malloc((size_t)n * sizeof(int32_t));
    failed = !degree || !g.rows || !g.best_gain || !g.best_to;
    for (r = 0; r < n && !failed; r++)
        degree[r] = arc_start[r + 1] - arc_start[r];
    failed = failed || build_rows(&g, arc_start, heads);
    for (r = 0; r < n && !failed; r++)
        failed = rescan(&g, r);

    while (g.heap_len > 0 && !failed) {
        top = pop(&g);
        pops++;
        u = top.r;
        v = top.c;
        /* stale: row u's best moved since this entry was pushed */
        if (g.rows[u].links == NULL || g.best_to[u] != v || g.best_gain[u] != -top.neg_gain)
            continue;
        q += g.best_gain[u];
        log_u[merges] = u;
        log_v[merges] = v;
        merges++;
        if ((failed = merge_rows(&g, u, v)))
            break;
        degree[u] += degree[v];
        if ((failed = rescan(&g, u)))
            break;
        for (k = 0; k < g.rows[u].len && !failed; k++) {
            o = g.rows[u].links[k].col;
            if (o > u) {
                if (g.best_to[o] == v)
                    failed = rescan(&g, o);
            } else if (g.best_to[o] == u || g.best_to[o] == v) {
                failed = rescan(&g, o);
            } else {  /* row o holds (o, u), so it has a best */
                gain = (double)g.rows[u].links[k].count / g.m
                       - 2.0 * ((double)degree[o] / g.m2) * ((double)degree[u] / g.m2);
                if (gain > g.best_gain[o] || (gain == g.best_gain[o] && u < g.best_to[o]))
                    failed = settle(&g, o, gain, u);
            }
        }
        if (q > best_q) {
            best_q = q;
            peak = merges;
        }
    }

    result[0] = merges;
    result[1] = peak;
    result[2] = pops;
    result[3] = failed ? -1 : 0;
    *peak_q = best_q;
    if (g.rows)
        for (r = 0; r < n; r++)
            free(g.rows[r].links);
    free(g.rows);
    free(g.best_gain);
    free(g.best_to);
    free(g.heap);
    free(degree);
}

/* Label propagation (see the docstring of community.label_propagation).
 * mt_below(n) is random.Random._randbelow(n) for 0 < n < 2 ** 31:
 * getrandbits(n.bit_length()), one word shifted right by 32 - k, drawn
 * again while it is n or more. */

static int32_t mt_below(uint32_t *mt, int32_t n)
{
    int k = 0;
    uint32_t r;
    while ((n >> k) != 0)
        k++;
    do
        r = mt_word(mt) >> (32 - k);
    while (r >= (uint32_t)n);
    return (int32_t)r;
}

static int by_label(const void *a, const void *b)
{
    int32_t x = *(const int32_t *)a, y = *(const int32_t *)b;
    return (x > y) - (x < y);
}

/* Sweeps until one changes no label, at most max_sweeps (at least one).
 * Each sweep visits the nodes 0 .. n - 1 in the order random.shuffle draws
 * for them. A node with neighbours keeps its label when that label has the
 * top count among its neighbours' labels, and otherwise takes the one at
 * _randbelow(len) of the top-count labels in ascending order. labels
 * (n entries) holds each node's start label and gets its last; order,
 * counts (zero) and seen (n entries each) are working space; mt the
 * generator state, advanced. result gets the sweeps run and 1 when the
 * last one changed a label. */
void tf_label_propagation(int32_t n, const int64_t *arc_start, const int32_t *heads,
                          int64_t max_sweeps, uint32_t *mt, int32_t *labels, int32_t *order,
                          int64_t *counts, int32_t *seen, int64_t *result)
{
    int64_t sweep, a, top;
    int32_t i, j, k, v, label, n_seen, n_top;
    int changed;
    for (sweep = 1;; sweep++) {
        for (i = 0; i < n; i++)
            order[i] = i;
        for (i = n - 1; i > 0; i--) {
            j = mt_below(mt, i + 1);
            k = order[i];
            order[i] = order[j];
            order[j] = k;
        }
        changed = 0;
        for (i = 0; i < n; i++) {
            v = order[i];
            n_seen = 0;
            top = 0;
            for (a = arc_start[v]; a < arc_start[v + 1]; a++) {
                label = labels[heads[a]];
                if (counts[label]++ == 0)
                    seen[n_seen++] = label;
                if (counts[label] > top)
                    top = counts[label];
            }
            if (n_seen == 0)
                continue;
            if (counts[labels[v]] == top) {
                for (k = 0; k < n_seen; k++)
                    counts[seen[k]] = 0;
                continue;
            }
            for (k = 0, n_top = 0; k < n_seen; k++) {
                label = seen[k];
                if (counts[label] == top)
                    seen[n_top++] = label;
                counts[label] = 0;
            }
            qsort(seen, (size_t)n_top, sizeof(int32_t), by_label);
            labels[v] = seen[mt_below(mt, n_top)];
            changed = 1;
        }
        if (!changed || sweep >= max_sweeps)
            break;
    }
    result[0] = sweep;
    result[1] = changed;
}
