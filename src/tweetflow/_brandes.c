/* Brandes' betweenness of tweetflow.netmetrics.betweenness_centrality: the
 * queue loop of Brandes (2001) over CSR arrays, node v's neighbours being
 * heads[arc_start[v] .. arc_start[v + 1]). For each source, in node order, a
 * breadth-first search adds sigma[v] to sigma[w] in queue order and files v
 * as a predecessor of w in w's slots from pred_start[w], the in-degree
 * prefix sum, so any closed mapping fits, symmetric or not. The queue read
 * backwards is the stack of the dependency pass. These are the loops of
 * tests/oracles.py, adding the same terms in the same order, so with
 * -ffp-contract=off every total is bit-equal to theirs.
 *
 * tf_brandes adds each node's dependencies, summed over the sources, to
 * totals. depth, queue, pred_end, sigma and delta (n entries each) and pred
 * (pred_start[n] entries) are working space. */

#include <stdint.h>

void tf_brandes(int32_t n, const int64_t *arc_start, const int32_t *heads,
                const int64_t *pred_start, int32_t *depth, int32_t *queue, int64_t *pred_end,
                int32_t *pred, double *sigma, double *delta, double *totals)
{
    int32_t s, v, w, head, tail;
    int64_t a, p;
    for (s = 0; s < n; s++) {
        for (v = 0; v < n; v++) {
            depth[v] = -1;
            pred_end[v] = pred_start[v];
            sigma[v] = 0.0;
            delta[v] = 0.0;
        }
        depth[s] = 0;
        sigma[s] = 1.0;
        queue[0] = s;
        for (head = 0, tail = 1; head < tail; head++) {
            v = queue[head];
            for (a = arc_start[v]; a < arc_start[v + 1]; a++) {
                w = heads[a];
                if (depth[w] < 0) {
                    depth[w] = depth[v] + 1;
                    queue[tail++] = w;
                }
                if (depth[w] == depth[v] + 1) {
                    sigma[w] += sigma[v];
                    pred[pred_end[w]++] = v;
                }
            }
        }
        while (tail > 0) {
            w = queue[--tail];
            for (p = pred_start[w]; p < pred_end[w]; p++) {
                v = pred[p];
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w]);
            }
            if (w != s)
                totals[w] += delta[w];
        }
    }
}
