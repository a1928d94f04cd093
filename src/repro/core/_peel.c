/* Exact greedy peel (Charikar; FRAUDAR's lazy min-heap) for repro.core.peel.
 *
 * Nodes live in one id space: user i -> i, merchant j -> n_u + j. An edge
 * leaves the graph exactly when its first endpoint is peeled, so it is
 * alive iff both its ends are: liveness is tracked on nodes only, and each
 * node's incidence list holds packed (neighbour, value) arcs. Every step is
 * the one the reference Python loop takes, in the same floating point
 * order, so results are bit-identical to it:
 *   - priorities accumulate in edge order, as np.add.at does;
 *   - each node's arcs are in ascending edge order, as a stable argsort
 *     of the endpoints gives;
 *   - the heap orders entries on (priority, node id), as heapq orders its
 *     tuples; equal entries are indistinguishable, so any correct heap
 *     pops the same sequence.
 * Built with -ffp-contract=off so no multiply-add is fused.
 */
#include <stdint.h>
#include <stdlib.h>

typedef struct {
    double p;
    int64_t x;
} entry;

typedef struct {
    int64_t y;
    double val;
} arc;

static int less(entry a, entry b) { return a.p < b.p || (a.p == b.p && a.x < b.x); }

static void push(entry *h, int64_t *n, entry e) {
    int64_t i = (*n)++;
    while (i > 0) {
        int64_t up = (i - 1) / 2;
        if (!less(e, h[up])) break;
        h[i] = h[up];
        i = up;
    }
    h[i] = e;
}

static entry pop(entry *h, int64_t *n) {
    entry top = h[0], last = h[--*n];
    int64_t i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= *n) break;
        if (c + 1 < *n && less(h[c + 1], h[c])) c++;
        if (!less(h[c], last)) break;
        h[i] = h[c];
        i = c;
    }
    h[i] = last;
    return top;
}

/* Peel the graph of E edges (u[e], v[e]) with values val[e]; f is their
 * sum, taken by the caller (numpy's pairwise sum, which this loop must
 * not redo). Writes the non-isolated nodes to order[]: removed ones in
 * removal order, then the one left at the end. Returns how many nodes
 * that is, with *best_removed and *best_phi describing the densest
 * state; -1 if memory ran out, -2 if an id is outside its id space.
 */
int64_t peel(int64_t n_u, int64_t n_v, int64_t E, const int64_t *u, const int64_t *v,
             const double *val, double f, int64_t *order, int64_t *best_removed, double *best_phi) {
    int64_t n = n_u + n_v, n_active = 0, n_removed = 0, n_heap = 0, ret = -1;
    double *prio = calloc(n, sizeof *prio);
    int64_t *start = calloc(n + 1, sizeof *start);
    arc *arcs = malloc(2 * E * sizeof *arcs);
    char *alive_node = calloc(n, 1);
    entry *heap = malloc((n + E) * sizeof *heap);
    if (!prio || !start || !arcs || !alive_node || !heap) goto out;

    ret = -2;
    for (int64_t e = 0; e < E; e++) {
        if (u[e] < 0 || u[e] >= n_u || v[e] < 0 || v[e] >= n_v) goto out;
        prio[u[e]] += val[e];
        start[u[e] + 1]++;
    }
    for (int64_t e = 0; e < E; e++) {
        prio[n_u + v[e]] += val[e];
        start[n_u + v[e] + 1]++;
    }
    for (int64_t x = 0; x < n; x++) start[x + 1] += start[x];
    /* Counting sort; order[] serves as each node's fill cursor until the peel. */
    int64_t *fill = order;
    for (int64_t x = 0; x < n; x++) fill[x] = start[x];
    for (int64_t e = 0; e < E; e++) arcs[fill[u[e]]++] = (arc){n_u + v[e], val[e]};
    for (int64_t e = 0; e < E; e++) arcs[fill[n_u + v[e]]++] = (arc){u[e], val[e]};

    for (int64_t x = 0; x < n; x++) {
        if (start[x + 1] > start[x]) {
            alive_node[x] = 1;
            n_active++;
            push(heap, &n_heap, (entry){prio[x], x});
        }
    }
    int64_t total = n_active;
    *best_phi = f / n_active;
    *best_removed = 0;

    while (n_heap > 0 && n_active > 1) {
        entry top = pop(heap, &n_heap);
        int64_t x = top.x;
        /* Stale: updated (priority strictly lower) since pushed, or removed. */
        if (!alive_node[x] || top.p - prio[x] > 1e-12) continue;
        alive_node[x] = 0;
        for (int64_t i = start[x]; i < start[x + 1]; i++) {
            arc a = arcs[i];
            if (!alive_node[a.y]) continue;
            f -= a.val;
            prio[a.y] -= a.val;
            push(heap, &n_heap, (entry){prio[a.y], a.y});
        }
        order[n_removed++] = x;
        n_active--;
        double cur = f / n_active;
        if (cur > *best_phi + 1e-15) {
            *best_phi = cur;
            *best_removed = n_removed;
        }
    }
    for (int64_t x = 0; x < n; x++)
        if (alive_node[x]) order[n_removed++] = x;
    ret = total;

out:
    free(prio);
    free(start);
    free(arcs);
    free(alive_node);
    free(heap);
    return ret;
}
