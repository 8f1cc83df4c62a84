/* Compiled inner loops: the greedy chunk sweep, the BFS-grow seed and its
 * neighbour estimates, the adjacency builder's key packing and tail, the
 * traffic estimator's sampling walk, the streaming passes over
 * edge blocks and the cdf sums of the theory curve.
 *
 * Each kernel is the only implementation of its loop.  The tests check the
 * kernels against plain-Python oracles of the documented rules (the sweep,
 * the seed, the adjacency index, the sampling walk, the edge passes and the
 * theory curve) and require bit-identical results:
 * neighbour counts are exact integers converted to double once, a node's
 * estimate (its side-1 count less its side-0 count) is averaged as
 * (old + fresh) * 0.5, sums run left to right, nodes are visited and
 * random words drawn in the same order.  The loader compiles
 * this file without -ffast-math or -march=native, so IEEE double
 * arithmetic is the same as Python's, and with -ffp-contract=off: GCC's
 * default on targets with a fused multiply-add (aarch64, for one) would
 * contract a * b + c into one FMA, rounded once where numpy rounds twice,
 * and the node total of curve_point would drift from numpy's.  exp is the
 * C library's, the one Python's math.exp calls.
 *
 * The adjacency keys are shift-packed, src << shift | dst with
 * shift = bit_length(width - 1).  They are sorted as u32 up to width
 * 65,536, as u64 above that while shift <= 32 (width up to 2**32), in one
 * part.  Only model.build_adjacency, where model.key_layout finds enough of
 * them for at most 64 parts (width 2**19), holds a key as its low 32 bits,
 * in parts on its high 2 * shift - 32 bits: pack_keys counts each part's
 * keys on a first pass over the blocks and writes each key straight to its
 * part's cursor on a second.  Every in-memory index takes ids below 2**32:
 * model.check_id_width refuses wider ones.  The index build_adjacency
 * returns, which three kernels read, is CSR: `offsets` (int64) has one
 * entry per node and one more, from 0, and node i's neighbours are
 * nbrs[offsets[i]] to nbrs[offsets[i + 1] - 1], u32 ids.
 *
 * Every array arrives as a plain pointer; the Python callers check its
 * dtype, size and contiguity (_kernels.ptr) and size every output as the
 * comment above each function says.  The edge passes take their rows'
 * ids as below the node count, which edgefile.iter_edge_blocks checks as
 * it reads, and index the per-node arrays with them unchecked.  Their
 * labels are u32, as a label file stores them, each below p or 0xFFFFFFFF
 * for unassigned (edgefile._check_labels); the passes still reject any
 * label at or above their p.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* *p, or +0.0 where keep is 0; keep is all ones or all zeros. */
static inline double kept(const double *p, uint64_t keep)
{
    uint64_t bits;
    double out;
    memcpy(&bits, p, sizeof bits);
    bits &= keep;
    memcpy(&out, &bits, sizeof out);
    return out;
}

/* A kernel body inlined into one copy per key or id width. */
#define PASS static inline __attribute__((always_inline))

/* The adjacency builder's keys: src << shift | dst, for ids below `width`
 * and shift = bit_length(width - 1), so a key's high bits are its owner and
 * its low `shift` bits its neighbour.  Sorting them orders the index as
 * sorting src * width + dst would.  Keys are u64 (key_bytes == 8, shift
 * <= 32) or u32 (key_bytes == 4): the whole key while width <= 65,536,
 * else, in the estimator's build only, its low 32 bits, grouped in parts by
 * their high bits. */
static inline uint64_t key_at(const void *keys, int wide, int64_t k)
{
    return wide ? ((const uint64_t *)keys)[k] : ((const uint32_t *)keys)[k];
}

PASS int64_t sweep_body(int64_t m, const void *keys, int key_wide, int64_t shift, int8_t *parts,
                        double *lean, int64_t *tally, int64_t cap, uint64_t fixed)
{
    static const double scale[2] = {1.0, 0.5};
    uint64_t mask = ((uint64_t)1 << shift) - 1;
    int64_t s0 = tally[0], s1 = tally[1], visited = 0, moved = 0, failed = -1, i = 0;
    uint64_t key = m > 0 ? key_at(keys, key_wide, 0) : 0;
    while (i < m) {
        /* the run of keys owned by n, from key on, is n's neighbour list:
         * keys up to last, its self-loops, read but counted for neither
         * side, equal to self */
        uint64_t n = key >> shift;
        uint64_t base = n << shift, last = base + mask, self = base + n;
        int64_t d = 0; /* side-1 neighbours less side-0 ones */
        for (;;) {
            if (key != self) {
                int pw = parts[key & mask];
                d += (pw == 1) - (pw == 0);
            }
            if (++i == m)
                break;
            key = key_at(keys, key_wide, i);
            if (key > last)
                break;
        }
        int old = parts[n];
        uint64_t placed = old != -1;
        if (fixed & placed) {
            visited++;
            continue;
        }
        /* (stored + fresh) * 0.5 for a placed node, (+0.0 + fresh) * 1.0 for a new one */
        double est = (kept(lean + n, (uint64_t)0 - placed) + (double)d) * scale[placed];
        s0 -= old == 0;
        s1 -= old == 1;
        int64_t room0 = s0 < cap, room1 = s1 < cap;
        /* leaning to side 1 with room, else leaning to side 0 with room (the
         * two exclude each other), else the smaller side, 0 on a tie */
        int64_t to1 = (est > 0) & room1, to0 = (est < 0) & room0;
        int64_t b = to1 | ((to0 ^ 1) & (s1 < s0));
        if (((cap - 1 - s0) & (cap - 1 - s1)) < 0) { /* both signs set: both full */
            failed = (int64_t)n;
            break;
        }
        visited++;
        moved += placed & (b != old);
        s0 += b ^ 1;
        s1 += b;
        parts[n] = (int8_t)b;
        lean[n] = est;
    }
    tally[0] = s0;
    tally[1] = s1;
    tally[2] += visited;
    tally[3] += moved;
    return failed;
}

/* One copy of the sweep per key width, kept out of line: with both copies
 * inlined into sweep's dispatch, GCC 12 at -O2 on x86-64 made the sweep of a
 * sbm8-p8 chunk's u32 keys about 15% slower */
static __attribute__((noinline)) int64_t sweep32(int64_t m, const void *keys, int64_t shift,
                                                 int8_t *parts, double *lean, int64_t *tally,
                                                 int64_t cap, uint64_t fixed)
{
    return sweep_body(m, keys, 0, shift, parts, lean, tally, cap, fixed);
}

static __attribute__((noinline)) int64_t sweep64(int64_t m, const void *keys, int64_t shift,
                                                 int8_t *parts, double *lean, int64_t *tally,
                                                 int64_t cap, uint64_t fixed)
{
    return sweep_body(m, keys, 1, shift, parts, lean, tally, cap, fixed);
}

/* Sweeps one chunk in place over parts/lean, straight off its m sorted
 * adjacency keys, one array of key_bytes (4 or 8) each, packed with shift:
 * a chunk's keys are never split.  Each run of keys with one owner is that
 * node's neighbour list, ascending, so nodes are visited in ascending id
 * order, one seen only in self-loops too, and count their neighbours as
 * they would over the CSR index.  Every id must index the node state: the
 * caller checks the chunk's width against the node count.  tally holds the
 * two partition sizes, then two counters the sweep adds to: the nodes it
 * visited, a node skipped because refine is off included, and the placed
 * nodes whose label it changed.  Returns -1, or the id of the node no
 * partition could take: tally's sizes already have that node lifted out,
 * as in the Python loop, and its counters cover the nodes before it.
 *
 * The decision is grem.assign, computed without branches: which side a
 * re-placed node takes is data-dependent and unpredictable (about a fifth
 * of the visits move a node on sbm2-c1), so a branching rule pays a
 * misprediction on many nodes.  Each condition is a 0/1 value, and a new
 * node's stored estimate is masked to +0.0, so that the averaging step
 * gives its fresh count difference exactly.  The branches left are the
 * loop branches (a run ends at the first key above its last), the skip of a
 * self-loop key (rare, so predicted), the skip of a placed node when
 * `refine` is off (tested first, so it is loop-invariant when refinement is
 * on), and the exit taken when the chosen side is full.  That side is full
 * only when both are: a greedy side is taken only with room, and the
 * smaller side is full only if the larger is too.  Both sides full means
 * the size accounting is broken.
 * The exit tests it as one sign bit: written as two comparisons, the
 * compiler splits it into two branches.  The sizes live in locals: a
 * store through the int8_t `parts` may alias any object, so the compiler
 * would reload them after every label written. */
int64_t sweep(int64_t m, const void *keys, int64_t key_bytes, int64_t shift, int8_t *parts,
              double *lean, int64_t *tally, int64_t cap, int32_t refine)
{
    return (key_bytes == 8 ? sweep64 : sweep32)(m, keys, shift, parts, lean, tally, cap,
                                                 refine == 0);
}

/* Restart order of bfs_grow: chunk positions by degree, highest first,
 * lowest position on ties, as numpy's stable argsort(-diff(offsets)) gives
 * them.  A counting sort on max_degree - degree; `slot` is scratch for
 * max_degree + 2 entries, all zero. */
static void restart_order(int64_t num, const int64_t *offsets, int64_t max_degree,
                          int64_t *slot, int64_t *order)
{
    for (int64_t i = 0; i < num; i++)
        slot[max_degree - (offsets[i + 1] - offsets[i]) + 1] += 1;
    for (int64_t k = 1; k <= max_degree + 1; k++)
        slot[k] += slot[k - 1];
    /* slot[k] is now the first position of key k; filling in input order keeps ties stable */
    for (int64_t i = 0; i < num; i++)
        order[slot[max_degree - (offsets[i + 1] - offsets[i])]++] = i;
}

/* BFS grow over a chunk's CSR index of num >= 1 nodes, ids below width
 * (u32 neighbour ids), then boundary refinement.  `labels` must come in as
 * all 1; picked nodes become 0.  (Re)starts go to the highest-degree unpicked node, lowest
 * position on ties.  Neighbours are read as positions in `nodes` through a
 * u32 rank over the width, malloc'd, not calloc'd: only the entries of
 * chunk nodes are written and read (every neighbour is one), so only the
 * pages that hold one are touched.  Returns 0, or -1 when scratch memory
 * cannot be allocated. */
int64_t bfs_grow(int64_t num, const int64_t *nodes, const int64_t *offsets,
                 const uint32_t *nbrs, int64_t width, int64_t refinement_passes,
                 int64_t capacity, int8_t *labels)
{
    int64_t max_degree = 0;
    for (int64_t i = 0; i < num; i++)
        if (offsets[i + 1] - offsets[i] > max_degree)
            max_degree = offsets[i + 1] - offsets[i];
    int64_t *order = malloc((size_t)num * sizeof *order);
    int64_t *queue = malloc((size_t)num * sizeof *queue);  /* each node is queued at most once */
    int64_t *slot = calloc((size_t)max_degree + 2, sizeof *slot);
    uint32_t *rank = malloc((size_t)width * sizeof *rank);
    uint32_t *local = malloc(((size_t)offsets[num] + 1) * sizeof *local);  /* never malloc(0) */
    int64_t status = -1;
    if (order == NULL || queue == NULL || slot == NULL || rank == NULL || local == NULL)
        goto done;
    for (int64_t i = 0; i < num; i++)
        rank[nodes[i]] = (uint32_t)i;
    for (int64_t j = 0; j < offsets[num]; j++)
        local[j] = rank[nbrs[j]];
    restart_order(num, offsets, max_degree, slot, order);

    int64_t target = (num + 1) / 2;
    int64_t count = 0, cursor = 0, head = 0, tail = 0;
    while (count < target) {
        if (head == tail) {
            while (labels[order[cursor]] == 0)
                cursor++;
            int64_t best = order[cursor];
            queue[tail++] = best;
            labels[best] = 0;
            if (++count >= target)
                break;
        }
        int64_t v = queue[head++];
        for (int64_t j = offsets[v]; j < offsets[v + 1]; j++) {
            int64_t w = local[j];
            if (labels[w] != 0) {
                labels[w] = 0;
                queue[tail++] = w;
                if (++count >= target)
                    break;
            }
        }
    }

    int64_t sizes[2] = {target, num - target};
    for (int64_t pass = 0; pass < refinement_passes; pass++) {
        int moved = 0;
        for (int64_t i = 0; i < num; i++) {
            int side = labels[i];
            int64_t same = 0, other = 0;
            for (int64_t j = offsets[i]; j < offsets[i + 1]; j++) {
                if (labels[local[j]] == side)
                    same++;
                else
                    other++;
            }
            /* move iff it strictly reduces the chunk-local cut and the
             * receiving side has capacity */
            if (other > same && sizes[1 - side] < capacity) {
                labels[i] = (int8_t)(1 - side);
                sizes[side] -= 1;
                sizes[1 - side] += 1;
                moved = 1;
            }
        }
        if (!moved)
            break;
    }
    status = 0;
done:
    free(order);
    free(queue);
    free(slot);
    free(rank);
    free(local);
    return status;
}

/* The neighbour estimates of a freshly seeded chunk's CSR index (u32
 * neighbour ids): lean[nodes[i]] becomes the number of chunk neighbours of
 * nodes[i] that `parts` labels 1 less the number it labels 0. */
void seed_counts(int64_t num, const int64_t *nodes, const int64_t *offsets,
                 const uint32_t *nbrs, const int8_t *parts, double *lean)
{
    for (int64_t i = 0; i < num; i++) {
        int64_t d = 0;
        for (int64_t j = offsets[i]; j < offsets[i + 1]; j++) {
            int pw = parts[nbrs[j]];
            d += (pw == 1) - (pw == 0);
        }
        lean[nodes[i]] = (double)d;
    }
}

/* A numpy BitGenerator's next_uint64, called with its state_address. */
typedef uint64_t (*next_uint64_t)(void *state);

/* Uniform integer in [0, n), n >= 1, from raw 64-bit words: Lemire's
 * multiply-shift, rejecting words whose low product half is below
 * 2**64 mod n. */
static int64_t bounded(next_uint64_t next, void *state, uint64_t n)
{
    unsigned __int128 m = (unsigned __int128)next(state) * n;
    if ((uint64_t)m < n) {
        uint64_t threshold = -n % n;
        while ((uint64_t)m < threshold)
            m = (unsigned __int128)next(state) * n;
    }
    return (int64_t)(m >> 64);
}

/* Writes `f` distinct positions of [0, d) to `out`, 0 < f < d, by Floyd's
 * algorithm: for j = d - f, ..., d - 1, t = bounded(j + 1), and j is taken
 * in place of t when t already was.  stamp[t] == mark marks taken
 * positions; each call passes a fresh mark. */
static void floyd(next_uint64_t next, void *state, int64_t d, int64_t f, int64_t *out,
                  uint64_t *stamp, uint64_t mark)
{
    for (int64_t j = d - f; j < d; j++) {
        int64_t t = bounded(next, state, (uint64_t)j + 1);
        if (stamp[t] == mark)
            t = j;
        stamp[t] = mark;
        *out++ = t;
    }
}

/* The sampling walk of placement.estimate_comm, over a CSR index of every
 * id, an isolated one's list empty, its neighbour ids u32.  Seeds are
 * `num_seeds` distinct node ids; per hop each frontier node contributes its
 * whole neighbour list when its degree is at most the fanout, else
 * `fanout` picks, in order.
 * Every fetched node adds one to counts[2w] (local: on the seed's worker
 * w, or replicated) or to counts[2w + 1] (remote).  Returns 0, or -1 when
 * scratch memory cannot be allocated. */
int64_t comm_walk(int64_t num_nodes, const int64_t *offsets, const uint32_t *nbrs,
                  const int64_t *node_worker, const uint8_t *replicated, int64_t num_seeds,
                  const int64_t *fanouts, int64_t hops, next_uint64_t next, void *state,
                  int64_t *counts)
{
    int64_t span = num_nodes;  /* stamp entries: node ids and list positions */
    for (int64_t v = 0; v < num_nodes; v++)
        if (offsets[v + 1] - offsets[v] > span)
            span = offsets[v + 1] - offsets[v];
    int64_t cap = 1;
    uint64_t mark = 0;
    uint64_t *stamp = calloc((size_t)span, sizeof *stamp);
    int64_t *cur = malloc((size_t)cap * sizeof *cur);
    int64_t *nxt = malloc((size_t)cap * sizeof *nxt);
    int64_t *seeds = malloc((size_t)num_seeds * sizeof *seeds);
    int64_t status = -1;
    if (stamp == NULL || cur == NULL || nxt == NULL || seeds == NULL)
        goto done;

    if (num_seeds >= num_nodes) {
        for (int64_t i = 0; i < num_nodes; i++)
            seeds[i] = i;
    } else {
        floyd(next, state, num_nodes, num_seeds, seeds, stamp, ++mark);
    }

    for (int64_t s = 0; s < num_seeds; s++) {
        int64_t w = node_worker[seeds[s]];
        int64_t size = 1, local = 0, remote = 0;
        cur[0] = seeds[s];
        for (int64_t h = 0; h < hops && size > 0; h++) {
            int64_t fanout = fanouts[h], need = 0;
            for (int64_t i = 0; i < size; i++) {
                int64_t deg = offsets[cur[i] + 1] - offsets[cur[i]];
                need += deg < fanout ? deg : fanout;
            }
            if (need > cap) {
                int64_t *grown = realloc(nxt, (size_t)need * sizeof *nxt);
                if (grown == NULL)
                    goto done;
                nxt = grown;
                grown = realloc(cur, (size_t)need * sizeof *cur);
                if (grown == NULL)
                    goto done;
                cur = grown;
                cap = need;
            }
            int64_t out = 0;
            for (int64_t i = 0; i < size; i++) {
                int64_t lo = offsets[cur[i]], deg = offsets[cur[i] + 1] - lo;
                if (deg <= fanout) {
                    for (int64_t k = 0; k < deg; k++)
                        nxt[out + k] = nbrs[lo + k];
                    out += deg;
                } else {
                    floyd(next, state, deg, fanout, nxt + out, stamp, ++mark);
                    for (int64_t k = out; k < out + fanout; k++)
                        nxt[k] = nbrs[lo + nxt[k]];
                    out += fanout;
                }
            }
            for (int64_t k = 0; k < out; k++) {
                int64_t u = nxt[k];
                if (replicated[u] || node_worker[u] == w)
                    local++;
                else
                    remote++;
            }
            int64_t *swap = cur;
            cur = nxt;
            nxt = swap;
            size = out;
        }
        counts[2 * w] += local;
        counts[2 * w + 1] += remote;
    }
    status = 0;
done:
    free(stamp);
    free(cur);
    free(nxt);
    free(seeds);
    return status;
}

/* The edge passes read blocks of (src, dst) rows as stored: 4-byte ids
 * (id_bytes == 4) or 8-byte ids (id_bytes == 8), little-endian unsigned,
 * trusted as the header says.  They check only the labels and bucket ids
 * they read; extract_rows drops any row with a negative new id.  The bodies are inlined into one copy per id
 * width.  scatter_rows copies rows as bytes and takes any row width, so
 * feature records are grouped by it too. */

static inline uint64_t id_at(const void *rows, int wide, int64_t k)
{
    return wide ? ((const uint64_t *)rows)[k] : ((const uint32_t *)rows)[k];
}

PASS int64_t label_pass_body(int64_t m, const void *rows, int wide, const uint32_t *labels,
                             int64_t p, int64_t *counts, int64_t *bucket, int64_t *cut)
{
    /* labels at or above p are rejected, the 0xFFFFFFFF of an outside label
     * always */
    uint64_t limit = (uint64_t)p < UINT32_MAX ? (uint64_t)p : UINT32_MAX;
    int64_t cuts = 0, bad = -1;
    for (int64_t i = 0; i < m; i++) {
        uint64_t lu = labels[id_at(rows, wide, 2 * i)], lv = labels[id_at(rows, wide, 2 * i + 1)];
        if ((lu >= limit) | (lv >= limit)) {
            bad = i;
            break;
        }
        cuts += lu != lv;
        if (counts != NULL)
            counts[lu * p + lv] += 1;
        if (bucket != NULL)
            bucket[i] = (int64_t)(lu * p + lv);
    }
    *cut += cuts;
    return bad;
}

/* Gathers both labels of each of the m rows (labels: one u32 per node) and
 * adds the number of rows whose labels differ to *cut.  With `counts`
 * (p * p entries) each row also adds one to its bucket l_src * p + l_dst;
 * with `bucket` (m entries) row i's bucket id is written to bucket[i].
 * Returns -1, or the position of the first row with an endpoint labelled at
 * or above p or 0xFFFFFFFF (the rows before it are tallied); p >= 1. */
int64_t label_pass(int64_t m, const void *rows, int64_t id_bytes, const uint32_t *labels,
                   int64_t p, int64_t *counts, int64_t *bucket, int64_t *cut)
{
    if (id_bytes == 8)
        return label_pass_body(m, rows, 1, labels, p, counts, bucket, cut);
    return label_pass_body(m, rows, 0, labels, p, counts, bucket, cut);
}

PASS int64_t extract_rows_body(int64_t m, const void *rows, int wide, const int64_t *new_id,
                               int64_t out_bytes, void *out)
{
    int64_t k = 0;
    for (int64_t i = 0; i < m; i++) {
        int64_t a = new_id[id_at(rows, wide, 2 * i)], b = new_id[id_at(rows, wide, 2 * i + 1)];
        /* every row is written at k, and k moves past it only when both ends
         * are kept: no branch on a coin-flip condition */
        if (out_bytes == 8) {
            ((uint64_t *)out)[2 * k] = (uint64_t)a;
            ((uint64_t *)out)[2 * k + 1] = (uint64_t)b;
        } else {
            ((uint32_t *)out)[2 * k] = (uint32_t)a;
            ((uint32_t *)out)[2 * k + 1] = (uint32_t)b;
        }
        k += (a | b) >= 0;
    }
    return k;
}

/* Keeps the m rows whose endpoints both have a new id and writes them, in
 * order, to `out` (room for m rows) as ids of out_bytes (4 or 8) bytes.
 * new_id[n] (one per node) is node n's new id, or -1 for a node whose rows
 * are dropped.  Returns the number of rows kept. */
int64_t extract_rows(int64_t m, const void *rows, int64_t id_bytes, const int64_t *new_id,
                     int64_t out_bytes, void *out)
{
    if (id_bytes == 8)
        return extract_rows_body(m, rows, 1, new_id, out_bytes, out);
    return extract_rows_body(m, rows, 0, new_id, out_bytes, out);
}

PASS int64_t scatter_rows_body(int64_t m, const void *rows, size_t row, const int64_t *bucket,
                               int64_t nbuckets, int64_t *bounds, void *out)
{
    memset(bounds, 0, (size_t)(nbuckets + 1) * sizeof *bounds);
    for (int64_t i = 0; i < m; i++) {
        if ((uint64_t)bucket[i] >= (uint64_t)nbuckets)
            return i;
        bounds[bucket[i] + 1] += 1;
    }
    for (int64_t b = 1; b <= nbuckets; b++)
        bounds[b] += bounds[b - 1];
    /* bounds[b] is the cursor of bucket b; afterwards it is the end of b */
    for (int64_t i = 0; i < m; i++) {
        int64_t at = bounds[bucket[i]]++;
        memcpy((char *)out + (size_t)at * row, (const char *)rows + (size_t)i * row, row);
    }
    memmove(bounds + 1, bounds, (size_t)nbuckets * sizeof *bounds);
    bounds[0] = 0;
    return -1;
}

/* Stable counting scatter of m rows of row_bytes (>= 1) bytes each by
 * bucket id: `out` gets the rows grouped by bucket, in input order within a
 * bucket, and `bounds` (nbuckets + 1 entries) the start of each bucket's run
 * followed by m.  A row is copied as bytes, never read: an edge row of two
 * u32 or u64 ids (8 or 16 bytes, each copied with a constant size) or a
 * fixed-width feature record.  Returns -1, or the position of the first row
 * with a bucket id outside [0, nbuckets) (`out` and `bounds` are then
 * incomplete). */
int64_t scatter_rows(int64_t m, const void *rows, int64_t row_bytes, const int64_t *bucket,
                     int64_t nbuckets, int64_t *bounds, void *out)
{
    if (row_bytes == 16)
        return scatter_rows_body(m, rows, 16, bucket, nbuckets, bounds, out);
    if (row_bytes == 8)
        return scatter_rows_body(m, rows, 8, bucket, nbuckets, bounds, out);
    return scatter_rows_body(m, rows, (size_t)row_bytes, bucket, nbuckets, bounds, out);
}

PASS int64_t endpoint_counts_body(int64_t m, const void *rows, int wide, const uint32_t *labels,
                                  uint32_t *counts)
{
    for (int64_t i = 0; i < m; i++) {
        uint64_t u = id_at(rows, wide, 2 * i), v = id_at(rows, wide, 2 * i + 1);
        if (labels == NULL) {
            if (u != v) {
                counts[u] += 1;
                counts[v] += 1;
            }
            continue;
        }
        uint32_t lu = labels[u], lv = labels[v];
        if ((lu > 1) | (lv > 1))
            return i;
        if (u != v) {
            counts[2 * u + lv] += 1;
            counts[2 * v + lu] += 1;
        }
    }
    return -1;
}

/* Endpoint counts of the m rows, self-loops left out, added to u32
 * counters: a row adds at most one to any counter, so m rows since the
 * caller last folded them into wider ones cannot wrap while
 * m <= 2**32 - 1.  Without labels each row (u, v), u != v, adds one to
 * counts[u] and to counts[v]: the degree.  With labels, a bisection (0 or
 * 1, 0xFFFFFFFF for any other label), it adds one to counts[2u + labels[v]]
 * and counts[2v + labels[u]]: each node's neighbours per side; a row with
 * an endpoint labelled other than 0 or 1, a self-loop included, is
 * rejected.  Returns -1, or the position of the first rejected row. */
int64_t endpoint_counts(int64_t m, const void *rows, int64_t id_bytes, const uint32_t *labels,
                        uint32_t *counts)
{
    if (id_bytes == 8)
        return endpoint_counts_body(m, rows, 1, labels, counts);
    return endpoint_counts_body(m, rows, 0, labels, counts);
}

PASS int64_t pack_keys_body(int64_t m, const void *rows, int wide, uint64_t width,
                            int64_t shift, int key_wide, void *fwd, void *rev)
{
    int64_t bad = 0;
    for (int64_t i = 0; i < m; i++) {
        uint64_t u = id_at(rows, wide, 2 * i), v = id_at(rows, wide, 2 * i + 1);
        bad += (u >= width) + (v >= width);
        if (key_wide) {
            ((uint64_t *)fwd)[i] = u << shift | v;
            ((uint64_t *)rev)[i] = v << shift | u;
        } else {
            ((uint32_t *)fwd)[i] = (uint32_t)(u << shift | v);
            ((uint32_t *)rev)[i] = (uint32_t)(v << shift | u);
        }
    }
    return bad;
}

/* The keys of split parts, u32, shift > 16: a key's part is its owner's
 * high 2 * shift - 32 bits, the owner's bits from 32 - shift up.  With
 * `keys` NULL each key adds one to cursors[part]; else it is written to
 * keys[cursors[part]++] while that is below ends[part], and a row whose
 * key finds its part full is rejected: the count pass sized the parts, and
 * blocks that differ from the counted ones must not write past them. */
PASS int64_t pack_parts_body(int64_t m, const void *rows, int wide, uint64_t width,
                             int64_t shift, uint32_t *keys, int64_t *cursors,
                             const int64_t *ends)
{
    int64_t low = 32 - shift, bad = 0;
    for (int64_t i = 0; i < m; i++) {
        uint64_t u = id_at(rows, wide, 2 * i), v = id_at(rows, wide, 2 * i + 1);
        if ((u >= width) | (v >= width)) {
            bad++;
            continue;
        }
        uint64_t qu = u >> low, qv = v >> low;
        if (keys == NULL) {
            cursors[qu] += 1;
            cursors[qv] += 1;
            continue;
        }
        if (cursors[qu] >= ends[qu]) {
            bad++;
            continue;
        }
        keys[cursors[qu]++] = (uint32_t)(u << shift | v);
        if (cursors[qv] >= ends[qv]) {
            bad++;
            continue;
        }
        keys[cursors[qv]++] = (uint32_t)(v << shift | u);
    }
    return bad;
}

/* Writes the keys of the m rows (ids of id_bytes, 4 or 8; int64 rows of
 * non-negative ids pass as 8) in both directions, (src, dst) and
 * (dst, src), of key_bytes each.  Without `cursors`, row i's keys go to
 * fwd[i] and rev[i].  With them (u32 keys of more than one part, shift >
 * 16, cursors and ends one entry per part), each key goes to
 * fwd[cursors[q]++], q its part, while that is below ends[q], and rev is
 * unused; with fwd NULL too, the count pass, each key only adds one to
 * cursors[q].  Returns the number of ids at or above width, plus, with
 * cursors, the keys that found their part full (each of those rows is left
 * out); the keys are meaningless unless it is 0. */
int64_t pack_keys(int64_t m, const void *rows, int64_t id_bytes, int64_t width, int64_t shift,
                  int64_t key_bytes, void *fwd, void *rev, int64_t *cursors, const int64_t *ends)
{
    int wide = id_bytes == 8, key_wide = key_bytes == 8;
    if (cursors != NULL && wide)
        return pack_parts_body(m, rows, 1, (uint64_t)width, shift, fwd, cursors, ends);
    if (cursors != NULL)
        return pack_parts_body(m, rows, 0, (uint64_t)width, shift, fwd, cursors, ends);
    if (wide && key_wide)
        return pack_keys_body(m, rows, 1, (uint64_t)width, shift, 1, fwd, rev);
    if (wide)
        return pack_keys_body(m, rows, 1, (uint64_t)width, shift, 0, fwd, rev);
    if (key_wide)
        return pack_keys_body(m, rows, 0, (uint64_t)width, shift, 1, fwd, rev);
    return pack_keys_body(m, rows, 0, (uint64_t)width, shift, 0, fwd, rev);
}

PASS int64_t adjacency_tail_body(int64_t m, const void *keys, int key_wide, int64_t shift,
                                 int64_t nparts, const int64_t *bounds, uint32_t *nbrs,
                                 int64_t *nodes, int64_t *offsets)
{
    uint64_t mask = ((uint64_t)1 << shift) - 1, owner = UINT64_MAX;  /* no key's owner */
    int64_t runs = 0, out = 0;
    for (int64_t q = 0; q < nparts; q++) {
        uint64_t high = (uint64_t)q << 32;  /* the bits above a split key's 32 */
        /* read once: the writes below may alias bounds */
        int64_t start = bounds ? bounds[q] : 0, end = bounds ? bounds[q + 1] : m;
        for (int64_t i = start; i < end; i++) {
            uint64_t key = high | key_at(keys, key_wide, i), src = key >> shift, dst = key & mask;
            /* every key writes the next run's slot, and only a key that opens
             * a run moves past it: no branch on run lengths of a few keys */
            nodes[runs] = (int64_t)src;
            offsets[runs] = out;
            runs += src != owner;
            owner = src;
            nbrs[out] = (uint32_t)dst;
            out += src != dst;
        }
    }
    offsets[runs] = out;
    return runs;
}

/* The tail of the adjacency builder over m keys, sorted within each of
 * nparts parts, part q holding keys bounds[q] to bounds[q + 1] - 1
 * (bounds[0] = 0, bounds[nparts] = m) whose bits above the low 32 are q.
 * bounds may be NULL for one part [0, m): u64 keys, and u32 keys up to
 * width 65,536.  Writes each run's owner to `nodes` and its start to
 * `offsets`, and the neighbour ids, self-loops left out, in order to
 * `nbrs`, u32: every id lies below 2**32.  `offsets` gets one more entry,
 * the end of the last run, and `nodes` one spare entry past the last run.
 * `nbrs` may start where `keys` does (the builder writes the neighbour ids
 * over its sorted keys): the write of neighbour `out` covers bytes 4 * out
 * to 4 * out + 4, out <= i, which key i + 1 and later, u32 or u64, never
 * overlap.  Returns the number of runs. */
int64_t adjacency_tail(int64_t m, const void *keys, int64_t key_bytes, int64_t shift,
                       int64_t nparts, const int64_t *bounds, uint32_t *nbrs, int64_t *nodes,
                       int64_t *offsets)
{
    if (key_bytes == 8)
        return adjacency_tail_body(m, keys, 1, shift, nparts, bounds, nbrs, nodes, offsets);
    return adjacency_tail_body(m, keys, 0, shift, nparts, bounds, nbrs, nodes, offsets);
}

/* One point of theory.theory_curve.  Pair i's cdf adds count[i] terms,
 * j = lo[i], lo[i] + 1, ..., left to right from 0.0, and probs[i] gets
 * 1 - cdf.  Term j is the exp of
 *     ((lg_k0 - T(j + 1)) - T(k0 - j + 1))
 *     + ((lg_k1 - T(d - j + 1)) - T(k - k0 - d + j + 1)) - log_denom,
 * in numpy's order, where T(v) = lgamma(v) sits in `table` at
 * base[4i] + j, base[4i + 1] - j, base[4i + 2] - j and base[4i + 3] + j,
 * as theory._lgamma_table packs it.  Then node n adds
 * (k - k0) * p + k0 * (1 - p), p = probs[pair_of[n]], in node order, to
 * the total written to *total: np.cumsum's left-to-right sum. */
void curve_point(int64_t npairs, const int64_t *lo, const int64_t *count, const int64_t *base,
                 const double *lg_k0, const double *lg_k1, const double *log_denom,
                 const double *table, double *probs, int64_t nnodes, const int64_t *k,
                 const int64_t *k0, const int64_t *pair_of, double *total)
{
    for (int64_t i = 0; i < npairs; i++) {
        const int64_t *b = base + 4 * i;
        double cdf = 0.0;
        for (int64_t j = lo[i]; j < lo[i] + count[i]; j++)
            cdf += exp(((lg_k0[i] - table[b[0] + j]) - table[b[1] - j])
                       + ((lg_k1[i] - table[b[2] - j]) - table[b[3] + j]) - log_denom[i]);
        probs[i] = 1.0 - cdf;
    }
    double sum = 0.0;
    for (int64_t n = 0; n < nnodes; n++) {
        double p = probs[pair_of[n]];
        double term = (double)(k[n] - k0[n]) * p + (double)k0[n] * (1.0 - p);
        sum = n ? sum + term : term;
    }
    *total = sum;
}
