/* Runs pack_keys (straight into split parts through their cursors, too),
 * adjacency_tail (u32 neighbour ids written over the keys), sweep (over a
 * chunk's one array of sorted u32 or u64 keys, against the CSR loop, its
 * capacity exit too), seed_counts
 * and bfs_grow of src/streamcut/_kernels.c on edge cases,
 * comm_walk on a small graph with isolated ids, the edge passes label_pass,
 * extract_rows, scatter_rows and endpoint_counts on rows whose ids reach
 * num_nodes - 1, scatter_rows on feature records of 1, 3 and 128 bytes,
 * and curve_point on small (k, k0) pairs, with every buffer
 * allocated at exactly the size the Python callers give it
 * (model._pack_keys, model._adjacency_tail, grem.process_chunk,
 * grem._seed_chunk, seed.seed_bisect, placement.estimate_comm, the block passes
 * of edgefile, store.reorder_features and theory.theory_curve),
 * so that a build with -fsanitize=address,undefined reports any access
 * outside them.  Prints "ok" and exits 0 when every case checks out.
 * This file includes _kernels.c, so the compiler checks every call against
 * the kernel's own definition:
 *
 *     cc -O1 -g -fsanitize=address,undefined -fno-sanitize-recover=all -ffp-contract=off \
 *        tests/kernels_sanitized.c -lm -o checks && ./checks
 */
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#include "../src/streamcut/_kernels.c"

static int failures = 0;

#define CHECK(cond, name)                                                   \
    do {                                                                    \
        if (!(cond)) {                                                      \
            fprintf(stderr, "%s: %s failed\n", name, #cond);                \
            failures++;                                                     \
        }                                                                   \
    } while (0)

static void *exact(size_t count, size_t size)
{
    void *p = malloc(count * size);
    if (p == NULL) {
        fprintf(stderr, "out of memory\n");
        exit(2);
    }
    return p;
}

static int cmp_u32(const void *a, const void *b)
{
    uint32_t x = *(const uint32_t *)a, y = *(const uint32_t *)b;
    return (x > y) - (x < y);
}

static int cmp_u64(const void *a, const void *b)
{
    uint64_t x = *(const uint64_t *)a, y = *(const uint64_t *)b;
    return (x > y) - (x < y);
}

/* model.key_layout: shift = bit_length(width - 1); up to width 2**19 u32
 * keys in ((width - 1) << shift >> 32) + 1 parts, else u64 keys in one.
 * The layout also takes u64 keys below 2**19 when its parts would hold
 * fewer than 8,192 keys each; the buffers are the same either way, so the
 * driver splits every key count it can. */
static int64_t key_shift(uint64_t width)
{
    int64_t shift = 0;
    while (shift < 64 && ((width - 1) >> shift) != 0)
        shift++;
    return shift;
}

/* grem.process_chunk's Python loop over the CSR index, with the two
 * estimates (side-0 and side-1 neighbours) the sweep's one lean is the
 * difference of, and grem.assign's branches on their order: the reference
 * the key sweep must equal.  Adds to *visited and
 * *moved as the sweep adds to its counters.  Returns -1, or the id of the
 * node no side could take. */
static int64_t csr_sweep(int64_t runs, const int64_t *nodes, const int64_t *offsets,
                         const uint32_t *nbrs, int8_t *parts, double *nbr0, double *nbr1,
                         int64_t *sizes, int64_t cap, int refine, int64_t *visited,
                         int64_t *moved)
{
    for (int64_t r = 0; r < runs; r++) {
        int64_t n = nodes[r];
        int old = parts[n], b;
        if (old != -1 && !refine) {
            *visited += 1;
            continue;
        }
        double c0 = 0.0, c1 = 0.0;
        for (int64_t j = offsets[r]; j < offsets[r + 1]; j++) {
            if (parts[nbrs[j]] == 0)
                c0 += 1.0;
            else if (parts[nbrs[j]] == 1)
                c1 += 1.0;
        }
        if (old != -1) {
            c0 = (nbr0[n] + c0) * 0.5;
            c1 = (nbr1[n] + c1) * 0.5;
            sizes[old] -= 1;
        }
        if (c0 < c1 && sizes[1] < cap)
            b = 1;
        else if (c1 < c0 && sizes[0] < cap)
            b = 0;
        else if (sizes[0] <= sizes[1])
            b = sizes[0] >= cap ? -1 : 0;
        else
            b = sizes[1] >= cap ? -1 : 1;
        if (b < 0)
            return n;
        *visited += 1;
        *moved += old != -1 && b != old;
        sizes[b] += 1;
        parts[n] = (int8_t)b;
        nbr0[n] = c0;
        nbr1[n] = c1;
    }
    return -1;
}

/* One chunk of m edges (ids[2i], ids[2i + 1]) below width, stored at
 * id_bytes: packs (into parts through their cursors where the keys split),
 * sorts and runs the tail over its keys as the estimator's build does,
 * checks the index against a brute-force count, and for widths small
 * enough to hold one entry of node state per id (up to 2**19 + 1) sweeps
 * the keys as an EdgeChunk holds them, one sorted array of u32 keys up to
 * width 65,536 and of u64 keys above, against the CSR loop, seeds its
 * estimates and grows a seed bisection over it. */
static void run_case(const char *name, const uint64_t *ids, int64_t m, int id_bytes,
                     uint64_t width)
{
    int64_t shift = key_shift(width);
    int64_t key_bytes = width <= (1u << 19) ? 4 : 8;
    int64_t nparts = key_bytes == 4 ? (int64_t)(((width - 1) << shift) >> 32) + 1 : 1;
    void *rows = exact((size_t)(2 * m), (size_t)id_bytes);
    for (int64_t k = 0; k < 2 * m; k++) {
        if (id_bytes == 4)
            ((uint32_t *)rows)[k] = (uint32_t)ids[k];
        else
            ((uint64_t *)rows)[k] = ids[k];
    }
    /* the builder's one array of 2m keys, the rows arriving in two blocks:
     * one part's keys packed straight in, row i's at i and m + i; split u32
     * keys counted per part on a first pass over the blocks and written
     * through each part's cursor on a second, bounds[1..nparts] the count
     * pass's counters, then the ends its cursors stop at */
    void *keys = exact((size_t)(2 * m), (size_t)key_bytes);
    int64_t *bounds = exact((size_t)(nparts + 1), sizeof *bounds);
    int64_t half = m / 2, bad = 0;
    const char *second = (const char *)rows + (size_t)(2 * half) * id_bytes;
    bounds[0] = 0;
    if (nparts == 1) {
        char *fwd = keys, *rev = (char *)keys + (size_t)m * key_bytes;
        bounds[1] = 2 * m;
        bad += pack_keys(half, rows, id_bytes, (int64_t)width, shift, key_bytes, fwd, rev, NULL,
                         NULL);
        bad += pack_keys(m - half, second, id_bytes, (int64_t)width, shift, key_bytes,
                         fwd + (size_t)half * key_bytes, rev + (size_t)half * key_bytes, NULL,
                         NULL);
    } else {
        int64_t *cursors = exact((size_t)nparts, sizeof *cursors);
        memset(bounds + 1, 0, (size_t)nparts * sizeof *bounds);
        bad += pack_keys(half, rows, id_bytes, (int64_t)width, shift, 4, NULL, NULL, bounds + 1,
                         NULL);
        bad += pack_keys(m - half, second, id_bytes, (int64_t)width, shift, 4, NULL, NULL,
                         bounds + 1, NULL);
        for (int64_t q = 1; q <= nparts; q++)
            bounds[q] += bounds[q - 1];
        memcpy(cursors, bounds, (size_t)nparts * sizeof *cursors);
        bad += pack_keys(half, rows, id_bytes, (int64_t)width, shift, 4, keys, NULL, cursors,
                         bounds + 1);
        bad += pack_keys(m - half, second, id_bytes, (int64_t)width, shift, 4, keys, NULL,
                         cursors, bounds + 1);
        for (int64_t q = 0; q < nparts; q++)
            CHECK(cursors[q] == bounds[q + 1], name);
        /* every part is full now: each row's first key is refused, and
         * nothing is written past a part's end */
        CHECK(pack_keys(m, rows, id_bytes, (int64_t)width, shift, 4, keys, NULL, cursors,
                        bounds + 1) == m, name);
        free(cursors);
    }
    CHECK(bad == 0, name);
    CHECK(bounds[0] == 0 && bounds[nparts] == 2 * m, name);
    for (int64_t q = 0; q < nparts; q++) {
        CHECK(bounds[q] <= bounds[q + 1], name);
        qsort((char *)keys + (size_t)bounds[q] * key_bytes, (size_t)(bounds[q + 1] - bounds[q]),
              (size_t)key_bytes, key_bytes == 8 ? cmp_u64 : cmp_u32);
    }

    /* the keys as an EdgeChunk holds them: one sorted array of exactly 2m,
     * u32 while width <= 65,536, else u64, never split */
    int64_t chunk_bytes = width <= 65536 ? 4 : 8;
    void *sorted = exact((size_t)(2 * m), (size_t)chunk_bytes);
    CHECK(pack_keys(m, rows, id_bytes, (int64_t)width, shift, chunk_bytes, sorted,
                    (char *)sorted + (size_t)m * chunk_bytes, NULL, NULL) == 0, name);
    qsort(sorted, (size_t)(2 * m), (size_t)chunk_bytes, chunk_bytes == 8 ? cmp_u64 : cmp_u32);

    /* nodes: one entry per possible run and a spare; offsets: one more per run */
    int64_t max_runs = (uint64_t)(2 * m) < width ? 2 * m : (int64_t)width;
    int64_t *nodes = exact((size_t)(max_runs + 1), sizeof *nodes);
    int64_t *offsets = exact((size_t)(max_runs + 1), sizeof *offsets);
    /* one part goes without bounds, as the builder passes it; the u32
     * neighbour ids are written over the keys, from their front */
    uint32_t *nb = keys;
    int64_t runs = adjacency_tail(2 * m, keys, key_bytes, shift, nparts,
                                  nparts == 1 ? NULL : bounds, nb, nodes, offsets);

    int64_t loops = 0;
    for (int64_t i = 0; i < m; i++)
        loops += ids[2 * i] == ids[2 * i + 1];
    CHECK(runs >= 1 && runs <= max_runs, name);
    CHECK(offsets[0] == 0 && offsets[runs] == 2 * (m - loops), name);
    for (int64_t r = 0; r < runs; r++) {
        int64_t degree = 0, seen = 0;
        for (int64_t i = 0; i < m; i++) {
            uint64_t u = ids[2 * i], v = ids[2 * i + 1];
            seen += u == (uint64_t)nodes[r] || v == (uint64_t)nodes[r];
            degree += (u != v) * ((u == (uint64_t)nodes[r]) + (v == (uint64_t)nodes[r]));
        }
        CHECK(seen > 0, name);
        CHECK(r == 0 || nodes[r] > nodes[r - 1], name);
        CHECK(offsets[r + 1] - offsets[r] == degree, name);
        for (int64_t j = offsets[r]; j < offsets[r + 1]; j++) {
            CHECK(j == offsets[r] || nb[j] >= nb[j - 1], name);
            CHECK(nb[j] != nodes[r] && nb[j] < width, name);
        }
    }

    if (width <= (1u << 19) + 1) {
        /* grem.process_chunk over the sorted keys, and the CSR loop and
         * grem._seed_chunk over nodes of the runs, their offsets, one more
         * than the runs, and nbrs of the kept keys; node state of every id,
         * a lean for the sweep and two estimates for the loop */
        int64_t num_nbrs = offsets[runs];
        int64_t *c_nodes = exact((size_t)runs, sizeof *c_nodes);
        int64_t *c_offsets = exact((size_t)runs + 1, sizeof *c_offsets);
        uint32_t *nbrs = exact(num_nbrs ? (size_t)num_nbrs : 1, sizeof *nbrs);
        memcpy(c_nodes, nodes, (size_t)runs * sizeof *nodes);
        memcpy(c_offsets, offsets, (size_t)(runs + 1) * sizeof *offsets);
        memcpy(nbrs, nb, (size_t)num_nbrs * sizeof *nbrs);
        int8_t *parts = exact((size_t)width, sizeof *parts);
        int8_t *ref_parts = exact((size_t)width, sizeof *ref_parts);
        double *lean = exact((size_t)width, sizeof *lean);
        double *ref_nbr0 = exact((size_t)width, sizeof *ref_nbr0);
        double *ref_nbr1 = exact((size_t)width, sizeof *ref_nbr1);
        memset(parts, -1, (size_t)width);
        memset(ref_parts, -1, (size_t)width);
        for (uint64_t n = 0; n < width; n++)
            lean[n] = ref_nbr0[n] = ref_nbr1[n] = 0.0;
        int64_t *tally = exact(4, sizeof *tally);
        int64_t ref_sizes[2] = {0, 0}, ref_visited = 0, ref_moved = 0;
        tally[0] = tally[1] = tally[2] = tally[3] = 0;
        int64_t cap = (int64_t)(width / 2 + 1);
        /* a fresh sweep, a refining one over the placed nodes, and one with
         * refinement off that skips them all, each equal to the loop's */
        for (int pass = 0; pass < 3; pass++) {
            int refine = pass < 2;
            CHECK(sweep(2 * m, sorted, chunk_bytes, shift, parts, lean, tally, cap, refine) == -1,
                  name);
            CHECK(csr_sweep(runs, c_nodes, c_offsets, nbrs, ref_parts, ref_nbr0, ref_nbr1,
                            ref_sizes, cap, refine, &ref_visited, &ref_moved) == -1, name);
            CHECK(memcmp(parts, ref_parts, (size_t)width) == 0, name);
            for (uint64_t n = 0; n < width; n++)
                CHECK(lean[n] == ref_nbr1[n] - ref_nbr0[n], name);
            CHECK(tally[0] == ref_sizes[0] && tally[1] == ref_sizes[1], name);
            CHECK(tally[2] == ref_visited && tally[3] == ref_moved, name);
            CHECK(tally[0] + tally[1] == runs && tally[2] == (pass + 1) * runs, name);
        }
        /* the capacity exit, as process_chunk's CapacityError: with both
         * sides claimed full even once it is lifted out of its old side,
         * the first node fails, lifted out, with its label, lean and the
         * counters left as they were */
        int first = parts[c_nodes[0]];
        double est = lean[c_nodes[0]];
        int64_t visited = tally[2], moved = tally[3];
        tally[0] = tally[1] = cap + 1;
        CHECK(sweep(2 * m, sorted, chunk_bytes, shift, parts, lean, tally, cap, 1) == c_nodes[0],
              name);
        CHECK(tally[first] == cap && tally[1 - first] == cap + 1, name);
        CHECK(tally[2] == visited && tally[3] == moved, name);
        CHECK(parts[c_nodes[0]] == first, name);
        CHECK(lean[c_nodes[0]] == est, name);
        /* and a fresh node, with refinement off */
        parts[c_nodes[0]] = -1;
        tally[0] = tally[1] = cap;
        CHECK(sweep(2 * m, sorted, chunk_bytes, shift, parts, lean, tally, cap, 0) == c_nodes[0],
              name);
        CHECK(tally[0] == cap && tally[1] == cap && parts[c_nodes[0]] == -1, name);
        CHECK(tally[2] == visited && tally[3] == moved, name);
        parts[c_nodes[0]] = (int8_t)first;
        seed_counts(runs, c_nodes, c_offsets, nbrs, parts, lean);
        for (int64_t r = 0; r < runs; r++) {
            int64_t n0 = 0, n1 = 0;
            for (int64_t j = c_offsets[r]; j < c_offsets[r + 1]; j++) {
                n0 += parts[nbrs[j]] == 0;
                n1 += parts[nbrs[j]] == 1;
            }
            CHECK(n0 + n1 == c_offsets[r + 1] - c_offsets[r], name);  /* every node placed */
            CHECK(lean[c_nodes[r]] == (double)(n1 - n0), name);
        }

        /* seed.seed_bisect over the CSR of the runs, ids below the chunk's
         * width, the largest node + 1, as EdgeChunk gives it: labels one per
         * node; without refinement the grown side holds (runs + 1) / 2
         * nodes, and refinement keeps each side within the capacity */
        int8_t *labels = exact((size_t)runs, sizeof *labels);
        int64_t seed_cap = runs / 2 + 1;
        for (int64_t passes = 0; passes <= 2; passes += 2) {
            memset(labels, 1, (size_t)runs);
            CHECK(bfs_grow(runs, c_nodes, c_offsets, nbrs, c_nodes[runs - 1] + 1, passes,
                           seed_cap, labels) == 0, name);
            int64_t grown = 0;
            for (int64_t r = 0; r < runs; r++) {
                CHECK(labels[r] == 0 || labels[r] == 1, name);
                grown += labels[r] == 0;
            }
            CHECK(passes ? grown <= seed_cap && runs - grown <= seed_cap
                         : grown == (runs + 1) / 2, name);
        }
        free(c_nodes);
        free(c_offsets);
        free(nbrs);
        free(labels);
        free(parts);
        free(ref_parts);
        free(lean);
        free(ref_nbr0);
        free(ref_nbr1);
        free(tally);
    }
    free(rows);
    free(keys);
    free(bounds);
    free(sorted);
    free(nodes);
    free(offsets);
}

/* The rows of pairs (a, b) counted down from width - 1. */
static void run_top(const char *name, const int64_t (*pairs)[2], int64_t m, int id_bytes,
                    uint64_t width)
{
    uint64_t *ids = exact((size_t)(2 * m), sizeof *ids);
    for (int64_t i = 0; i < m; i++) {
        ids[2 * i] = width - 1 - (uint64_t)pairs[i][0];
        ids[2 * i + 1] = width - 1 - (uint64_t)pairs[i][1];
    }
    run_case(name, ids, m, id_bytes, width);
    free(ids);
}

static uint64_t row_id(const void *rows, int id_bytes, int64_t k)
{
    return id_bytes == 8 ? ((const uint64_t *)rows)[k] : ((const uint32_t *)rows)[k];
}

/* The four edge passes over m rows of ids below num_nodes, stored at
 * id_bytes, as edgefile's block passes size their buffers: labels and
 * new_id one entry per node, counts p * p, 2 * num_nodes or num_nodes,
 * bucket one per row, bounds nbuckets + 1, the scatter's and the
 * extraction's outputs m rows.  Each result is checked against a
 * brute-force count, then each pass but the extraction, which rejects
 * nothing, is made to reject a row. */
static void run_passes(const char *name, int64_t m, int id_bytes, uint64_t num_nodes, int64_t p)
{
    size_t n = (size_t)num_nodes;
    void *rows = exact((size_t)(2 * m), (size_t)id_bytes);
    uint64_t state = 0x9e3779b97f4a7c15ULL ^ num_nodes;
    for (int64_t k = 0; k < 2 * m; k++) {
        /* the first rows hold the top id, at either end and as a self-loop */
        uint64_t id = k < 4 ? (k == 1 || k == 2 ? 0 : num_nodes - 1) : 0;
        if (k >= 4) {
            state = state * 6364136223846793005ULL + 1442695040888963407ULL;
            id = (state >> 33) % num_nodes;
        }
        if (id_bytes == 4)
            ((uint32_t *)rows)[k] = (uint32_t)id;
        else
            ((uint64_t *)rows)[k] = id;
    }
    /* u32 labels, as edgefile._check_labels makes them */
    uint32_t *labels = exact(n, sizeof *labels), *side = exact(n, sizeof *side);
    int64_t *new_id = exact(n, sizeof *new_id);
    int64_t members = 0;
    for (uint64_t v = 0; v < num_nodes; v++) {
        labels[v] = (uint32_t)((v * 7 + 3) % (uint64_t)p);
        side[v] = (uint32_t)((v * 5 + 1) % 2);
        new_id[v] = side[v] == 1 ? members++ : -1;
    }

    /* label_pass: the cut, the p x p counts and every row's bucket id */
    int64_t *counts = exact((size_t)(p * p), sizeof *counts);
    int64_t *bucket = exact(m ? (size_t)m : 1, sizeof *bucket);
    int64_t *cut = exact(1, sizeof *cut);
    memset(counts, 0, (size_t)(p * p) * sizeof *counts);
    *cut = 0;
    CHECK(label_pass(m, rows, id_bytes, labels, p, counts, bucket, cut) == -1, name);
    int64_t cuts = 0;
    for (int64_t i = 0; i < m; i++) {
        int64_t lu = labels[row_id(rows, id_bytes, 2 * i)];
        int64_t lv = labels[row_id(rows, id_bytes, 2 * i + 1)];
        cuts += lu != lv;
        CHECK(bucket[i] == lu * p + lv, name);
    }
    CHECK(*cut == cuts, name);
    for (int64_t b = 0; b < p * p; b++) {
        int64_t seen = 0;
        for (int64_t i = 0; i < m; i++)
            seen += bucket[i] == b;
        CHECK(counts[b] == seen, name);
    }

    /* scatter_rows by those bucket ids: grouped, stable, bounds from 0 to m */
    int64_t nbuckets = p * p;
    int64_t *bounds = exact((size_t)(nbuckets + 1), sizeof *bounds);
    void *grouped = exact(m ? (size_t)(2 * m) : 1, (size_t)id_bytes);
    CHECK(scatter_rows(m, rows, 2 * id_bytes, bucket, nbuckets, bounds, grouped) == -1, name);
    CHECK(bounds[0] == 0 && bounds[nbuckets] == m, name);
    for (int64_t b = 0, at = 0; b < nbuckets; b++) {
        CHECK(bounds[b] == at, name);
        for (int64_t i = 0; i < m; i++) {
            if (bucket[i] != b)
                continue;
            CHECK(row_id(grouped, id_bytes, 2 * at) == row_id(rows, id_bytes, 2 * i), name);
            CHECK(row_id(grouped, id_bytes, 2 * at + 1) == row_id(rows, id_bytes, 2 * i + 1),
                  name);
            at++;
        }
    }

    /* extract_rows of side 1, at either output width */
    for (int out_bytes = 4; out_bytes <= 8; out_bytes += 4) {
        void *out = exact(m ? (size_t)(2 * m) : 1, (size_t)out_bytes);
        int64_t kept = extract_rows(m, rows, id_bytes, new_id, out_bytes, out), at = 0;
        for (int64_t i = 0; i < m; i++) {
            int64_t a = new_id[row_id(rows, id_bytes, 2 * i)];
            int64_t b = new_id[row_id(rows, id_bytes, 2 * i + 1)];
            if (a < 0 || b < 0)
                continue;
            CHECK(row_id(out, out_bytes, 2 * at) == (uint64_t)a, name);
            CHECK(row_id(out, out_bytes, 2 * at + 1) == (uint64_t)b, name);
            at++;
        }
        CHECK(kept == at, name);
        free(out);
    }

    /* endpoint_counts into u32 counters: the degree, then the neighbours per
     * side, these from 2**32 - 1 - m, which m rows take at most to 2**32 - 1 */
    uint32_t *degree = exact(n, sizeof *degree), *per_side = exact(2 * n, sizeof *per_side);
    uint32_t base = UINT32_MAX - (uint32_t)m;
    memset(degree, 0, n * sizeof *degree);
    for (size_t k = 0; k < 2 * n; k++)
        per_side[k] = base;
    CHECK(endpoint_counts(m, rows, id_bytes, NULL, degree) == -1, name);
    CHECK(endpoint_counts(m, rows, id_bytes, side, per_side) == -1, name);
    for (uint64_t v = 0; v < num_nodes; v++) {
        int64_t d = 0, on[2] = {0, 0};
        for (int64_t i = 0; i < m; i++) {
            uint64_t a = row_id(rows, id_bytes, 2 * i), b = row_id(rows, id_bytes, 2 * i + 1);
            if (a == b)
                continue;
            d += (a == v) + (b == v);
            if (a == v)
                on[side[b]]++;
            if (b == v)
                on[side[a]]++;
        }
        CHECK(degree[v] == d, name);
        CHECK(per_side[2 * v] - base == on[0] && per_side[2 * v + 1] - base == on[1], name);
        CHECK(per_side[2 * v] >= base && per_side[2 * v + 1] >= base, name);
    }

    /* rejections: the top id, in rows 0 and 1, labelled 0xFFFFFFFF
     * (unassigned) or beyond the range, also past a p above 0xFFFFFFFF;
     * the last row's bucket id out of range */
    if (m >= 2) {
        labels[num_nodes - 1] = UINT32_MAX;
        CHECK(label_pass(m, rows, id_bytes, labels, p, counts, bucket, cut) == 0, name);
        CHECK(label_pass(m, rows, id_bytes, labels, (int64_t)1 << 32, NULL, NULL, cut) == 0,
              name);
        labels[num_nodes - 1] = (uint32_t)p;
        CHECK(label_pass(m, rows, id_bytes, labels, p, NULL, NULL, cut) == 0, name);
        side[num_nodes - 1] = UINT32_MAX;
        CHECK(endpoint_counts(m, rows, id_bytes, side, per_side) == 0, name);
        side[num_nodes - 1] = 2;
        CHECK(endpoint_counts(m, rows, id_bytes, side, per_side) == 0, name);
        bucket[m - 1] = nbuckets;
        CHECK(scatter_rows(m, rows, 2 * id_bytes, bucket, nbuckets, bounds, grouped) == m - 1, name);
    }
    free(rows);
    free(labels);
    free(side);
    free(new_id);
    free(counts);
    free(bucket);
    free(cut);
    free(bounds);
    free(grouped);
    free(degree);
    free(per_side);
}

/* scatter_rows over m feature records of row_bytes bytes, as
 * store.reorder_features sizes its buffers: records, bucket ids and the
 * output m rows each, bounds nbuckets + 1.  Checked against a per-bucket
 * scan of the input, then made to reject a negative bucket id. */
static void run_records(const char *name, int64_t m, int64_t row_bytes, int64_t nbuckets)
{
    size_t row = (size_t)row_bytes;
    unsigned char *rows = exact(m ? (size_t)m : 1, row);
    unsigned char *grouped = exact(m ? (size_t)m : 1, row);
    int64_t *bucket = exact(m ? (size_t)m : 1, sizeof *bucket);
    int64_t *bounds = exact((size_t)(nbuckets + 1), sizeof *bounds);
    for (int64_t i = 0; i < m; i++) {
        bucket[i] = (i * 5 + i / 3) % nbuckets;
        for (size_t c = 0; c < row; c++)
            rows[(size_t)i * row + c] = (unsigned char)(i * 31 + (int64_t)c);
    }
    CHECK(scatter_rows(m, rows, row_bytes, bucket, nbuckets, bounds, grouped) == -1, name);
    CHECK(bounds[0] == 0 && bounds[nbuckets] == m, name);
    for (int64_t b = 0, at = 0; b < nbuckets; b++) {
        CHECK(bounds[b] == at, name);
        for (int64_t i = 0; i < m; i++) {
            if (bucket[i] != b)
                continue;
            CHECK(memcmp(grouped + (size_t)at * row, rows + (size_t)i * row, row) == 0, name);
            at++;
        }
    }
    if (m >= 1) {
        bucket[m - 1] = -1;
        CHECK(scatter_rows(m, rows, row_bytes, bucket, nbuckets, bounds, grouped) == m - 1,
              name);
    }
    free(rows);
    free(grouped);
    free(bucket);
    free(bounds);
}

/* C(n, r), exact in a double while n <= 40 */
static double choose(int64_t n, int64_t r)
{
    double c = 1.0;
    for (int64_t i = 1; i <= r; i++)
        c = c * (double)(n - r + i) / (double)i;
    return c;
}

/* One point of theory.theory_curve over pairs (k[i], k0[i]) drawing d[i]:
 * the lgamma table holds each value of the pairs' four term ranges and five
 * points once, ascending, in exactly that many entries, as
 * theory._lgamma_table packs it, and curve_point runs on 3 * npairs + 1
 * nodes that cycle through the pairs.  Each probability must equal the
 * direct left-to-right sum of its terms bit for bit and the exact
 * hypergeometric cdf to 1e-12, and the total the node-order sum. */
static void run_curve(const char *name, const int64_t *pk, const int64_t *pk0, const int64_t *pd,
                      int64_t npairs)
{
    int64_t top = 0, size = 0, nnodes = 3 * npairs + 1;
    for (int64_t i = 0; i < npairs; i++)
        top = pk[i] + 2 > top ? pk[i] + 2 : top;
    int64_t *slot = exact((size_t)top, sizeof *slot);  /* value -> table entry, or -1 */
    int64_t *lo = exact(npairs, sizeof *lo), *count = exact(npairs, sizeof *count);
    int64_t *base = exact(4 * npairs, sizeof *base);
    double *lg_k0 = exact(npairs, sizeof *lg_k0), *lg_k1 = exact(npairs, sizeof *lg_k1);
    double *log_denom = exact(npairs, sizeof *log_denom), *probs = exact(npairs, sizeof *probs);
    int64_t *k = exact(nnodes, sizeof *k), *k0 = exact(nnodes, sizeof *k0);
    int64_t *pair_of = exact(nnodes, sizeof *pair_of);
    for (int64_t v = 0; v < top; v++)
        slot[v] = -1;
    for (int64_t i = 0; i < npairs; i++) {
        int64_t d = pd[i], a = pk0[i], b = pk[i] - pk0[i], t = (d + 1) / 2 - 1;
        int64_t hi = t < a ? t : a;
        lo[i] = d - b > 0 ? d - b : 0;
        count[i] = hi >= lo[i] ? hi - lo[i] + 1 : 0;
        for (int64_t j = lo[i]; j <= hi; j++) {
            slot[j + 1] = slot[a - j + 1] = 0;
            slot[d - j + 1] = slot[b - d + j + 1] = 0;
        }
        slot[a + 1] = slot[b + 1] = slot[pk[i] + 1] = slot[d + 1] = slot[pk[i] - d + 1] = 0;
    }
    for (int64_t v = 0; v < top; v++)
        if (slot[v] == 0)
            slot[v] = ++size;
    double *table = exact((size_t)size, sizeof *table);
    for (int64_t v = 0; v < top; v++)
        if (slot[v] > 0)
            table[--slot[v]] = lgamma((double)v);
    for (int64_t i = 0; i < npairs; i++) {
        int64_t d = pd[i], a = pk0[i], b = pk[i] - pk0[i], l = lo[i];
        base[4 * i] = base[4 * i + 1] = base[4 * i + 2] = base[4 * i + 3] = 0;
        if (count[i]) {
            base[4 * i] = slot[l + 1] - l;
            base[4 * i + 1] = slot[a - l + 1] + l;
            base[4 * i + 2] = slot[d - l + 1] + l;
            base[4 * i + 3] = slot[b - d + l + 1] - l;
        }
        lg_k0[i] = table[slot[a + 1]];
        lg_k1[i] = table[slot[b + 1]];
        log_denom[i] = table[slot[pk[i] + 1]] - table[slot[d + 1]] - table[slot[pk[i] - d + 1]];
    }
    for (int64_t n = 0; n < nnodes; n++) {
        pair_of[n] = (n * 7 + 3) % npairs;
        k[n] = pk[pair_of[n]];
        k0[n] = pk0[pair_of[n]];
    }
    double total = -1.0;
    curve_point(npairs, lo, count, base, lg_k0, lg_k1, log_denom, table, probs, nnodes, k, k0,
                pair_of, &total);
    for (int64_t i = 0; i < npairs; i++) {
        int64_t d = pd[i], a = pk0[i], b = pk[i] - pk0[i];
        double cdf = 0.0, exact_cdf = 0.0;
        for (int64_t j = lo[i]; j < lo[i] + count[i]; j++) {
            cdf += exp(((lg_k0[i] - lgamma(j + 1.0)) - lgamma(a - j + 1.0))
                       + ((lg_k1[i] - lgamma(d - j + 1.0)) - lgamma(b - d + j + 1.0))
                       - log_denom[i]);
            exact_cdf += choose(a, j) * choose(b, d - j) / choose(pk[i], d);
        }
        CHECK(probs[i] == 1.0 - cdf, name);
        CHECK(fabs(probs[i] - (1.0 - exact_cdf)) <= 1e-12, name);
    }
    double want = 0.0;
    for (int64_t n = 0; n < nnodes; n++) {
        double p = probs[pair_of[n]];
        double term = (double)(k[n] - k0[n]) * p + (double)k0[n] * (1.0 - p);
        want = n ? want + term : term;
    }
    CHECK(total == want, name);
    free(slot);
    free(lo);
    free(count);
    free(base);
    free(lg_k0);
    free(lg_k1);
    free(log_denom);
    free(probs);
    free(k);
    free(k0);
    free(pair_of);
    free(table);
}

/* A numpy bit generator's next_uint64 stand-in: splitmix64 over *state. */
static uint64_t splitmix64(void *state)
{
    uint64_t z = (*(uint64_t *)state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/* comm_walk over the whole-graph CSR index of placement.estimate_comm:
 * offsets num_nodes + 1, with an empty list for each isolated id, nbrs
 * (u32) exactly the endpoint count, node_worker and replicated one per
 * node, fanouts one per hop, counts two per worker.  Ids 0, 6 and 13 are
 * isolated; node 3 has degree 7 and node 8 degree 16, above every fanout
 * and above the node count, so Floyd's picks run over list positions past
 * the node ids.  With every node seeding and one hop, each node fetches
 * min(degree, fanout) nodes; the walk is repeatable from one state, and
 * with every node replicated no fetch is remote. */
static void run_walk(void)
{
    enum { NUM_NODES = 14, WORKERS = 3 };
    int64_t edges[][2] = {{3, 1}, {3, 2}, {3, 4}, {3, 5}, {3, 7}, {3, 9}, {3, 10},
                          {1, 2}, {1, 2}, {9, 10}, {10, 11}, {11, 12}, {12, 12}};
    int64_t m = sizeof edges / sizeof edges[0], dups = 15;
    int64_t *offsets = exact(NUM_NODES + 1, sizeof *offsets);
    memset(offsets, 0, (NUM_NODES + 1) * sizeof *offsets);
    for (int64_t i = 0; i < m; i++)
        if (edges[i][0] != edges[i][1]) {
            offsets[edges[i][0] + 1]++;
            offsets[edges[i][1] + 1]++;
        }
    offsets[8 + 1] += dups + 1;  /* 8-7 fifteen times, and 8-9 */
    offsets[7 + 1] += dups;
    offsets[9 + 1] += 1;
    for (int64_t v = 0; v < NUM_NODES; v++)
        offsets[v + 1] += offsets[v];
    int64_t total = offsets[NUM_NODES];
    uint32_t *nbrs = exact((size_t)total, sizeof *nbrs);
    int64_t *fill = exact(NUM_NODES, sizeof *fill);
    memcpy(fill, offsets, NUM_NODES * sizeof *fill);
    for (int64_t i = 0; i < m; i++)
        if (edges[i][0] != edges[i][1]) {
            nbrs[fill[edges[i][0]]++] = (uint32_t)edges[i][1];
            nbrs[fill[edges[i][1]]++] = (uint32_t)edges[i][0];
        }
    for (int64_t k = 0; k < dups; k++) {
        nbrs[fill[8]++] = 7;
        nbrs[fill[7]++] = 8;
    }
    nbrs[fill[8]++] = 9;
    nbrs[fill[9]++] = 8;
    for (int64_t v = 0; v < NUM_NODES; v++) {
        CHECK(fill[v] == offsets[v + 1], "walk");
        qsort(nbrs + offsets[v], (size_t)(offsets[v + 1] - offsets[v]), sizeof *nbrs, cmp_u32);
    }
    CHECK(offsets[0 + 1] == 0 && offsets[6 + 1] == offsets[6] && offsets[13] == total, "walk");
    CHECK(offsets[3 + 1] - offsets[3] == 7 && offsets[8 + 1] - offsets[8] == 16, "walk");

    int64_t *node_worker = exact(NUM_NODES, sizeof *node_worker);
    uint8_t *replicated = exact(NUM_NODES, sizeof *replicated);
    for (int64_t v = 0; v < NUM_NODES; v++) {
        node_worker[v] = (v * 5 + 1) % WORKERS;
        replicated[v] = v == 10;
    }
    int64_t *counts = exact(2 * WORKERS, sizeof *counts), *again = exact(2 * WORKERS, sizeof *again);

    /* every node seeds, one hop of fanout 3 */
    int64_t *one = exact(1, sizeof *one);
    one[0] = 3;
    uint64_t state = 7;
    memset(counts, 0, 2 * WORKERS * sizeof *counts);
    CHECK(comm_walk(NUM_NODES, offsets, nbrs, node_worker, replicated, NUM_NODES, one, 1,
                    splitmix64, &state, counts) == 0, "walk");
    int64_t want = 0, got = 0;
    for (int64_t v = 0; v < NUM_NODES; v++) {
        int64_t deg = offsets[v + 1] - offsets[v];
        want += deg < 3 ? deg : 3;
    }
    for (int64_t k = 0; k < 2 * WORKERS; k++)
        got += counts[k];
    CHECK(got == want, "walk");

    /* five seeds by Floyd's picks, three hops, from one state twice, then
     * with every node replicated */
    int64_t *fanouts = exact(3, sizeof *fanouts);
    fanouts[0] = 4;
    fanouts[1] = 2;
    fanouts[2] = 20;
    for (uint64_t seed = 0; seed < 20; seed++) {
        int64_t *runs[2] = {counts, again};
        for (int r = 0; r < 2; r++) {
            state = seed;
            memset(runs[r], 0, 2 * WORKERS * sizeof *counts);
            CHECK(comm_walk(NUM_NODES, offsets, nbrs, node_worker, replicated, 5, fanouts, 3,
                            splitmix64, &state, runs[r]) == 0, "walk");
        }
        CHECK(memcmp(counts, again, 2 * WORKERS * sizeof *counts) == 0, "walk");
        memset(replicated, 1, NUM_NODES);
        state = seed;
        memset(again, 0, 2 * WORKERS * sizeof *again);
        CHECK(comm_walk(NUM_NODES, offsets, nbrs, node_worker, replicated, 5, fanouts, 3,
                        splitmix64, &state, again) == 0, "walk");
        for (int64_t w = 0; w < WORKERS; w++) {
            CHECK(again[2 * w + 1] == 0, "walk");
            CHECK(again[2 * w] == counts[2 * w] + counts[2 * w + 1], "walk");
        }
        for (int64_t v = 0; v < NUM_NODES; v++)
            replicated[v] = v == 10;
    }
    free(offsets);
    free(nbrs);
    free(fill);
    free(node_worker);
    free(replicated);
    free(counts);
    free(again);
    free(one);
    free(fanouts);
}

int main(void)
{
    /* duplicates, self-loops and a self-loop-only node */
    static const int64_t mixed[][2] = {{0, 1}, {1, 0}, {0, 1}, {2, 2}, {3, 1}, {5, 5},
                                       {4, 3}, {1, 1}, {6, 0}, {5, 5}, {2, 6}};
    /* every key opens a run: each node has one neighbour */
    static const int64_t matching[][2] = {{0, 1}, {2, 3}, {5, 4}, {6, 7}};
    /* the last run repeats: the lowest id holds the highest keys */
    static const int64_t repeat[][2] = {{1, 0}, {0, 2}, {0, 2}, {3, 0}, {0, 0}};
    /* self-loops only, of one node */
    static const int64_t loop_only[][2] = {{0, 0}, {0, 0}};
    /* one u32 part, three, 13 with the last partial, 64, then u64 keys */
    const uint64_t widths[] = {1, 9, 65536, 65537, 200000, 1u << 19, (1u << 19) + 1, 1u << 21,
                               1ULL << 32};
    int64_t n_mixed = sizeof mixed / sizeof mixed[0], n_matching = 4, n_repeat = 5;
    for (size_t w = 0; w < sizeof widths / sizeof widths[0]; w++) {
        uint64_t width = widths[w];
        for (int id_bytes = 4; id_bytes <= 8; id_bytes += 4) {
            run_top("loop_only", loop_only, 2, id_bytes, width);
            if (width < 9)
                continue;
            run_top("mixed", mixed, n_mixed, id_bytes, width);
            run_top("matching", matching, n_matching, id_bytes, width);
            run_top("repeat", repeat, n_repeat, id_bytes, width);
        }
    }
    /* ids from both ends of each width and its middle, a self-loop-only
     * node among them: keys in the first and last parts, most parts empty */
    for (size_t w = 1; w < sizeof widths / sizeof widths[0]; w++) {
        uint64_t top = widths[w] - 1, mid = widths[w] / 2;
        const uint64_t spread[] = {0, top, top, 0, mid, 1, 1, mid, top, top, mid / 3, mid / 3,
                                   0, top, 0, 0};
        for (int id_bytes = 4; id_bytes <= 8; id_bytes += 4)
            run_case("spread", spread, 8, id_bytes, widths[w]);
    }
    /* 8-byte rows of a few dense ids */
    static const uint64_t ranks[] = {0, 1, 1, 2, 2, 2, 3, 0, 4, 4};
    run_case("ranks", ranks, 5, 8, 5);
    /* six nodes spread over ids far wider than the chunk: the seed's rank
     * spans 2**19 ids for 6 nodes and 12 neighbour entries */
    static const uint64_t sparse[] = {7, 300001, 300001, 524287, 524287, 7, 90000, 7,
                                      131072, 90000, 7, 7, 444444, 131072};
    for (int id_bytes = 4; id_bytes <= 8; id_bytes += 4)
        run_case("sparse", sparse, 7, id_bytes, 1u << 19);
    /* one edge, one row per block split */
    static const uint64_t single[] = {3, 0};
    run_case("single", single, 1, 4, 4);
    /* the edge passes: one node, a few, and more than 2**16, at p = 1, 2 and 5 */
    const uint64_t node_counts[] = {1, 2, 9, 300, 70001};
    for (size_t c = 0; c < sizeof node_counts / sizeof node_counts[0]; c++)
        for (int id_bytes = 4; id_bytes <= 8; id_bytes += 4)
            for (int64_t p = 1; p <= 5; p += p == 1 ? 1 : 3) {
                run_passes("passes", 0, id_bytes, node_counts[c], p);
                run_passes("passes", 1, id_bytes, node_counts[c], p);
                run_passes("passes", 200, id_bytes, node_counts[c], p);
            }
    /* feature records: widths that are not an edge row's, one and several
     * partitions, no record and one */
    const int64_t record_bytes[] = {1, 3, 128};
    for (size_t w = 0; w < sizeof record_bytes / sizeof record_bytes[0]; w++)
        for (int64_t nbuckets = 1; nbuckets <= 16; nbuckets += 15) {
            run_records("records", 0, record_bytes[w], nbuckets);
            run_records("records", 1, record_bytes[w], nbuckets);
            run_records("records", 100, record_bytes[w], nbuckets);
        }
    /* the curve: one and two draws, all draws (no terms), and draws spread
     * over each pair's range; k0 = k, ties k0 = k - k0, and k up to 40 */
    static const int64_t curve_k[] = {1, 2, 2, 3, 5, 6, 7, 9, 12, 20, 33, 40, 40, 40};
    static const int64_t curve_k0[] = {1, 1, 2, 2, 3, 3, 4, 9, 7, 10, 17, 21, 35, 40};
    int64_t npairs = sizeof curve_k / sizeof curve_k[0], draws[sizeof curve_k / sizeof curve_k[0]];
    for (int64_t s = -2; s < 6; s++) {
        for (int64_t i = 0; i < npairs; i++)
            draws[i] = s == -2 ? curve_k[i] : s == -1 ? 1 : 1 + (i * 3 + s) % curve_k[i];
        run_curve("curve", curve_k, curve_k0, draws, npairs);
    }
    run_curve("curve one pair", curve_k + 10, curve_k0 + 10, draws + 10, 1);
    run_walk();
    if (failures)
        return 1;
    printf("ok\n");
    return 0;
}
