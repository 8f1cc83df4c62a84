/* Compiled inner loops of the greedy chunk sweep and the BFS-grow seed.
 *
 * Each function is a line-for-line port of the Python loop it replaces
 * (grem.process_chunk, seed._bfs_grow) and must stay bit-identical to it:
 * counts are accumulated by adding 1.0, estimates are averaged as
 * (old + fresh) * 0.5, and nodes are visited in the same order.  The loader
 * compiles this file without -ffast-math or -march=native, so IEEE double
 * arithmetic is the same as Python's.
 */
#include <stdint.h>

/* grem.assign; returns -1 where the Python rule raises CapacityError. */
static int assign(double c0, double c1, const int64_t *sizes, int64_t cap)
{
    if (c0 < c1 && sizes[1] < cap)
        return 1;
    if (c1 < c0 && sizes[0] < cap)
        return 0;
    if (sizes[0] <= sizes[1])
        return sizes[0] >= cap ? -1 : 0;
    return sizes[1] >= cap ? -1 : 1;
}

/* Sweeps one chunk's adjacency index in place over parts/nbr0/nbr1/sizes.
 * Returns -1, or the position in `nodes` of the node no partition could
 * take (sizes already has that node lifted out, as in the Python loop). */
int64_t sweep(int64_t num, const int64_t *nodes, const int64_t *starts,
              const int64_t *ends, const int64_t *nbrs, int8_t *parts,
              double *nbr0, double *nbr1, int64_t *sizes, int64_t cap,
              int32_t refine)
{
    for (int64_t i = 0; i < num; i++) {
        int64_t n = nodes[i];
        int old = parts[n];
        if (old != -1 && !refine)
            continue;
        double c0 = 0.0, c1 = 0.0;
        for (int64_t j = starts[i]; j < ends[i]; j++) {
            int pw = parts[nbrs[j]];
            if (pw == 0)
                c0 += 1.0;
            else if (pw == 1)
                c1 += 1.0;
        }
        if (old != -1) {
            c0 = (nbr0[n] + c0) * 0.5;
            c1 = (nbr1[n] + c1) * 0.5;
            sizes[old] -= 1;
        }
        int b = assign(c0, c1, sizes, cap);
        if (b < 0)
            return i;
        sizes[b] += 1;
        parts[n] = (int8_t)b;
        nbr0[n] = c0;
        nbr1[n] = c1;
    }
    return -1;
}

/* BFS grow over local neighbour positions, then boundary refinement.
 * `labels` must come in as all 1; picked nodes become 0.  `queue` is
 * scratch space for `num` entries: each node is queued at most once. */
void bfs_grow(int64_t num, const int64_t *starts, const int64_t *ends,
              const int64_t *local, const int64_t *restart_order,
              int64_t refinement_passes, int64_t capacity, int8_t *labels,
              int64_t *queue)
{
    int64_t target = (num + 1) / 2;
    int64_t count = 0, cursor = 0, head = 0, tail = 0;
    while (count < target) {
        if (head == tail) {
            while (labels[restart_order[cursor]] == 0)
                cursor++;
            int64_t best = restart_order[cursor];
            queue[tail++] = best;
            labels[best] = 0;
            if (++count >= target)
                break;
        }
        int64_t v = queue[head++];
        for (int64_t j = starts[v]; j < ends[v]; j++) {
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
            for (int64_t j = starts[i]; j < ends[i]; j++) {
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
}
