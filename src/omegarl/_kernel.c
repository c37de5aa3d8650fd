/* The compiled loops of omegarl.learn: one episode of tabular Q-learning
 * (run_episode, which steps numpy's PCG64 generator; draw exposes that
 * generator to draw_indices) and the synchronous sweeps of value iteration
 * (value_sweeps), both on a product's padded integer tables.
 *
 * The module docstring of omegarl.learn states the contract (layout,
 * generator state, float order).  Every floating-point operation below is
 * the one the Python reference performs, in the same order, so the results
 * are bit-identical to it when compiled without floating-point contraction
 * or reassociation.
 */

#include <math.h>
#include <stdint.h>

typedef unsigned __int128 u128;

/* numpy's PCG64: a 128-bit LCG advanced before each output, XSL-RR output. */
#define PCG_MULT (((u128)2549297995355413924ULL << 64) | 4865540595714422341ULL)

typedef struct {
    u128 state, inc;
    int has_half;   /* a buffered high half-word from the last 32-bit draw */
    uint32_t half;
} draws;

static inline uint64_t next_word(draws *d)
{
    d->state = d->state * PCG_MULT + d->inc;
    uint64_t x = (uint64_t)(d->state >> 64) ^ (uint64_t)d->state;
    unsigned rot = (unsigned)(d->state >> 122);
    return (x >> rot) | (x << ((-rot) & 63));
}

/* Generator.random() */
static inline double next_double(draws *d)
{
    return (double)(next_word(d) >> 11) * 0x1.0p-53;
}

/* The next 32-bit draw: a word's low half first, its high half kept. */
static inline uint32_t next_uint32(draws *d)
{
    if (d->has_half) {
        d->has_half = 0;
        return d->half;
    }
    uint64_t w = next_word(d);
    d->has_half = 1;
    d->half = (uint32_t)(w >> 32);
    return (uint32_t)w;
}

/* Generator.integers(n) for 1 <= n < 2**32: Lemire's method; n = 1 draws
 * nothing. */
static inline uint32_t next_below(draws *d, uint32_t n)
{
    if (n == 1)
        return 0;
    uint32_t threshold = (uint32_t)(-n) % n; /* 2**32 mod n */
    uint64_t m = (uint64_t)next_uint32(d) * n;
    while ((uint32_t)m < threshold)
        m = (uint64_t)next_uint32(d) * n;
    return (uint32_t)(m >> 32);
}

/* The caller's generator array: state and inc as high and low 64-bit
 * halves, then the has-half flag and the buffered half-word. */
static draws load_draws(const uint64_t *rng)
{
    draws d = {
        ((u128)rng[0] << 64) | rng[1], ((u128)rng[2] << 64) | rng[3],
        (int)rng[4], (uint32_t)rng[5],
    };
    return d;
}

static void store_draws(const draws *d, uint64_t *rng)
{
    rng[0] = (uint64_t)(d->state >> 64);
    rng[1] = (uint64_t)d->state;
    rng[4] = (uint64_t)d->has_half;
    rng[5] = d->half;
}

/* The draws ops[i] asks for: op 0 the next raw word, op n > 0 integers(n).
 * verify draws its random policies through it; the tests compare it with numpy. */
void draw(uint64_t *rng, const int64_t *ops, int64_t count, uint64_t *out)
{
    draws d = load_draws(rng);
    for (int64_t i = 0; i < count; i++)
        out[i] = ops[i] ? next_below(&d, (uint32_t)ops[i]) : next_word(&d);
    store_draws(&d, rng);
}

double run_episode(
    int64_t steps, int64_t initial,
    double gamma, double r_p, double eps_num, double neg_exp,
    int64_t width, const int64_t *first, const int64_t *succ,
    const double *cuts, const int64_t *masks, const uint8_t *empty,
    double *values, int64_t *pair_visits, int64_t *state_visits,
    int64_t *best, double *top, uint64_t *rng)
{
    draws d = load_draws(rng);
    int64_t s = initial, done = 0;
    double total = 0.0;
    for (int64_t step = 0; step < steps; step++) {
        int64_t k = ++state_visits[s];
        int64_t p;
        if (next_double(&d) < eps_num / (double)k) /* u < epsilon(k), as u < 1 */
            p = first[s] + next_below(&d, (uint32_t)(first[s + 1] - first[s]));
        else
            p = best[s];
        /* bisect_right: the cuts that are <= u; +inf pads the row */
        double u = next_double(&d);
        const double *cut = cuts + p * width;
        int64_t j = 0;
        while (cut[j] <= u)
            j++;
        int64_t dst = succ[p * width + j];
        double target = gamma * top[dst]; /* adding a zero reward changes no bit */
        int64_t m = masks[p * width + j];
        if (m && !(m & done)) {
            done |= m;
            if (empty[done])
                done = 0;
            target = r_p + target;
            total += r_p;
        }
        k = ++pair_visits[p];
        double v = values[p];
        double new = v + pow((double)k, neg_exp) * (target - v); /* alpha(k) */
        values[p] = new;
        /* keep best[s] and top[s] equal to a fresh first argmax and max */
        if (new > top[s]) {
            top[s] = new;
            best[s] = p;
        } else if (p == best[s]) {
            if (new < v) {
                int64_t arg = first[s];
                for (int64_t q = arg + 1; q < first[s + 1]; q++)
                    if (values[q] > values[arg])
                        arg = q;
                top[s] = values[arg];
                best[s] = arg;
            }
        } else if (new == top[s] && p < best[s]) {
            best[s] = p;
        }
        s = dst;
    }
    store_draws(&d, rng);
    return total;
}

/* Pair p's backup from the values v: each successor slot's probability
 * times its reward (r_p on a non-zero mask) plus gamma times its value,
 * added from the left; a padding slot adds +0.0. */
static inline double backup(
    int64_t p, int64_t width, const int64_t *succ, const double *probs,
    const int64_t *masks, double gamma, double r_p, const double *v)
{
    const int64_t *dst = succ + p * width, *m = masks + p * width;
    const double *prob = probs + p * width;
    double t = prob[0] * ((m[0] ? r_p : 0.0) + gamma * v[dst[0]]);
    for (int64_t j = 1; j < width; j++)
        t += prob[j] * ((m[j] ? r_p : 0.0) + gamma * v[dst[j]]);
    return t;
}

/* Up to `limit` synchronous Bellman-optimality sweeps of the state values
 * `v`: a sweep computes each state's maximal pair backup into `next` and
 * the loop stops after the first sweep that moves no state by more than
 * `threshold`.  Returns 0 when `limit` sweeps ran without meeting the
 * threshold (`v` holds the last sweep's values, ready for another call),
 * else 1, with the final values in `v` and each pair's backup from them in
 * `q`. */
int64_t value_sweeps(
    int64_t states, int64_t width, const int64_t *first, const int64_t *succ,
    const double *probs, const int64_t *masks, double gamma, double r_p,
    double threshold, int64_t limit, double *v, double *next, double *q)
{
    double *cur = v;
    int converged = 0;
    for (int64_t sweep = 0; sweep < limit && !converged; sweep++) {
        double delta = 0.0;
        for (int64_t s = 0; s < states; s++) {
            double top = backup(first[s], width, succ, probs, masks, gamma, r_p, cur);
            for (int64_t p = first[s] + 1; p < first[s + 1]; p++) {
                double t = backup(p, width, succ, probs, masks, gamma, r_p, cur);
                if (t > top)
                    top = t;
            }
            double d = fabs(top - cur[s]);
            if (d > delta)
                delta = d;
            next[s] = top;
        }
        double *swap = cur;
        cur = next;
        next = swap;
        converged = delta <= threshold;
    }
    if (cur != v)
        for (int64_t s = 0; s < states; s++)
            v[s] = cur[s];
    if (converged)
        for (int64_t p = 0; p < first[states]; p++)
            q[p] = backup(p, width, succ, probs, masks, gamma, r_p, v);
    return converged;
}
