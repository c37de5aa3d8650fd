/* The compiled loops of omegarl.learn: a training session's episodes of
 * tabular Q-learning (run_session, which steps numpy's PCG64 generator; draw
 * exposes that generator to the tests) and the synchronous sweeps of value
 * iteration (value_sweeps).  Both read the product's rows, laid end to end,
 * from one struct problem; training also reads struct session, one
 * session's state.  A new kernel input is one more field of either.
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
 * Only the tests call it, to compare the generator with numpy's. */
void draw(uint64_t *rng, const int64_t *ops, int64_t count, uint64_t *out)
{
    draws d = load_draws(rng);
    for (int64_t i = 0; i < count; i++)
        out[i] = ops[i] ? next_below(&d, (uint32_t)ops[i]) : next_word(&d);
    store_draws(&d, rng);
}

struct problem {
    const int64_t *first;         /* state s's pairs are first[s]..first[s+1]-1 */
    const int64_t *slots;         /* pair p's slots are slots[p]..slots[p+1]-1 */
    const int64_t *succ;          /* per slot: successor, probability, mask */
    const double *probs;
    const int64_t *masks;
    const uint8_t *empty;         /* empty[done]: no accepting set is left */
    const uint8_t *dead;          /* dead[s]: no reward is reachable from s */
    int64_t states, steps;
    double gamma, r_p, eps_num, neg_exp; /* neg_exp: minus the alpha exponent */
};

struct session {
    double *values;
    int64_t *pair_visits, *state_visits, *best; /* state_visits: this episode's */
    double *top;
    uint64_t *rng;
    double *curve;                /* the session's row, one cell per episode */
    const int64_t *watch, *held;  /* held[i] was best[watch[i]] when last read */
    int64_t n_watch;
};

/* One episode's step loop from product state 0, the initial one; returns the
 * reward it collected.  The episode ends after `steps` steps or on entering a
 * dead state, where every further update would write 0 over 0 and move
 * neither best nor top; a dead initial state runs no step.  The structs are
 * copied so that no store through the tables can alias a field. */
static double run_episode(const struct problem *problem, const struct session *session,
                          draws *d)
{
    const struct problem pb = *problem;
    const struct session se = *session;
    int64_t s = 0, done = 0;
    double total = 0.0;
    for (int64_t step = 0; step < pb.steps && !pb.dead[s]; step++) {
        int64_t k = ++se.state_visits[s];
        int64_t p;
        if (next_double(d) < pb.eps_num / (double)k) /* u < min(1, eps_num / k), as u < 1 */
            p = pb.first[s] + next_below(d, (uint32_t)(pb.first[s + 1] - pb.first[s]));
        else
            p = se.best[s];
        /* bisect_right over the running sums of the row's probabilities but
         * its last: the first slot whose running sum exceeds u, else the last */
        double u = next_double(d);
        int64_t j = pb.slots[p], last = pb.slots[p + 1] - 1;
        double sum = pb.probs[j];
        while (j < last && sum <= u)
            sum += pb.probs[++j];
        int64_t dst = pb.succ[j];
        double target = pb.gamma * se.top[dst]; /* adding a zero reward changes no bit */
        int64_t m = pb.masks[j];
        if (m && !(m & done)) {
            done |= m;
            if (pb.empty[done])
                done = 0;
            target = pb.r_p + target;
            total += pb.r_p;
        }
        k = ++se.pair_visits[p];
        double v = se.values[p];
        double new = v + pow((double)k, pb.neg_exp) * (target - v); /* k^-alpha_exponent */
        se.values[p] = new;
        /* keep best[s] and top[s] equal to a fresh first argmax and max */
        if (new > se.top[s]) {
            se.top[s] = new;
            se.best[s] = p;
        } else if (p == se.best[s]) {
            if (new < v) {
                int64_t arg = pb.first[s];
                for (int64_t q = arg + 1; q < pb.first[s + 1]; q++)
                    if (se.values[q] > se.values[arg])
                        arg = q;
                se.top[s] = se.values[arg];
                se.best[s] = arg;
            }
        } else if (new == se.top[s] && p < se.best[s]) {
            se.best[s] = p;
        }
        s = dst;
    }
    return total;
}

/* Episodes episode..limit-1 of a session, each from no state visits and with
 * its reward per configured step into its curve cell; returns the next
 * episode's index, early after the first that leaves best[watch[i]] != held[i]. */
int64_t run_session(const struct problem *problem, struct session *session,
                    int64_t episode, int64_t limit)
{
    draws d = load_draws(session->rng);
    int changed = 0;
    while (episode < limit && !changed) {
        for (int64_t s = 0; s < problem->states; s++)
            session->state_visits[s] = 0;
        double total = run_episode(problem, session, &d);
        session->curve[episode++] = total / (double)problem->steps;
        for (int64_t i = 0; i < session->n_watch && !changed; i++)
            changed = session->best[session->watch[i]] != session->held[i];
    }
    store_draws(&d, session->rng);
    return episode;
}

/* Pair p's backup from the values v: each of its slots' probability times
 * its reward (r_p on a non-zero mask) plus gamma times its value, added from
 * the left. */
static inline double backup(const struct problem *pb, int64_t p, const double *v)
{
    int64_t j = pb->slots[p];
    double t = pb->probs[j] * ((pb->masks[j] ? pb->r_p : 0.0) + pb->gamma * v[pb->succ[j]]);
    for (j++; j < pb->slots[p + 1]; j++)
        t += pb->probs[j] * ((pb->masks[j] ? pb->r_p : 0.0) + pb->gamma * v[pb->succ[j]]);
    return t;
}

/* Up to `limit` synchronous Bellman-optimality sweeps of the state values
 * `v`: a sweep computes each state's maximal pair backup into `next` and
 * the loop stops after the first sweep that moves no state by more than
 * `threshold`.  Sweeps skip the dead states, whose entries in `v` and
 * `next` must be +0.0: a dead state's pairs carry mask 0 and lead only to
 * dead states, so its value and every backup of its pairs stay +0.0 and
 * add nothing to a sweep's change.  Returns 0 when `limit` sweeps ran
 * without meeting the threshold (`v` holds the last sweep's values, ready
 * for another call), else 1, with the final values in `v` and each pair's
 * backup from them in `q`.  The struct is copied, as in run_episode. */
int64_t value_sweeps(const struct problem *problem, double threshold, int64_t limit,
                     double *v, double *next, double *q)
{
    const struct problem pb = *problem;
    double *cur = v;
    int converged = 0;
    for (int64_t sweep = 0; sweep < limit && !converged; sweep++) {
        double delta = 0.0;
        for (int64_t s = 0; s < pb.states; s++) {
            if (pb.dead[s])
                continue;
            double top = backup(&pb, pb.first[s], cur);
            for (int64_t p = pb.first[s] + 1; p < pb.first[s + 1]; p++) {
                double t = backup(&pb, p, cur);
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
        for (int64_t s = 0; s < pb.states; s++)
            v[s] = cur[s];
    if (converged)
        for (int64_t p = 0; p < pb.first[pb.states]; p++)
            q[p] = backup(&pb, p, v);
    return converged;
}
