/* Compiled simulation kernel, loaded through ctypes by pplab.kernels.  It is the
 * reference loop pplab.kernels._fallback.iterate statement for statement, with the
 * closed forms of the fallback's simulate_packed inlined, and it is built with
 * -ffp-contract=off so the two backends are bit-identical.  Like iterate, it
 * compares the state (x[n-1], x[n]) at the end of each block of whole periods
 * with a state saved by Brent's power-of-two scheme; once they are equal the
 * rest of out repeats the values in between, which is exact because a step
 * depends only on the slot and that state (the closed forms are pure functions
 * of x, as iterate requires of its factors).  The caller checks that codes and
 * p1..p3 hold k >= 1 entries and out holds steps doubles.  Returns m. */
#include <stdint.h>

#define BLOCK_MIN_STEPS 64 /* as in _fallback.py */

int64_t simulate_packed(const int32_t *codes, const double *p1, const double *p2,
                        const double *p3, int64_t k, double x0, double xm1, int64_t steps,
                        double stop_below, double overflow_limit, double *out, int32_t *status)
{
    double prev = xm1, cur = x0, f, nxt;
    int64_t idx = k - 1, m = 0; /* idx: slot of the coefficient for index 0 */
    int64_t span = k * ((BLOCK_MIN_STEPS + k - 1) / k), left = span;
    double saved_prev = prev, saved_cur = cur;
    int64_t power = 1, lam = 0;
    *status = 0;
    while (m < steps) {
        if (codes[idx] == 0)
            f = p1[idx] / (1.0 + prev);
        else if (codes[idx] == 1)
            f = p1[idx] / (1.0 + (p1[idx] - 1.0) * prev / p2[idx]);
        else
            f = p1[idx] / (1.0 + p2[idx] * prev / (1.0 + p3[idx] * prev));
        nxt = cur * f;
        out[m++] = nxt;
        prev = cur;
        cur = nxt;
        if (++idx == k) idx = 0;
        if (nxt > overflow_limit) { *status = 1; break; }
        if (nxt <= 0.0) { *status = 2; break; }
        if (nxt < stop_below) break;
        if (--left == 0) {
            left = span;
            lam++;
            if (prev == saved_prev && cur == saved_cur) {
                for (; m < steps; m++) out[m] = out[m - lam * span];
                break;
            }
            if (lam == power) {
                saved_prev = prev;
                saved_cur = cur;
                power *= 2;
                lam = 0;
            }
        }
    }
    return m;
}
