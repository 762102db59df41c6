"""The event-replay kernel: its C source and ``ctypes`` signature.

:func:`repro.psins.replay.replay_job` replays a job's event rows through
one C function, :data:`C_SOURCE`, built and loaded by
:func:`repro.util.native.load` on first use.  The kernel is the
scheduler of :class:`repro.psins.replay.ReplayEngine` — same FIFO run
queue, FIFO mailbox per channel and single open collective, so the first
error it meets is the one the engine raises — with every float input
precomputed per row in Python.  ``-ffp-contract=off`` keeps the compiler
from fusing a multiply and an add, so every sum rounds as it does in
the engine.  Without a compiler the engine replays instead.
"""

from __future__ import annotations

import ctypes

from repro.util.native import Kernel

#: what the kernel returns; on an error ``info`` says where
OK, SIZE_MISMATCH, COLLECTIVE_MISMATCH, DEADLOCK = range(4)

C_SOURCE = r"""
#include <stdint.h>

/* Replay of a job's event rows (repro.simmpi.events), one rank at a
 * time from a FIFO run queue, as repro.psins.replay.ReplayEngine does.
 *
 * ev holds 4 int64 per row: kind (0 compute, 1 send, 2 recv,
 * 3 collective), arg (block, peer or op), size (iterations or nbytes)
 * and tag; rank r owns rows offsets[r] .. offsets[r + 1] - 1.  dt[i] is
 * row i's precomputed seconds: a compute row's time, a recv row's
 * transfer time, a collective row's cost.  chan[i] is a send or recv
 * row's channel, one per (src, dest, tag); channel c's messages take
 * slots chan_start[c], chan_start[c] + 1, ... in send order.
 *
 * iwork (int64, zeroed): pc[n] queue[n] queued[n] arrived[n]
 *                        head[n_chan] tail[n_chan] waiting[n_chan]
 *                        msg_bytes[n_send]
 * fwork (double, zeroed): clock[n] compute[n] comm[n] msg_time[n_send]
 *
 * Returns 0 (done), 1 (size mismatch; info: rank, row, sent nbytes),
 * 2 (collective mismatch; info: rank, row, first row of the open
 * collective, its index) or 3 (deadlock; pc tells who is stuck).
 */
int64_t replay_events(int64_t n, const int64_t *offsets, const int64_t *ev,
                      const double *dt, const int64_t *chan, int64_t n_chan,
                      const int64_t *chan_start, double send_overhead,
                      int64_t *iwork, double *fwork, int64_t *info)
{
    int64_t *pc = iwork, *queue = pc + n, *queued = queue + n;
    int64_t *arrived = queued + n, *head = arrived + n;
    int64_t *tail = head + n_chan, *waiting = tail + n_chan;
    int64_t *msg_bytes = waiting + n_chan;
    double *clock = fwork, *compute = clock + n, *comm = compute + n;
    double *msg_time = comm + n;
    int64_t front = 0, n_queued = n, done = 0;
    int64_t n_arrived = 0, open_row = -1, n_colls = 0;

    for (int64_t r = 0; r < n; r++) {
        pc[r] = offsets[r];
        queue[r] = r;
        queued[r] = 1;
    }
#define WAKE(rank) do {                                         \
        int64_t w_ = (rank);                                    \
        if (!queued[w_]) {                                      \
            int64_t back_ = front + n_queued++;                 \
            queued[w_] = 1;                                     \
            queue[back_ < n ? back_ : back_ - n] = w_;          \
        }                                                       \
    } while (0)
    while (n_queued > 0) {
        int64_t r = queue[front];
        front = front + 1 < n ? front + 1 : 0;
        n_queued--;
        queued[r] = 0;
        for (;;) {
            if (pc[r] == offsets[r + 1]) {
                done++;
                break;
            }
            int64_t i = pc[r];
            const int64_t *e = ev + 4 * i;
            if (e[0] == 0) {
                clock[r] += dt[i];
                compute[r] += dt[i];
                pc[r]++;
            } else if (e[0] == 1) {
                int64_t c = chan[i], s = chan_start[c] + tail[c]++;
                clock[r] += send_overhead;
                comm[r] += send_overhead;
                msg_time[s] = clock[r];
                msg_bytes[s] = e[2];
                pc[r]++;
                if (waiting[c]) {
                    waiting[c] = 0;
                    WAKE(e[1]);
                }
            } else if (e[0] == 2) {
                int64_t c = chan[i];
                if (head[c] == tail[c]) {
                    waiting[c] = 1;
                    break;
                }
                int64_t s = chan_start[c] + head[c]++;
                if (msg_bytes[s] != e[2]) {
                    info[0] = r; info[1] = i; info[2] = msg_bytes[s];
                    return 1;
                }
                double start = clock[r], avail = msg_time[s];
                double finish = (avail > start ? avail : start) + dt[i];
                comm[r] += finish - start;
                clock[r] = finish;
                pc[r]++;
            } else {
                if (open_row >= 0 && (ev[4 * open_row + 1] != e[1]
                                      || ev[4 * open_row + 2] != e[2])) {
                    info[0] = r; info[1] = i; info[2] = open_row;
                    info[3] = n_colls;
                    return 2;
                }
                if (open_row < 0)
                    open_row = i;
                arrived[n_arrived++] = r;
                if (n_arrived < n)
                    break;
                /* the latest arrival, first one wins a tie (Python max) */
                double finish = clock[arrived[0]];
                for (int64_t k = 1; k < n; k++)
                    if (clock[arrived[k]] > finish)
                        finish = clock[arrived[k]];
                finish += dt[i];
                for (int64_t k = 0; k < n; k++) {
                    int64_t a = arrived[k];
                    comm[a] += finish - clock[a];
                    clock[a] = finish;
                    pc[a]++;
                    if (a != r)
                        WAKE(a);
                }
                n_arrived = 0;
                open_row = -1;
                n_colls++;
            }
        }
    }
    return done < n ? 3 : 0;
}
"""

KERNEL = Kernel(
    name="event replay",
    source=C_SOURCE,
    symbol="replay_events",
    argtypes=(ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
              ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
              ctypes.c_void_p, ctypes.c_double, ctypes.c_void_p,
              ctypes.c_void_p, ctypes.c_void_p),
    restype=ctypes.c_int64,
    flags=("-ffp-contract=off",),
    fallback="event replay runs the Python engine, about 20x slower",
)
