#!/usr/bin/env python3
"""Compare HARQ and RLC-ARQ uplink goodput across the GEO/LEO RTT range.

Prints both the closed-form rates and the transfer models, which log
each block on the integer-µs append-only event trace, so the two can be
eyeballed side by side.
"""

import numpy as np

from ntnsim.engine import harq_transfer, rlc_transfer
from ntnsim.events import Simulator, us_to_ms
from ntnsim.protocol import HarqConfig, harq_throughput, rlc_arq_throughput

TBS_BITS = 1000.0
TTI_MS = 4.0
WINDOW = 16
N_BLOCKS = 64


def simulated(kind, rtt_ms):
    sim = Simulator()
    if kind == "harq":
        end = harq_transfer(sim, 0, N_BLOCKS, 2, TTI_MS, rtt_ms)
    else:
        end = rlc_transfer(sim, 0, N_BLOCKS, WINDOW, TTI_MS, rtt_ms)
    return N_BLOCKS * TBS_BITS / (us_to_ms(end) / 1000.0)


def main():
    print(f"{'RTT ms':>8} {'HARQ bps':>12} {'HARQ sim':>12} {'RLC bps':>12} {'RLC sim':>12}")
    for rtt in (8.0, 25.8, 100.0, 250.0, 477.0, 541.0):
        harq = harq_throughput(rtt, TBS_BITS, HarqConfig(n_processes=2), proc_delay_ms=TTI_MS)
        rlc = rlc_arq_throughput(rtt, WINDOW, TBS_BITS, TTI_MS)
        print(
            f"{rtt:8.1f} {harq:12.0f} {simulated('harq', rtt):12.0f} "
            f"{rlc:12.0f} {simulated('rlc', rtt):12.0f}"
        )


if __name__ == "__main__":
    main()
