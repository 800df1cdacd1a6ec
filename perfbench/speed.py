"""How fast the machine runs right now, measured with a fixed calibration kernel.

On a shared virtual machine the speed of the CPU drifts by up to a factor of
two over seconds to minutes, for the whole machine at once, so a time taken
now and one taken a minute later say little about the program. A round
therefore times the kernel just before and just after each section it
measures and reports that section's time scaled to the reference speed:

    seconds at reference speed = seconds measured * REFERENCE_S / kernel seconds

The kernel is benchmark code only, a fixed mix of interpreter work, small
numpy operations and matrix-vector products on a small matrix and on one of
5 MB, like the program's own mix; the large one is what lets it follow the
allocation solver, whose arrays do not fit in the CPU's caches either.
A change to the program moves the scaled time; a change in machine speed
moves the kernel's time and the section's time alike, and cancels out.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the machine that the README's reference figures come
# from, so that scaled times read as seconds on that machine at its usual speed.
REFERENCE_S = 0.020
REPEATS = 3
# Part of every round's peak memory, the same on every commit.
LARGE = np.random.default_rng(1).random((800, 800))


def kernel() -> float:
    rng = np.random.default_rng(0)
    matrix = rng.random((256, 256))
    vector = rng.random(256)
    total = 0.0
    for i in range(1500):
        total += float((matrix[i % 256] * 1.0001).sum())
        total += float(rng.random(4).sum())
        total += len({j: 2 * j for j in range(20)})
        if i % 50 == 0:
            vector = matrix @ vector
            vector /= vector.sum()
            total += float(np.sort(matrix[:, i % 256])[0])
    large_vector = np.full(800, 1.0 / 800)
    for _ in range(12):
        large_vector = LARGE @ large_vector
        large_vector /= large_vector.sum()
    return total + float(large_vector[0])


def kernel_seconds() -> float:
    """Median wall time of REPEATS runs of the kernel."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(seconds: float, *kernel_times: float) -> float:
    """`seconds` at reference speed, given the kernel times taken around it."""
    return seconds * REFERENCE_S / statistics.fmean(kernel_times)
