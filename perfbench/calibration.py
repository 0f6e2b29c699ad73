"""A fixed computation that measures how fast the machine runs at the moment.

On a shared machine the speed of the same work drifts by tens of percent
over tens of seconds, as other tenants load it.  The benchmark times this
computation before every round and scales its time metrics by the fastest
calibration of the run (see README.md).  It uses no qgames code, so a
change to the program leaves it unchanged; it mixes what qgames spends its
time on: an einsum over a batch of 4-qubit gate stacks, small integer
gathers and interpreter work.
"""

from __future__ import annotations

import time

import numpy as np

#: The fastest calibration measured on the machine of the README's figures.
REFERENCE_S = 0.0055

_SUBSCRIPTS = "Bqai,Brbj,Bsck,Btdl,ijkl->Bqrstabcd"


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        shape = (49, 2, 2, 2)
        self.operands = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                         for _ in range(4)]
        self.operands.append(rng.standard_normal((2, 2, 2, 2)) + 0j)
        self.path = np.einsum_path(_SUBSCRIPTS, *self.operands, optimize="optimal")[0]
        self.mask = rng.integers(0, 2, 256).astype(float)
        self.answers = rng.integers(0, 16, (256, 16))
        self.f = rng.integers(0, 2, 16)
        self.g = rng.integers(0, 2, 16)
        self.fastest = float("inf")

    def run(self) -> float:
        start = time.perf_counter()
        for _ in range(20):
            amps = np.einsum(_SUBSCRIPTS, *self.operands, optimize=self.path)
            (np.abs(amps.reshape(49, -1)) ** 2) @ self.mask
            (self.g[self.answers] == self.f[None, :]).sum(axis=1).max()
            total = 0
            for i in range(300):
                total += i * i
        seconds = time.perf_counter() - start
        self.fastest = min(self.fastest, seconds)
        return seconds

    @property
    def speed(self) -> float:
        """How much faster than the reference machine this run found the machine."""
        return REFERENCE_S / self.fastest
