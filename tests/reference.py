"""Reference-only pieces the tests simulate against, kept out of the package.

The five-level hiding pulses: the package reads hidden spectators as ions
outside the detection support, and the tests check that reading against
the pulses themselves.
"""

from functools import lru_cache

import numpy as np

from qloss.qudit import Level, check_unitary


@lru_cache(maxsize=None)
def transfer_pulses() -> tuple[np.ndarray, np.ndarray]:
    """The two addressed hide pulses: |0> <-> |H0> and |1> <-> |H1> swaps
    (read-only, checked unitary once)."""
    pulses = []
    for a, b in ((Level.L0, Level.H0), (Level.L1, Level.H1)):
        m = np.eye(5, dtype=complex)
        m[[a, b]] = m[[b, a]]
        m.setflags(write=False)
        pulses.append(check_unitary(m, 5))
    return pulses[0], pulses[1]
