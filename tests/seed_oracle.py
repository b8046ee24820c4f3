"""Reference seed derivation, kept as an oracle for ``types.subseeds``.

This is ``types.subseed`` as it ran before seeds were derived in one array
pass: one NumPy ``SeedSequence`` per key, whose first generated word is the
key's seed.
"""

from __future__ import annotations

import numpy as np


def subseed(seed: int, key: int) -> int:
    """The seed of ``key`` under ``seed``, independent of any other key's."""
    return int(np.random.SeedSequence([seed, key]).generate_state(1)[0])
