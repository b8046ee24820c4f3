"""Run Python in a child process under a lowered address-space limit.

A test that asks for gigabytes runs it here, so the allocation fails at
the limit instead of taking the host's memory. Only the child's own
``RLIMIT_AS`` is lowered, between fork and exec. At 512 MiB, an array of
more than about 400 MiB fails before any of it is written.
"""

import os
import resource
import subprocess
import sys

ADDRESS_SPACE = 1 << 29  # bytes; Python with NumPy peaks at about 100 MiB


def _lower_limit():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_limited(*argv):
    """``python *argv`` under the limit, with one BLAS thread (each thread
    reserves address space of its own)."""
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
                          preexec_fn=_lower_limit)
