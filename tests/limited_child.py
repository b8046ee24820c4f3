"""Run Python in a child process under lowered resource limits.

A test that asks for gigabytes runs it here, so the allocation fails at
the limit instead of taking the host's memory. Only the child's own
``RLIMIT_AS`` is lowered, between fork and exec. At 512 MiB, an array of
more than about 400 MiB fails before any of it is written. A test of a
failing write lowers the child's ``RLIMIT_FSIZE`` too, with ``SIGXFSZ``
ignored, so a write past the limit fails with ``EFBIG`` instead of
killing the child.
"""

import os
import resource
import signal
import subprocess
import sys

ADDRESS_SPACE = 1 << 29  # bytes; Python with NumPy peaks at about 100 MiB


def run_limited(*argv, file_size: int | None = None, stdout=subprocess.PIPE):
    """``python *argv`` under the address-space limit and, given
    ``file_size``, a file-size limit of that many bytes, with one BLAS
    thread (each thread reserves address space of its own). The child's
    stdout goes to ``stdout`` (an open file, say), by default captured."""
    def lower_limits():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
        if file_size is not None:
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (file_size, file_size))

    return subprocess.run([sys.executable, *argv], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
                          preexec_fn=lower_limits)
