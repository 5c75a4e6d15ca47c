"""Run `python -m mmphf_lab.cli`, or any Python, as a fresh process bounded in time and memory.

The child's address space is capped (`RLIMIT_AS`, set in the child before
it starts Python), so a regression that builds an astronomical integer
fails as one test with a `MemoryError` instead of taking the machine's
memory, and a hang ends at the timeout.  Where the `resource` module is
missing the calling test is skipped.
"""

import subprocess
import sys

import pytest

try:
    import resource
except ImportError:  # not a POSIX system
    resource = None

ADDRESS_SPACE_BYTES = 2 << 30


def _limit_address_space():
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = ADDRESS_SPACE_BYTES
    if hard != resource.RLIM_INFINITY:
        soft = min(soft, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def run_python_fresh(*args, timeout=10):
    """The finished `python *args` process, with text stdout and stderr."""
    if resource is None:
        pytest.skip("no resource module to limit the child's address space")
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=_limit_address_space,
    )


def run_cli_fresh(*argv, timeout=10):
    """The finished `python -m mmphf_lab.cli *argv` process, with text stdout and stderr."""
    return run_python_fresh("-m", "mmphf_lab.cli", *argv, timeout=timeout)
