"""Spawn-to-exit timing of a child process."""

import subprocess
import threading
import time


def run_timed(argv, timeout: float, **popen_args):
    """Run argv to completion; return (exit code, seconds, stderr bytes).

    The wait blocks, so it returns as soon as the child exits.  Popen.wait
    with a timeout polls with sleeps of up to 50 ms, which would be added to
    the measured time; a watchdog thread enforces the timeout instead, and
    the caller sees a negative exit code (killed) when it fires.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, **popen_args)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, err = proc.communicate()
    finally:
        watchdog.cancel()
    return proc.returncode, time.perf_counter() - t0, err
