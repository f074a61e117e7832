"""Measurement helpers: seeds, order statistics, set-up probes, peak memory.

Nothing here imports the program under test, so the helpers work before the
source tree is on ``sys.path`` and in the self-tests.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import subprocess
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: How many times each run repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 5


def derive_seed(seed: int, *labels: object) -> int:
    """A 31-bit seed derived from the workload seed and a label path.

    The benchmark derives every request seed itself, so the program only
    ever receives the generated inputs.
    """
    text = ":".join([str(seed), *(str(label) for label in labels)])
    digest = hashlib.sha256(text.encode("utf8")).digest()
    return int.from_bytes(digest[:8], "big") % (2**31)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, count)``.  With ``n`` samples sorted
    ascending, the sample at rank ``n - 10`` has exactly ten beyond it, at
    percentile ``100 * (n - 10) / n``.  With ten samples or fewer no sample
    has ten beyond it; the largest is reported instead (percentile 100).
    """
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        return 0.0, 0.0, 0
    if count <= 10:
        return float(ordered[-1]), 100.0, count
    return float(ordered[count - 11]), 100.0 * (count - 10) / count, count


def subprocess_env(src: Path) -> Dict[str, str]:
    """The environment for program subprocesses: ``src`` on the path."""
    env = dict(os.environ)
    previous = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + previous if previous else "")
    return env


def start_until_ready(
    command: Sequence[str], ready_prefix: str, env: Dict[str, str], cwd: Path
) -> Tuple[subprocess.Popen, float, str]:
    """Start ``command`` and block until its first stdout line arrives.

    Returns the process, the seconds from launch to that line, and the line.
    Raises ``RuntimeError`` (after stopping the process) when the line does
    not start with ``ready_prefix``.
    """
    started = time.perf_counter()
    process = subprocess.Popen(
        list(command),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        stdin=subprocess.DEVNULL,
        text=True,
        env=env,
        cwd=str(cwd),
    )
    line = process.stdout.readline().strip()
    elapsed = time.perf_counter() - started
    if not line.startswith(ready_prefix):
        stop(process)
        raise RuntimeError(f"unexpected first line from {command[:4]}: {line!r}")
    return process, elapsed, line


def stop(process: subprocess.Popen, timeout: float = 20.0) -> None:
    """Terminate a child and wait for it; kill it if it will not stop."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()


def probe_setup(code: str, env: Dict[str, str], cwd: Path, python: str) -> List[float]:
    """Time ``SETUP_REPEATS`` fresh interpreters running ``code`` until it
    prints ``ready`` (the import plus construction a caller pays)."""
    seconds = []
    for _ in range(SETUP_REPEATS):
        process, elapsed, _ = start_until_ready([python, "-c", code], "ready", env, cwd)
        process.wait(timeout=60)
        stop(process)
        seconds.append(elapsed)
    return seconds


def high_water_mb(pid: int) -> float:
    """A live process's peak resident set (``VmHWM``) in MiB, 0 if gone."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def own_peak_mb() -> float:
    """This process's peak resident set in MiB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _child_pids() -> List[int]:
    pids: List[int] = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids.extend(int(pid) for pid in (task / "children").read_text().split())
        except OSError:
            continue
    return pids


class ChildPeaks:
    """Sample the peak resident set of this process's children.

    A daemon thread reads each child's ``VmHWM`` every ``interval`` seconds
    and keeps the largest value per pid; :meth:`take` returns the sum of the
    ``count`` largest peaks seen since the previous call.  Used where the
    program spawns its own workers (the process pool), whose pids the
    benchmark cannot know in advance.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self._peaks: Dict[int, float] = {}
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "ChildPeaks":
        self._thread = threading.Thread(target=self._loop, name="child-peaks", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._done.set()
        if self._thread is not None:
            self._thread.join()

    def _loop(self) -> None:
        while not self._done.wait(self.interval):
            self.sample()

    def sample(self) -> None:
        for pid in _child_pids():
            peak = high_water_mb(pid)
            with self._lock:
                if peak > self._peaks.get(pid, 0.0):
                    self._peaks[pid] = peak

    def take(self, count: int) -> float:
        with self._lock:
            peaks = sorted(self._peaks.values(), reverse=True)
            self._peaks.clear()
        return sum(peaks[:count])
