"""Deterministic RNG stream derivation and the one parallel executor.

Every random routine in the package draws from a generator keyed on
(seed, *tags).  Tags are small integers or stable content hashes, so a
replicate's stream depends only on its identity, never on execution
order or worker count.  _map runs study replicates and Wiener paths
alike on forked processes and returns what a serial loop would.
"""

import hashlib
import os
import pickle

import numpy as np

__all__ = ["derive_rng", "stable_key"]

_MASK64 = (1 << 64) - 1


def derive_rng(seed: int, *tags: int) -> np.random.Generator:
    """Return a generator for the stream identified by (seed, *tags).

    Args:
        seed: user-facing base seed (any Python int; reduced mod 2**64).
        tags: non-negative integers naming the substream, e.g. a
            purpose code, a cell key, a replicate index.
    """
    entropy = [int(seed) & _MASK64] + [int(t) & _MASK64 for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def stable_key(*parts) -> int:
    """Hash a tuple of parameters to a stable 63-bit stream tag.

    Uses the repr of each part (floats repr round-trip exactly), so the
    key depends on parameter values only.  Unlike builtin hash() it is
    stable across processes and runs.
    """
    text = "|".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _worker_count() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _run_slice(fn, tasks) -> tuple[list, Exception | None]:
    """fn over tasks in order, up to the first task that raises.

    Returns the results before the failure and the exception (None if
    every task ran), so the caller can re-raise the failure of the
    lowest task index whichever process ran it.
    """
    results = []
    for task in tasks:
        try:
            results.append(fn(task))
        except Exception as exc:
            return results, exc
    return results, None


def _fork_slice(fn, tasks):
    """Fork a child that pickles _run_slice(fn, tasks) into a pipe; return (pid, read end).

    The child leaves through os._exit: it never unwinds the caller's
    stack, runs atexit handlers or flushes inherited stdio buffers.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            done, exc = _run_slice(fn, tasks)
            try:
                payload = pickle.dumps((done, exc))
                pickle.loads(payload)   # an exception can pickle and still fail to load
            except Exception:
                payload = pickle.dumps((done, RuntimeError(repr(exc))))
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _join_slice(pid, pipe) -> tuple[int, tuple | None]:
    """Read a child's pipe to EOF and reap it: (exit code, (done, exc) or None if it failed)."""
    with pipe:
        payload = pipe.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return code, pickle.loads(payload) if payload and code == 0 else None


def _map(fn, tasks, workers: int) -> list:
    """[fn(t) for t in tasks] on up to `workers` processes, raising what
    that loop would raise.

    The count is capped at the task count, the cores this process may
    use, and 1 without os.fork.  Task t runs in slice t % workers; the
    caller runs slice 0, forked children run the others (all reaped,
    even if slice 0 raises), and the failure of the lowest task index
    is the one raised, whichever process ran it.
    """
    workers = max(1, min(workers, len(tasks), _worker_count() if hasattr(os, "fork") else 1))
    children = []
    try:
        for w in range(1, workers):
            children.append(_fork_slice(fn, tasks[w::workers]))
        slices = [_run_slice(fn, tasks[::workers])]
    finally:
        joined = [_join_slice(*child) for child in children]
    for w, (code, result) in enumerate(joined, start=1):
        if result is None:
            raise RuntimeError(f"worker {w} exited with code {code} and no result")
        slices.append(result)
    failures = [(w + workers * len(done), exc)
                for w, (done, exc) in enumerate(slices) if exc is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * len(tasks)
    for w, (done, _) in enumerate(slices):
        results[w::workers] = done
    return results
