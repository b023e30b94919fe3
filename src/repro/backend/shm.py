"""Zero-copy shared-memory job execution: arenas, caches, BLAS governance.

``BENCH_runner.json`` proved the PR-6 scheduler overlaps fine (2.7x on
sleep jobs) while the real 9-job suite ran at 0.60x under the process pool
— the loss is pure per-job overhead: every job re-pickles its payload,
cold-loads its dataset inside the worker, and N workers x unbounded BLAS
threads oversubscribe the box.  This module is the substrate that removes
those three taxes:

:class:`SharedArena`
    Places numpy arrays into :mod:`multiprocessing.shared_memory` segments
    and hands out picklable ``(segment, shape, dtype)``
    :class:`ShmArrayHandle` descriptors instead of pickled buffers.  The
    arena (the parent process) is the single owner of every segment:
    handles are refcounted (``put`` with a repeated ``key`` reuses the
    segment), workers attach *read-only* views, and :meth:`destroy` —
    wired into ``finally`` blocks, the context-manager protocol and an
    ``atexit`` backstop — guarantees unlink even when a worker crashed
    mid-attach (the BrokenProcessPool solo-retry path re-attaches against
    still-live segments because only the parent ever unlinks) or the
    parent took a ``KeyboardInterrupt``.

Graph-pair transport
    :func:`share_pair` decomposes a :class:`~repro.datasets.pair.GraphPair`
    into its CSR/attribute/ground-truth arrays inside an arena and returns
    a :class:`SharedPairHandle` carrying the same content hash the orbit
    cache uses; :func:`attach_pair` rebuilds the pair in a worker as
    zero-copy read-only views over the shared segments (trusted
    ``_from_validated_csr`` rebuild — no symmetrise/clean pass, no copy).

Per-worker dataset cache + BLAS thread governance
    :func:`shm_worker_init` is the process-pool ``initializer``: it caps
    BLAS/OpenMP threads to the fair share ``max(1, cpus // workers)``
    (threadpoolctl when importable, else every loaded OpenBLAS directly,
    plus the standard env knobs) and installs a per-worker dataset cache
    keyed by the pair content hash, so a suite touching D datasets attaches
    each one once per worker instead of loading it once per job.
    :func:`single_blas_thread` pins BLAS to one thread for the length of a
    block and reads the budget there was: HTC training runs under it, and
    uses a second thread of its own only where that budget is at least 2.
"""

from __future__ import annotations

import atexit
import contextlib
import ctypes
import os
import threading
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: The env knobs every mainstream BLAS/OpenMP build honours at load time.
#: Set in the parent before the pool forks/spawns *and* in each worker's
#: initializer, so both start methods see them as early as possible.
BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Segment name prefix; leak probes look for this in ``/dev/shm``.
SEGMENT_PREFIX = "repro-arena"


def blas_thread_cap(workers: int, cpus: Optional[int] = None) -> int:
    """The fair per-worker BLAS thread budget: ``max(1, cpus // workers)``.

    ``workers`` parallel jobs each spinning up a full-width BLAS threadpool
    oversubscribes the box ``workers``-fold; the fair share keeps the
    total thread count at the CPU count.
    """
    cpus = cpus if cpus is not None else (os.cpu_count() or 1)
    return max(1, int(cpus) // max(1, int(workers)))


#: OpenBLAS's thread-control symbols across builds: plain, the 64-bit
#: integer ABI, and the renamed copies numpy and scipy wheels bundle
#: (``scipy_openblas_set_num_threads64_``).
_OPENBLAS_SYMBOLS = tuple(
    f"{prefix}openblas_{{}}{suffix}"
    for prefix in ("", "scipy_")
    for suffix in ("", "64_", "_64")
)


def _openblas_functions(action: str) -> List[Callable]:
    """``openblas_<action>`` of every OpenBLAS this process has loaded.

    ``action`` is ``"set_num_threads"`` or ``"get_num_threads"``.  The
    loaded libraries are read from ``/proc/self/maps`` (Linux) and opened
    with ``RTLD_NOLOAD``, so nothing new is loaded; the list is empty where
    no OpenBLAS is found.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted(
                {line.split(None, 5)[-1].strip() for line in maps if "openblas" in line}
            )
    except OSError:
        return []
    functions = []
    for path in paths:
        if "openblas" not in os.path.basename(path):
            continue
        try:
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for symbol in _OPENBLAS_SYMBOLS:
            function = getattr(library, symbol.format(action), None)
            if function is not None:
                if action == "set_num_threads":
                    function.argtypes, function.restype = [ctypes.c_int], None
                else:
                    function.argtypes, function.restype = [], ctypes.c_int
                functions.append(function)
                break
    return functions


def apply_blas_thread_cap(cap: int) -> str:
    """Limit BLAS/OpenMP threadpools to ``cap`` threads; returns the method.

    Prefers :mod:`threadpoolctl`; without it, sets the thread count of every
    OpenBLAS already loaded (``"openblas"``).  Either caps a pool that read
    its env knobs before the cap existed, as in a worker forked from a
    parent that had imported numpy.  The env knobs are set too: they cover
    ``spawn`` workers and any library loaded later (``"env"`` when they are
    all that applied).
    """
    cap = max(1, int(cap))
    for name in BLAS_ENV_VARS:
        os.environ[name] = str(cap)
    try:
        import threadpoolctl
    except ImportError:
        setters = _openblas_functions("set_num_threads")
        for set_threads in setters:
            set_threads(cap)
        return "openblas" if setters else "env"
    try:
        threadpoolctl.threadpool_limits(limits=cap)
    except Exception:  # pragma: no cover - defensive: never fail a worker
        return "env"
    return "threadpoolctl"


@contextlib.contextmanager
def single_blas_thread() -> Iterator[int]:
    """Run the block with BLAS on one thread; yields the budget read on entry.

    The budget is the fewest threads any loaded BLAS had on entry (1 where
    none is found), so a process-pool worker capped by
    :func:`apply_blas_thread_cap` reads its cap.  One thread makes float64
    results independent of the thread count: OpenBLAS splits a long inner
    dimension across its threads, and each split rounds differently.  The
    pin is process-wide and is undone on exit, also when the block raises.
    Prefers :mod:`threadpoolctl`; without it, uses the getter and setter of
    every loaded OpenBLAS, and pins nothing where there is none.
    """
    try:
        import threadpoolctl
    except ImportError:
        threadpoolctl = None
    if threadpoolctl is not None:
        counts = [
            pool["num_threads"]
            for pool in threadpoolctl.threadpool_info()
            if pool.get("user_api") == "blas"
        ]
        with threadpoolctl.threadpool_limits(limits=1, user_api="blas"):
            yield min(counts, default=1)
        return
    counts = [get() for get in _openblas_functions("get_num_threads")]
    setters = _openblas_functions("set_num_threads")
    for set_threads in setters:
        set_threads(1)
    try:
        yield min(counts, default=1)
    finally:
        for set_threads, count in zip(setters, counts):
            set_threads(count)


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker registration.

    On POSIX, ``SharedMemory.__init__`` registers the segment with the
    *attaching* process's resource tracker too, which — under the ``spawn``
    start method, where each worker owns a tracker — unlinks it when that
    worker exits, yanking the memory out from under the parent (the sole
    owner) and every sibling.  CPython 3.13 grew ``track=False`` for
    exactly this; suppressing the registration call is the portable
    equivalent (shared_memory resolves ``resource_tracker.register`` as a
    module attribute at call time).
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


@dataclass(frozen=True)
class ShmArrayHandle:
    """Picklable descriptor of one array living in a shared segment."""

    segment: str
    shape: Tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class SharedPairHandle:
    """Picklable descriptor of one :class:`GraphPair` staged in an arena.

    ``content_key`` is the cross-process cache key: the SHA-256 pair of the
    two graphs' adjacency structures (the same
    :func:`repro.orbits.cache.graph_content_hash` digest the orbit cache
    uses) plus the pair name, so two stagings of the same dataset hit the
    same per-worker cache slot.
    """

    content_key: str
    name: str
    source: Dict[str, ShmArrayHandle]
    target: Dict[str, ShmArrayHandle]
    ground_truth: ShmArrayHandle
    source_shape: Tuple[int, int]
    target_shape: Tuple[int, int]

    def handles(self) -> Tuple[ShmArrayHandle, ...]:
        return (
            *self.source.values(),
            *self.target.values(),
            self.ground_truth,
        )


class SharedArena:
    """Refcounted owner of a set of shared-memory segments.

    The arena lives in the coordinating (parent) process.  ``put`` copies
    an array into a fresh segment once per ``key`` — repeated puts under
    the same key bump a refcount and reuse the segment.  Workers never
    own anything: they attach read-only views and close them; the arena
    alone unlinks, in :meth:`destroy`, which is idempotent and registered
    with ``atexit`` as a crash backstop.  Thread-safe: ``run_suite`` may
    stage datasets while a resumed suite streams results on another thread.
    """

    def __init__(self, prefix: str = SEGMENT_PREFIX) -> None:
        self.prefix = prefix
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._refcounts: Dict[str, int] = {}
        self._by_key: Dict[object, ShmArrayHandle] = {}
        self._lock = threading.Lock()
        self._destroyed = False
        self._counter = 0
        atexit.register(self.destroy)

    # ------------------------------------------------------------------
    # parent side: staging
    # ------------------------------------------------------------------
    def _new_segment_name(self) -> str:
        self._counter += 1
        return f"{self.prefix}-{os.getpid()}-{id(self):x}-{self._counter}"

    def put(self, array: np.ndarray, key: object = None) -> ShmArrayHandle:
        """Copy ``array`` into a shared segment; returns its handle.

        With ``key`` given, a repeated put of the same key returns the
        existing handle (refcount bumped) without touching the data — the
        dedup path that lets every job of a dataset share one staging.
        """
        array = np.ascontiguousarray(array)
        with self._lock:
            if self._destroyed:
                raise RuntimeError("SharedArena is destroyed; create a new one")
            if key is not None and key in self._by_key:
                handle = self._by_key[key]
                self._refcounts[handle.segment] += 1
                return handle
            segment = shared_memory.SharedMemory(
                create=True, size=max(1, array.nbytes), name=self._new_segment_name()
            )
            view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
            view[...] = array
            handle = ShmArrayHandle(
                segment=segment.name,
                shape=tuple(int(d) for d in array.shape),
                dtype=str(array.dtype),
            )
            self._segments[segment.name] = segment
            self._refcounts[segment.name] = 1
            if key is not None:
                self._by_key[key] = handle
            return handle

    def decref(self, handle: ShmArrayHandle) -> None:
        """Drop one reference; the segment is unlinked at refcount zero."""
        with self._lock:
            count = self._refcounts.get(handle.segment)
            if count is None:
                return
            if count > 1:
                self._refcounts[handle.segment] = count - 1
                return
            segment = self._segments.pop(handle.segment)
            del self._refcounts[handle.segment]
            self._by_key = {
                key: kept
                for key, kept in self._by_key.items()
                if kept.segment != handle.segment
            }
        self._release(segment)

    @staticmethod
    def _release(segment: shared_memory.SharedMemory) -> None:
        try:
            segment.close()
        finally:
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already reaped
                pass

    def segment_names(self) -> Tuple[str, ...]:
        """Names of the live segments (leak probes check these by name)."""
        with self._lock:
            return tuple(self._segments)

    @property
    def nbytes(self) -> int:
        """Total bytes staged across live segments."""
        with self._lock:
            return sum(segment.size for segment in self._segments.values())

    def destroy(self) -> None:
        """Close and unlink every segment.  Idempotent; safe after crashes."""
        with self._lock:
            segments = list(self._segments.values())
            self._segments.clear()
            self._refcounts.clear()
            self._by_key.clear()
            self._destroyed = True
        for segment in segments:
            self._release(segment)

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.destroy()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.destroy()
        except Exception:
            pass


# ----------------------------------------------------------------------
# worker side: attaching
# ----------------------------------------------------------------------

#: Segments this process attached (closed at exit; never unlinked here).
_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}
_ATTACH_LOCK = threading.Lock()


def _close_attachments() -> None:  # pragma: no cover - exit hook
    with _ATTACH_LOCK:
        segments = list(_ATTACHED.values())
        _ATTACHED.clear()
    for segment in segments:
        try:
            segment.close()
        except Exception:
            pass


atexit.register(_close_attachments)


def attach_array(handle: ShmArrayHandle) -> np.ndarray:
    """A read-only zero-copy view over the shared segment behind ``handle``.

    The attachment is cached per process and closed at interpreter exit;
    the view is marked non-writeable so a job that tries to mutate shared
    graph data fails loudly instead of corrupting its siblings.
    """
    with _ATTACH_LOCK:
        segment = _ATTACHED.get(handle.segment)
        if segment is None:
            segment = _attach_untracked(handle.segment)
            _ATTACHED[handle.segment] = segment
    view = np.ndarray(
        handle.shape, dtype=np.dtype(handle.dtype), buffer=segment.buf
    )
    view.flags.writeable = False
    return view


# ----------------------------------------------------------------------
# graph-pair transport
# ----------------------------------------------------------------------

def _share_graph(arena: SharedArena, graph, key: str) -> Dict[str, ShmArrayHandle]:
    adjacency = graph.adjacency
    if not adjacency.has_sorted_indices:
        adjacency = adjacency.copy()
        adjacency.sort_indices()
    return {
        "indptr": arena.put(adjacency.indptr, key=f"{key}/indptr"),
        "indices": arena.put(adjacency.indices, key=f"{key}/indices"),
        "data": arena.put(adjacency.data, key=f"{key}/data"),
        "attributes": arena.put(graph.attributes, key=f"{key}/attributes"),
    }


def share_pair(arena: SharedArena, pair) -> SharedPairHandle:
    """Stage a :class:`GraphPair`'s arrays in ``arena``; returns its handle.

    The handle's ``content_key`` reuses the orbit cache's structural
    digest (:func:`repro.orbits.cache.graph_content_hash`) for both sides,
    so per-worker caches key on *what the graphs are*, not on where the
    suite loaded them from.
    """
    from repro.orbits.cache import graph_content_hash

    content_key = (
        f"{graph_content_hash(pair.source)}:{graph_content_hash(pair.target)}"
    )
    return SharedPairHandle(
        content_key=content_key,
        name=str(pair.name),
        source=_share_graph(arena, pair.source, f"{content_key}/source"),
        target=_share_graph(arena, pair.target, f"{content_key}/target"),
        ground_truth=arena.put(
            pair.ground_truth, key=f"{content_key}/ground_truth"
        ),
        source_shape=(int(pair.source.n_nodes), int(pair.source.n_nodes)),
        target_shape=(int(pair.target.n_nodes), int(pair.target.n_nodes)),
    )


def _attach_graph(handles: Dict[str, ShmArrayHandle], shape, name: str):
    import scipy.sparse as sp

    from repro.graph.attributed_graph import AttributedGraph

    adjacency = sp.csr_matrix(
        (
            attach_array(handles["data"]),
            attach_array(handles["indices"]),
            attach_array(handles["indptr"]),
        ),
        shape=shape,
        copy=False,
    )
    # The parent staged a canonical CSR (sorted, deduplicated, no explicit
    # zeros); assert that so scipy never tries to re-sort the read-only
    # buffers in place.
    adjacency.has_sorted_indices = True
    adjacency.has_canonical_format = True
    return AttributedGraph._from_validated_csr(
        adjacency, attach_array(handles["attributes"]), name
    )


def attach_pair(handle: SharedPairHandle):
    """Rebuild the :class:`GraphPair` behind ``handle`` as zero-copy views."""
    from repro.datasets.pair import GraphPair

    return GraphPair(
        source=_attach_graph(handle.source, handle.source_shape, handle.name),
        target=_attach_graph(handle.target, handle.target_shape, handle.name),
        ground_truth=attach_array(handle.ground_truth),
        name=handle.name,
    )


# ----------------------------------------------------------------------
# per-worker state (installed by the pool initializer)
# ----------------------------------------------------------------------

@dataclass
class WorkerState:
    """The per-worker-process execution context."""

    blas_thread_cap: Optional[int] = None
    blas_cap_method: Optional[str] = None
    dataset_cache: Dict[str, object] = field(default_factory=dict)
    dataset_cache_hits: int = 0
    dataset_cache_misses: int = 0


_WORKER_STATE = WorkerState()


def worker_state() -> WorkerState:
    """This process's worker context (a fresh default outside pools)."""
    return _WORKER_STATE


def shm_worker_init(blas_cap: Optional[int] = None) -> None:
    """Process-pool ``initializer``: BLAS governance + a clean dataset cache.

    Runs once per worker process, before any job: caps the BLAS/OpenMP
    threadpools to the fair share computed by the parent and resets the
    per-worker dataset cache (a forked worker would otherwise inherit the
    parent's — harmless but misleading for the hit counters).
    """
    global _WORKER_STATE
    _WORKER_STATE = WorkerState()
    if blas_cap is not None:
        _WORKER_STATE.blas_thread_cap = int(blas_cap)
        _WORKER_STATE.blas_cap_method = apply_blas_thread_cap(int(blas_cap))


def cached_attach_pair(handle: SharedPairHandle):
    """Attach ``handle``'s pair through the per-worker dataset cache.

    Returns ``(pair, "hit" | "attach")``; the first job of a dataset in a
    given worker attaches (zero-copy, no load), every later one reuses the
    constructed pair outright.
    """
    state = _WORKER_STATE
    pair = state.dataset_cache.get(handle.content_key)
    if pair is not None:
        state.dataset_cache_hits += 1
        return pair, "hit"
    pair = attach_pair(handle)
    state.dataset_cache[handle.content_key] = pair
    state.dataset_cache_misses += 1
    return pair, "attach"


__all__ = [
    "BLAS_ENV_VARS",
    "SEGMENT_PREFIX",
    "ShmArrayHandle",
    "SharedPairHandle",
    "SharedArena",
    "WorkerState",
    "apply_blas_thread_cap",
    "attach_array",
    "attach_pair",
    "blas_thread_cap",
    "cached_attach_pair",
    "share_pair",
    "shm_worker_init",
    "single_blas_thread",
    "worker_state",
]
