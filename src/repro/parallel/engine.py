"""Multiprocess sensor-sharded training engine.

One :class:`WorkerPool` owns the long-lived worker processes of K sensor
shards.  Every training step the parent

1. copies the current parameters and then the raw batch into one shared
   arena and sends every worker only their shapes; each worker copies the
   parameters into its own model, then augments and slices its own sensor
   range,
2. computes shard 0 itself, on a private view of its own model that shares
   the parameters (:func:`_shard_view`), with the same code a worker runs
   (:class:`_Shard`), reported as worker 0,
3. collects ``(loss, weight, grads, seconds)`` from every other shard and
4. lets the caller tree-reduce the shard gradients into the model's
   parameters (:func:`repro.optim.all_reduce_gradients`) so a single
   optimizer step applies exactly the gradient serial training would have
   produced.

A pool of K shards therefore starts K−1 worker processes.  The worker
never sees the optimizer: it is a pure ``weights, shard -> loss,
gradients`` function, which keeps every piece of mutable training state
(Adam moments, early stopping, RNG streams, checkpoints, recovery
rollback) in the parent where the existing resilience machinery already
manages it.

Model transport: the model object crosses the process boundary once, at
pool start-up, via pickle (module classes are importable from both fork and
spawn children); its weights are refreshed every step through the arena.
A sharded model holds no module random generators
(:class:`repro.exec.ShardedExecutor` refuses one), so no shard draws noise.

Failure translation: a ``FloatingPointError`` raised inside a worker (NaN
loss, :func:`repro.tensor.detect_anomaly` hit) is re-raised in the parent
as a ``FloatingPointError`` carrying the worker's message, so
:class:`repro.resilience.RecoveryPolicy` rollback/retry works unchanged at
any worker count.  Any other worker failure — including a dead process —
surfaces as :class:`WorkerError`.  The parent's own shard fails the same
way, after every child's reply has been read.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ParallelConfig",
    "ShardResult",
    "WorkerError",
    "WorkerPool",
    "default_start_method",
    "sensor_shard_ranges",
    "shard_sensors",
    "unshard_sensors",
]


class WorkerError(RuntimeError):
    """A pool worker failed for a non-numerical reason (or died)."""


def default_start_method() -> str:
    """``fork`` where the platform offers it (cheap, zero-copy inherited
    dataset arrays), ``spawn`` otherwise (macOS/Windows default)."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


@dataclass(frozen=True)
class ParallelConfig:
    """Knobs of the worker pool.

    The shard count is the length of the pool's ``sensor_ranges``.
    ``step_timeout`` bounds how long the parent waits for any single
    worker reply before declaring the pool wedged; generous by default
    because CI machines stall unpredictably under load.
    """

    start_method: Optional[str] = None  # None -> default_start_method()
    detect_anomaly: bool = False
    step_timeout: float = 300.0


@dataclass
class ShardResult:
    """What one worker reports back for one training step."""

    worker_id: int
    loss: float
    weight: float  # loss-mean element count c_i (see repro.optim.allreduce)
    grads: List[Optional[np.ndarray]] = field(repr=False, default_factory=list)
    seconds: float = 0.0  # worker-side wall time: augment, forward, backward
    augment: float = 0.0  # the part of ``seconds`` spent in ``model.augment``


def sensor_shard_ranges(num_sensors: int, n_shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` sensor ranges for up to ``n_shards``.

    Mirrors ``np.array_split`` layout: the first ``N % K`` shards get one
    extra sensor.  Never returns an empty range — asking for more shards
    than sensors yields ``num_sensors`` single-sensor shards.
    """
    if num_sensors < 1:
        raise ValueError("cannot shard zero sensors")
    pieces = min(n_shards, num_sensors)
    if pieces < 1:
        raise ValueError("need at least one shard")
    # array_split's exact arithmetic: first N % K shards take the remainder
    base, extra = divmod(num_sensors, pieces)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for i in range(pieces):
        stop = start + base + (1 if i < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def shard_sensors(
    x: np.ndarray, y: np.ndarray, n_shards: int
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Split a batch along the sensor axis (axis 1) into contiguous shards.

    Shards follow :func:`sensor_shard_ranges`, so ``np.concatenate(pieces, axis=1)``
    reassembles the batch exactly.  NaN-masked targets ride along
    untouched; each shard's finite-target count is its all-reduce weight.
    """
    if x.ndim < 2 or y.ndim < 2:
        raise ValueError("sensor sharding needs (B, N, ...) arrays")
    if x.shape[1] != y.shape[1]:
        raise ValueError(
            f"x and y disagree on sensor count: {x.shape[1]} vs {y.shape[1]}"
        )
    ranges = sensor_shard_ranges(x.shape[1], n_shards)
    return [(x[:, start:stop], y[:, start:stop]) for start, stop in ranges]


def unshard_sensors(pieces: Sequence[np.ndarray]) -> np.ndarray:
    """Reassemble sensor shards: the inverse of :func:`shard_sensors`."""
    if not pieces:
        raise ValueError("nothing to unshard")
    return np.concatenate(list(pieces), axis=1)


# --------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------- #
#: activation rows (batch x sensors) one worker block aims for: small enough
#: that a block's activations stay cache-resident, large enough that GEMMs
#: keep their efficiency (64 sensors at batch 16)
BLOCK_ROWS = 1024


def sensor_blocks(
    sensor_shard: Tuple[int, int], batch: int
) -> List[Tuple[slice, Tuple[int, int]]]:
    """The blocks one worker steps its shard in, in sensor order.

    Each block is ``(columns, sensor_range)``: the block's slice of the
    worker's ``(B, stop - start, ...)`` arrays and the global
    ``[start, stop)`` range to pass to ``set_sensor_shard``.  A shard splits
    into contiguous ranges of ``BLOCK_ROWS // batch`` sensors (the last one
    ragged).
    """
    start, stop = sensor_shard
    width = max(1, BLOCK_ROWS // max(1, batch))
    return [
        (slice(lo - start, min(lo + width, stop) - start), (lo, min(lo + width, stop)))
        for lo in range(start, stop, width)
    ]


#: OpenBLAS's ``(setter, getter)`` thread-count symbols, by build flavour
_OPENBLAS_SYMBOLS = (
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
)


def _openblas_controls() -> List[Tuple[object, object]]:
    """``(set_num_threads, get_num_threads)`` of every OpenBLAS loaded here.

    Found through ``/proc/self/maps`` because environment variables no
    longer help once BLAS is loaded.  Best effort: a platform without
    ``/proc/self/maps`` or another BLAS vendor yields no controls.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return []
    controls = []
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for set_symbol, get_symbol in _OPENBLAS_SYMBOLS:
            setter = getattr(library, set_symbol, None)
            getter = getattr(library, get_symbol, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return controls


def _limit_blas_threads(n_threads: int) -> None:
    """Cap every OpenBLAS loaded into this process at ``n_threads``.

    A forked worker inherits BLAS sized for the whole machine, so K workers
    each running that many threads oversubscribe the cores, and the small
    per-block GEMMs then spend their time handing work between threads.
    """
    for setter, _ in _openblas_controls():
        setter(int(n_threads))


class _CallerBlasCap:
    """Caps this process's OpenBLAS while a pool computes its own shard here.

    The thread count is process-wide, so shards computed at the same time
    on several threads (two pools behind two serving tenants) share one
    cap: the first to enter saves each library's count and sets the cap,
    the last to leave restores the saved counts.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._saved: List[int] = []
        self._controls: Optional[List[Tuple[object, object]]] = None

    @contextmanager
    def __call__(self, n_threads: int) -> Iterator[None]:
        with self._lock:
            if self._holders == 0:
                if self._controls is None:
                    self._controls = _openblas_controls()
                self._saved = [getter() for _, getter in self._controls]
                for setter, _ in self._controls:
                    setter(int(n_threads))
            self._holders += 1
        try:
            yield
        finally:
            with self._lock:
                self._holders -= 1
                if self._holders == 0:
                    for (setter, _), count in zip(self._controls, self._saved):
                        setter(count)


_caller_blas = _CallerBlasCap()


def _trim_heap() -> bool:
    """Hand the freed part of this process's C heap back to the kernel.

    A forked worker maps every resident page of its parent, so heap the
    parent has freed but glibc still holds (set-up transients such as a
    dense adjacency) would be counted again in each worker.  Calls glibc's
    ``malloc_trim(0)`` and returns whether it could; best effort, like
    :func:`_limit_blas_threads`: another C library leaves the heap as is.
    """
    import ctypes

    try:
        trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    except OSError:
        return False
    if trim is None:
        return False
    trim(0)
    return True


def available_cores() -> int:
    """CPU cores this process may run on (its affinity mask, where known)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _anonymous_file(nbytes: int) -> int:
    """A descriptor for ``nbytes`` of nameless, shareable memory.

    ``os.memfd_create`` where the platform has it, an unlinked temporary
    file elsewhere.  Neither has a name to clean up, and neither starts a
    resource-tracker process the way ``multiprocessing.shared_memory`` does.
    """
    if hasattr(os, "memfd_create"):
        fd = os.memfd_create("repro-arena", os.MFD_CLOEXEC)
    else:  # pragma: no cover - non-Linux
        import tempfile

        with tempfile.TemporaryFile() as handle:
            fd = os.dup(handle.fileno())
    try:
        os.ftruncate(fd, nbytes)
    except OSError:
        os.close(fd)
        raise
    return fd


def _arena_views(arena: np.ndarray, shapes: Sequence[Tuple[int, ...]]) -> List[np.ndarray]:
    """Consecutive arrays of ``shapes`` laid out from the arena's start."""
    views, offset = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(arena[offset : offset + size].reshape(shape))
        offset += size
    return views


def _shard_view(model):
    """A private copy of ``model``'s module tree around the same parameters.

    Every module, flag and buffer is copied, but the view holds the very
    :class:`~repro.nn.Parameter` objects of ``model``, so it always computes
    with the model's current weights and its gradients land on them.
    Setting a sensor shard or a train/eval mode on the view leaves
    ``model`` as it is, which lets the calling process run a shard while
    other threads forward the full network.  Forward hooks are not copied:
    a worker's pickled copy has none either.
    """
    import copy

    memo = {id(parameter): parameter for parameter in model.parameters()}
    view = copy.deepcopy(model, memo)
    for module in view.modules():
        object.__setattr__(module, "_forward_pre_hooks", {})
        object.__setattr__(module, "_forward_hooks", {})
    return view


class _Shard:
    """The step and the forecast of one shard: the one definition a pool's
    children run in their loop and its caller runs on shard 0.

    A ``"step"``/``"predict"`` message carries only array shapes: the
    parameters', then the raw batch's, laid out back to back in the pool's
    shared arena.  The shard copies the parameters into its model when the
    message says so, augments its own rows
    (``model.augment(x, sensors=shard)``) and slices its targets.

    A shard is stepped in :func:`sensor_blocks`: per-sensor models
    treat sensors independently, so each block's loss is backpropagated
    seeded with its share ``c_b / c`` of the shard's finite targets and the
    gradients accumulate into ``parameter.grad`` — the same finite-count
    weighting the all-reduce applies across shards, one level down.
    """

    def __init__(self, model, sensor_shard, *, huber_delta, kl_weight, screen: bool):
        from ..core.loss import STWALoss

        self.model = model
        self.sensor_shard = tuple(sensor_shard)
        self.parameters = model.parameters()
        self.loss_fn = STWALoss(delta=huber_delta, kl_weight=kl_weight)
        self.kl_model = model if hasattr(model, "kl_divergence") else None
        self.screen = screen
        model.train()
        self._restore_shard()

    def _restore_shard(self) -> None:
        self.model.set_sensor_shard(*self.sensor_shard)

    def _load(self, weights: Sequence[np.ndarray]) -> None:
        """Copy ``weights`` (arena views, in parameter order) into the model;
        a shape mismatch is refused before any parameter changes."""
        for index, (parameter, value) in enumerate(zip(self.parameters, weights)):
            if value.shape != parameter.data.shape:
                raise ValueError(
                    f"shape mismatch for parameter {index}: "
                    f"{value.shape} vs {parameter.data.shape}"
                )
        for parameter, value in zip(self.parameters, weights):
            parameter.data[...] = value

    def _inputs(self, batch: Sequence[np.ndarray]) -> Tuple[Tuple[np.ndarray, ...], float]:
        """The shard's ``(x[, y])`` from the arena's batch and its augment seconds."""
        start, stop = self.sensor_shard
        x, *rest = batch
        augment_start = time.perf_counter()
        x = self.model.augment(x, sensors=self.sensor_shard)
        seconds = time.perf_counter() - augment_start
        return (x, *(array[:, start:stop] for array in rest)), seconds

    def predict(self, x_shard: np.ndarray) -> np.ndarray:
        from ..tensor import Tensor, inference_mode

        model = self.model
        model.eval()
        forecast = None
        try:
            with inference_mode():
                for columns, sensor_range in sensor_blocks(self.sensor_shard, len(x_shard)):
                    model.set_sensor_shard(*sensor_range)
                    block = model(Tensor(x_shard[:, columns])).data
                    if forecast is None:
                        forecast = np.empty(x_shard.shape[:2] + block.shape[2:])
                    forecast[:, columns] = block
        finally:
            self._restore_shard()
            model.train()
        return forecast

    def step(self, x_shard: np.ndarray, y_shard: np.ndarray) -> Tuple[float, float]:
        from ..tensor import Tensor, detect_anomaly

        model = self.model
        for parameter in self.parameters:
            parameter.zero_grad()
        finite = np.isfinite(y_shard)
        weight = float(finite.sum())
        value = 0.0
        guard = detect_anomaly() if self.screen else nullcontext()
        try:
            with guard:
                for columns, sensor_range in sensor_blocks(self.sensor_shard, len(x_shard)):
                    model.set_sensor_shard(*sensor_range)
                    prediction = model(Tensor(x_shard[:, columns]))
                    loss = self.loss_fn(
                        prediction, Tensor(y_shard[:, columns]), model=self.kl_model
                    )
                    block_value = float(loss.item())
                    # mirror the serial trainer: a non-finite loss is
                    # reported, not backpropagated — the parent raises the
                    # same error
                    if not np.isfinite(block_value):
                        value = block_value
                        break
                    share = float(finite[:, columns].sum()) / weight if weight else 0.0
                    value += share * block_value
                    if share:
                        loss.backward(np.float64(share))
                    del prediction, loss  # free this block's graph first
        finally:
            self._restore_shard()
        return value, weight

    def reply(self, message, arena) -> tuple:
        """Run one ``(kind, load_weights, *shapes)`` message; the reply a
        worker sends back.

        ``shapes`` lays out the arena: one entry per parameter, then the
        batch.  ``("ok", forecast)`` for a predict, ``("ok", loss, weight,
        grads, seconds, augment_seconds)`` for a step, ``("raise", "float" |
        "error", report)`` when it failed.  ``load_weights`` false keeps the
        model's current weights (the caller's shard shares them).
        """
        kind, load_weights, *shapes = message
        try:
            start = time.perf_counter()
            views = _arena_views(arena, shapes)
            count = len(self.parameters)
            if load_weights:
                self._load(views[:count])
            arrays, augment_seconds = self._inputs(views[count:])
            if kind == "predict":
                return ("ok", self.predict(*arrays))
            value, weight = self.step(*arrays)
            grads = [parameter.grad for parameter in self.parameters]
            return ("ok", value, weight, grads, time.perf_counter() - start, augment_seconds)
        except FloatingPointError as error:
            return ("raise", "float", f"{type(error).__name__}: {error}")
        except Exception as error:  # noqa: BLE001 - full report crosses the pipe
            return ("raise", "error", f"{type(error).__name__}: {error}")


def _worker_main(conn, init_blob: bytes) -> None:
    """Run one worker: receive messages over ``conn`` until told to stop.

    ``init_blob`` pickles a dict with the model, loss settings, the
    worker's sensor range and the pool's shard count — everything is
    imported lazily here so a spawn child only pays for what it uses.
    Each step or forecast message is answered with :meth:`_Shard.reply`;
    an ``"arena"`` message delivers the descriptor of the pool's shared
    arena (parameters and batch), which the worker maps read-only.
    """
    import mmap
    from multiprocessing import reduction

    from ..tensor import set_hooks

    # a forked child inherits whatever observability hooks the parent had
    # installed at pool start-up; they would record into a dead copy
    set_hooks(trace=None, anomaly=None, capture=None, grad_alloc=None)

    init = pickle.loads(init_blob)
    # one share of the cores per shard
    _limit_blas_threads(max(1, available_cores() // int(init["n_shards"])))
    shard = _Shard(
        init["model"],
        init["sensor_shard"],
        huber_delta=init["huber_delta"],
        kl_weight=init["kl_weight"],
        screen=bool(init["detect_anomaly"]),
    )
    arena: Optional[np.ndarray] = None  # float64 view of the shared arena

    while True:
        try:
            message = conn.recv()
        except (EOFError, KeyboardInterrupt):
            break
        kind = message[0]
        if kind == "stop":
            break
        if kind == "arena":
            # a new (larger) arena replaces the old one; the old mapping is
            # released once no view of it is left
            fd = reduction.recv_handle(conn)
            try:
                arena = np.frombuffer(
                    mmap.mmap(fd, message[1], access=mmap.ACCESS_READ), dtype=np.float64
                )
            finally:
                os.close(fd)
            continue
        conn.send(shard.reply(message, arena))


# --------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------- #
class WorkerPool:
    """Persistent shard workers connected by pipes, one shard per sensor range.

    The pool has one shard per entry of ``sensor_ranges`` (at least two),
    and the calling process is one of them: it computes shard 0 itself, on
    a private view of its own model (:func:`_shard_view`), while one child
    per remaining range computes shards ``1 … K-1``.  The pool owns a
    shared arena: one float64 buffer in nameless shared memory
    (:func:`_anonymous_file`) that :meth:`sensor_step` and
    :meth:`sensor_predict` write the model's current parameters and then
    the raw batch into once, so each child receives only their shapes.
    The caller's shard shares the parameters and skips the copy back.  The
    arena's descriptor goes to every child over its pipe
    (``multiprocessing.reduction.send_handle``) when the arena is first
    needed, and again only when a step outgrows it.

    Usable as a context manager; :meth:`close` is idempotent and always
    safe to call (it terminates stragglers rather than hang).
    """

    def __init__(
        self,
        model,
        config: ParallelConfig,
        *,
        sensor_ranges: Sequence[Tuple[int, int]],
        huber_delta: float,
        kl_weight: float,
    ):
        if len(sensor_ranges) < 2:
            raise ValueError(
                f"a worker pool needs at least 2 shards, got {len(sensor_ranges)}"
            )
        self.config = config
        self.sensor_ranges = [tuple(sensor_range) for sensor_range in sensor_ranges]
        n_shards = len(self.sensor_ranges)
        method = config.start_method or default_start_method()
        context = mp.get_context(method)
        self.start_method = method
        self._workers = []
        self._conns = []
        self._arena = None  # mmap of the shared arena
        self._arena_view: Optional[np.ndarray] = None  # its float64 view
        #: seconds the last step or forecast spent copying the parameters
        #: into the arena
        self.serialize_seconds = 0.0
        self._closed = False
        if method == "fork":
            _trim_heap()
        # child i computes shard i + 1: the caller computes shard 0
        for worker_id in range(1, n_shards):
            init_blob = pickle.dumps(
                {
                    "model": model,
                    "sensor_shard": self.sensor_ranges[worker_id],
                    "n_shards": n_shards,
                    "huber_delta": huber_delta,
                    "kl_weight": kl_weight,
                    "detect_anomaly": config.detect_anomaly,
                }
            )
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(child_conn, init_blob),
                name=f"repro-parallel-{worker_id}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._workers.append(process)
            self._conns.append(parent_conn)
        self._local = _Shard(
            _shard_view(model),
            self.sensor_ranges[0],
            huber_delta=huber_delta,
            kl_weight=kl_weight,
            screen=config.detect_anomaly,
        )
        self._blas_share = max(1, available_cores() // n_shards)

    @property
    def arena_bytes(self) -> int:
        """Size of the shared arena (0 until a step or forecast needs it)."""
        return 0 if self._arena is None else len(self._arena)

    # ------------------------------------------------------------------ #
    def sensor_step(self, x: np.ndarray, y: np.ndarray) -> List[ShardResult]:
        """Run one step with every shard on its sensor range of ``(x, y)``.

        The model's current parameters and the raw full-network batch are
        written once into the shared arena; each child loads the
        parameters, and each shard augments and slices its own rows.  The
        children start first; then the caller computes shard 0 on the
        parameters it shares with the model, and then every child's reply
        is collected.  One result per shard, in sensor order.  Raises
        ``FloatingPointError`` if any shard hit one (after reading every
        reply, so the pipes stay in sync for the retry the recovery policy
        will schedule).
        """
        return self._collect_steps(self._run("step", x, y))

    def sensor_predict(self, x: np.ndarray) -> List[np.ndarray]:
        """Forecast a full-network window with the model's current
        parameters, through the arena; one ``(B, stop - start, ...)``
        forecast per shard, in sensor order.  Shard 0 is computed in the
        calling process, as in :meth:`sensor_step`."""
        return self._collect_forecasts(self._run("predict", x))

    # ------------------------------------------------------------------ #
    def _write_arena(self, *arrays: np.ndarray) -> List[Tuple[int, ...]]:
        """Copy the parameters, then ``arrays``, back to back into the arena
        (growing it if they do not fit) and return every shape for the
        workers to view; the parameter copy's time lands in
        :attr:`serialize_seconds`."""
        if self._closed:
            raise WorkerError("worker pool is closed")
        weights = [parameter.data for parameter in self._local.parameters]
        batch = [np.asarray(array) for array in arrays]
        shapes = [array.shape for array in weights + batch]
        nbytes = 8 * sum(array.size for array in weights + batch)
        if nbytes > self.arena_bytes:
            self._grow_arena(nbytes)
        views = _arena_views(self._arena_view, shapes)
        start = time.perf_counter()
        for array, view in zip(weights, views):
            view[...] = array
        self.serialize_seconds = time.perf_counter() - start
        for array, view in zip(batch, views[len(weights) :]):
            view[...] = array
        return shapes

    def _grow_arena(self, nbytes: int) -> None:
        """Replace the arena with a ``nbytes`` one and hand it to every worker."""
        import mmap
        from multiprocessing import reduction

        nbytes = -(-nbytes // mmap.PAGESIZE) * mmap.PAGESIZE
        fd = _anonymous_file(nbytes)
        try:
            arena = mmap.mmap(fd, nbytes)
            for child, (conn, process) in enumerate(zip(self._conns, self._workers)):
                self._send(child, ("arena", nbytes))
                try:
                    reduction.send_handle(conn, fd, process.pid)
                except OSError as error:
                    self.close()
                    raise WorkerError(f"worker {child + 1} is gone: {error}") from error
        finally:
            os.close(fd)
        self._release_arena()
        self._arena = arena
        self._arena_view = np.frombuffer(arena, dtype=np.float64)

    def _release_arena(self) -> None:
        self._arena_view = None
        arena, self._arena = self._arena, None
        if arena is not None:
            try:
                arena.close()
            except BufferError:  # a caller still holds a view; GC unmaps it
                pass

    def _send(self, child: int, message) -> None:
        try:
            self._conns[child].send(message)
        except OSError as error:  # the worker exited and closed its end
            self.close()
            raise WorkerError(f"worker {child + 1} is gone: {error}") from error

    def _dispatch(self, message: tuple) -> None:
        """Send ``message`` to every child."""
        for child in range(len(self._conns)):
            self._send(child, message)

    def _run(self, kind: str, *batch: np.ndarray) -> tuple:
        """Write the arena, start every child on ``kind``, compute shard 0
        here; the local shard's reply."""
        shapes = self._write_arena(*batch)
        self._dispatch((kind, True, *shapes))
        return self._run_local((kind, False, *shapes))

    def _run_local(self, message) -> tuple:
        """Compute shard 0 in this process, exactly as a worker would.

        For the length of the shard the calling thread runs without its
        interceptors (profiler trace, anomaly screen, compile capture,
        gradient-allocation counter), as a worker clears the ones it
        inherits, and BLAS runs at a worker's share of the cores; both
        are restored afterwards.  Returns the worker-style reply.  Anything
        that escapes it leaves the children's replies unread, so the pool
        is closed before it propagates.
        """
        from ..tensor import set_hooks

        previous = set_hooks(trace=None, anomaly=None, capture=None, grad_alloc=None)
        try:
            with _caller_blas(self._blas_share):
                return self._local.reply(message, self._arena_view)
        except BaseException:
            self.close()
            raise
        finally:
            set_hooks(**previous)

    def _replies(self, local: tuple) -> List[Tuple[int, tuple]]:
        """``(shard id, reply)`` for the local shard and every child, in
        shard order; every child is read."""
        children = [(child + 1, self._receive(child)) for child in range(len(self._conns))]
        return [(0, local)] + children

    def _collect_steps(self, local: tuple) -> List[ShardResult]:
        results: List[ShardResult] = []
        numerical_failure: Optional[str] = None
        worker_failure: Optional[str] = None
        for worker_id, reply in self._replies(local):
            if reply[0] == "ok":
                _, value, weight, grads, seconds, augment = reply
                results.append(ShardResult(worker_id, value, weight, grads, seconds, augment))
            elif reply[1] == "float":
                numerical_failure = f"worker {worker_id}: {reply[2]}"
            else:
                worker_failure = f"worker {worker_id}: {reply[2]}"
        if worker_failure is not None:
            raise WorkerError(worker_failure)
        if numerical_failure is not None:
            raise FloatingPointError(numerical_failure)
        return results

    def _collect_forecasts(self, local: tuple) -> List[np.ndarray]:
        forecasts: List[np.ndarray] = []
        worker_failure: Optional[str] = None
        for worker_id, reply in self._replies(local):
            if reply[0] == "ok":
                forecasts.append(reply[1])
            else:
                worker_failure = f"worker {worker_id}: {reply[2]}"
        if worker_failure is not None:
            raise WorkerError(worker_failure)
        return forecasts

    def _receive(self, child: int):
        conn = self._conns[child]
        worker_id = child + 1
        if not conn.poll(self.config.step_timeout):
            self.close()
            raise WorkerError(
                f"worker {worker_id} sent no reply within {self.config.step_timeout:.0f}s"
            )
        try:
            return conn.recv()
        except EOFError as error:
            self.close()
            raise WorkerError(f"worker {worker_id} died mid-step") from error

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop every worker; terminate any that ignore the request."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except OSError:
                pass
        for process in self._workers:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
                process.join()
            process.close()  # releases its sentinel descriptor now
        for conn in self._conns:
            conn.close()
        self._release_arena()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # best-effort: never leak processes
        try:
            self.close()
        except Exception:  # noqa: BLE001 - interpreter may be tearing down
            pass
