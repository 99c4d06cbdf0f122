"""Multiprocess data-parallel training engine.

One :class:`WorkerPool` owns the long-lived worker processes of K shards.
Every training step the parent

1. serializes the current weights once with the schema-v2 checkpoint codec
   (:func:`repro.training.dumps_state_dict` — fork/spawn-safe, no pickled
   code objects on the weight path),
2. hands every worker its part of the mini-batch: a batch-axis pool pickles
   per-worker shards (:func:`shard_batch`) into the pipes; a sensor-sharded
   pool writes the raw batch once into a shared arena and sends only its
   shape, and each worker augments and slices its own sensor range,
3. sends the weights with that message to every worker over its pipe,
4. collects ``(loss, weight, grads, seconds)`` per shard and
5. tree-reduces the shard gradients into the parent model's parameters
   (:func:`repro.optim.all_reduce_gradients`) so a single optimizer step
   applies exactly the gradient serial training would have produced.

Process topology: a batch-axis pool starts K workers.  A sensor-sharded
pool starts K−1: between steps 3 and 4 the parent computes shard 0 itself,
on a private view of its own model that shares the parameters
(:func:`_shard_view`), with the same code a worker runs (:class:`_Shard`).
Its result is reported as worker 0.

The worker never sees the optimizer: it is a pure
``weights, shard -> loss, gradients`` function, which keeps every piece of
mutable training state (Adam moments, early stopping, RNG streams,
checkpoints, recovery rollback) in the parent where the existing
resilience machinery already manages it.

Model transport: the model object crosses the process boundary once, at
pool start-up, via pickle (module classes are importable from both fork and
spawn children); its weights are refreshed every step through the codec.
Worker copies re-seed every RNG stream they hold through
:func:`repro.tensor.rng.reseed_module_generators` so no two workers draw
identical noise (see DESIGN.md "Parallel training" for the determinism
contract).

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
    "shard_batch",
    "sensor_shard_ranges",
    "shard_sensors",
    "unshard_sensors",
]


class WorkerError(RuntimeError):
    """A data-parallel worker failed for a non-numerical reason (or died)."""


def default_start_method() -> str:
    """``fork`` where the platform offers it (cheap, zero-copy inherited
    dataset arrays), ``spawn`` otherwise (macOS/Windows default)."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


@dataclass(frozen=True)
class ParallelConfig:
    """Knobs of the data-parallel engine.

    ``n_workers`` counts shards: a batch-axis pool starts that many worker
    processes, a sensor-sharded pool one fewer (the caller computes shard
    0).  ``step_timeout`` bounds how long the parent waits for any single
    worker reply before declaring the pool wedged; generous by default
    because CI machines stall unpredictably under load.
    """

    n_workers: int = 2
    start_method: Optional[str] = None  # None -> default_start_method()
    detect_anomaly: bool = False
    seed: int = 0
    step_timeout: float = 300.0

    def __post_init__(self):
        if self.n_workers < 2:
            raise ValueError(f"a worker pool needs n_workers >= 2, got {self.n_workers}")


@dataclass
class ShardResult:
    """What one worker reports back for one training step."""

    worker_id: int
    loss: float
    weight: float  # loss-mean element count c_i (see repro.optim.allreduce)
    grads: List[Optional[np.ndarray]] = field(repr=False, default_factory=list)
    seconds: float = 0.0  # worker-side wall time: augment, forward, backward
    augment: float = 0.0  # the part of ``seconds`` spent in ``model.augment``


def shard_batch(
    x: np.ndarray, y: np.ndarray, n_shards: int
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Split a batch along axis 0 into up to ``n_shards`` contiguous shards.

    Contiguous ``np.array_split`` sharding preserves the serial sample
    order: concatenating the shards reproduces the batch exactly, which is
    what makes the parallel loss a weighted mean of shard losses.  Batches
    smaller than ``n_shards`` produce fewer (never empty) shards.
    """
    if len(x) != len(y):
        raise ValueError(f"x and y disagree on batch size: {len(x)} vs {len(y)}")
    pieces = min(n_shards, len(x))
    if pieces < 1:
        raise ValueError("cannot shard an empty batch")
    return [
        (xs, ys)
        for xs, ys in zip(np.array_split(x, pieces), np.array_split(y, pieces))
        if len(xs)
    ]


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

    The sensor-parallel counterpart of :func:`shard_batch`: shards follow
    :func:`sensor_shard_ranges`, so ``np.concatenate(pieces, axis=1)``
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
    sensor_shard: Optional[Tuple[int, int]], batch: int
) -> List[Tuple[slice, Optional[Tuple[int, int]]]]:
    """The blocks one worker steps its shard in, in sensor order.

    Each block is ``(columns, sensor_range)``: the block's slice of the
    worker's ``(B, stop - start, ...)`` arrays and the global
    ``[start, stop)`` range to pass to ``set_sensor_shard``.  Sensor shards
    split into contiguous ranges of ``BLOCK_ROWS // batch`` sensors (the
    last one ragged); a batch-axis shard (``sensor_shard=None``) is one
    block spanning the whole shard, with no sensor range to set.
    """
    if sensor_shard is None:
        return [(slice(None), None)]
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
    children run in their loop and a sensor pool's caller runs on shard 0.

    Two transports carry a batch.  A batch-axis shard arrives pickled in
    the ``"step"``/``"predict"`` message.  A sensor shard gets only the
    batch shape (``"sensor_step"``/``"sensor_predict"``) and reads the raw
    batch from the pool's shared arena; it then augments its own rows
    (``model.augment(x, sensors=shard)``) and slices its targets.

    A sensor shard is stepped in :func:`sensor_blocks`: per-sensor models
    treat sensors independently, so each block's loss is backpropagated
    seeded with its share ``c_b / c`` of the shard's finite targets and the
    gradients accumulate into ``parameter.grad`` — the same finite-count
    weighting the all-reduce applies across shards, one level down.
    """

    def __init__(self, model, sensor_shard, *, huber_delta, kl_weight, screen: bool):
        from ..core.loss import STWALoss

        self.model = model
        self.sensor_shard = None if sensor_shard is None else tuple(sensor_shard)
        self.parameters = model.parameters()
        self.loss_fn = STWALoss(delta=huber_delta, kl_weight=kl_weight)
        self.kl_model = model if hasattr(model, "kl_divergence") else None
        self.screen = screen
        model.train()
        self._restore_shard()

    def _restore_shard(self) -> None:
        if self.sensor_shard is not None:
            self.model.set_sensor_shard(*self.sensor_shard)

    def _inputs(self, kind: str, payload, arena) -> Tuple[Tuple[np.ndarray, ...], float]:
        """The shard's ``(x[, y])`` for one message and its augment seconds."""
        if not kind.startswith("sensor_"):
            return payload, 0.0
        start, stop = self.sensor_shard
        x, *rest = _arena_views(arena, payload)
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
                    if sensor_range is not None:
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
                    if sensor_range is not None:
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
        """Run one ``(kind, weights_blob, *payload)`` message; the reply a
        worker sends back.

        ``("ok", forecast)`` for a predict, ``("ok", loss, weight, grads,
        seconds, augment_seconds)`` for a step, ``("raise", "float" |
        "error", report)`` when it failed.  A ``weights_blob`` of ``None``
        keeps the model's current weights.
        """
        from ..training import checkpoint as checkpoint_module

        kind, weights_blob, *payload = message
        try:
            start = time.perf_counter()
            if weights_blob is not None:
                self.model.load_state_dict(checkpoint_module.loads_state_dict(weights_blob))
            arrays, augment_seconds = self._inputs(kind, payload, arena)
            if kind.endswith("predict"):
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
    worker's shard id and the base seed — everything is imported lazily
    here so a spawn child only pays for what it uses.  Each step or
    forecast message is answered with :meth:`_Shard.reply`; an ``"arena"``
    message delivers the descriptor of the pool's shared batch arena, which
    the worker maps read-only.
    """
    import mmap
    from multiprocessing import reduction

    from ..tensor import rng as rng_module, set_hooks

    # a forked child inherits whatever observability hooks the parent had
    # installed at pool start-up; they would record into a dead copy
    set_hooks(trace=None, anomaly=None, capture=None, grad_alloc=None)

    init = pickle.loads(init_blob)
    # one share of the cores per shard
    _limit_blas_threads(max(1, available_cores() // int(init["n_workers"])))
    model = init["model"]
    rng_module.reseed_module_generators(model, int(init["seed"]), int(init["worker_id"]))
    shard = _Shard(
        model,
        init.get("sensor_shard"),
        huber_delta=init["huber_delta"],
        kl_weight=init["kl_weight"],
        screen=bool(init["detect_anomaly"]),
    )
    arena: Optional[np.ndarray] = None  # float64 view of the shared batch

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
    """Persistent training workers connected by pipes, one per shard.

    A batch-axis pool starts ``n_workers`` children.  A pool built with
    ``sensor_ranges`` has one shard per range, and the calling process is
    one of them: it computes shard 0 itself, on a private view of its own
    model (:func:`_shard_view`), while ``n_workers - 1`` children compute
    shards ``1 … K-1``.  Such a pool also owns a shared arena: one float64
    buffer in nameless shared memory (:func:`_anonymous_file`) that
    :meth:`sensor_step` and :meth:`sensor_predict` write the raw batch into
    once, so each child receives only the weights and the batch shape.
    The arena's descriptor goes to every child over its pipe
    (``multiprocessing.reduction.send_handle``) when the arena is first
    needed, and again only when a batch outgrows it.  :meth:`train_step`
    and :meth:`predict` keep the pickled-shard transport for batch-axis
    shards.

    Usable as a context manager; :meth:`close` is idempotent and always
    safe to call (it terminates stragglers rather than hang).
    """

    def __init__(
        self,
        model,
        config: ParallelConfig,
        *,
        huber_delta: float,
        kl_weight: float,
        sensor_ranges: Optional[Sequence[Tuple[int, int]]] = None,
    ):
        if sensor_ranges is not None and len(sensor_ranges) != config.n_workers:
            raise ValueError(
                f"sensor_ranges has {len(sensor_ranges)} entries for "
                f"{config.n_workers} workers"
            )
        self.config = config
        self.n_workers = config.n_workers
        self.sensor_ranges = None if sensor_ranges is None else list(sensor_ranges)
        method = config.start_method or default_start_method()
        context = mp.get_context(method)
        self.start_method = method
        self._workers = []
        self._conns = []
        self._arena = None  # mmap of the shared batch arena (sensor pools)
        self._arena_view: Optional[np.ndarray] = None  # its float64 view
        self._closed = False
        # the shard id of child 0: a sensor pool computes shard 0 itself
        self._first_child = 0 if sensor_ranges is None else 1
        if method == "fork":
            _trim_heap()
        for worker_id in range(self._first_child, config.n_workers):
            init = {
                "model": model,
                "worker_id": worker_id,
                "n_workers": config.n_workers,
                "seed": config.seed,
                "huber_delta": huber_delta,
                "kl_weight": kl_weight,
                "detect_anomaly": config.detect_anomaly,
            }
            if sensor_ranges is not None:
                init["sensor_shard"] = tuple(sensor_ranges[worker_id])
            init_blob = pickle.dumps(init)
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
        self._local: Optional[_Shard] = None
        if sensor_ranges is not None:
            self._local = _Shard(
                _shard_view(model),
                sensor_ranges[0],
                huber_delta=huber_delta,
                kl_weight=kl_weight,
                screen=config.detect_anomaly,
            )
            self._blas_share = max(1, available_cores() // config.n_workers)

    @property
    def arena_bytes(self) -> int:
        """Size of the shared batch arena (0 until a sensor batch needs it)."""
        return 0 if self._arena is None else len(self._arena)

    # ------------------------------------------------------------------ #
    def train_step(
        self, weights_blob: Optional[bytes], shards: Sequence[Tuple[np.ndarray, np.ndarray]]
    ) -> List[ShardResult]:
        """Run one batch-axis step on pickled shards; one result per shard.

        Shards are dealt to workers in order; with fewer shards than
        workers (a tail batch smaller than the pool) the idle workers
        simply skip the step.  Raises ``FloatingPointError`` if any worker
        hit one (after draining every reply, so the pipes stay in sync for
        the retry the recovery policy will schedule).
        """
        self._check_shards(shards, "train_step")
        self._dispatch([("step", weights_blob, x, y) for x, y in shards])
        return self._collect_steps(len(shards))

    def sensor_step(
        self, weights_blob: Optional[bytes], x: np.ndarray, y: np.ndarray
    ) -> List[ShardResult]:
        """Run one step with every shard on its sensor range of ``(x, y)``.

        ``x`` and ``y`` are the raw full-network batch; they are written
        once into the shared arena and each shard augments and slices its
        own rows.  The children start first; then the caller computes
        shard 0 with the weights its model holds now (``weights_blob``
        must be those weights, or ``None`` when the children's copies are
        current), and then every child's reply is collected.  One result
        per shard, in sensor order, with the same failure handling as
        :meth:`train_step`.
        """
        shapes = self._write_arena(x, y)
        message = ("sensor_step", weights_blob, *shapes)
        self._dispatch([message] * len(self._conns))
        local = self._run_local(message)
        return self._collect_steps(len(self._conns), local)

    def predict(
        self, weights_blob: Optional[bytes], shards: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """Fan a batch-axis inference batch out over the pool; one forecast
        per pickled shard.

        Same dealing/draining discipline as :meth:`train_step`: shards go
        to workers in order, every reply is collected before any error is
        raised, so the pipes stay usable afterwards.  Workers run under
        ``inference_mode`` with the shipped weights (ship ``None`` only if
        the pool's weights are known current).
        """
        self._check_shards(shards, "predict")
        self._dispatch([("predict", weights_blob, x) for x in shards])
        return self._collect_forecasts(len(shards))

    def sensor_predict(self, weights_blob: Optional[bytes], x: np.ndarray) -> List[np.ndarray]:
        """Forecast a full-network window through the arena; one
        ``(B, stop - start, ...)`` forecast per shard, in sensor order.
        Shard 0 is computed in the calling process, as in
        :meth:`sensor_step`."""
        (shape,) = self._write_arena(x)
        message = ("sensor_predict", weights_blob, shape)
        self._dispatch([message] * len(self._conns))
        local = self._run_local(message)
        return self._collect_forecasts(len(self._conns), local)

    # ------------------------------------------------------------------ #
    def _check_shards(self, shards: Sequence, what: str) -> None:
        if self._closed:
            raise WorkerError("worker pool is closed")
        if not shards:
            raise ValueError(f"{what} needs at least one shard")
        if len(shards) > self.n_workers:
            raise ValueError(f"{len(shards)} shards exceed pool size {self.n_workers}")

    def _write_arena(self, *arrays: np.ndarray) -> List[Tuple[int, ...]]:
        """Copy ``arrays`` back to back into the arena (growing it if they do
        not fit) and return their shapes for the workers to view."""
        if self._closed:
            raise WorkerError("worker pool is closed")
        if self.sensor_ranges is None:
            raise ValueError("the shared arena serves pools built with sensor_ranges")
        arrays = [np.asarray(array) for array in arrays]
        nbytes = 8 * sum(array.size for array in arrays)
        if nbytes > self.arena_bytes:
            self._grow_arena(nbytes)
        for array, view in zip(arrays, _arena_views(self._arena_view, [a.shape for a in arrays])):
            view[...] = array
        return [array.shape for array in arrays]

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
                    raise WorkerError(
                        f"worker {child + self._first_child} is gone: {error}"
                    ) from error
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
            raise WorkerError(
                f"worker {child + self._first_child} is gone: {error}"
            ) from error

    def _dispatch(self, messages: Sequence[tuple]) -> None:
        """Send message ``i`` to child ``i``."""
        for child, message in enumerate(messages):
            self._send(child, message)

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
                return self._local.reply((message[0], None, *message[2:]), self._arena_view)
        except BaseException:
            self.close()
            raise
        finally:
            set_hooks(**previous)

    def _replies(self, count: int, local: Optional[tuple]) -> List[Tuple[int, tuple]]:
        """``(shard id, reply)`` for the local shard (if any) and the first
        ``count`` children, in shard order; every child is read."""
        replies = [] if local is None else [(0, local)]
        replies += [(child + self._first_child, self._receive(child)) for child in range(count)]
        return replies

    def _collect_steps(self, count: int, local: Optional[tuple] = None) -> List[ShardResult]:
        results: List[ShardResult] = []
        numerical_failure: Optional[str] = None
        worker_failure: Optional[str] = None
        for worker_id, reply in self._replies(count, local):
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

    def _collect_forecasts(self, count: int, local: Optional[tuple] = None) -> List[np.ndarray]:
        forecasts: List[np.ndarray] = []
        worker_failure: Optional[str] = None
        for worker_id, reply in self._replies(count, local):
            if reply[0] == "ok":
                forecasts.append(reply[1])
            else:
                worker_failure = f"worker {worker_id}: {reply[2]}"
        if worker_failure is not None:
            raise WorkerError(worker_failure)
        return forecasts

    def _receive(self, child: int):
        conn = self._conns[child]
        worker_id = child + self._first_child
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
