"""Background windowed-dataset prefetcher: overlap batch assembly with compute.

Materializing a sliding-window batch is pure data movement —
``H`` history slices and ``U`` target slices stacked per sample
(:meth:`repro.data.windows.SlidingWindowDataset.sample`) — and on large
sensor networks it rivals a small model's forward pass.
:class:`PrefetchingBatchIterator` moves that assembly into a background
process that writes finished batches straight into double-buffered
shared-memory arrays, so the parent (or its worker pool) computes on batch
``k`` while batch ``k+1`` is being assembled.

Shared-memory protocol (classic double buffer, generalized to ``slots``):

* Two ``multiprocessing.RawArray`` pairs, each big enough for a full
  ``(batch, N, H|U, F)`` block, plus one ``filled``/``free`` semaphore pair
  per slot.
* The assembler acquires ``free[k % slots]``, writes the batch, releases
  ``filled``; the consumer acquires ``filled``, yields **views** into the
  buffer, and releases ``free`` only after the training step returns — so
  a buffer is never overwritten while the consumer can still read it.

Determinism: the epoch order is drawn from the *caller's* RNG with exactly
one ``rng.shuffle`` call — the same consumption pattern as the serial
:class:`repro.data.windows.BatchIterator` — so swapping the iterators never
changes which samples land in which batch.  The anchors are computed in the
parent and shipped to the assembler, which does no random draws at all.

Under ``fork`` the dataset arrays reach the assembler by page sharing
(zero-copy); under ``spawn`` they are pickled once per epoch — still a win
for long epochs, but the docstring-level guidance is: prefer fork where the
platform allows.
"""

from __future__ import annotations

import multiprocessing as mp
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..data.windows import SlidingWindowDataset
from .engine import default_start_method

__all__ = ["PrefetchingBatchIterator"]


def _assembler_main(dataset: SlidingWindowDataset, batches, buffers, semaphores) -> None:
    """Background process: materialize each batch into its ring slot."""
    slots = len(buffers)
    try:
        for k, indices in enumerate(batches):
            slot = k % slots
            x_buffer, y_buffer, x_shape, y_shape = buffers[slot]
            filled, free = semaphores[slot]
            free.acquire()
            x, y = dataset.sample(indices)
            count = len(indices)
            np.frombuffer(x_buffer, dtype=np.float64).reshape(x_shape)[:count] = x
            np.frombuffer(y_buffer, dtype=np.float64).reshape(y_shape)[:count] = y
            filled.release()
    except (KeyboardInterrupt, BrokenPipeError):
        pass


class PrefetchingBatchIterator:
    """Drop-in :class:`repro.data.windows.BatchIterator` with a background
    assembler.

    Same constructor contract and iteration semantics (shuffle order, batch
    boundaries, ``max_batches`` cap); each epoch starts one assembler
    process and joins it when the epoch ends or the consumer abandons the
    loop.  The yielded arrays are views into shared memory, valid until the
    next ``next()`` — exactly as long as a training step needs them.
    """

    def __init__(
        self,
        dataset: SlidingWindowDataset,
        batch_size: int = 64,
        shuffle: bool = True,
        rng: Optional[np.random.Generator] = None,
        max_batches: Optional[int] = None,
        start_method: Optional[str] = None,
        slots: int = 2,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if slots < 2:
            raise ValueError("double buffering needs at least 2 slots")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.rng = rng if rng is not None else np.random.default_rng()
        self.max_batches = max_batches
        self.slots = slots
        self._context = mp.get_context(start_method or default_start_method())
        num_sensors, _, features = dataset.data.shape
        spec = dataset.spec
        self._x_shape = (batch_size, num_sensors, spec.history, features)
        self._y_shape = (batch_size, num_sensors, spec.horizon, features)
        # RawArray: true shared memory, inheritable by fork and picklable
        # into a spawn child; allocated once and reused every epoch
        self._buffers = [
            (
                self._context.RawArray("d", int(np.prod(self._x_shape))),
                self._context.RawArray("d", int(np.prod(self._y_shape))),
                self._x_shape,
                self._y_shape,
            )
            for _ in range(slots)
        ]

    def __len__(self) -> int:
        full = (len(self.dataset) + self.batch_size - 1) // self.batch_size
        return min(full, self.max_batches) if self.max_batches else full

    def _epoch_batches(self) -> List[np.ndarray]:
        """Draw the epoch's batch index lists (consumes RNG like serial)."""
        order = np.arange(len(self.dataset))
        if self.shuffle:
            self.rng.shuffle(order)
        batches = [
            order[start : start + self.batch_size]
            for start in range(0, len(order), self.batch_size)
        ]
        if self.max_batches is not None:
            batches = batches[: self.max_batches]
        return batches

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        batches = self._epoch_batches()
        if not batches:
            return
        semaphores = [
            (self._context.Semaphore(0), self._context.Semaphore(1)) for _ in range(self.slots)
        ]
        assembler = self._context.Process(
            target=_assembler_main,
            args=(self.dataset, batches, self._buffers, semaphores),
            name="repro-prefetch",
            daemon=True,
        )
        assembler.start()
        try:
            for k, indices in enumerate(batches):
                slot = k % self.slots
                x_buffer, y_buffer, x_shape, y_shape = self._buffers[slot]
                filled, free = semaphores[slot]
                if not filled.acquire(timeout=300.0):
                    raise RuntimeError("prefetch assembler stalled (no batch within 300s)")
                count = len(indices)
                x = np.frombuffer(x_buffer, dtype=np.float64).reshape(x_shape)[:count]
                y = np.frombuffer(y_buffer, dtype=np.float64).reshape(y_shape)[:count]
                yield x, y
                free.release()
        finally:
            # normal exit: assembler already finished every batch; abandoned
            # iteration: it may be blocked on a free semaphore — terminate
            assembler.join(timeout=0.5)
            if assembler.is_alive():
                assembler.terminate()
                assembler.join(timeout=5.0)
