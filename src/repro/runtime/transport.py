"""In-flight tuple storage for the data-plane runtime.

Two interchangeable transports move tuples between circuit services:

* :class:`ArrayTransport` — the production path.  In-flight tuples live
  in one struct-of-arrays pool (one contiguous column per attribute);
  delivery extracts every due entry with a single vectorized
  arrival-tick comparison and compacts the survivors in place.
* :class:`HeapTransport` — the retained per-tuple reference.  Tuples
  are individual heap entries popped one at a time, exactly the
  pre-vectorization shape (`CircuitExecutor`-style heapq), and the
  "before" side of the E18 benchmark.

Both transports implement identical delivery semantics — the data plane
steps one through batched kernels and the other through per-tuple
loops, and the equivalence properties pin them to each other tick for
tick.  Delivery is grouped into *rounds*: round 1 of a tick delivers
everything in flight that is due, and each later round delivers the
zero-delay outputs of the previous round (colocated services cascade
within a tick, like the executor's drain loop).  Conservation holds at
all times::

    sent == delivered + in_flight + buffered

(``buffered`` is zero for the base transports) and is exposed by
:meth:`in_flight` / the counters so the data plane can prove that no
tuple is ever silently lost.

Reliable delivery
-----------------

:class:`ReliableTransport` / :class:`ReliableHeapTransport` extend the
pair with a *bounded retransmit buffer*: a tuple delivered to a failed
node is handed back via :meth:`buffer` instead of being dropped, parked
until its target service's host is alive again, and then re-injected
into the in-flight pool by a single vectorized :meth:`redeliver` pass
at the start of a tick (the heap twin loops per tuple over the same
buffer order).  The buffer is bounded by ``max_buffer``; overflow is
*rejected* deterministically (first-come-first-buffered in canonical
delivery order) so the data plane can drop the excess with explicit
accounting.  A buffered tuple is subtracted from ``delivered`` — it is
back inside the transport — which is what extends the conservation
balance to ``sent == delivered + in_flight + buffered``.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.runtime.arena import ScratchArena
from repro.runtime.hashing import route_bucket, route_bucket_int

__all__ = [
    "ArrayTransport",
    "HeapTransport",
    "ReliableTransport",
    "ReliableHeapTransport",
]


class ArrayTransport:
    """Struct-of-arrays in-flight pool with vectorized delivery.

    Columns (``arrival``, ``op``, ``port``, ``key``, ``ts``, ``size``,
    ``seq``) are preallocated contiguous arrays, grown by doubling; the
    live region is ``[0, count)``.  :meth:`due` masks
    ``arrival <= now`` in one comparison, returns the extracted columns,
    and compacts the remainder — no per-tuple work anywhere.

    Extraction writes into reusable :class:`~repro.runtime.arena.
    ScratchArena` buffers (shared with the owning data plane when one
    is passed) instead of allocating six fresh arrays per delivery
    round.  Buffer-reuse contract: the batch returned by :meth:`due` is
    only valid until the next :meth:`due` call — consume (or copy) it
    within the round, never hold it across ticks.
    """

    _INITIAL = 1024

    def __init__(self, scratch: ScratchArena | None = None) -> None:
        self._scratch = scratch or ScratchArena()
        self._cap = self._INITIAL
        self._arrival = np.empty(self._cap, dtype=np.int64)
        self._op = np.empty(self._cap, dtype=np.int64)
        self._port = np.empty(self._cap, dtype=np.int64)
        self._key = np.empty(self._cap, dtype=np.int64)
        self._ts = np.empty(self._cap, dtype=np.int64)
        self._size = np.empty(self._cap, dtype=np.float64)
        self._seq = np.empty(self._cap, dtype=np.int64)
        self._count = 0
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        # Duck-typed tracer handle (see repro.obs.trace); None means no
        # tracing and every hook is a single attribute check.
        self.trace = None

    @property
    def in_flight(self) -> int:
        return self._count

    @property
    def buffered(self) -> int:
        """Tuples parked in the retransmit buffer (0 without one)."""
        return 0

    def buffered_by_op(self, num_ops: int) -> np.ndarray:
        """Retransmit-buffer backlog per target op (all zero here)."""
        return np.zeros(num_ops, dtype=np.int64)

    def inflight_seqs(self) -> np.ndarray:
        """Sequence numbers currently in the in-flight pool (copy)."""
        return self._seq[: self._count].copy()

    def buffered_seqs(self) -> np.ndarray:
        """Sequence numbers parked in the retransmit buffer (none here)."""
        return np.empty(0, dtype=np.int64)

    def _grow(self, needed: int) -> None:
        cap = self._cap
        while cap < needed:
            cap *= 2
        for name in ("_arrival", "_op", "_port", "_key", "_ts", "_size", "_seq"):
            old = getattr(self, name)
            fresh = np.empty(cap, dtype=old.dtype)
            fresh[: self._count] = old[: self._count]
            setattr(self, name, fresh)
        self._cap = cap

    def _append(
        self,
        arrival: np.ndarray,
        op: np.ndarray,
        port: np.ndarray,
        key: np.ndarray,
        ts: np.ndarray,
        size: np.ndarray,
        seq: np.ndarray,
    ) -> int:
        """Append columns to the in-flight pool; returns the batch size."""
        n = arrival.shape[0]
        if n == 0:
            return 0
        if self._count + n > self._cap:
            self._grow(self._count + n)
        lo, hi = self._count, self._count + n
        self._arrival[lo:hi] = arrival
        self._op[lo:hi] = op
        self._port[lo:hi] = port
        self._key[lo:hi] = key
        self._ts[lo:hi] = ts
        self._size[lo:hi] = size
        self._seq[lo:hi] = seq
        self._count = hi
        return n

    def send(
        self,
        arrival: np.ndarray,
        op: np.ndarray,
        port: np.ndarray,
        key: np.ndarray,
        ts: np.ndarray,
        size: np.ndarray,
        seq: np.ndarray,
    ) -> None:
        """Append a batch of in-flight tuples (one array per column)."""
        self.sent += self._append(arrival, op, port, key, ts, size, seq)

    def due(self, now: int) -> dict[str, np.ndarray] | None:
        """Extract every tuple with ``arrival <= now`` (one comparison).

        Returns the extracted columns (unordered — callers sort
        canonically), or None when nothing is due.  Survivors are
        compacted to the front of the pool.
        """
        c = self._count
        if c == 0:
            return None
        # One mask over the arrival column yields the stable due /
        # survivor index split.
        mask = self._arrival[:c] <= now
        idx = np.flatnonzero(mask)
        hits = idx.size
        if hits == 0:
            return None
        # Extract the due rows into reusable scratch views (valid until
        # the next due() call) — one gather per column, no allocation
        # on the steady-state path.
        scratch = self._scratch
        batch = {}
        for name in ("op", "port", "key", "ts", "size", "seq"):
            col = getattr(self, "_" + name)
            out = scratch.array("due_" + name, hits, col.dtype)
            np.take(col[:c], idx, out=out)
            batch[name] = out
        keep = np.flatnonzero(~mask)
        survivors = keep.size
        for name in ("_arrival", "_op", "_port", "_key", "_ts", "_size", "_seq"):
            col = getattr(self, name)
            col[:survivors] = col[:c][keep]
        self._count = survivors
        self.delivered += hits
        return batch

    def remap_ops(self, mapping: np.ndarray, key_split: dict | None = None) -> int:
        """Re-address in-flight tuples after a recompile.

        ``mapping[old_op]`` is the new operator index, or -1 when the
        operator's circuit was uninstalled.  Tuples bound for removed
        operators are dropped *with accounting* (they count as both
        delivered-out-of-the-pool and dropped); everything else is
        re-homed in place.  Returns the number dropped.

        ``key_split`` handles scale events: ``key_split[old_op] =
        (targets, port)`` re-routes that op's tuples by key bucket to
        ``targets[bucket(key, len(targets))]`` (overriding ``mapping``),
        overwriting the port when one is given — the same rule the
        hash-router applies at send time, so re-homed in-flight tuples
        land on the replica that owns their key.
        """
        c = self._count
        if c == 0:
            return 0
        ops = self._op[:c]
        new_op = mapping[ops]
        if key_split:
            keys = self._key[:c]
            for old, (targets, port) in key_split.items():
                mask = ops == old
                if not mask.any():
                    continue
                new_op[mask] = targets[route_bucket(keys[mask], len(targets))]
                if port is not None:
                    self._port[:c][mask] = port
        keep = new_op >= 0
        dropped = int(c - keep.sum())
        if dropped:
            if self.trace is not None:
                self.trace.record_drop_uninstall(
                    self._seq[:c][~keep], self._op[:c][~keep]
                )
            survivors = int(keep.sum())
            for name in ("_arrival", "_op", "_port", "_key", "_ts", "_size", "_seq"):
                col = getattr(self, name)
                col[:survivors] = col[:c][keep]
            self._op[:survivors] = new_op[keep]
            self._count = survivors
            self.delivered += dropped
            self.dropped += dropped
        else:
            self._op[:c] = new_op
        return dropped


class HeapTransport:
    """Per-tuple heapq transport (the retained scalar reference).

    Entries are ``(arrival, round, seq, op, port, key, ts, size)``
    tuples; the heap order ``(arrival, round, seq)`` reproduces exactly
    the delivery grouping of :class:`ArrayTransport` — all in-flight
    due tuples form round 1 of a tick, zero-delay cascade outputs of
    round *r* form round *r + 1*.
    """

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        # Duck-typed tracer handle (see repro.obs.trace); None means no
        # tracing and every hook is a single attribute check.
        self.trace = None

    @property
    def in_flight(self) -> int:
        return len(self._heap)

    @property
    def buffered(self) -> int:
        """Tuples parked in the retransmit buffer (0 without one)."""
        return 0

    def buffered_by_op(self, num_ops: int) -> np.ndarray:
        """Retransmit-buffer backlog per target op (all zero here)."""
        return np.zeros(num_ops, dtype=np.int64)

    def inflight_seqs(self) -> np.ndarray:
        """Sequence numbers currently in the in-flight heap."""
        return np.array([entry[2] for entry in self._heap], dtype=np.int64)

    def buffered_seqs(self) -> np.ndarray:
        """Sequence numbers parked in the retransmit buffer (none here)."""
        return np.empty(0, dtype=np.int64)

    def send_one(
        self,
        arrival: int,
        round_: int,
        seq: int,
        op: int,
        port: int,
        key: int,
        ts: int,
        size: float,
    ) -> None:
        heapq.heappush(self._heap, (arrival, round_, seq, op, port, key, ts, size))
        self.sent += 1

    def due(self, now: int, round_: int) -> list[tuple]:
        """Pop every tuple due at ``now`` for this delivery round."""
        out = []
        heap = self._heap
        while heap and heap[0][0] <= now and heap[0][1] <= round_:
            out.append(heapq.heappop(heap))
        self.delivered += len(out)
        return out

    def remap_ops(self, mapping: np.ndarray, key_split: dict | None = None) -> int:
        """Re-address in-flight tuples after a recompile (see twin)."""
        kept = []
        dropped = 0
        split = key_split or {}
        for arrival, round_, seq, op, port, key, ts, size in self._heap:
            route = split.get(op)
            if route is not None:
                targets, new_port = route
                new = int(targets[route_bucket_int(key, len(targets))])
                if new_port is not None:
                    port = new_port
            else:
                new = int(mapping[op])
                if new < 0:
                    dropped += 1
                    if self.trace is not None:
                        self.trace.record_drop_uninstall_one(seq, op)
                    continue
            kept.append((arrival, round_, seq, new, port, key, ts, size))
        if dropped:
            heapq.heapify(kept)
            self._heap = kept
            self.delivered += dropped
            self.dropped += dropped
        elif kept != self._heap:
            heapq.heapify(kept)
            self._heap = kept
        return dropped


class ReliableTransport(ArrayTransport):
    """Array transport with a bounded struct-of-arrays retransmit buffer.

    Tuples bound for a failed node are parked via :meth:`buffer` (the
    data plane hands back the dead-bound slice of a delivery batch, in
    canonical order) and moved back into the in-flight pool by one
    vectorized :meth:`redeliver` mask pass once the target service's
    host is alive again.  The buffer holds at most ``max_buffer``
    tuples; excess tuples are rejected (returned as an overflow count)
    so the caller can drop them with explicit accounting.  Conservation
    extends to ``sent == delivered + in_flight + buffered``.
    """

    _BUF_INITIAL = 256

    def __init__(
        self,
        max_buffer: int = 4096,
        scratch: ScratchArena | None = None,
    ) -> None:
        super().__init__(scratch)
        if max_buffer < 0:
            raise ValueError("max_buffer must be non-negative")
        self.max_buffer = max_buffer
        self._b_cap = min(self._BUF_INITIAL, max(1, max_buffer))
        for name in ("_b_op", "_b_port", "_b_key", "_b_ts", "_b_seq"):
            setattr(self, name, np.empty(self._b_cap, dtype=np.int64))
        self._b_size = np.empty(self._b_cap, dtype=np.float64)
        self._b_count = 0
        self.redelivered = 0
        self.buffered_total = 0

    @property
    def buffered(self) -> int:
        return self._b_count

    def buffered_by_op(self, num_ops: int) -> np.ndarray:
        """Retransmit-buffer backlog per target op (one bincount)."""
        return np.bincount(self._b_op[: self._b_count], minlength=num_ops)

    def buffered_seqs(self) -> np.ndarray:
        """Sequence numbers parked in the retransmit buffer (copy)."""
        return self._b_seq[: self._b_count].copy()

    def _grow_buffer(self, needed: int) -> None:
        cap = self._b_cap
        while cap < needed:
            cap *= 2
        cap = min(cap, max(1, self.max_buffer))
        for name in ("_b_op", "_b_port", "_b_key", "_b_ts", "_b_size", "_b_seq"):
            old = getattr(self, name)
            fresh = np.empty(cap, dtype=old.dtype)
            fresh[: self._b_count] = old[: self._b_count]
            setattr(self, name, fresh)
        self._b_cap = cap

    def buffer(
        self,
        op: np.ndarray,
        port: np.ndarray,
        key: np.ndarray,
        ts: np.ndarray,
        size: np.ndarray,
        seq: np.ndarray,
    ) -> int:
        """Park dead-bound tuples; returns how many overflowed the bound.

        The first ``max_buffer - buffered`` tuples (in the caller's
        canonical order) are accepted and subtracted from ``delivered``
        (they are back inside the transport); the rest are rejected and
        stay counted as delivered so the caller can account the drop.
        """
        n = op.shape[0]
        if n == 0:
            return 0
        accept = min(n, self.max_buffer - self._b_count)
        if accept > 0:
            if self._b_count + accept > self._b_cap:
                self._grow_buffer(self._b_count + accept)
            lo, hi = self._b_count, self._b_count + accept
            self._b_op[lo:hi] = op[:accept]
            self._b_port[lo:hi] = port[:accept]
            self._b_key[lo:hi] = key[:accept]
            self._b_ts[lo:hi] = ts[:accept]
            self._b_size[lo:hi] = size[:accept]
            self._b_seq[lo:hi] = seq[:accept]
            self._b_count = hi
            self.delivered -= accept
            self.buffered_total += accept
        return n - max(accept, 0)

    def redeliver(self, alive_of_op: np.ndarray, now: int) -> int:
        """Re-inject buffered tuples whose target op is alive again.

        One boolean mask over the buffer; the released tuples enter the
        in-flight pool due *now* (they join the tick's first delivery
        round with their original sequence numbers, so canonical
        ordering is preserved).  Returns the number released.
        """
        c = self._b_count
        if c == 0:
            return 0
        mask = alive_of_op[self._b_op[:c]]
        hits = int(mask.sum())
        if hits == 0:
            return 0
        if self.trace is not None:
            self.trace.record_redeliver(self._b_seq[:c][mask], self._b_op[:c][mask])
        self._append(
            np.full(hits, now, dtype=np.int64),
            self._b_op[:c][mask],
            self._b_port[:c][mask],
            self._b_key[:c][mask],
            self._b_ts[:c][mask],
            self._b_size[:c][mask],
            self._b_seq[:c][mask],
        )
        keep = ~mask
        survivors = int(keep.sum())
        for name in ("_b_op", "_b_port", "_b_key", "_b_ts", "_b_size", "_b_seq"):
            col = getattr(self, name)
            col[:survivors] = col[:c][keep]
        self._b_count = survivors
        self.redelivered += hits
        return hits

    def remap_ops(self, mapping: np.ndarray, key_split: dict | None = None) -> int:
        """Re-address pool *and* buffer; buffered orphans drop too."""
        dropped = super().remap_ops(mapping, key_split)
        c = self._b_count
        if c == 0:
            return dropped
        ops = self._b_op[:c]
        new_op = mapping[ops]
        if key_split:
            keys = self._b_key[:c]
            for old, (targets, port) in key_split.items():
                mask = ops == old
                if not mask.any():
                    continue
                new_op[mask] = targets[route_bucket(keys[mask], len(targets))]
                if port is not None:
                    self._b_port[:c][mask] = port
        keep = new_op >= 0
        b_dropped = int(c - keep.sum())
        if b_dropped:
            if self.trace is not None:
                self.trace.record_drop_uninstall(
                    self._b_seq[:c][~keep], self._b_op[:c][~keep]
                )
            survivors = int(keep.sum())
            for name in ("_b_op", "_b_port", "_b_key", "_b_ts", "_b_size", "_b_seq"):
                col = getattr(self, name)
                col[:survivors] = col[:c][keep]
            self._b_op[:survivors] = new_op[keep]
            self._b_count = survivors
            # Dropped buffered tuples exit the transport: they count as
            # delivered again (restoring the balance) and as dropped.
            self.delivered += b_dropped
            self.dropped += b_dropped
        else:
            self._b_op[:c] = new_op
        return dropped + b_dropped


class ReliableHeapTransport(HeapTransport):
    """Per-tuple retransmit-buffer twin of :class:`ReliableTransport`.

    The buffer is a plain list in insertion order; :meth:`buffer_one`
    accepts until the bound is hit (same first-come-first-buffered
    policy) and :meth:`redeliver` walks the list pushing released
    tuples back onto the heap as round-1 arrivals at ``now``.
    """

    def __init__(self, max_buffer: int = 4096) -> None:
        super().__init__()
        if max_buffer < 0:
            raise ValueError("max_buffer must be non-negative")
        self.max_buffer = max_buffer
        self._buffer: list[tuple] = []
        self.redelivered = 0
        self.buffered_total = 0

    @property
    def buffered(self) -> int:
        return len(self._buffer)

    def buffered_by_op(self, num_ops: int) -> np.ndarray:
        """Per-op backlog (per-tuple twin of the bincount version)."""
        counts = np.zeros(num_ops, dtype=np.int64)
        for entry in self._buffer:
            counts[entry[0]] += 1
        return counts

    def buffered_seqs(self) -> np.ndarray:
        """Sequence numbers parked in the retransmit buffer."""
        return np.array([entry[5] for entry in self._buffer], dtype=np.int64)

    def buffer_one(
        self, op: int, port: int, key: int, ts: int, size: float, seq: int
    ) -> bool:
        """Park one dead-bound tuple; False when the bound rejects it."""
        if len(self._buffer) >= self.max_buffer:
            return False
        self._buffer.append((op, port, key, ts, size, seq))
        self.delivered -= 1
        self.buffered_total += 1
        return True

    def redeliver(self, alive_of_op: np.ndarray, now: int) -> int:
        kept = []
        hits = 0
        for entry in self._buffer:
            op, port, key, ts, size, seq = entry
            if alive_of_op[op]:
                if self.trace is not None:
                    self.trace.record_redeliver_one(seq, op)
                heapq.heappush(self._heap, (now, 1, seq, op, port, key, ts, size))
                hits += 1
            else:
                kept.append(entry)
        self._buffer = kept
        self.redelivered += hits
        return hits

    def remap_ops(self, mapping: np.ndarray, key_split: dict | None = None) -> int:
        dropped = super().remap_ops(mapping, key_split)
        kept = []
        b_dropped = 0
        split = key_split or {}
        for entry in self._buffer:
            op, port, key, ts, size, seq = entry
            route = split.get(op)
            if route is not None:
                targets, new_port = route
                new = int(targets[route_bucket_int(key, len(targets))])
                if new_port is not None:
                    port = new_port
            else:
                new = int(mapping[op])
                if new < 0:
                    b_dropped += 1
                    if self.trace is not None:
                        self.trace.record_drop_uninstall_one(seq, op)
                    continue
            kept.append((new, port, key, ts, size, seq))
        self._buffer = kept
        if b_dropped:
            self.delivered += b_dropped
            self.dropped += b_dropped
        return dropped + b_dropped
