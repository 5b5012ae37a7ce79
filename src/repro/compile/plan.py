"""Static replay plans: flat step lists with pre-planned buffer lifetimes.

A :class:`CompiledPlan` is built from one captured step.  The forward half is
a flat list of ``(op, src_slots, dst_slot)`` steps over a dense value table;
runs of single-consumer unary elementwise ops are fused into chain steps
whose intermediates never touch the table.  The backward half is recorded by
*executing* the capture step's backward through the same code path the eager
engine uses — so the plan's gradient arithmetic is bit-identical by
construction — while assigning every intermediate gradient a **static
buffer** chosen by first/last-use liveness: a buffer is born at a node's
first gradient contribution, dies after the node's own backward step, and is
immediately reusable (keyed by shape and layout) for later nodes.  Replays
therefore perform no arena-key hashing at all: value slots are a list copy,
gradient buffers are fixed, and op-internal scratch is served positionally
from the take schedule the backend logged at capture time.
"""

from __future__ import annotations

import operator
import sys
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.compile.graph import CaptureContext, CaptureError
from repro.tensor import ops as _ops
from repro.tensor.backend import DEFAULT_DTYPE

# Unary elementwise ops eligible for forward chain fusion.  Their backward
# reads op-saved context (never the value table), so a fused intermediate
# only needs its slot written when some *other* consumer reads it — in which
# case the run is simply not fused across that point.
_CHAIN_OPS = (
    _ops.NegOp, _ops.ExpOp, _ops.LogOp, _ops.TanhOp, _ops.SigmoidOp,
    _ops.ReluOp, _ops.GeluOp, _ops.AbsOp, _ops.ClipOp, _ops.PowOp,
)

_F32 = np.dtype(DEFAULT_DTYPE)


class CompiledPlan:
    """A replayable forward (and optionally backward) schedule."""

    def __init__(self, backend, nslots: int, template: list,
                 feeds, param_reads, refreshes, patches, hooks,
                 fwd_steps, fwd_takes, loss_slot: int, aux_slots: Dict[str, int]):
        self.backend = backend
        self.nslots = nslots
        self._template = template
        self._feeds = feeds
        self._param_reads = param_reads
        self._refreshes = refreshes
        self._patches = patches
        self._hooks = hooks
        self._fwd_steps = fwd_steps
        self._fwd_takes = fwd_takes
        self.loss_slot = loss_slot
        self.aux_slots = aux_slots
        # Static op-call tally: one record_bulk per replay instead of one
        # dictionary update per step (the schedule never changes shape).
        counts: Dict[str, int] = {}
        for st in fwd_steps:
            if st[0] == 0:
                counts[st[1].name] = counts.get(st[1].name, 0) + 1
            else:
                for op, _needs in st[1]:
                    counts[op.name] = counts.get(op.name, 0) + 1
        self._op_counts = counts
        # Backward half (filled by record_backward for training plans).
        self._bwd_steps: Optional[list] = None
        self._bwd_takes: list = []
        self._gradbufs: List[np.ndarray] = []
        self._leafbufs: List[np.ndarray] = []
        self._seed: Optional[np.ndarray] = None
        self.ready = False
        self.has_backward = False

    # ------------------------------------------------------------------ #
    # Introspection (tests, docs)
    # ------------------------------------------------------------------ #
    @property
    def num_chain_steps(self) -> int:
        return sum(1 for st in self._fwd_steps if st[0] == 1)

    @property
    def num_grad_buffers(self) -> int:
        return len(self._gradbufs)

    @property
    def num_stolen_grads(self) -> int:
        """Gradient slots bound to an op's own result rather than a planned buffer."""
        return sum(1 for buf in self._gradbufs if buf is None)

    @property
    def num_backward_steps(self) -> int:
        return len(self._bwd_steps) if self._bwd_steps is not None else 0

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #
    def run_forward(self, arrays, be) -> list:
        """Execute the static schedule; returns the filled value table."""
        vals = self._template[:]
        for slot, idx in self._feeds:
            vals[slot] = arrays[idx]
        for slot, t in self._param_reads:
            vals[slot] = t.data
        for fn in self._patches:
            fn(arrays)
        for slot, fn in self._refreshes:
            vals[slot] = fn()
        if self._fwd_takes:
            be.begin_replay(self._fwd_takes)
        try:
            asarray = np.asarray
            for st in self._fwd_steps:
                if st[0] == 0:
                    _, op, needs, srcs, dst = st
                    op.needs = needs
                    n = len(srcs)
                    if n == 1:
                        out = op.forward(be, vals[srcs[0]])
                    elif n == 2:
                        out = op.forward(be, vals[srcs[0]], vals[srcs[1]])
                    elif n == 3:
                        out = op.forward(be, vals[srcs[0]], vals[srcs[1]],
                                         vals[srcs[2]])
                    else:
                        out = op.forward(be, *[vals[s] for s in srcs])
                    vals[dst] = asarray(out, dtype=_F32)
                else:
                    _, subops, src, dst = st
                    x = vals[src]
                    for op, needs in subops:
                        op.needs = needs
                        x = asarray(op.forward(be, x), dtype=_F32)
                    vals[dst] = x
        finally:
            if self._fwd_takes:
                be.end_replay()
        be.record_bulk(self._op_counts)
        for getters, fn in self._hooks:
            fn(*[g(vals) for g in getters])
        return vals

    def run_backward(self, be) -> None:
        """Replay the recorded backward over the static gradient buffers."""
        if not self.has_backward:
            raise RuntimeError("this plan was captured without a backward pass")
        # Stolen-gradient slots (None entries) are rebound every replay, so
        # work over a copy of the buffer table; planned buffers stay put.
        bufs = self._gradbufs[:]
        seed = self._seed
        if self._bwd_takes:
            be.begin_replay(self._bwd_takes)
        try:
            for op, gsrc, contribs in self._bwd_steps:
                g = seed if gsrc < 0 else bufs[gsrc]
                grads = op.backward(be, g)
                # One entry per recorded accumulation, in order: (input
                # index, part index or -1 for a plain gradient, spec).
                for idx, part, spec in contribs:
                    gc = grads[idx]
                    if gc is None:
                        continue
                    if part >= 0:
                        gc = gc[part]
                    if spec[0] == 0:
                        buf = bufs[spec[1]]
                        if spec[2]:
                            np.copyto(buf, gc)
                        else:
                            np.add(buf, gc, out=buf)
                    elif spec[0] == 2:
                        # Stolen first touch: the op allocated this array
                        # fresh with the planned layout, so keep it instead
                        # of copying (record time proved no aliasing).
                        bufs[spec[1]] = gc.astype(_F32, copy=False)
                    else:
                        t = spec[1]
                        g32 = gc.astype(_F32, copy=False)
                        if t.grad is None:
                            buf = spec[2]
                            np.copyto(buf, g32)
                            t.grad = buf
                        else:
                            np.add(t.grad, g32, out=t.grad)
                op.release(be)
        finally:
            if self._bwd_takes:
                be.end_replay()

    # ------------------------------------------------------------------ #
    # Backward recording (runs ON the capture step; eager-equivalent)
    # ------------------------------------------------------------------ #
    def record_backward(self, cap: CaptureContext, loss, be, bwd_takes: list) -> None:
        """Run the capture step's backward, recording a static schedule.

        This *is* the backward pass for the capture step: the same topological
        order, the same accumulate arithmetic and the same op-release points
        as ``Tensor.backward`` on a pooling backend, instrumented to assign
        each intermediate gradient a liveness-pooled static buffer.
        """
        if not loss.requires_grad or loss._op_obj is None:
            raise CaptureError("loss is not a differentiable graph output")
        if loss.data.size != 1:
            raise CaptureError("compiled backward requires a scalar loss")

        # Topological order — identical to Tensor.backward.
        topo: list = []
        visited: set = set()
        stack: list = [(loss, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for child in node._prev:
                if id(child) not in visited:
                    stack.append((child, False))

        seed = np.ones_like(loss.data).astype(DEFAULT_DTYPE, copy=True).reshape(loss.data.shape)
        loss.grad = seed
        self._seed = seed

        free: Dict[Tuple, List[int]] = {}   # (shape, strides) -> free buffer ids
        assigned: Dict[int, int] = {}       # id(tensor) -> buffer id
        specs: List[Tuple] = []             # buffer id -> (shape, strides)
        bufs: List[Optional[np.ndarray]] = []
        leaf_bufs: Dict[int, np.ndarray] = {}   # id(leaf tensor) -> static buffer
        proto_strides: Dict[Tuple, Tuple] = {}  # child layout -> take_like strides

        def contribute(child, g) -> Tuple:
            """Accumulate ``g`` into ``child.grad``; return the replay spec."""
            if child._op_obj is not None:
                if child.grad is None:
                    # Steal the gradient when the op allocated it fresh (sole
                    # reference: the grads container, the caller's local, the
                    # parameter and getrefcount's argument) with exactly the
                    # layout a ``take_like`` buffer would have — then replay
                    # binds the op's own output instead of memcpy'ing it into
                    # a planned buffer.  Views, reused buffers and oddly
                    # strided results keep the copying path.
                    key = (child.data.shape, child.data.strides, child.data.dtype.str)
                    want = proto_strides.get(key)
                    if want is None:
                        want = np.empty_like(child.data).strides
                        proto_strides[key] = want
                    if (g.base is None and g.dtype == _F32
                            and g.shape == child.data.shape
                            and g.strides == want
                            and sys.getrefcount(g) == 4):
                        bid = len(bufs)
                        bufs.append(None)
                        specs.append(None)
                        child.grad = g
                        assigned[id(child)] = bid
                        return (2, bid)
                    g32 = g.astype(DEFAULT_DTYPE, copy=False)
                    spec = (child.data.shape, child.data.strides)
                    pool = free.get(spec)
                    if pool:
                        bid = pool.pop()
                    else:
                        bid = len(bufs)
                        # Layout-matched, exactly like the arena's take_like.
                        bufs.append(np.empty_like(child.data))
                        specs.append(spec)
                    np.copyto(bufs[bid], g32)
                    child.grad = bufs[bid]
                    assigned[id(child)] = bid
                    return (0, bid, True)
                np.add(child.grad, g.astype(DEFAULT_DTYPE, copy=False), out=child.grad)
                return (0, assigned[id(child)], False)
            # Leaf: accumulate into a plan-static buffer rather than through
            # the arena — same arithmetic as the backend's ``accumulate``, but
            # replay then needs no per-parameter pool lookup (and no
            # take-schedule entry, so record and replay stay cursor-aligned).
            g32 = g.astype(DEFAULT_DTYPE, copy=False)
            buf = leaf_bufs.get(id(child))
            if buf is None:
                buf = np.empty_like(child.data)
                leaf_bufs[id(child)] = buf
                self._leafbufs.append(buf)
            if child.grad is None:
                np.copyto(buf, g32)
                child.grad = buf
            else:
                np.add(child.grad, g32, out=child.grad)
            return (1, child, buf)

        steps: list = []
        for node in reversed(topo):
            op = node._op_obj
            if op is None or node.grad is None:
                continue
            gsrc = -1 if node is loss else assigned[id(node)]
            input_grads = op.backward(be, node.grad)
            if not isinstance(input_grads, (list, tuple)):
                input_grads = list(input_grads)
            contribs: list = []
            for idx in range(len(node._prev)):
                child = node._prev[idx]
                g = input_grads[idx]
                if g is None or not child.requires_grad:
                    continue
                if type(g) is tuple:
                    # Ordered parts: one accumulation each, in order.
                    for part in range(len(g)):
                        gp = g[part]   # no enumerate(): its tuple would hold a ref
                        contribs.append((idx, part, contribute(child, gp)))
                else:
                    contribs.append((idx, -1, contribute(child, g)))
            steps.append((op, gsrc, tuple(contribs)))
            if node is not loss:
                node.grad = None
                bid = assigned[id(node)]
                if specs[bid] is not None:   # stolen slots own no buffer
                    free.setdefault(specs[bid], []).append(bid)
            op.release(be)

        self._bwd_steps = steps
        self._bwd_takes = bwd_takes
        self._gradbufs = bufs
        own = getattr(be, "own", None)
        if own is not None:
            own(self._leafbufs)
        self.has_backward = True
        self.ready = True

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def release(self) -> None:
        """Return schedule ownership to the backend (plan eviction)."""
        disown = getattr(self.backend, "disown", None)
        if disown is not None:
            disown(self._fwd_takes)
            disown(self._bwd_takes)
            disown(self._leafbufs)


def build_forward_plan(cap: CaptureContext, loss, aux_tensors: Dict[str, object],
                       be, fwd_takes: list) -> CompiledPlan:
    """Lower a capture into a :class:`CompiledPlan` (forward half)."""
    err = cap.validate()
    if err is not None:
        raise CaptureError(err)
    loss_slot = cap.by_tensor.get(id(loss))
    if loss_slot is None or id(loss) not in cap.node_by_tensor:
        raise CaptureError("the step's output is not a captured op result")

    aux_slots: Dict[str, int] = {}
    for name, t in aux_tensors.items():
        if t is None:
            continue
        slot = cap.by_tensor.get(id(t))
        if slot is not None:
            aux_slots[name] = slot

    # Slots that must stay materialised in the value table.
    keep = {loss_slot}
    keep.update(aux_slots.values())

    hooks = []
    for fn, sources in cap.stat_hooks:
        getters = []
        for a in sources:
            node = cap.by_array.get(id(a))
            if node is not None:
                getters.append(operator.itemgetter(node.dst))
                keep.add(node.dst)
            else:
                src = cap.attr_sources.get(id(a))
                if src is None:
                    raise CaptureError("stat-hook source is neither a captured "
                                       "value nor a registered op attribute")
                getters.append(lambda vals, _op=src[0], _attr=src[1]: getattr(_op, _attr))
        hooks.append((tuple(getters), fn))

    fwd_steps = _fuse_chains(cap.records, keep)

    template: list = [None] * cap.nslots
    for slot, arr in cap.consts:
        template[slot] = arr

    return CompiledPlan(
        backend=be,
        nslots=cap.nslots,
        template=template,
        feeds=tuple(cap.feeds),
        param_reads=tuple(cap.param_reads),
        refreshes=tuple(cap.refreshes),
        patches=tuple(cap.patches),
        hooks=tuple(hooks),
        fwd_steps=fwd_steps,
        fwd_takes=fwd_takes,
        loss_slot=loss_slot,
        aux_slots=aux_slots,
    )


def _fuse_chains(records, keep: set) -> list:
    """Fuse maximal runs of single-consumer unary elementwise ops.

    A chain step executes its sub-ops back to back and writes only the final
    slot; intermediates are dead values whose slots the replay never touches
    (their gradients still flow — backward reads op-saved context, and the
    static gradient buffers are pre-seeded at record time).
    """
    consumers: Dict[int, int] = {}
    for node in records:
        for s in node.srcs:
            consumers[s] = consumers.get(s, 0) + 1

    def chainable(node) -> bool:
        return isinstance(node.op, _CHAIN_OPS) and len(node.srcs) == 1

    steps: list = []
    i = 0
    n = len(records)
    while i < n:
        node = records[i]
        if chainable(node):
            j = i
            while (j + 1 < n
                   and chainable(records[j + 1])
                   and records[j + 1].srcs[0] == records[j].dst
                   and consumers.get(records[j].dst, 0) == 1
                   and records[j].dst not in keep):
                j += 1
            if j > i:
                subops = tuple((records[k].op, records[k].needs) for k in range(i, j + 1))
                steps.append((1, subops, records[i].srcs[0], records[j].dst))
                i = j + 1
                continue
        steps.append((0, node.op, node.needs, node.srcs, node.dst))
        i += 1
    return steps
