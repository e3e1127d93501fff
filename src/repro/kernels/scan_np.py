"""Vectorized engine scan: numpy twin of ``analysis.engine`` chunk walk.

The walk itself stays sparse — critical-section open/close is a Python
loop, but only over the *lock events* (``flatnonzero`` of the kind
column), which are typically a small fraction of the trace.  The dense
work — finding reads/writes, discovering shared addresses, accumulating
access-set bitmasks — runs as array operations:

* ``searchsorted(read_positions, lock_positions)`` splits each thread's
  reads/writes into inter-lock-event spans in one shot,
* each span ORs into the open sections' masks as a single
  :func:`repro.kernels.mask_from_ids` batch instead of one
  ``mask |= 1 << aid`` per event,
* sharedness is ``unique`` over the span of touched address ids plus
  the same first-toucher map the pure walk keeps.

Byte-equivalence contract: identical sections (uids, anchors, masks,
bodies/spans), identical ``TraceError`` messages raised at the same
first offending lock event, identical ``TraceScan`` fields.  There is
one kernel, :func:`walk_chunk`: an in-memory core is scanned as one
whole-column chunk per thread.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.sections import CriticalSection
from repro.errors import TraceError
from repro.kernels import mask_from_ids
from repro.trace.interning import (
    ACQUIRE_CODE,
    READ_CODE,
    RELEASE_CODE,
    WRITE_CODE,
)


def _discover_shared(aid, r_pos, w_pos, tid_id, first_toucher, shared_ids):
    """First-toucher sharedness over one thread's (chunk's) accesses."""
    if len(r_pos) and len(w_pos):
        touched = np.unique(np.concatenate((aid[r_pos], aid[w_pos])))
    elif len(r_pos):
        touched = np.unique(aid[r_pos])
    elif len(w_pos):
        touched = np.unique(aid[w_pos])
    else:
        return
    for a in touched.tolist():
        if first_toucher.setdefault(a, tid_id) != tid_id:
            shared_ids.add(a)


def walk_chunk(tid, column, base, st, scan, first_toucher, lock_name,
               view) -> None:
    """Vectorized twin of ``engine._walk_chunk_py``.

    ``st`` is the thread's carried ``_ThreadScanState``; masks of
    sections still open from earlier chunks keep accumulating here
    (head span before the chunk's first lock event, tail span after its
    last).  ``view`` is the thread's whole-thread event view or ``None``
    (see ``engine.ScanFold``).  The caller accounts ``scan.events`` and
    runs the end-of-stream unclosed check.
    """
    n = len(column.kind)
    if not n:
        return
    uids = column.uids
    if st.pending_post:
        for cs in st.pending_post:
            cs.post_anchor = uids[0]
        st.pending_post.clear()

    k = np.frombuffer(column.kind, dtype=np.int8)
    aid = np.frombuffer(column.addr_id, dtype=np.int32)
    kinds = column.kind
    lock_ids = column.lock_id
    tid_id = column.tid_id
    sections = scan.sections
    body_spans = scan.body_spans

    r_pos = np.flatnonzero(k == READ_CODE)
    w_pos = np.flatnonzero(k == WRITE_CODE)
    _discover_shared(aid, r_pos, w_pos, tid_id, first_toucher, scan.shared_ids)

    r_aid = aid[r_pos].tolist()
    w_aid = aid[w_pos].tolist()
    stack = st.stack
    read_masks = st.read_masks
    write_masks = st.write_masks
    open_by_lock = st.open_by_lock
    rk = wk = 0

    lock_pos = np.flatnonzero((k == ACQUIRE_CODE) | (k == RELEASE_CODE))
    if len(lock_pos):
        r_cut = np.searchsorted(r_pos, lock_pos).tolist()
        w_cut = np.searchsorted(w_pos, lock_pos).tolist()
        for j, i in enumerate(lock_pos.tolist()):
            cr = r_cut[j]
            cw = w_cut[j]
            if stack:
                if cr > rk:
                    m = mask_from_ids(r_aid[rk:cr], np)
                    read_masks[:] = [x | m for x in read_masks]
                if cw > wk:
                    m = mask_from_ids(w_aid[wk:cw], np)
                    write_masks[:] = [x | m for x in write_masks]
            rk = cr
            wk = cw
            lid = lock_ids[i]
            if kinds[i] == ACQUIRE_CODE:
                if lid in open_by_lock:
                    raise TraceError(
                        f"{tid}: nested acquire of same lock "
                        f"{lock_name(lid)}"
                    )
                pre = uids[i - 1] if i else st.last_uid
                if view is None:
                    cs = CriticalSection._open(
                        uids[i], tid, lock_name(lid), column.event(i), pre,
                    )
                    body_spans[cs.uid] = (tid, base + i + 1, base + i + 1)
                else:
                    cs = CriticalSection._open(
                        uids[i], tid, lock_name(lid), view[base + i], pre,
                    )
                    cs._body_source = (view, base + i + 1, base + i + 1)
                open_by_lock[lid] = cs
                stack.append(cs)
                read_masks.append(0)
                write_masks.append(0)
                sections.append(cs)
            else:
                cs = open_by_lock.pop(lid, None)
                if cs is None:
                    raise TraceError(
                        f"{tid}: release of unheld {lock_name(lid)}"
                    )
                depth = stack.index(cs)
                stack.pop(depth)
                cs.read_mask = read_masks.pop(depth)
                cs.write_mask = write_masks.pop(depth)
                if view is None:
                    cs.release = column.event(i)
                    body_spans[cs.uid] = (tid, body_spans[cs.uid][1], base + i)
                else:
                    cs.release = view[base + i]
                    cs._body_source = (view, cs._body_source[1], base + i)
                if i + 1 < n:
                    cs.post_anchor = uids[i + 1]
                else:
                    st.pending_post.append(cs)
    if stack:
        # tail span: the chunk ends inside open sections
        if rk < len(r_aid):
            m = mask_from_ids(r_aid[rk:], np)
            read_masks[:] = [x | m for x in read_masks]
        if wk < len(w_aid):
            m = mask_from_ids(w_aid[wk:], np)
            write_masks[:] = [x | m for x in write_masks]
    st.last_uid = uids[n - 1]
