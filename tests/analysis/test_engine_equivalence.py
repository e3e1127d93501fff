"""Equivalence: fused columnar engine vs the retained reference path.

The contract the engine must honour (ISSUE: "hard equivalence bar"):
for any trace, the single-pass interned/bitmask pipeline and the original
multi-pass string-set pipeline produce identical sections, shared sets,
pair kinds, breakdowns and transformed traces — byte for byte once
serialized.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import analyze_pairs, transform
from repro.analysis.reference import analyze_pairs_reference
from repro.record import record
from repro.sim import Acquire, Add, Compute, Read, Release, Store, Write
from repro.trace import CodeSite, dumps, loads
from repro.workloads import get_workload

WORKLOADS = ("tunable-contention", "mixed-bag")


def breakdown_tuple(analysis):
    b = analysis.breakdown
    return (b.null_lock, b.read_read, b.disjoint_write, b.benign, b.tlcp)


def pair_kinds(analysis):
    return [(p.c1.uid, p.c2.uid, p.kind) for p in analysis.pairs]


def section_state(sections):
    return {
        cs.uid: (
            cs.tid,
            cs.lock,
            cs.lock_index,
            cs.pre_anchor,
            cs.post_anchor,
            frozenset(cs.reads),
            frozenset(cs.writes),
            frozenset(cs.srd),
            frozenset(cs.swr),
            [e.uid for e in cs.body],
        )
        for cs in sections
    }


def assert_equivalent(trace):
    engine = analyze_pairs(trace)
    reference = analyze_pairs_reference(trace)
    assert pair_kinds(engine) == pair_kinds(reference)
    assert breakdown_tuple(engine) == breakdown_tuple(reference)
    assert section_state(engine.sections) == section_state(reference.sections)
    transformed = transform(trace, analysis=engine)
    transformed_ref = transform(trace, analysis=reference)
    assert dumps(transformed.trace) == dumps(transformed_ref.trace)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", (0, 1, 7))
@pytest.mark.parametrize("threads", (2, 4))
def test_synthetic_workloads_equivalent(workload, seed, threads):
    spec = get_workload(workload, threads=threads, seed=seed, scale=0.5)
    assert_equivalent(spec.record().trace)


@pytest.mark.parametrize("name", ("fluidanimate", "dedup", "mysql"))
def test_paper_workloads_equivalent(name):
    spec = get_workload(name, threads=2, scale=0.25)
    assert_equivalent(spec.record().trace)


def test_benign_detection_off_equivalent():
    trace = get_workload("tunable-contention", threads=4, seed=3).record().trace
    engine = analyze_pairs(trace, benign_detection=False)
    reference = analyze_pairs_reference(trace, benign_detection=False)
    assert pair_kinds(engine) == pair_kinds(reference)
    assert breakdown_tuple(engine) == breakdown_tuple(reference)


# --------------------------------------------- random-program property

ADDRS = ("x", "y", "z")
LOCKS = ("A", "B")

op_strategy = st.one_of(
    st.tuples(st.just("read"), st.sampled_from(ADDRS)),
    st.tuples(st.just("store"), st.sampled_from(ADDRS), st.integers(0, 3)),
    st.tuples(st.just("add"), st.sampled_from(ADDRS), st.integers(1, 3)),
    st.tuples(st.just("compute"), st.integers(1, 200)),
)

cs_strategy = st.tuples(
    st.sampled_from(LOCKS),
    st.lists(op_strategy, max_size=4),
    st.integers(0, 300),
)

program_set_strategy = st.lists(
    st.lists(cs_strategy, min_size=1, max_size=5), min_size=1, max_size=4
)


def build_program(sections):
    def prog():
        line = 10
        for lock, body, think in sections:
            if think:
                yield Compute(think, site=CodeSite("gen.c", line))
            yield Acquire(lock=lock, site=CodeSite("gen.c", line + 1))
            for op in body:
                if op[0] == "read":
                    yield Read(op[1], site=CodeSite("gen.c", line + 2))
                elif op[0] == "store":
                    yield Write(op[1], op=Store(op[2]), site=CodeSite("gen.c", line + 2))
                elif op[0] == "add":
                    yield Write(op[1], op=Add(op[2]), site=CodeSite("gen.c", line + 2))
                else:
                    yield Compute(op[1], site=CodeSite("gen.c", line + 2))
            yield Release(lock=lock, site=CodeSite("gen.c", line + 3))
            line += 10

    return prog


@settings(max_examples=40, deadline=None)
@given(program_set_strategy)
def test_random_programs_equivalent(program_specs):
    programs = [build_program(sections) for sections in program_specs]
    trace = record([p() for p in programs]).trace
    assert_equivalent(trace)


def _full_output(payload, analyze):
    """Analysis + transformed bytes on a fresh ``loads`` of ``payload``:
    the scan and columnar memos live on the trace object, so a shared
    instance would let one side coast on the other's cached work."""
    trace = loads(payload)
    analysis = analyze(trace)
    result = transform(trace, analysis=analysis)
    return (
        pair_kinds(analysis),
        breakdown_tuple(analysis),
        section_state(analysis.sections),
        dumps(result.trace),
    )


@settings(max_examples=40, deadline=None)
@given(program_set_strategy)
def test_random_programs_match_reference_after_round_trip(program_specs):
    programs = [build_program(sections) for sections in program_specs]
    payload = dumps(record([p() for p in programs]).trace)
    assert _full_output(payload, analyze_pairs) == _full_output(
        payload, analyze_pairs_reference
    )


# ------------------------------------- in-memory scan identity/laziness


@pytest.mark.usefixtures("numpy_env")
def test_in_memory_scan_keeps_core_events_lazy(tmp_path):
    """The whole-core scan is the chunk walk over the core's own views:
    sections hold the views' event objects, bodies stay lazy slices of
    them, no body span is recorded, and only acquire/release events
    materialize."""
    from repro.analysis.engine import scan_trace
    from repro.trace.segments import load_segmented_columnar, write_segmented

    trace = get_workload("mixed-bag", threads=4, seed=2, scale=0.5).record().trace
    path = tmp_path / "t.seg.jsonl.gz"
    write_segmented(trace, path, segment_events=256)
    core = load_segmented_columnar(path)  # fresh: nothing materialized
    scan = scan_trace(core)

    views = core.threads
    assert scan.sections
    assert scan.body_spans == {}
    materialized = sum(len(view) - view._missing for view in views.values())
    assert materialized == 2 * len(scan.sections)

    slots = {
        tid: {uid: i for i, uid in enumerate(column.uids)}
        for tid, column in core.columns.items()
    }
    for cs in scan.sections:
        view = views[cs.tid]
        start, end = slots[cs.tid][cs.uid], slots[cs.tid][cs.release.uid]
        assert cs.acquire is view[start]
        assert cs.release is view[end]
        assert cs.body == view[start + 1:end]
