"""Tests for RULE 1-4: topology building, re-sync, and trace rewriting.

The central fixture reconstructs the paper's Figure 7 example:

* T1 runs R1 (reads addr "1") then R2 (reads addr "2"),
* T2 runs R2 then W1 (writes addr "1"),
* T3 runs W1 twice,

all under one lock L, with staggers pinning the acquisition order to
``R1(T1), R2(T2), W1st(T3), W1(T2), R2(T1), W2nd(T3)``.
"""

import pytest
from hypothesis import given, settings

from repro import api
from repro.analysis import (
    CAUSAL,
    build_resync_plan,
    build_topology,
    annotate_shared_sets,
    effective_lockset,
    extract_sections,
    mutually_exclusive,
    shared_addresses,
    transform,
)
from repro.analysis import topology as topology_module
from repro.analysis.benign import WriteTimeline, is_benign
from repro.analysis.pairs import analyze_pairs
from repro.analysis.reference import analyze_pairs_reference
from repro.analysis.sections import sections_by_lock
from repro.options import AnalyzeOptions
from repro.record import record
from repro.sim import Acquire, Add, Compute, Read, Release, Store, Write
from repro.sim.requests import decode_op
from repro.trace import dumps
from repro.trace.events import ACQUIRE, CS_ENTER, CS_EXIT, RELEASE
from repro.trace.segments import write_segmented
from repro.workloads import get_workload
from tests.analysis.helpers import record_programs, site
from tests.analysis.test_engine_equivalence import (
    WORKLOADS,
    build_program,
    program_set_strategy,
)


def _cs(lock, events, line):
    yield Acquire(lock=lock, site=site(line))
    for event in events:
        yield event
    yield Release(lock=lock, site=site(line + 2))


def figure7_trace():
    def t1():
        yield from _cs("L", [Read("1", site=site(11))], 10)
        yield Compute(40)
        yield from _cs("L", [Read("2", site=site(16))], 15)

    def t2():
        yield Compute(10)
        yield from _cs("L", [Read("2", site=site(21))], 20)
        yield Compute(15)
        yield from _cs("L", [Write("1", op=Store(5), site=site(26))], 25)

    def t3():
        yield Compute(20)
        yield from _cs("L", [Write("1", op=Store(3), site=site(31))], 30)
        yield Compute(25)
        yield from _cs("L", [Write("1", op=Store(9), site=site(36))], 35)

    return record_programs(t1(), t2(), t3())


def figure7_topology(**kwargs):
    trace = figure7_trace()
    sections = extract_sections(trace)
    annotate_shared_sets(sections, shared_addresses(trace))
    topology = build_topology(trace, sections, **kwargs)
    return trace, sections, topology


def label(sections):
    """Map each section to a readable label for assertions."""
    names = {}
    per_thread_counts = {}
    for cs in sorted(sections, key=lambda c: c.lock_index):
        body_kinds = {e.kind for e in cs.body}
        rw = "W" if "write" in body_kinds else "R"
        addr = next(e.addr for e in cs.body if e.kind in ("read", "write"))
        count = per_thread_counts.get((cs.tid, rw, addr), 0)
        per_thread_counts[(cs.tid, rw, addr)] = count + 1
        suffix = "" if count == 0 else "'"
        names[f"{rw}{addr}@{cs.tid}{suffix}"] = cs
    return names


class TestRule1:
    def test_causal_edges_match_paper_example(self):
        trace, sections, topology = figure7_topology()
        cs = label(sections)
        edges = set(topology.causal_edges())
        expected = {
            (cs["R1@t0"].uid, cs["W1@t1"].uid),
            (cs["R1@t0"].uid, cs["W1@t2"].uid),
            (cs["W1@t2"].uid, cs["W1@t1"].uid),
            (cs["W1@t1"].uid, cs["W1@t2'"].uid),
        }
        assert edges == expected

    def test_read_read_pairs_get_no_edge(self):
        trace, sections, topology = figure7_topology()
        cs = label(sections)
        assert topology.is_standalone(cs["R2@t0"].uid)
        assert topology.is_standalone(cs["R2@t1"].uid)

    def test_topology_is_acyclic(self):
        _, _, topology = figure7_topology()
        order = topology.toposort()
        assert len(order) == 6

    def test_benign_skipped_during_search(self):
        # T1 writes 7; T2 writes 7 (benign) then writes 9 (real conflict):
        # the causal edge must skip the benign section and land on the real one.
        def t1():
            yield from _cs("L", [Write("x", op=Store(7), site=site(11))], 10)

        def t2():
            yield Compute(10)
            yield from _cs("L", [Write("x", op=Store(7), site=site(21))], 20)
            yield Compute(5)
            yield from _cs("L", [Write("x", op=Store(9), site=site(26))], 25)

        trace = record_programs(t1(), t2())
        sections = extract_sections(trace)
        annotate_shared_sets(sections, shared_addresses(trace))
        topology = build_topology(trace, sections)
        by_index = sorted(sections, key=lambda c: c.lock_index)
        first, benign, real = by_index
        assert real.uid in topology.succs(first.uid)
        assert benign.uid not in topology.succs(first.uid)


class TestRule2:
    def test_order_edges_chain_causal_nodes(self):
        trace, sections, topology = figure7_topology()
        cs = label(sections)
        causal_chain = [cs["R1@t0"], cs["W1@t2"], cs["W1@t1"], cs["W1@t2'"]]
        for first, second in zip(causal_chain, causal_chain[1:]):
            assert second.uid in topology.succs(first.uid)

    def test_order_edges_can_be_disabled(self):
        _, _, with_order = figure7_topology(order_edges=True)
        _, _, without = figure7_topology(order_edges=False)
        assert len(without.edges) <= len(with_order.edges)


class TestRule3:
    def test_aux_locks_assigned_to_outdegree_nodes(self):
        trace, sections, topology = figure7_topology()
        cs = label(sections)
        plan = build_resync_plan(topology)
        for name in ("R1@t0", "W1@t2", "W1@t1"):
            assert cs[name].uid in plan.aux_locks
        # final W has no successors -> no own lock
        assert cs["W1@t2'"].uid not in plan.aux_locks

    def test_locksets_include_pred_locks(self):
        trace, sections, topology = figure7_topology()
        cs = label(sections)
        plan = build_resync_plan(topology)
        w1_t1 = cs["W1@t1"].uid  # preds: R1@t0 and W1@t2
        lockset = set(plan.lockset_of(w1_t1))
        assert plan.aux_locks[cs["R1@t0"].uid] in lockset
        assert plan.aux_locks[cs["W1@t2"].uid] in lockset

    def test_standalone_nodes_removed(self):
        trace, sections, topology = figure7_topology()
        cs = label(sections)
        plan = build_resync_plan(topology)
        assert cs["R2@t0"].uid in plan.removed
        assert cs["R2@t1"].uid in plan.removed

    def test_aux_schedule_owner_first(self):
        trace, sections, topology = figure7_topology()
        cs = label(sections)
        plan = build_resync_plan(topology)
        own = plan.aux_locks[cs["R1@t0"].uid]
        schedule = plan.aux_schedule[own]
        assert schedule[0] == cs["R1@t0"].uid
        assert set(schedule[1:]) == {cs["W1@t1"].uid, cs["W1@t2"].uid}


class TestRule4:
    def test_mutual_exclusion_via_lockset_intersection(self):
        trace, sections, topology = figure7_topology()
        cs = label(sections)
        plan = build_resync_plan(topology)
        assert mutually_exclusive(plan, cs["R1@t0"].uid, cs["W1@t1"].uid)
        assert not mutually_exclusive(plan, cs["R2@t0"].uid, cs["R2@t1"].uid)

    def test_effective_lockset_shrinks_with_ended_preds(self):
        trace, sections, topology = figure7_topology()
        cs = label(sections)
        plan = build_resync_plan(topology)
        target = cs["W1@t1"].uid
        full = effective_lockset(plan, target, ended=set())
        shrunk = effective_lockset(plan, target, ended={cs["R1@t0"].uid})
        assert len(shrunk) == len(full) - 1
        assert plan.aux_locks[cs["R1@t0"].uid] not in shrunk


class TestTransform:
    def test_transformed_trace_has_no_original_lock_events(self):
        result = transform(figure7_trace())
        kinds = {e.kind for e in result.trace.iter_events()}
        assert ACQUIRE not in kinds
        assert RELEASE not in kinds

    def test_markers_present_for_kept_sections(self):
        result = transform(figure7_trace())
        enters = [e for e in result.trace.iter_events() if e.kind == CS_ENTER]
        exits = [e for e in result.trace.iter_events() if e.kind == CS_EXIT]
        kept = 6 - len(result.plan.removed)
        assert len(enters) == kept == len(exits) == 4

    def test_marker_uids_match_original_events(self):
        result = transform(figure7_trace())
        original_acquires = {
            e.uid for e in result.original.iter_events() if e.kind == ACQUIRE
        }
        for enter in (e for e in result.trace.iter_events() if e.kind == CS_ENTER):
            assert enter.uid in original_acquires
            assert enter.token == enter.uid

    def test_body_events_survive_unchanged(self):
        result = transform(figure7_trace())
        original_mem = [
            e.uid for e in result.original.iter_events() if e.kind in ("read", "write")
        ]
        new_mem = [
            e.uid for e in result.trace.iter_events() if e.kind in ("read", "write")
        ]
        assert sorted(original_mem) == sorted(new_mem)

    def test_null_lock_sync_dropped_entirely(self):
        from tests.analysis.helpers import cs_empty, cs_reader

        trace = record_programs(cs_empty("L"), cs_reader("L", "x", stagger=5))
        result = transform(trace)
        assert len(result.plan.removed) == 2
        kinds = {e.kind for e in result.trace.iter_events()}
        assert CS_ENTER not in kinds

    def test_transform_counts_sections(self):
        result = transform(figure7_trace())
        assert len(result.sections) == 6
        assert result.removed_sections == 2


# ------------------------------------------------ RULE 1 against a literal walk


def literal_rule1(sections, timeline):
    """RULE 1 spelled out: for each section and each other thread, scan
    that thread's sections of the lock in acquisition order and take the
    first colliding one that the reversed replay does not excuse."""
    edges = set()
    for lock_sections in sections_by_lock(sections).values():
        threads = {cs.tid for cs in lock_sections}
        for cs in lock_sections:
            for tid in threads - {cs.tid}:
                for other in lock_sections:
                    if (
                        other.tid == tid
                        and other.lock_index > cs.lock_index
                        and cs.conflicts_with(other)
                        and not is_benign(cs, other, timeline)
                    ):
                        edges.add((cs.uid, other.uid))
                        break
    return edges


def assert_rule1_matches_literal_walk(trace):
    """Engine (mask) and reference (string-set) sections alike."""
    for analysis in (analyze_pairs(trace), analyze_pairs_reference(trace)):
        expected = literal_rule1(analysis.sections, WriteTimeline(trace))
        topology = transform(trace, analysis=analysis).topology
        assert set(topology.causal_edges()) == expected


def alternating_classes_trace():
    """One lock, two threads.  t0's sections all come first and add 3 to
    x; t1's follow: two alternating commuting classes (add 1 / add 2,
    benign against t0), a long run of one of them, one of the other, a
    store (a true conflict), then more of the other class."""

    def t0():
        for i in range(20):
            yield from _cs("L", [Write("x", op=Add(3), site=site(11))], 10)

    def t1():
        yield Compute(1000)
        body = ["p", "q"] * 10 + ["p"] * 30 + ["q", "store"] + ["q"] * 10
        for kind in body:
            if kind == "store":
                op, line = Store(5), 40
            else:
                op, line = Add(1 if kind == "p" else 2), 20 if kind == "p" else 30
            yield from _cs("L", [Write("x", op=op, site=site(line + 1))], line)

    return record_programs(t0(), t1())


class TestRule1Oracle:
    @settings(max_examples=40, deadline=None)
    @given(program_set_strategy)
    def test_random_programs(self, program_specs):
        programs = [build_program(sections) for sections in program_specs]
        assert_rule1_matches_literal_walk(record([p() for p in programs]).trace)

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("seed", (0, 1, 7))
    @pytest.mark.parametrize("threads", (2, 4))
    def test_synthetic_workloads(self, workload, seed, threads):
        spec = get_workload(workload, threads=threads, seed=seed, scale=0.5)
        assert_rule1_matches_literal_walk(spec.record().trace)

    @pytest.mark.parametrize("name", ("fluidanimate", "dedup", "mysql"))
    def test_paper_workloads(self, name):
        spec = get_workload(name, threads=2, scale=0.25)
        assert_rule1_matches_literal_walk(spec.record().trace)

    def test_alternating_classes_with_long_benign_runs(self):
        trace = alternating_classes_trace()
        assert_rule1_matches_literal_walk(trace)
        # every t0 section's edge lands on t1's store, past 51 benign ones
        analysis = analyze_pairs(trace)
        topology = transform(trace, analysis=analysis).topology
        store = next(cs for cs in analysis.sections
                     if decode_op(cs.memory_ops()[0].op) == Store(5))
        t0_sections = [cs for cs in analysis.sections if cs.tid == "t0"]
        assert len(t0_sections) == 20
        assert all(store.uid in topology.succs(cs.uid) for cs in t0_sections)

    def test_benign_calls_bounded_by_classes(self, monkeypatch):
        trace = alternating_classes_trace()
        analysis = analyze_pairs(trace)
        calls = []
        real = topology_module.is_benign

        def counting(c1, c2, timeline):
            calls.append((c1.uid, c2.uid))
            return real(c1, c2, timeline)

        monkeypatch.setattr(topology_module, "is_benign", counting)
        cache_before = dict(analysis.benign_cache)
        transform(trace, analysis=analysis)
        classes = {
            tuple((e.kind, e.addr, e.op) for e in cs.memory_ops())
            for cs in analysis.sections
        }
        assert len(classes) == 4
        t0_sections = sum(1 for cs in analysis.sections if cs.tid == "t0")
        t1_sections = len(analysis.sections) - t0_sections
        # a candidate-by-candidate walk replays 20 x 52 pairs
        assert len(calls) <= len(analysis.sections) * len(classes)
        assert len(calls) < t0_sections * t1_sections
        # RULE 1 reads the pair verdicts, never adds to them
        assert analysis.benign_cache == cache_before


def test_api_transform_ignores_streamed_analysis(tmp_path):
    trace = api.record("mysql", threads=3, input_size="simsmall", scale=0.4, seed=1)
    path = tmp_path / "t.seg.jsonl.gz"
    write_segmented(trace, path, segment_events=37)
    streamed = api.analyze(path, options=AnalyzeOptions(stream=True))
    assert streamed.core is None
    assert dumps(api.transform(path, analysis=streamed)) == dumps(api.transform(path))


def test_api_transform_reuses_in_memory_analysis():
    trace = figure7_trace()
    analysis = api.analyze(trace)
    assert api.transform(trace, analysis=analysis, full=True).analysis is analysis
