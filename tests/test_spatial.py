"""Tests for the knowledge-graph spatial memory."""

import dataclasses
import json
import logging
import os
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memagent import harness, oracle, spatial, vector_index
from memagent.envsim import Environment, builtin_suite_path, load_suite
from memagent.orchestrator import MemoryOrchestrator
from memagent.preprocessor import Preprocessor, parse_observation
from memagent.spatial import (
    DEFAULT_BUFFER_CAPACITY,
    KHopBoundError,
    SpatialMemory,
    Triplet,
    khop_bound,
)
from memagent.conflicts import DEFAULT_RULES, DEFAULT_TABLES
from memagent.core import InvariantError, canonical_json, canonical_name, from_doc, to_doc
from memagent.gateway import ReasonerGateway, ReasonerRole


def make_memory(**kwargs):
    return SpatialMemory(**kwargs)


def seed_graph(mem, triplets):
    """Install edges directly, bypassing the buffer, for retrieval tests."""
    with mem._lock:
        for t in triplets:
            mem._add_edge(t)


def record_seeds(mem):
    """Log the seeds of every subgraph ``mem`` retrieves, sorted, one list
    per retrieval."""
    seeds = []
    retrieve = mem.retrieve_subgraph

    def recording(names, k=None):
        names = sorted(set(names))
        seeds.append(names)
        return retrieve(names, k)

    mem.retrieve_subgraph = recording
    return seeds


def bfs_oracle(edge_keys, seeds, k):
    """Independent breadth-first expansion over outgoing edges."""
    adjacency = {}
    nodes = set()
    for s, _, o in edge_keys:
        adjacency.setdefault(s, set()).add(o)
        nodes.update((s, o))
    reached = {s for s in seeds if s in nodes}
    frontier = set(reached)
    for _ in range(k):
        nxt = set()
        for node in frontier:
            nxt |= adjacency.get(node, set()) - reached
        if not nxt:
            break
        reached |= nxt
        frontier = nxt
    edges = {key for key in edge_keys if key[0] in reached and key[2] in reached}
    return reached, edges


def random_graph(rng, n, max_out):
    names = [f"room {i:03d}" for i in range(n)]
    triplets = []
    for s in names:
        degree = rng.randint(0, max_out)
        targets = rng.sample(names, min(degree, n))
        for o in targets:
            if o != s:
                triplets.append(Triplet(s, "near", o, step_index=rng.randint(0, 9)))
    return names, triplets


class TestTriplet:
    def test_canonicalizes_endpoints(self):
        t = Triplet("  The Cup ", "ON", "Kitchen  Counter")
        assert t.subject == "the cup"
        assert t.relation == "on"
        assert t.object == "kitchen counter"

    def test_rejects_empty_endpoint(self):
        with pytest.raises(ValueError):
            Triplet("", "on", "table")
        with pytest.raises(ValueError):
            Triplet("cup", "on", "   ")

    @pytest.mark.parametrize("step_index", ["x", True, -1, 1.0, None])
    def test_step_index_is_an_int_at_least_0(self, step_index):
        with pytest.raises(ValueError, match="step_index"):
            Triplet("cup", "on", "table", step_index=step_index)

    def test_key_and_doc_round_trip(self):
        t = Triplet("cup", "on", "table", step_index=3)
        assert t.key == ("cup", "on", "table")
        assert from_doc(Triplet, to_doc(t)) == t

    @pytest.mark.parametrize("name", ["subject", "relation", "object", "step_index", "key"])
    def test_is_frozen(self, name):
        t = Triplet(" Cup", "ON", "table", step_index=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(t, name, "x")
        assert (t.key, t.step_index) == (("cup", "on", "table"), 1)


class TestKhopBound:
    @given(
        seeds=st.integers(min_value=0, max_value=20),
        degree=st.integers(min_value=0, max_value=6),
        k=st.integers(min_value=0, max_value=6),
    )
    def test_matches_geometric_sum(self, seeds, degree, k):
        expected = float(seeds) if degree == 0 else float(
            sum(seeds * degree**i for i in range(k + 1))
        )
        assert khop_bound(seeds, degree, k) == pytest.approx(expected)

    def test_degree_one_is_linear(self):
        assert khop_bound(3, 1, 4) == 15.0

    def test_zero_hops_is_seed_count(self):
        assert khop_bound(5, 7, 0) == 5.0


class TestRetrieval:
    def test_matches_bfs_oracle_on_random_graphs(self):
        rng = random.Random(20260826)
        for _ in range(60):
            n = rng.randint(2, 40)
            names, triplets = random_graph(rng, n, max_out=rng.randint(1, 4))
            mem = make_memory()
            seed_graph(mem, triplets)
            seeds = rng.sample(names, min(rng.randint(1, 3), n))
            k = rng.randint(0, 3)
            nodes, edges = mem.retrieve_subgraph(seeds, k)
            keys = [t.key for t in mem.edges()]
            oracle_nodes, oracle_edges = bfs_oracle(keys, set(seeds), k)
            assert nodes == oracle_nodes
            assert {e.key for e in edges} == oracle_edges

    def test_node_count_within_expansion_bound(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(2, 30)
            names, triplets = random_graph(rng, n, max_out=3)
            mem = make_memory()
            seed_graph(mem, triplets)
            seeds = rng.sample(names, min(2, n))
            k = rng.randint(0, 3)
            nodes, _ = mem.retrieve_subgraph(seeds, k)
            max_degree = max((mem.out_degree(name) for name in mem.nodes), default=0)
            bound = min(len(mem.nodes), khop_bound(len(seeds), max_degree, k))
            assert len(nodes) <= bound

    def test_bound_violation_raises_named_error(self, monkeypatch):
        mem = make_memory()
        seed_graph(mem, [Triplet("sofa", "near", "tv stand")])
        monkeypatch.setattr(spatial, "khop_bound", lambda *args: 0.0)
        with pytest.raises(KHopBoundError):
            mem.retrieve_subgraph(["sofa"], 1)

    def test_bound_check_survives_optimize_flag(self):
        script = (
            "from memagent import spatial\n"
            "mem = spatial.SpatialMemory()\n"
            "mem._add_edge(spatial.Triplet('sofa', 'near', 'tv stand'))\n"
            "spatial.khop_bound = lambda *args: 0.0\n"
            "try:\n"
            "    mem.retrieve_subgraph(['sofa'], 1)\n"
            "except spatial.KHopBoundError:\n"
            "    print('raised')\n"
        )
        src = os.path.dirname(os.path.dirname(spatial.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "raised"

    def test_near_spelling_of_a_node_is_no_seed(self):
        mem = make_memory()
        seed_graph(mem, [Triplet("kitchen counter", "near", "sink")])
        assert mem.retrieve_subgraph(["kitchen countertop"], 1) == (set(), [])
        assert mem.query(["kitchen countertop"]) == ()

    def test_unresolvable_seed_returns_empty(self):
        mem = make_memory()
        seed_graph(mem, [Triplet("sofa", "near", "tv stand")])
        nodes, edges = mem.retrieve_subgraph(["zzz qqq xxw"], 2)
        assert nodes == set()
        assert edges == []

    def test_numbered_seed_resolves_only_to_its_instance(self):
        mem = make_memory()
        seed_graph(mem, [Triplet("drawer 1", "is", "closed")])
        seeds = record_seeds(mem)
        assert mem.query(["drawer 2", "drawer"]) == ()
        assert "drawer 1" not in {name for names in seeds for name in names}

    def test_seed_without_number_names_no_instance(self):
        mem = make_memory()
        seed_graph(mem, [Triplet("drawer 1", "is", "closed")])
        nodes, _ = mem.retrieve_subgraph(["drawer"], 0)
        assert nodes == set()

    def test_query_returns_sorted_triplets_and_records_seeds(self):
        mem = make_memory()
        seed_graph(
            mem,
            [
                Triplet("table", "near", "window"),
                Triplet("cup", "on", "table"),
            ],
        )
        seeds = record_seeds(mem)
        edges = mem.query(["cup", "mug"])
        assert isinstance(edges, tuple)
        assert [e.key for e in edges] == [
            ("cup", "on", "table"),
            ("table", "near", "window"),
        ]
        assert seeds == [["cup"]]

    def test_query_with_no_entities_is_empty(self):
        mem = make_memory()
        seed_graph(mem, [Triplet("sofa", "near", "tv stand")])
        assert mem.query([]) == ()
        assert mem.query(["qqq zzz"]) == ()

    def test_each_name_that_is_a_node_is_a_seed(self):
        # However many words a name has; a name is canonicalized first, and
        # a name that is no node seeds nothing.
        mem = make_memory()
        seed_graph(mem, [Triplet("drawer 1 of the kitchen counter", "near", "red cup"),
                         Triplet("red cup", "on", "table")])
        seeds = record_seeds(mem)
        edges = mem.query(["Drawer 1  of the Kitchen Counter", "cup", "table"])
        assert [e.key for e in edges] == [("drawer 1 of the kitchen counter", "near", "red cup"),
                                          ("red cup", "on", "table")]
        assert seeds == [["drawer 1 of the kitchen counter", "table"]]


class TestBuffer:
    def test_no_integration_below_capacity(self):
        mem = make_memory()
        mem.buffer_triplets([Triplet("cup", "on", "table")])
        assert mem.edges() == []
        assert len(mem.pending()) == 1

    def test_integration_on_saturation(self):
        mem = make_memory()
        triplets = [
            Triplet(f"object {i}", "on", f"surface {i}")
            for i in range(DEFAULT_BUFFER_CAPACITY)
        ]
        mem.buffer_triplets(triplets)
        assert mem.pending() == []
        assert len(mem.edges()) == DEFAULT_BUFFER_CAPACITY

    def test_near_then_holds_integrates_at_once(self):
        mem = make_memory()
        mem.buffer_triplets([Triplet("agent", "near", "cup", step_index=1)])
        assert len(mem.pending()) == 1
        mem.buffer_triplets([Triplet("agent", "holds", "cup", step_index=2)])
        assert mem.pending() == []
        keys = {e.key for e in mem.edges()}
        assert ("agent", "holds", "cup") in keys
        assert ("agent", "near", "cup") not in keys

    def test_a_location_conflict_with_the_graph_integrates_at_once(self):
        mem = make_memory()
        mem.buffer_triplets([Triplet("cup", "on", "table", step_index=1)])
        mem.integrate()
        # A fact of another subject, and one of no state set, wait.
        mem.buffer_triplets([Triplet("fork", "in", "drawer", step_index=2),
                             Triplet("cup", "is", "heated", step_index=2)])
        assert len(mem.pending()) == 2
        # One object per location group: the cup is in the drawer or on the
        # table, not both.
        mem.buffer_triplets([Triplet("cup", "in", "drawer", step_index=3)])
        assert mem.pending() == []
        assert {e.key for e in mem.edges()} == {
            ("cup", "in", "drawer"), ("cup", "is", "heated"), ("fork", "in", "drawer")}

    def test_a_state_conflict_with_the_buffer_integrates_at_once(self):
        mem = make_memory()
        # Two state sets: a door state and a power state do not conflict.
        mem.buffer_triplets([Triplet("oven", "is", "closed", step_index=1),
                             Triplet("oven", "is", "on", step_index=1)])
        assert len(mem.pending()) == 2
        mem.buffer_triplets([Triplet("oven", "is", "off", step_index=2)])
        assert mem.pending() == []
        assert {e.key for e in mem.edges()} == {("oven", "is", "closed"), ("oven", "is", "off")}

    def test_explicit_integrate_flushes(self):
        mem = make_memory()
        mem.buffer_triplets([Triplet("cup", "on", "table")])
        mem.integrate()
        assert mem.pending() == []
        assert [e.key for e in mem.edges()] == [("cup", "on", "table")]


class TestConflictResolution:
    def test_functional_location_newest_wins(self):
        mem = make_memory()
        seed_graph(mem, [Triplet("cup", "on", "table", step_index=1)])
        mem.buffer_triplets([Triplet("cup", "in", "cabinet", step_index=5)])
        mem.integrate()
        keys = {e.key for e in mem.edges()}
        assert ("cup", "in", "cabinet") in keys
        assert ("cup", "on", "table") not in keys

    def test_state_edge_newest_wins(self):
        mem = make_memory()
        seed_graph(mem, [Triplet("oven", "is", "off", step_index=2)])
        mem.buffer_triplets([Triplet("oven", "is", "on", step_index=6)])
        mem.integrate()
        keys = {e.key for e in mem.edges()}
        assert keys == {("oven", "is", "on")}

    def test_independent_states_of_one_subject_are_kept(self):
        # A door state and a power state, or two finished treatments, are
        # independent facts; only values of one state set conflict.
        mem = make_memory()
        mem.buffer_triplets([
            Triplet("oven", "is", "closed", step_index=3),
            Triplet("oven", "is", "off", step_index=3),
            Triplet("apple", "is", "heated", step_index=3),
            Triplet("apple", "is", "cleaned", step_index=3),
        ])
        mem.integrate()
        assert [e.key for e in mem.edges()] == [
            ("apple", "is", "cleaned"),
            ("apple", "is", "heated"),
            ("oven", "is", "closed"),
            ("oven", "is", "off"),
        ]
        mem.buffer_triplets([Triplet("oven", "is", "open", step_index=4)])
        mem.integrate()
        assert {e.key for e in mem.edges() if e.subject == "oven"} == {
            ("oven", "is", "open"),
            ("oven", "is", "off"),
        }

    def test_duplicate_key_keeps_max_step_index(self):
        mem = make_memory()
        seed_graph(mem, [Triplet("cup", "on", "table", step_index=4)])
        mem.buffer_triplets([Triplet("cup", "on", "table", step_index=1)])
        mem.integrate()
        (edge,) = mem.edges()
        assert edge.step_index == 4

    def test_own_gateway_never_runs_out_of_budget(self, caplog):
        # No episode resets the budget of a memory used on its own, so its
        # detector must keep answering past the per-episode call budget.
        caplog.set_level(logging.WARNING, logger="memagent")
        mem = make_memory()
        calls = []
        backend_invoke = mem.gateway.backend.invoke
        mem.gateway.backend.invoke = lambda role, payload: (
            calls.append(role) or backend_invoke(role, payload)
        )
        for step in range(251):
            place = ("table", "cabinet")[step % 2]
            mem.buffer_triplets([Triplet("cup", "on", place, step_index=step)])
            mem.integrate()
        assert calls.count(ReasonerRole.KG_CONFLICT_DETECTOR) == 250
        assert not [r for r in caplog.records if "exhausted" in r.getMessage()]
        assert [e.key for e in mem.edges()] == [("cup", "on", "table")]

    def test_a_bool_edge_index_degrades_to_the_oracle_rules(self, caplog):
        # JSON true and false are not edge indices: read as 1 and 0, they
        # would evict "cup in sink" and keep "cup on table" without a word.
        class BoolIndices:
            latency_bound = False

            def invoke(self, role, payload):
                return {"conflicts": [[True, False]]}

        caplog.set_level(logging.WARNING, logger="memagent")
        mem = make_memory(gateway=ReasonerGateway(backend=BoolIndices()))
        mem.buffer_triplets([
            Triplet("cup", "on", "table", step_index=1),
            Triplet("cup", "in", "sink", step_index=2),
            Triplet("cup", "in", "box", step_index=3),
        ])
        mem.integrate()
        [record] = caplog.records
        assert "using oracle rules" in record.getMessage()
        assert [e.key for e in mem.edges()] == [("cup", "in", "box")]


_NAMES = ["cup", "cups", "table", "shelf", "drawer 1", "drawer 2",
          "kitchen counter", "kitchen countertop"]
_RELATIONS = ["on", "in", "at", "near", "holds", "is"]
# Objects include the values of both state sets, so every detector rule fires.
_slot_triplets = st.builds(
    Triplet,
    st.sampled_from(_NAMES),
    st.sampled_from(_RELATIONS),
    st.sampled_from(_NAMES + ["open", "closed", "on", "off", "heated"]),
    step_index=st.integers(min_value=0, max_value=5),
)


def detector_conflicts(edges):
    """The oracle detector's conflict groups over ``edges``, as sets of keys."""
    payload = dict(DEFAULT_TABLES, edges=to_doc(edges))
    groups = oracle.detect_conflicts(payload)["conflicts"]
    return {frozenset(edges[i].key for i in group) for group in groups}


def conflict_losers(edges):
    """The keys integrate drops: all but the newest of each conflict group."""
    by_key = {e.key: e for e in edges}
    losers = set()
    for group in detector_conflicts(edges):
        winner = max((by_key[k] for k in group), key=lambda e: (e.step_index, e.relation))
        losers |= group - {winner.key}
    return losers


class TestConflictScope:
    def record_detector(self, mem):
        sent = []
        invoke = mem.gateway.invoke

        def recording(role, payload):
            sent.append([(e["subject"], e["relation"], e["object"]) for e in payload["edges"]])
            return invoke(role, payload)

        mem.gateway.invoke = recording
        return sent

    def test_detector_sees_only_subjects_that_may_conflict(self):
        mem = make_memory()
        sent = self.record_detector(mem)
        # No slot of cup or table holds two facts, so there is no call.
        mem.buffer_triplets([Triplet("cup", "on", "table", step_index=1),
                             Triplet("table", "near", "window", step_index=1)])
        mem.integrate()
        assert sent == []
        # cup gains a key, but its location group still holds one object.
        mem.buffer_triplets([Triplet("cup", "near", "door", step_index=2)])
        mem.integrate()
        assert sent == []
        # Now it holds two: that slot goes, not cup's "near" edge, and not
        # table's edges, which are in the region but unchanged.
        mem.buffer_triplets([Triplet("cup", "in", "cabinet", step_index=3)])
        mem.integrate()
        assert sent == [[("cup", "in", "cabinet"), ("cup", "on", "table")]]
        assert ("cup", "on", "table") not in {e.key for e in mem.edges()}
        # A state set holding two values goes without the oven's other set.
        mem.buffer_triplets([Triplet("oven", "is", "closed", step_index=4),
                             Triplet("oven", "is", "off", step_index=4)])
        mem.integrate()
        assert len(sent) == 1
        mem.buffer_triplets([Triplet("oven", "is", "open", step_index=5)])
        mem.integrate()
        assert sent[-1] == [("oven", "is", "closed"), ("oven", "is", "open")]
        # An exclusive pair of relations on one object; a batch that holds
        # a conflict integrates at once.
        mem.buffer_triplets([Triplet("agent", "near", "cup", step_index=6),
                             Triplet("agent", "holds", "cup", step_index=7)])
        assert sent[-1] == [("agent", "holds", "cup"), ("agent", "near", "cup")]
        # Only a step index changes: no subject may conflict, so no call.
        mem.buffer_triplets([Triplet("cup", "in", "cabinet", step_index=8)])
        mem.integrate()
        assert len(sent) == 3
        assert {e.key: e.step_index for e in mem.edges()} == {
            ("agent", "holds", "cup"): 7,
            ("cup", "in", "cabinet"): 8,
            ("cup", "near", "door"): 2,
            ("oven", "is", "off"): 4,
            ("oven", "is", "open"): 5,
            ("table", "near", "window"): 1,
        }

    @pytest.mark.parametrize("k_hops", [0, -1, 1.5, True])
    def test_k_hops_must_be_an_int_at_least_1(self, k_hops):
        # With K = 0 an out-edge of a subject that gains a key can end
        # outside the batch's region, which integrate may not touch.
        with pytest.raises(InvariantError) as refused:
            make_memory(k_hops=k_hops)
        assert refused.value.path == "k_hops"

    @pytest.mark.parametrize("field", ["buffer_capacity", "max_out_degree", "max_in_degree"])
    @pytest.mark.parametrize("value", [0, -3, 1.5, True])
    def test_buffer_and_degree_caps_must_be_ints_at_least_1(self, field, value):
        # A cap of 0 would evict every new edge the moment it is added.
        with pytest.raises(InvariantError) as refused:
            make_memory(**{field: value})
        assert refused.value.path == field

    def test_restore_refuses_a_snapshot_whose_facts_conflict(self):
        mem = make_memory()
        mem.buffer_triplets([Triplet("cup", "on", "table", step_index=1)])
        mem.integrate()
        mem.buffer_triplets([Triplet("fork", "on", "table", step_index=2)])
        mem.query(["cup"])
        before = mem.snapshot()
        # Integrate would have kept one of the two; the buffer is not
        # checked, since it is not integrated yet.
        bad = dict(before, edges=to_doc([Triplet("cup", "in", "cabinet", step_index=2),
                                         Triplet("cup", "on", "table", step_index=1)]),
                   pending=to_doc([Triplet("fork", "in", "drawer 1", step_index=3),
                                   Triplet("fork", "on", "drawer 1", step_index=3)]))
        with pytest.raises(InvariantError) as refused:
            mem.restore(bad)
        assert refused.value.path == "edges"
        assert "cup in cabinet" in str(refused.value)
        assert "cup on table" in str(refused.value)
        assert mem.snapshot() == before
        mem.restore(dict(bad, edges=to_doc([Triplet("cup", "in", "cabinet", step_index=2)])))
        assert [t.key for t in mem.pending()] == [("fork", "in", "drawer 1"),
                                                  ("fork", "on", "drawer 1")]

    @settings(max_examples=200, deadline=None)
    @given(triplets=st.lists(_slot_triplets, max_size=12))
    def test_contested_slots_give_the_detector_the_same_conflicts(self, triplets):
        # A local set holds one triplet per key, sent sorted by key.
        edges = sorted({t.key: t for t in triplets}.values(), key=lambda e: e.key)
        by_subject = {}
        for edge in edges:
            by_subject.setdefault(edge.subject, set()).add(edge.key)
        contested = set().union(*map(spatial._contested, by_subject.values()))
        # Slots are per subject, so one scan over all subjects finds the same.
        assert spatial._contested([e.key for e in edges]) == contested
        subset = [e for e in edges if e.key in contested]
        assert detector_conflicts(subset) == detector_conflicts(edges)
        assert conflict_losers(subset) == conflict_losers(edges)


class TestDedup:
    """Names are not de-duplicated: a node is the name it was observed
    under, however alike two spellings are."""

    def test_similar_names_stay_distinct_nodes(self):
        mem = make_memory()
        mem.buffer_triplets(
            [
                Triplet("mug", "on", "kitchen counter"),
                Triplet("plate", "on", "kitchen countertop"),
            ]
        )
        mem.integrate()
        assert {"kitchen counter", "kitchen countertop"} <= mem.nodes
        keys = {e.key for e in mem.edges()}
        assert keys == {
            ("mug", "on", "kitchen counter"),
            ("plate", "on", "kitchen countertop"),
        }

    def test_similar_name_outside_the_local_set_is_kept(self):
        mem = make_memory()
        # "red cups" is a node without edges, outside the next region.
        mem.restore({"nodes": ["red cups"], "edges": []})
        mem.buffer_triplets([Triplet("red cup", "on", "table")])
        mem.integrate()
        assert mem.nodes == {"red cup", "red cups", "table"}

    def test_retrieval_seed_without_a_region_edge_is_not_merged(self):
        # "red cup" is a node without edges that the last query named, so it
        # is in the reference's region but in no local edge, and "red cups"
        # stays apart.
        mem, ref = make_memory(), FullReplaceMemory()
        for m in (mem, ref):
            m.restore({"nodes": ["red cup"], "edges": []})
            m.query(["red cup"])
            m.buffer_triplets([Triplet("red cups", "on", "table")])
            m.integrate()
        assert mem.nodes == {"red cup", "red cups", "table"}
        assert mem.snapshot() == ref.snapshot()

    def test_numbered_instances_survive_integration(self):
        mem = make_memory()
        mem.buffer_triplets(
            [
                Triplet("spoon", "in", "drawer 1", step_index=1),
                Triplet("knife", "in", "drawer 2", step_index=2),
            ]
        )
        mem.integrate()
        keys = {e.key for e in mem.edges()}
        assert ("knife", "in", "drawer 2") in keys
        assert ("spoon", "in", "drawer 1") in keys
        assert {"drawer 1", "drawer 2"} <= mem.nodes

    def test_dissimilar_names_are_kept_apart(self):
        mem = make_memory()
        mem.buffer_triplets(
            [
                Triplet("mug", "on", "kitchen counter"),
                Triplet("plate", "on", "dining table"),
            ]
        )
        mem.integrate()
        assert {"kitchen counter", "dining table"} <= mem.nodes


class TestLocality:
    def test_distant_region_untouched_by_integration(self):
        mem = make_memory(k_hops=1)
        far = [
            Triplet("attic box", "in", "attic", step_index=1),
            Triplet("attic", "near", "roof hatch", step_index=1),
        ]
        seed_graph(mem, far + [Triplet("cup", "on", "table", step_index=1)])
        before = {e.key: e for e in mem.edges() if e.key[0].startswith("attic")}
        mem.buffer_triplets([Triplet("spoon", "on", "table", step_index=9)])
        mem.integrate()
        after = {e.key: e for e in mem.edges() if e.key[0].startswith("attic")}
        assert after == before
        assert all(after[k] is before[k] for k in before)


class TestDegreeCap:
    def test_out_degree_cap_evicts_oldest(self):
        mem = make_memory(max_out_degree=2)
        seed_graph(
            mem,
            [
                Triplet("shelf", "near", "wall", step_index=1),
                Triplet("shelf", "near", "door", step_index=2),
                Triplet("shelf", "near", "lamp", step_index=3),
            ],
        )
        assert mem.out_degree("shelf") == 2
        keys = {e.key for e in mem.edges()}
        assert ("shelf", "near", "wall") not in keys

    def test_in_degree_cap_evicts_oldest(self):
        mem = make_memory(max_in_degree=2)
        seed_graph(
            mem,
            [
                Triplet("cup", "on", "shelf", step_index=1),
                Triplet("bowl", "on", "shelf", step_index=2),
                Triplet("vase", "on", "shelf", step_index=3),
            ],
        )
        assert mem.in_degree("shelf") == 2


_triplets = st.builds(
    Triplet,
    st.sampled_from(_NAMES),
    st.sampled_from(_RELATIONS),
    st.sampled_from(_NAMES),
    step_index=st.integers(min_value=0, max_value=5),
)
_operations = st.lists(
    st.one_of(
        st.lists(_triplets, min_size=1, max_size=4),
        st.sampled_from(["integrate", "snapshot", "restore", "clear"]),
    ),
    max_size=20,
)


def check_index(mem, k):
    """The incident-edge index, the degrees and every retrieval agree with
    a recomputation from the edge dict alone."""
    out, inc = {}, {}
    for key in mem._edges:
        out.setdefault(key[0], set()).add(key)
        inc.setdefault(key[2], set()).add(key)
    assert mem._out == out
    assert mem._in == inc
    for node in mem.nodes | set(out) | set(inc):
        assert mem.out_degree(node) == len(out.get(node, ())) <= mem.max_out_degree
        assert mem.in_degree(node) == len(inc.get(node, ())) <= mem.max_in_degree
    nodes = sorted(mem.nodes)
    for seeds in [[n] for n in nodes] + [nodes]:
        reached = set(seeds)
        for _ in range(k):
            reached |= {o for s, _, o in mem._edges if s in reached}
        want = sorted(key for key in mem._edges if key[0] in reached and key[2] in reached)
        got_nodes, got_edges = mem.retrieve_subgraph(seeds, k)
        assert got_nodes == reached
        assert [e.key for e in got_edges] == want


class TestIncidentIndex:
    @settings(max_examples=80, deadline=None)
    @given(
        operations=_operations,
        max_out=st.integers(min_value=2, max_value=3),
        max_in=st.integers(min_value=2, max_value=3),
        k=st.integers(min_value=0, max_value=2),
    )
    def test_index_matches_edges_after_every_operation(self, operations, max_out, max_in, k):
        mem = make_memory(max_out_degree=max_out, max_in_degree=max_in, buffer_capacity=3)
        saved = mem.snapshot()
        for op in operations:
            if op == "integrate":
                mem.integrate()
            elif op == "snapshot":
                saved = mem.snapshot()
            elif op == "restore":
                mem.restore(saved)
            elif op == "clear":
                mem.clear()
            else:
                mem.buffer_triplets(op)
            check_index(mem, k)


def conflicting(mem, pending=None):
    """Whether the graph and the buffer (or ``pending``) together hold a
    conflict of ``DEFAULT_RULES``, by one scan over all their keys."""
    pending = mem._pending if pending is None else pending
    return bool(DEFAULT_RULES.conflicts(sorted(set(mem._edges) | {t.key for t in pending})))


_slot_operations = st.lists(
    st.one_of(
        st.lists(_slot_triplets, min_size=1, max_size=4),
        st.sampled_from(["integrate", "snapshot", "restore", "clear"]),
    ),
    max_size=20,
)


class TestConflictTrigger:
    @settings(max_examples=150, deadline=None)
    @given(operations=_slot_operations, buffer=st.integers(min_value=1, max_value=6))
    def test_integrates_when_full_or_on_a_conflict_anywhere(self, operations, buffer):
        # The buffer looks only at the keys of the batch's subjects; a scan
        # of every key of the graph and the buffer must agree with it.
        mem = make_memory(buffer_capacity=buffer)
        saved = mem.snapshot()
        for op in operations:
            if op == "integrate":
                mem.integrate()
            elif op == "snapshot":
                saved = mem.snapshot()
            elif op == "restore":
                mem.restore(saved)
            elif op == "clear":
                mem.clear()
            else:
                pending = mem.pending() + op
                conflict = conflicting(mem, pending)
                with spy_integrate() as integrate:
                    mem.buffer_triplets(op)
                assert integrate.call_count == (conflict or len(pending) >= buffer)
            assert not conflicting(mem)


def spy_integrate():
    """Patch ``SpatialMemory._integrate`` to count its calls, on every
    memory, and still integrate."""
    return mock.patch.object(
        SpatialMemory, "_integrate", autospec=True, side_effect=SpatialMemory._integrate
    )


class TestBatchIntegrate:
    """One ``buffer_triplets`` call is one batch: it is never cut, and it
    integrates at most once."""

    def test_batch_past_capacity_integrates_whole_once(self):
        mem = make_memory()
        batch = [
            Triplet(f"object {i}", "on", f"surface {i}")
            for i in range(2 * DEFAULT_BUFFER_CAPACITY - 1)
        ]
        with spy_integrate() as integrate:
            mem.buffer_triplets(batch)
        assert mem.pending() == []
        assert {e.key for e in mem.edges()} == {t.key for t in batch}
        assert integrate.call_count == 1

    @pytest.mark.parametrize("position", [0, 1, 3])
    def test_conflict_anywhere_integrates_whole_batch(self, position):
        mem = make_memory(buffer_capacity=8)
        mem.buffer_triplets([Triplet("agent", "near", "cup", step_index=1)])
        mem.integrate()
        batch = [Triplet(f"object {i}", "on", f"surface {i}", step_index=2) for i in range(3)]
        batch.insert(position, Triplet("agent", "holds", "cup", step_index=2))
        assert len(batch) < mem.buffer_capacity
        with spy_integrate() as integrate:
            mem.buffer_triplets(batch)
        assert mem.pending() == []
        assert {e.key for e in mem.edges()} == {t.key for t in batch}
        assert integrate.call_count == 1

    @settings(max_examples=150, deadline=None)
    @given(
        batches=st.lists(st.lists(_triplets, min_size=1, max_size=10), max_size=12),
        capacity=st.integers(min_value=1, max_value=6),
    )
    def test_each_call_integrates_at_most_once_and_leaves_no_conflict(
        self, batches, capacity
    ):
        mem = make_memory(buffer_capacity=capacity)
        for batch in batches:
            with spy_integrate() as integrate:
                mem.buffer_triplets(batch)
            assert integrate.call_count <= 1
            pending = mem.pending()
            assert len(pending) < capacity
            assert not conflicting(mem)

    def test_seed_3_suite_integrates_at_most_once_per_observation(self):
        with spy_integrate() as integrate, mock.patch.object(
            Preprocessor, "preprocess", autospec=True, side_effect=Preprocessor.preprocess
        ) as preprocess:
            harness.run_suite(seed=3, passes=2, failure_p=0.1)
        assert 0 < integrate.call_count <= preprocess.call_count


class SeededMemory(SpatialMemory):
    """The retrieval seed of the reference models below, frozen as it was
    before queries became pure reads: a query remembers the names it seeds
    from, the region of the next integrate reaches from them too, and a
    restore takes them from a document that carries them (snapshots no
    longer do, so a restore from one empties the seed, as ``clear`` does)."""

    def __init__(self, *args, **config):
        super().__init__(*args, **config)
        self._retrieval_seed = set()

    def clear(self):
        super().clear()
        self._retrieval_seed = set()

    def query(self, names):
        with self._lock:
            names = list(names)
            self._retrieval_seed = {n for n in map(canonical_name, names) if n in self._nodes}
            return super().query(names)

    def prepare_restore(self, doc):
        install = super().prepare_restore(doc)
        seed = set(spatial._names(doc.get("retrieval_seed", []), "retrieval_seed"))

        def install_with_seed():
            with self._lock:
                install()
                self._retrieval_seed = seed

        return install_with_seed


class FullReplaceMemory(SeededMemory):
    """Reference model: integrate as it was before merge-back became
    incremental, frozen here so that it does not follow the code it checks.
    It retrieves the sorted edges of the region around the batch and the
    retrieval seed and builds the local set from them, every local edge goes
    to the conflict detector, and the merge-back removes the whole retrieved
    region and re-adds the local set in order."""

    def _integrate(self, t_new):
        seeds = {t.subject for t in t_new} | {t.object for t in t_new}
        seeds |= self._retrieval_seed
        region_nodes, region_edges = self._retrieve(seeds, self.k_hops)
        region_nodes |= {t.subject for t in t_new} | {t.object for t in t_new}
        local = {edge.key: edge for edge in region_edges}
        for triplet in t_new:
            prior = local.get(triplet.key)
            if prior is None or triplet.step_index >= prior.step_index:
                local[triplet.key] = triplet
        local = self._resolve_conflicts(local, {key[0] for key in local})
        for node in region_nodes:
            for key in [k for k in self._out.get(node, ()) if k[2] in region_nodes]:
                self._remove_edge(key)
        for edge in local.values():
            self._add_edge(edge)

    def _retrieve(self, seeds, k):
        frontier = {s for s in seeds if s in self._nodes}
        reached = set(frontier)
        for _ in range(k):
            frontier = {
                key[2]
                for node in frontier
                for key in self._out.get(node, ())
                if key[2] not in reached
            }
            if not frontier:
                break
            reached |= frontier
        keys = [key for node in reached for key in self._out.get(node, ()) if key[2] in reached]
        return reached, [self._edges[key] for key in sorted(keys)]

    def _resolve_conflicts(self, local, suspects):
        edges = [local[k] for k in sorted(local) if k[0] in suspects]
        if not edges:
            return local
        payload = dict(DEFAULT_TABLES, edges=to_doc(edges))
        response = self.gateway.ask(ReasonerRole.KG_CONFLICT_DETECTOR, payload)
        losers = set()
        for group in response["conflicts"]:
            contenders = [edges[i] for i in group if 0 <= i < len(edges)]
            if len(contenders) < 2:
                continue
            winner = max(contenders, key=lambda e: (e.step_index, e.relation))
            for edge in contenders:
                if edge.key != winner.key:
                    losers.add(edge.key)
        return {k: v for k, v in local.items() if k not in losers}


# Near-duplicate spellings (red cup ~ red cups ~ the red cup, drawer 1 ~
# the drawer 1 ~ drawers 1, drawer 2), each a node of its own.
_NEAR_NAMES = ["red cup", "red cups", "the red cup", "drawer 1", "drawers 1",
               "the drawer 1", "drawer 2", "table"]
_near_triplets = st.builds(
    Triplet,
    st.sampled_from(_NEAR_NAMES),
    st.sampled_from(_RELATIONS),
    st.sampled_from(_NEAR_NAMES),
    step_index=st.integers(min_value=0, max_value=6),
)
_near_operations = st.lists(
    st.one_of(
        st.lists(_near_triplets, min_size=1, max_size=4),
        st.sampled_from(["integrate", "snapshot", "restore", "clear"]),
        st.sampled_from(_NEAR_NAMES).map(lambda name: ("query", name)),
    ),
    max_size=16,
)


class TestIncrementalMergeBack:
    @settings(max_examples=150, deadline=None)
    @given(
        operations=_near_operations,
        max_out=st.integers(min_value=1, max_value=3),
        max_in=st.integers(min_value=1, max_value=3),
        buffer=st.integers(min_value=1, max_value=4),
        k=st.integers(min_value=1, max_value=2),
    )
    def test_matches_full_replace_after_every_operation(
        self, operations, max_out, max_in, buffer, k
    ):
        config = dict(max_out_degree=max_out, max_in_degree=max_in,
                      buffer_capacity=buffer, k_hops=k)
        mem, ref = make_memory(**config), FullReplaceMemory(**config)
        saved = mem.snapshot()
        for op in operations:
            for m in (mem, ref):
                if op == "integrate":
                    m.integrate()
                elif op == "restore":
                    m.restore(saved)
                elif op == "clear":
                    m.clear()
                elif isinstance(op, tuple):
                    m.query([op[1]])
                elif op != "snapshot":
                    m.buffer_triplets(op)
            if op == "snapshot":
                saved = mem.snapshot()
            assert mem.snapshot() == ref.snapshot()


class TestHotNodeMergeBack:
    """A node that a new key takes above a degree cap evicts its oldest
    incident edges, and integrate removes nothing else the graph keeps: it
    never removes and re-adds the edges of such a hot node, nor computes a
    region for them, and still leaves the full replace's graph."""

    def integrate_twice(self, mem, removed):
        mem.buffer_triplets([Triplet("agent", "at", "kitchen", step_index=1),
                             Triplet("agent", "near", "cup", step_index=1),
                             Triplet("cup", "on", "table", step_index=1)])
        mem.integrate()
        real_remove = mem._remove_edge
        mem._remove_edge = lambda key: (removed.append(key), real_remove(key))
        mem.buffer_triplets([Triplet("agent", "near", "apple", step_index=2),
                             Triplet("cup", "on", "table", step_index=2)])
        mem.integrate()

    def test_nodes_under_their_caps_keep_their_edges_in_place(self):
        # agent gains a key but stays under its cap, so nothing is removed.
        mem, ref = make_memory(), FullReplaceMemory()
        removed = []
        self.integrate_twice(mem, removed)
        self.integrate_twice(ref, [])
        assert removed == []
        assert mem.snapshot() == ref.snapshot()
        assert {e.key: e.step_index for e in mem.edges()}[("cup", "on", "table")] == 2

    def test_only_the_edges_of_a_node_above_its_cap_are_re_added(self):
        config = dict(max_out_degree=2)
        mem, ref = make_memory(**config), FullReplaceMemory(**config)
        removed = []
        with mock.patch.object(
            SpatialMemory, "_region", autospec=True, side_effect=SpatialMemory._region
        ) as region:
            self.integrate_twice(mem, removed)
        self.integrate_twice(ref, [])
        # agent gains "near apple" above its cap of 2: only the oldest of its
        # out-edges goes.
        assert removed == [("agent", "at", "kitchen")]
        assert region.call_count == 0
        assert mem.snapshot() == ref.snapshot()
        assert ("agent", "at", "kitchen") not in {e.key for e in mem.edges()}


class EagerRegionMemory(SeededMemory):
    """Reference model: integrate as it was before the region became lazy,
    frozen here so that it does not follow the code it checks. Every
    integrate computes the K-hop region around the batch and the retrieval
    seed, reads it for every suspect and hot node, scans each suspect's
    local out-edges for contested slots on its own, keeps a subject dirty
    after its last out-edge goes, and removes and re-adds the region edges
    of every hot node. It keeps its own set of dirty subjects: those an edge
    was added to since the detector last saw all their out-edges."""

    def __init__(self, **config):
        super().__init__(**config)
        self._dirty = set()

    def clear(self):
        super().clear()
        self._dirty.clear()

    def _add_edge(self, edge):
        if edge.key not in self._edges:
            self._dirty.add(edge.subject)
        super()._add_edge(edge)

    def _integrate(self, t_new):
        ends = {t.subject for t in t_new} | {t.object for t in t_new}
        region = self._region(ends | self._retrieval_seed, self.k_hops) | ends
        changed = {}
        for triplet in t_new:
            key = triplet.key
            prior = changed.get(key) or self._edges.get(key)
            if prior is None or triplet.step_index >= prior.step_index:
                changed[key] = triplet
        suspects = {key[0] for key in changed if key not in self._edges}
        suspects.update(
            n
            for n in self._dirty
            if n in region and any(k[2] in region for k in self._out.get(n, ()))
        )
        losers = self._resolve_conflicts(suspects, changed, region)
        graph_losers = {key for key in losers if key in self._edges}
        for key in losers:
            changed.pop(key, None)
        hot = self._hot_nodes([key for key in changed if key not in self._edges], graph_losers)
        stale = set(graph_losers)
        for node in hot:
            stale.update(k for k in self._out.get(node, ()) if k[2] in region)
            stale.update(k for k in self._in.get(node, ()) if k[0] in region)
        readd = {key: self._edges[key] for key in stale - graph_losers}
        readd.update(changed)
        for key in stale:
            self._remove_edge(key)
        for key, edge in readd.items():
            if key in self._edges:
                self._edges[key] = edge
            else:
                self._add_edge(edge)
        self._dirty -= {key[0] for key in readd} - suspects
        self._dirty.difference_update(
            [s for s in suspects if all(k[2] in region for k in self._out.get(s, ()))]
        )

    def _hot_nodes(self, gained, graph_losers):
        """The endpoints of ``gained`` keys whose out- or in-degree after
        the merge-back, before any eviction, exceeds its cap: the edges they
        keep (all but the conflict losers) plus the keys they gain."""
        hot = set()
        if not gained:
            return hot
        for end, index, cap in (
            (0, self._out, self.max_out_degree),
            (2, self._in, self.max_in_degree),
        ):
            for node in {key[end] for key in gained}:
                keys = index.get(node, ())
                if len(keys) + len(gained) <= cap:
                    continue  # it keeps at most the keys it has
                count = sum(1 for key in gained if key[end] == node)
                if len(keys) - len(graph_losers.intersection(keys)) + count > cap:
                    hot.add(node)
        return hot

    def _resolve_conflicts(self, suspects, changed, region):
        local_out = {
            s: {k for k in self._out.get(s, ()) if k[2] in region} for s in suspects
        }
        for key in changed:
            if key[0] in local_out:
                local_out[key[0]].add(key)
        keys = sorted(
            k for out in local_out.values() if len(out) > 1 for k in spatial._contested(out)
        )
        if not keys:
            return set()
        edges = [changed.get(k) or self._edges[k] for k in keys]
        payload = dict(DEFAULT_TABLES, edges=to_doc(edges))
        response = self.gateway.ask(ReasonerRole.KG_CONFLICT_DETECTOR, payload)
        losers = set()
        for group in response["conflicts"]:
            contenders = [edges[i] for i in group if 0 <= i < len(edges)]
            if len(contenders) < 2:
                continue
            winner = max(contenders, key=lambda e: (e.step_index, e.relation))
            for edge in contenders:
                if edge.key != winner.key:
                    losers.add(edge.key)
        return losers

    def _remove_edge(self, key):
        del self._edges[key]
        for index, node in ((self._out, key[0]), (self._in, key[2])):
            keys = index[node]
            keys.discard(key)
            if not keys:
                del index[node]


def record_payloads(mem):
    """Log every conflict-detector payload ``mem`` sends, as canonical JSON."""
    sent = []
    ask = mem.gateway.ask

    def recording(role, payload):
        sent.append(canonical_json(payload))
        return ask(role, payload)

    mem.gateway.ask = recording
    return sent


# Few names and conflict-prone relations, so that batches often restate,
# conflict with and reach past earlier facts; objects include state values,
# so the state-set rules fire too.
_REGION_NAMES = ["cup", "table", "drawer 1", "agent"]
_region_triplets = st.builds(
    Triplet,
    st.sampled_from(["cup", "agent"]),
    st.sampled_from(["on", "in", "near", "holds", "is"]),
    st.sampled_from(["table", "drawer 1", "cup", "open", "closed"]),
    step_index=st.integers(min_value=0, max_value=6),
)
_region_operations = st.lists(
    st.one_of(
        st.lists(_region_triplets, min_size=1, max_size=4),
        # A batch of the graph's own facts around a node: it gains no key.
        st.sampled_from(_REGION_NAMES).map(lambda name: ("restate", name)),
        st.sampled_from(_REGION_NAMES).map(lambda name: ("query", name)),
        st.sampled_from(["integrate", "snapshot", "restore", "clear"]),
    ),
    max_size=20,
)
# What a restored memory is given next: no snapshot, restore or clear.
_further_operations = st.lists(
    st.one_of(
        st.lists(_region_triplets, min_size=1, max_size=4),
        st.sampled_from(_REGION_NAMES).map(lambda name: ("restate", name)),
        st.sampled_from(_REGION_NAMES).map(lambda name: ("query", name)),
        st.just("integrate"),
    ),
    max_size=12,
)


def apply_region_operation(mem, op, saved):
    """Apply one operation of ``_region_operations`` other than
    ``"snapshot"``; return what a query answers, else None."""
    if op == "integrate":
        mem.integrate()
    elif op == "restore":
        mem.restore(saved)
    elif op == "clear":
        mem.clear()
    elif isinstance(op, list):
        mem.buffer_triplets(op)
    elif op[0] == "query":
        return mem.query([op[1]])
    else:
        mem.buffer_triplets([e for e in mem.edges() if op[1] in (e.subject, e.object)])
        mem.integrate()
    return None


class TestLazyRegion:
    """Integrate never computes the K-hop region: it reads only the changed
    keys, the out-edges of the subjects that gain a key and the incident
    edges of the endpoints of new keys. It must send the detector what the
    frozen eager-region reference does and leave the same memory."""

    @settings(max_examples=300, deadline=None)
    @given(
        operations=_region_operations,
        max_out=st.integers(min_value=1, max_value=3),
        max_in=st.integers(min_value=1, max_value=3),
        buffer=st.integers(min_value=1, max_value=4),
        k=st.integers(min_value=1, max_value=2),
    )
    def test_matches_the_eager_region_after_every_operation(
        self, operations, max_out, max_in, buffer, k
    ):
        config = dict(max_out_degree=max_out, max_in_degree=max_in,
                      buffer_capacity=buffer, k_hops=k)
        mem, ref = make_memory(**config), EagerRegionMemory(**config)
        sent, ref_sent = record_payloads(mem), record_payloads(ref)
        saved = mem.snapshot()
        for op in operations:
            if op == "snapshot":
                saved = mem.snapshot()
            else:
                assert apply_region_operation(mem, op, saved) == apply_region_operation(
                    ref, op, saved
                )
            assert sent == ref_sent
            assert mem.snapshot() == ref.snapshot()

    def test_restated_facts_only_bump_step_indexes(self):
        mem = make_memory()
        mem.buffer_triplets([Triplet("cup", "on", "table", step_index=1),
                             Triplet("agent", "near", "cup", step_index=1),
                             Triplet("oven", "is", "open", step_index=2)])
        mem.integrate()
        sent = record_payloads(mem)
        # Non-canonical spellings name the same keys; an older restatement
        # never lowers a step index.
        mem.buffer_triplets([Triplet(" Cup", "ON", "Table", step_index=4),
                             Triplet("agent", "near", "cup", step_index=5),
                             Triplet("oven", "is", "open", step_index=0)])
        with mock.patch.object(
            SpatialMemory, "_region", autospec=True, side_effect=SpatialMemory._region
        ) as region:
            mem.integrate()
        assert region.call_count == 0
        assert sent == []
        assert mem.pending() == []
        assert {e.key: e.step_index for e in mem.edges()} == {
            ("agent", "near", "cup"): 5,
            ("cup", "on", "table"): 4,
            ("oven", "is", "open"): 2,
        }


class TestRestoreThenContinue:
    """A memory restored from a snapshot, with the same settings, continues
    as the one that wrote it: given the same further buffers, integrates
    and queries, both send the detector the same payloads, answer the same
    queries and leave the same snapshot."""

    @settings(max_examples=200, deadline=None)
    @given(
        before=_region_operations,
        after=_further_operations,
        max_out=st.integers(min_value=1, max_value=3),
        max_in=st.integers(min_value=1, max_value=3),
        buffer=st.integers(min_value=1, max_value=4),
        k=st.integers(min_value=1, max_value=2),
    )
    def test_restored_memory_continues_as_the_original(
        self, before, after, max_out, max_in, buffer, k
    ):
        config = dict(max_out_degree=max_out, max_in_degree=max_in,
                      buffer_capacity=buffer, k_hops=k)
        mem = make_memory(**config)
        saved = mem.snapshot()
        for op in before:
            if op == "snapshot":
                saved = mem.snapshot()
            else:
                apply_region_operation(mem, op, saved)
        resumed = make_memory(**config)
        resumed.restore(mem.snapshot())
        sent, resumed_sent = record_payloads(mem), record_payloads(resumed)
        for op in after:
            assert apply_region_operation(resumed, op, None) == apply_region_operation(
                mem, op, None
            )
            assert resumed_sent == sent
            assert resumed.snapshot() == mem.snapshot()


class ShadowedMemory:
    """Stands in for an agent's spatial memory: every buffer, integrate,
    query and clear goes to a SpatialMemory and to a FullReplaceMemory
    shadow, and their snapshots must agree after each buffer call and
    integrate, so after every integrate (a buffer call makes at most one).
    The shadow asks its own gateway, so the agent's call budget is not
    spent on it."""

    def __init__(self, gateway, **config):
        self.memory = SpatialMemory(gateway=gateway, **config)
        self.shadow = FullReplaceMemory(gateway=ReasonerGateway(budget=10**9), **config)
        self.integrates = 0

    def check(self):
        assert self.memory.snapshot() == self.shadow.snapshot()

    def buffer_triplets(self, triplets):
        for m in (self.memory, self.shadow):
            m.buffer_triplets(triplets)
        self.integrates += not self.memory.pending()
        self.check()

    def integrate(self):
        self.integrates += bool(self.memory.pending())
        for m in (self.memory, self.shadow):
            m.integrate()
        self.check()

    def query(self, names):
        found = self.memory.query(names)
        assert self.shadow.query(names) == found
        return found

    def clear(self):
        for m in (self.memory, self.shadow):
            m.clear()

    def __getattr__(self, name):
        return getattr(self.memory, name)


class TestFullReplaceShadow:
    # The default caps, and caps low enough that hot nodes evict often.
    @pytest.mark.parametrize("cap", [spatial.DEFAULT_MAX_OUT_DEGREE, 3])
    def test_seed_3_suite_matches_full_replace_after_every_integrate(self, cap):
        system = harness.AgentSystem.build()
        shadowed = ShadowedMemory(system.gateway, max_out_degree=cap, max_in_degree=cap)
        system.orchestrator.spatial = shadowed
        profile, tasks = load_suite(builtin_suite_path())
        episodes = harness.run_pass(tasks, system, suite_seed=3, profile=profile, failure_p=0.1)
        assert not any(e.result.terminated_by.value == "crashed" for e in episodes)
        assert shadowed.integrates > 100


class TestSeedCoverage:
    """Spatial retrieval seeds from the query generator's entity names, so
    at every gather of a suite run each goal name and each visible entity
    that is a node at that moment is a seed."""

    @pytest.mark.parametrize("seed", [3, 11, 29, 44])
    def test_every_named_node_is_a_seed(self, seed, monkeypatch):
        named = []  # the goal names and visible entities of the latest observation
        retrieved = []  # the seeds of each spatial retrieval of the latest gather
        misses, seeded = [], []
        preprocess, gather = Preprocessor.preprocess, MemoryOrchestrator.gather_context
        retrieve = SpatialMemory.retrieve_subgraph

        def recording_preprocess(pre, obs, *args, **kwargs):
            out = preprocess(pre, obs, *args, **kwargs)
            *_, names = parse_observation(obs)
            named[:] = [*pre.goal_entities, *names]
            return out

        def recording_retrieve(mem, names, k=None):
            names = set(names)
            retrieved.append(names)
            return retrieve(mem, names, k)

        def checked_gather(orch, entities):
            retrieved.clear()
            context = gather(orch, entities)
            nodes = orch.spatial.nodes
            seeds = set().union(*retrieved)
            expected = {name for name in named if name in nodes}
            seeded.append(len(expected))
            if not expected <= seeds:
                misses.append((list(entities), sorted(expected - seeds)))
            return context

        monkeypatch.setattr(Preprocessor, "preprocess", recording_preprocess)
        monkeypatch.setattr(MemoryOrchestrator, "gather_context", checked_gather)
        monkeypatch.setattr(SpatialMemory, "retrieve_subgraph", recording_retrieve)
        report = harness.run_suite(seed=seed, passes=2, failure_p=0.1)["report"]
        # An assertion inside an episode would read as a crash, so the
        # misses are collected and checked here.
        assert all(t["terminated_by"] != "crashed" for p in report["passes"] for t in p["tasks"])
        assert misses == []
        assert sum(seeded) > len(seeded)  # most gathers name several nodes


class TestPersistence:
    def test_snapshot_restore_round_trip(self):
        mem = make_memory()
        seed_graph(
            mem,
            [
                Triplet("cup", "on", "table", step_index=2),
                Triplet("table", "near", "window", step_index=3),
            ],
        )
        mem.buffer_triplets([Triplet("fork", "on", "table")])
        snap = mem.snapshot()
        other = make_memory()
        other.restore(snap)
        assert other.snapshot() == snap
        assert other.nodes == mem.nodes
        assert [e.key for e in other.edges()] == [e.key for e in mem.edges()]
        assert [t.key for t in other.pending()] == [t.key for t in mem.pending()]

    def test_snapshot_is_valid_json(self):
        mem = make_memory()
        seed_graph(mem, [Triplet("cup", "on", "table")])
        doc = mem.snapshot()
        assert json.loads(canonical_json(doc)) == doc
        assert set(doc) == {"nodes", "edges", "pending"}

    def test_clear_empties_everything(self):
        mem = make_memory()
        seed_graph(mem, [Triplet("cup", "on", "table")])
        mem.buffer_triplets([Triplet("fork", "on", "table")])
        mem.clear()
        assert mem.nodes == set()
        assert mem.edges() == []
        assert mem.pending() == []

    @pytest.mark.parametrize(
        "doc, path",
        [
            # A string is not a list of names: its items are its characters.
            ({"nodes": "abc", "edges": []}, "nodes"),
            ({"nodes": [5], "edges": []}, "nodes"),
            ({"nodes": ["cup", " "], "edges": []}, "nodes"),
        ],
    )
    def test_restore_refuses_a_field_that_is_not_a_list_of_names(self, doc, path):
        mem = make_memory()
        with pytest.raises(InvariantError) as refused:
            mem.restore(doc)
        assert refused.value.path == path

    @pytest.mark.parametrize("retrieval_seed", [["cup", "table"], [7]])
    def test_restore_ignores_the_retrieval_seed_of_an_older_snapshot(self, retrieval_seed):
        # Snapshots written before queries became pure reads carry the names
        # the last query seeded from; nothing reads them now.
        mem = make_memory()
        seed_graph(mem, [Triplet("cup", "on", "table", step_index=1)])
        mem.buffer_triplets([Triplet("fork", "on", "table")])
        doc = mem.snapshot()
        other = make_memory()
        other.restore(dict(doc, retrieval_seed=retrieval_seed))
        assert other.snapshot() == doc

    def test_restore_refuses_a_node_above_its_out_degree_cap(self):
        # Installing such a graph would evict the oldest edges in silence.
        doc = {"nodes": [], "edges": to_doc(
            [Triplet("shelf", "near", f"box {i:02d}", step_index=i) for i in range(20)])}
        mem = make_memory()
        seed_graph(mem, [Triplet("cup", "on", "table", step_index=1)])
        before = mem.snapshot()
        with pytest.raises(InvariantError) as refused:
            mem.restore(doc)
        assert refused.value.path == "edges"
        assert "shelf (20)" in str(refused.value)
        assert f"cap {spatial.DEFAULT_MAX_OUT_DEGREE}" in str(refused.value)
        assert mem.snapshot() == before
        wider = make_memory(max_out_degree=20)
        wider.restore(doc)
        assert wider.snapshot()["edges"] == doc["edges"]
        assert wider.out_degree("shelf") == 20

    def test_restore_refuses_a_node_above_its_in_degree_cap(self):
        doc = {"nodes": [], "edges": to_doc(
            [Triplet(f"cup {i}", "on", "shelf", step_index=i) for i in range(5)])}
        mem = make_memory(max_in_degree=2)
        with pytest.raises(InvariantError) as refused:
            mem.restore(doc)
        assert refused.value.path == "edges"
        assert "shelf (5)" in str(refused.value)
        assert "cap 2" in str(refused.value)
        assert mem.snapshot() == make_memory().snapshot()
        # A key stated twice is one edge.
        mem.restore(dict(doc, edges=doc["edges"][:2] + doc["edges"][:2]))
        assert mem.in_degree("shelf") == 2

    def test_refused_restore_leaves_the_memory_as_it_was(self):
        mem = make_memory()
        seed_graph(mem, [Triplet("cup", "on", "table", step_index=1)])
        mem.buffer_triplets([Triplet("fork", "on", "table")])
        mem.query(["cup"])
        before = mem.snapshot()
        # The edges are good and would replace the graph; the nodes are not.
        bad = dict(before, edges=to_doc([Triplet("spoon", "in", "drawer")]), nodes=[5])
        with pytest.raises(InvariantError):
            mem.restore(bad)
        assert mem.snapshot() == before


class TestNoEmbedding:
    """Working memory keys on exact names, so no operation embeds a name,
    and near-duplicate spellings stay distinct nodes."""

    @settings(max_examples=100, deadline=None)
    @given(operations=_near_operations, buffer=st.integers(min_value=1, max_value=4))
    def test_no_operation_embeds(self, operations, buffer):
        def refuse(*args, **kwargs):
            raise AssertionError("spatial memory embedded a name")

        with mock.patch.object(vector_index.HashingEmbedder, "embed", refuse):
            mem = make_memory(buffer_capacity=buffer)
            buffered = set()
            saved = mem.snapshot()
            for op in operations:
                if op == "integrate":
                    mem.integrate()
                elif op == "snapshot":
                    saved = mem.snapshot()
                elif op == "restore":
                    mem.restore(saved)
                elif op == "clear":
                    mem.clear()
                elif isinstance(op, tuple):
                    # The name itself, one that is no node, and a numbered one.
                    for name in (op[1], op[1] + "z", op[1] + " 3"):
                        mem.query([name])
                        mem.retrieve_subgraph([name])
                else:
                    buffered.update(t.key for t in op)
                    mem.buffer_triplets(op)
                # Every edge keeps the spelling it was buffered under.
                assert {e.key for e in mem.edges()} <= buffered


class TestPureQuery:
    """A query reads the memory and changes nothing in it."""

    def test_query_leaves_the_snapshot_as_it_was(self):
        mem = make_memory()
        mem.buffer_triplets([Triplet("cup", "on", "table", step_index=1)])
        mem.integrate()
        mem.buffer_triplets([Triplet("fork", "on", "table", step_index=2)])
        before = mem.snapshot()
        for names in (["cup"], ["table", "window"], ["qqq"], []):
            mem.query(names)
            assert mem.snapshot() == before

    @settings(max_examples=100, deadline=None)
    @given(
        operations=_region_operations,
        buffer=st.integers(min_value=1, max_value=4),
        k=st.integers(min_value=1, max_value=2),
    )
    def test_no_query_changes_the_snapshot(self, operations, buffer, k):
        mem = make_memory(buffer_capacity=buffer, k_hops=k)
        saved = mem.snapshot()
        for op in operations:
            if op == "snapshot":
                saved = mem.snapshot()
                continue
            before = mem.snapshot()
            apply_region_operation(mem, op, saved)
            if isinstance(op, tuple) and op[0] == "query":
                assert mem.snapshot() == before


#: The field of the world's object state that each state-set value of an
#: ``is`` fact is checked against.
_STATE_FIELDS = {"open": "open_state", "closed": "open_state", "on": "power", "off": "power"}


class TestWorldAudit:
    """Every fact a gather reads agrees with the simulator's world as it is
    at that gather."""

    def test_gathers_read_no_wrong_fact(self):
        envs, wrong = [], []
        checked = {"location": 0, "state": 0}
        reset, gather = Environment.reset, MemoryOrchestrator.gather_context

        def recording_reset(env, *args, **kwargs):
            envs.append(env)
            return reset(env, *args, **kwargs)

        def audited_gather(orchestrator, entities):
            context = gather(orchestrator, entities)
            world = envs[-1].world_snapshot()
            for fact in context.spatial:
                state = world["objects"].get(fact.subject, {})
                if fact.relation in ("on", "in"):
                    checked["location"] += 1
                    # A held object keeps its last place (ROADMAP item 9,
                    # cause 1): 1,226 such facts per mode over these runs.
                    right = state.get("location") == fact.object or fact.subject == world["held"]
                elif fact.relation == "is" and fact.object in _STATE_FIELDS:
                    checked["state"] += 1
                    right = state.get(_STATE_FIELDS[fact.object]) == fact.object
                else:
                    right = True
                if not right:
                    wrong.append((seed, parallel, fact.key))
            return context

        with mock.patch.object(Environment, "reset", recording_reset), mock.patch.object(
            MemoryOrchestrator, "gather_context", audited_gather
        ):
            for seed in range(10):
                for parallel in (True, False):
                    harness.run_suite(seed=seed, passes=2, failure_p=0.1, parallel=parallel)
        assert wrong == []
        assert checked["location"] > 10_000 and checked["state"] > 1_000
