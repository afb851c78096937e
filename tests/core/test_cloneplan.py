"""Clone plans (repro.core.cloneplan) and the checkpoint on top of them.

The synthetic-graph property lives in ``tests/props``; here are the
guarantees a property cannot draw: step ordering around fallback nodes,
the stock rigs against a ``copy.deepcopy`` fork of the same snapshot,
a world captured with a tclish filter installed, and what two forks may
share.
"""

import copy
import enum
import random
from collections import deque

import pytest

from repro.core import TclishFilter
from repro.core.checkpoint import Checkpoint, CheckpointPool
from repro.core.cloneplan import ClonePlan
from repro.core.distributions import DistributionSet
from repro.core.orchestrator import make_env
from repro.experiments.gmp_common import build_gmp_cluster
from repro.netsim import kinds as K
from repro.netsim.link import Link
from repro.netsim.scheduler import Event, SchedulerClock
from repro.netsim.trace import TraceRecorder
from repro.obs.campaign_report import render_text, summarize_journal
from repro.oracle.fuzz import (GMP_VARIANTS, HORIZONS, _continue_body,
                               _fuzz_prefix, _gmp_prefix, _tcp_prefix,
                               run_fuzz)
from repro.tcp import VENDORS
from repro.xkernel.message import Message
from tests.props.test_checkpoint_props import _config, canon
from tests.shape import reachable, same_shape


class Node:
    def __init__(self, **attrs):
        self.__dict__.update(attrs)


class Spy:
    """A fallback node that reports what its ``__deepcopy__`` saw."""

    copies = 0

    def __init__(self, *watch, friend=None):
        self.watch = list(watch)
        self.friend = friend
        self.seen = None

    def __deepcopy__(self, memo):
        type(self).copies += 1
        clone = Spy()
        memo[id(self)] = clone
        # (clone in the memo, is it the source itself) per watched object
        clone.seen = [(memo.get(id(obj)), obj) for obj in self.watch]
        clone.friend = copy.deepcopy(self.friend, memo)
        return clone


# ----------------------------------------------------------------------
# ordering around fallback nodes
# ----------------------------------------------------------------------

def test_every_native_shell_is_in_the_memo_before_a_fallback_runs():
    rng = random.Random(3)
    rng.random()
    late = Node(name="late", rng=rng, queue=deque([1], maxlen=4))
    table = {"late": late}
    # the spy comes first in traversal order; everything it watches is
    # only reached natively *after* it
    spy = Spy(late, table, rng, late.queue)
    root = [spy, table]
    clone = ClonePlan(root).clone()
    for planned, source in clone[0].seen:
        assert planned is not None and planned is not source
        assert type(planned) is type(source)
    seen = [planned for planned, _source in clone[0].seen]
    # ...and they are the very objects the finished clone is made of
    assert seen[1] is clone[1]
    assert seen[0] is clone[1]["late"]
    assert seen[2] is clone[1]["late"].rng
    assert seen[3] is clone[1]["late"].queue
    assert seen[2].getstate() == rng.getstate()
    assert same_shape(root[1], clone[1])


def test_fallback_is_copied_once_per_clone():
    inner = Spy()
    outer = Spy(friend=inner)
    holder = Node(first=outer, again=outer, pair=(outer, [inner]))
    plan = ClonePlan([holder, inner, outer])
    assert plan.fallback == ["Spy", "Spy"]
    for _ in range(3):
        Spy.copies = 0
        clone = plan.clone()
        assert Spy.copies == 2
        new_outer = clone[0].first
        assert new_outer is clone[0].again is clone[0].pair[0] is clone[2]
        assert new_outer.friend is clone[1] is clone[0].pair[1][0]
        assert new_outer is not outer and clone[1] is not inner


def test_tuple_reached_natively_and_through_a_fallback_is_one_tuple():
    shared = ([1, 2], "x")
    spy = Spy(friend=shared)
    clone = ClonePlan([spy, shared]).clone()
    assert clone[0].friend is clone[1]
    assert clone[1][0] == [1, 2] and clone[1][0] is not shared[0]
    clone = ClonePlan([shared, spy]).clone()
    assert clone[1].friend is clone[0]


# ----------------------------------------------------------------------
# what is rebuilt, what is shared
# ----------------------------------------------------------------------

class Speaker:
    def __init__(self):
        self.said = []

    def say(self, word):
        self.said.append(word)


def test_bound_method_keeps_the_func_its_source_object_holds():
    speaker = Speaker()
    original = Speaker.say
    bound = speaker.say            # holds the function installed *now*
    root = [speaker, bound]
    plan = ClonePlan(root)
    try:
        Speaker.say = lambda self, word: None   # a tracer's wrapper
        clone = plan.clone()
    finally:
        Speaker.say = original
    assert clone[1].__func__ is original
    assert clone[1].__self__ is clone[0]
    clone[1]("hi")
    assert clone[0].said == ["hi"] and speaker.said == []


class Colour(enum.Enum):
    RED = 1


def test_what_reaches_nothing_mutable_is_shared():
    constants = (1, "a", (2.0, None), frozenset({1, 2}), Colour.RED,
                 Speaker, len, Speaker.say)
    holder = [constants, constants]
    plan = ClonePlan(holder)
    clone = plan.clone()
    assert clone is not holder
    assert clone[0] is constants and clone[1] is constants
    assert plan.objects == 1 and plan.fallback == []


def test_random_is_restored_from_its_state_not_walked():
    rng = random.Random(11)
    rng.gauss(0, 1)
    plan = ClonePlan({"rng": rng})
    assert plan.objects == 2 and plan.fallback == []
    first, second = plan.clone()["rng"], plan.clone()["rng"]
    assert first is not second and first is not rng
    expected = [copy.deepcopy(rng).gauss(0, 1) for _ in range(1)]
    assert [first.gauss(0, 1)] == expected == [second.gauss(0, 1)]


def test_factory_replaces_an_object_without_walking_it():
    poison = Spy()
    skipped = Node(inner=poison)
    root = {"a": skipped, "b": [skipped]}
    made = []

    def factory():
        made.append(Node(fresh=True))
        return made[-1]

    plan = ClonePlan(root, {id(skipped): factory})
    assert plan.fallback == []
    clone = plan.clone()
    assert clone["a"] is made[0] is clone["b"][0]
    assert plan.clone()["a"] is made[1]


def test_plan_of_an_atomic_root_is_the_root():
    assert ClonePlan(5).clone() == 5
    assert ClonePlan(5).objects == 0


# ----------------------------------------------------------------------
# the stock rigs: plan fork vs deepcopy fork of the same snapshot
# ----------------------------------------------------------------------

def _deepcopy_fork(checkpoint, seed):
    """What ``Checkpoint.fork`` did before plans, on the same snapshot."""
    snapshot = checkpoint._plan.root
    trace = snapshot["env"].trace
    world = copy.deepcopy(snapshot, {id(trace): trace.fork()})
    env = world["env"]
    # the capture marked the snapshot's scheduler; a fork is unmarked
    del env.scheduler.captured
    env.trace.bind_clock(SchedulerClock(env.scheduler))
    env.reseed(seed)
    return env, world["roots"]


RIGS = ([("gmp", variant, depth)
         for variant in GMP_VARIANTS + ("fixed",) for depth in (8.0, 20.0)]
        + [("tcp", vendor, depth)
           for vendor in sorted(VENDORS) for depth in (0.0, 0.5, 2.0)])


@pytest.mark.parametrize("protocol,target,depth", RIGS)
def test_plan_fork_matches_deepcopy_fork_on_stock_rig(protocol, target,
                                                      depth):
    config = _config(protocol, target, depth, index=1)
    env = make_env(seed=0)
    prefix = _tcp_prefix if protocol == "tcp" else _gmp_prefix
    checkpoint = Checkpoint.capture(env, prefix(env, config, depth))
    assert checkpoint.plan_stats["fallback"] == []
    assert checkpoint.plan_stats["objects"] > 50
    for seed in (0, 7, 123456789):
        forked = checkpoint.fork(seed=seed)
        result = _continue_body(forked.env, forked.roots, dict(config))
        ref_env, ref_roots = _deepcopy_fork(checkpoint, seed)
        ref_result = _continue_body(ref_env, ref_roots, dict(config))
        assert forked.env.scheduler.now == HORIZONS[protocol]
        assert result == ref_result
        assert canon(forked.env.trace) == canon(ref_env.trace)


#: objects a fork of each stock fuzz prefix builds, at most (245 and 52
#: with every RNG stream a seed until its first draw; 257 and 53 with no
#: receive hook per anchored node; 260 and 55 with the trace as the PFI
#: layer's one record; 299 and 68 when every layer also kept a registry
#: of nine counters and its log lines)
FORK_OBJECTS_CEILING = {"gmp": 246, "tcp": 53}


@pytest.mark.parametrize("protocol,target", [("gmp", "self_death"),
                                             ("tcp", "SunOS 4.1.3")])
def test_stock_fuzz_prefix_fork_builds_few_objects(protocol, target):
    env = make_env(seed=0)
    roots = _fuzz_prefix(env, {"protocol": protocol, "target": target})
    objects = Checkpoint.capture(env, roots).plan_stats["objects"]
    assert objects <= FORK_OBJECTS_CEILING[protocol], objects


def test_hooks_the_plan_replaced_are_gone():
    assert "__deepcopy__" not in vars(Link)
    assert "__deepcopy__" not in vars(DistributionSet)
    import repro.core.checkpoint as module
    assert not hasattr(module, "_copy_world")


# ----------------------------------------------------------------------
# a world captured with a tclish filter installed (a fallback node)
# ----------------------------------------------------------------------

COUNTING = 'incr count; if {[msg_type cur_msg] eq "HEARTBEAT"} { incr beats }'


def test_captured_tclish_filter_forks_into_independent_interpreters():
    env = make_env(seed=0)
    cluster = build_gmp_cluster([1, 2, 3], env=env)
    cluster.start()
    env.run_until(8.0)
    script = TclishFilter(COUNTING, init_script="set count 0; set beats 0",
                          name="counting")
    cluster.pfis[2].set_send_filter(script)
    env.run_until(9.0)
    at_capture = int(script.interp.eval("set count"))
    assert at_capture > 0
    checkpoint = Checkpoint.capture(env, {"cluster": cluster,
                                          "script": script})
    assert checkpoint.plan_stats["fallback"] == ["TclishFilter"]
    assert "fallback=TclishFilter×1" in repr(checkpoint)

    one, two = checkpoint.fork(), checkpoint.fork()
    one.env.run_until(20.0)
    two.env.run_until(12.0)
    counts = [int(f["script"].interp.eval("set count")) for f in (one, two)]
    beats = [int(f["script"].interp.eval("set beats")) for f in (one, two)]
    assert counts[0] > counts[1] > at_capture
    # msg_type reads the fork's own interpreter context: had the bridge
    # stayed bound to the captured filter, no heartbeat would be seen
    assert beats[0] > beats[1] > 0
    assert int(script.interp.eval("set count")) == at_capture
    for forked in (one, two):
        installed = forked["cluster"].pfis[2].send_filter
        assert installed is forked["script"] is not script
        assert installed.interp is not script.interp
    # a third fork starts from the capture again
    assert int(checkpoint.fork()["script"].interp.eval("set count")) \
        == at_capture


# ----------------------------------------------------------------------
# what forks may share
# ----------------------------------------------------------------------

def _gmp_checkpoint():
    """A GMP group captured while a message is on the wire."""
    env = make_env(seed=0)
    config = {"protocol": "gmp", "target": "self_death"}
    roots = _gmp_prefix(env, config, 8.0)
    while not any(isinstance(arg, Message)
                  for event in env.scheduler.pending_events()
                  for arg in event.args):
        assert env.scheduler.step()
    return Checkpoint.capture(env, roots)


def _mutable_ids(world):
    """id -> object for everything reachable that a run could mutate;
    a trace's rows (their attrs dicts) are write-once and shared by
    design -- the three columns holding them are per-fork lists."""
    found = {}
    skip = set()
    for obj in reachable(world):
        if isinstance(obj, TraceRecorder):
            skip.update(id(entry.attrs) for entry in obj)
        if not isinstance(obj, (tuple, frozenset)):
            found[id(obj)] = obj
    return {oid: obj for oid, obj in found.items() if oid not in skip}


def test_two_forks_share_nothing_mutable():
    checkpoint = _gmp_checkpoint()
    one, two = checkpoint.fork(), checkpoint.fork()
    # a stream is a seed until it draws: draw, so each fork holds its
    # own generators
    for forked in (one, two):
        for stream in forked.env.dists:
            stream.dst_uniform(0.0, 1.0)
    first = _mutable_ids({"env": one.env, "roots": one.roots})
    second = _mutable_ids({"env": two.env, "roots": two.roots})
    frozen = _mutable_ids(checkpoint._plan.root)
    kinds = {type(obj) for obj in first.values()}
    # the world really holds the things that must not be shared
    assert {random.Random, Event, deque, Message, Link} <= kinds
    for left, right in ((first, second), (first, frozen), (second, frozen)):
        assert [type(left[oid]).__name__
                for oid in left.keys() & right.keys()] == []


# ----------------------------------------------------------------------
# plan_stats on the journal and in the report
# ----------------------------------------------------------------------

def test_capture_event_carries_plan_stats(tmp_path):
    path = tmp_path / "fuzz.jsonl"
    pool = CheckpointPool()
    run_fuzz("gmp", seed=0, budget=1, pool=pool, journal=path)
    [checkpoint] = pool._items.values()
    assert tuple(checkpoint.plan_stats) == K.CHECKPOINT_PLAN_FIELDS
    summary = summarize_journal(path)
    [capture] = summary.checkpoints
    assert capture["objects"] == checkpoint.plan_stats["objects"] > 100
    assert capture["fallback"] == []
    assert "fallback:" not in render_text(summary)
    capture["fallback"] = ["Link", "Timer", "Link"]
    assert "  fallback: Link×2 Timer×1" in render_text(summary)
