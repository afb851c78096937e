"""Unit tests for the checkpoint/fork engine (repro.core.checkpoint)."""

import random

import pytest

from repro.core.checkpoint import Checkpoint, CheckpointError, CheckpointPool
from repro.core.orchestrator import make_env
from repro.netsim.scheduler import CapturedWorldError
from repro.oracle.fuzz import _continue_body, _fuzz_prefix
from tests.props.test_checkpoint_props import canon


class Counter:
    """A minimal self-rescheduling rig: bound-method callbacks only."""

    def __init__(self, env, period=1.0):
        self.env = env
        self.fired = 0
        env.scheduler.schedule(period, self.tick, period)

    def tick(self, period):
        self.fired += 1
        self.env.trace.record("counter.tick", n=self.fired)
        self.env.scheduler.schedule(period, self.tick, period)


def warmed_env(depth=5.0):
    env = make_env(seed=0)
    counter = Counter(env)
    env.run_until(depth)
    return env, counter


# ----------------------------------------------------------------------
# capture / fork semantics
# ----------------------------------------------------------------------

def test_fork_continues_where_capture_left_off():
    env, counter = warmed_env(5.0)
    cp = Checkpoint.capture(env, {"counter": counter})
    forked = cp.fork()
    assert forked.env.scheduler.now == 5.0
    assert forked["counter"].fired == 5
    forked.env.run_until(10.0)
    assert forked["counter"].fired == 10


def test_running_a_captured_world_raises():
    env, counter = warmed_env(5.0)
    cp = Checkpoint.capture(env, {"counter": counter})
    forked = cp.fork()
    forked.env.run_until(10.0)
    # the captured world is the snapshot: every run call refuses it
    for run in (lambda: env.run_until(10.0), env.run_until_quiet,
                env.scheduler.run, env.scheduler.step):
        with pytest.raises(CapturedWorldError, match="'t=5'.*run a fork"):
            run()
    assert env.scheduler.now == 5.0
    assert counter.fired == 5
    # ...so a later fork still starts where the capture left off
    again = cp.fork()
    again.env.run_until(10.0)
    assert again["counter"].fired == forked["counter"].fired == 10


def test_a_capture_adopts_its_world_and_compiles_one_plan(monkeypatch):
    import repro.core.checkpoint as module

    plans = []

    class CountingPlan(module.ClonePlan):
        def __init__(self, *args, **kwargs):
            plans.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(module, "ClonePlan", CountingPlan)
    env = make_env(seed=0)
    roots = _fuzz_prefix(env, {"protocol": "gmp", "target": "self_death"})
    cp = Checkpoint.capture(env, roots)
    cp.fork(seed=3)
    cp.fork(seed=4)
    assert len(plans) == 1
    assert plans[0]["env"] is env


def test_forks_are_mutually_independent():
    env, counter = warmed_env(3.0)
    cp = Checkpoint.capture(env, {"counter": counter})
    a, b = cp.fork(), cp.fork()
    a.env.run_until(20.0)
    assert b.env.scheduler.now == 3.0
    b.env.run_until(20.0)
    assert a["counter"].fired == b["counter"].fired == 20
    assert cp.forks == 2


def test_trace_prefix_is_shared_not_copied():
    env, counter = warmed_env(4.0)
    cp = Checkpoint.capture(env, {"counter": counter})
    forked = cp.fork()
    prefix = list(env.trace)
    # entries are values; the rows' attrs dicts are what a fork shares
    assert [a == b and a.attrs is b.attrs
            for a, b in zip(prefix, forked.env.trace)] == [True] * len(prefix)
    forked.env.run_until(6.0)
    assert len(forked.env.trace) > len(prefix)
    assert list(env.trace) == prefix  # parent undisturbed


def test_capture_compacts_tombstones_first():
    env, counter = warmed_env(2.0)
    doomed = [env.scheduler.schedule(50.0 + i, counter.tick, 1.0)
              for i in range(10)]
    for event in doomed:
        event.cancel()
    before = env.scheduler.compactions
    cp = Checkpoint.capture(env, {"counter": counter})
    assert env.scheduler.compactions == before + 1
    assert cp.fork().env.scheduler.pending_count == 1


def test_default_label_and_repr():
    env, _counter = warmed_env(5.0)
    cp = Checkpoint.capture(env)
    assert cp.label == "t=5"
    assert "t=5" in repr(cp)
    assert cp.position == len(env.trace)


# ----------------------------------------------------------------------
# the capture-time audit
# ----------------------------------------------------------------------

def test_capture_rejects_closure_callbacks():
    env, _counter = warmed_env(1.0)
    leaked = []
    env.scheduler.schedule(1.0, lambda: leaked.append(1))
    with pytest.raises(CheckpointError, match="closure"):
        Checkpoint.capture(env)


def test_capture_rejects_world_smuggling_defaults():
    env, counter = warmed_env(1.0)

    def poke(target=counter):
        target.fired += 1

    env.scheduler.schedule(1.0, poke)
    with pytest.raises(CheckpointError, match="default"):
        Checkpoint.capture(env)


def test_audit_accepts_clean_heaps_and_atomic_defaults():
    env, _counter = warmed_env(1.0)

    def ping(n=3, tag="x"):
        return n, tag

    env.scheduler.schedule(1.0, ping)
    Checkpoint.capture(env)  # does not raise


def test_audit_recurses_into_partials():
    import functools
    env, _counter = warmed_env(1.0)
    captured = []
    env.scheduler.schedule(1.0, functools.partial(
        lambda: captured.append(1)))
    with pytest.raises(CheckpointError, match="SC101") as refused:
        Checkpoint.capture(env)
    assert str(refused.value).count("SC101") == 1


def test_capture_rejects_closure_free_lambdas():
    env, _counter = warmed_env(1.0)
    env.scheduler.schedule(1.0, lambda: None)
    with pytest.raises(CheckpointError, match="SC101"):
        Checkpoint.capture(env)


def test_capture_rejects_a_callback_that_is_not_callable():
    env, _counter = warmed_env(1.0)
    env.scheduler.schedule(1.0, 42)
    with pytest.raises(CheckpointError, match="42 is not callable"):
        Checkpoint.capture(env)


# ----------------------------------------------------------------------
# re-seeding forks
# ----------------------------------------------------------------------

def test_fork_reseed_matches_cold_run():
    env, _counter = warmed_env(2.0)
    stream = env.dist("noise", "a")  # derived, but never drawn from
    cp = Checkpoint.capture(env)
    forked = cp.fork(seed=7)
    assert forked.env.seed == 7
    cold = make_env(seed=7)
    assert forked.env.dists[0].dst_uniform(0, 1) \
        == cold.dist("noise", "a").dst_uniform(0, 1)
    assert stream.draws == 0  # the original stream was never touched


def test_fork_same_seed_skips_reseed():
    env, _counter = warmed_env(2.0)
    stream = env.dist("noise")
    stream.dst_uniform(0, 1)  # consumed -- reseed would refuse
    cp = Checkpoint.capture(env)
    cp.fork(seed=0)  # captured seed: no reseed attempted, no error


def test_fork_reseed_refuses_consumed_streams():
    env, _counter = warmed_env(2.0)
    env.dist("noise").dst_uniform(0, 1)
    cp = Checkpoint.capture(env)
    with pytest.raises(CheckpointError, match="re-seeded"):
        cp.fork(seed=9)


# ----------------------------------------------------------------------
# a stream is a seed until it is drawn from
# ----------------------------------------------------------------------

@pytest.mark.parametrize("protocol,target", [("gmp", "self_death"),
                                             ("tcp", "SunOS 4.1.3")])
def test_a_reseeded_fork_of_a_stock_prefix_builds_no_generator(
        monkeypatch, protocol, target):
    calls = []
    init, setstate = random.Random.__init__, random.Random.setstate

    def counting_init(rng, *args):
        calls.append("init")
        init(rng, *args)

    def counting_setstate(rng, state):
        calls.append("setstate")
        setstate(rng, state)

    monkeypatch.setattr(random.Random, "__init__", counting_init)
    monkeypatch.setattr(random.Random, "setstate", counting_setstate)
    env = make_env(seed=0)
    checkpoint = Checkpoint.capture(
        env, _fuzz_prefix(env, {"protocol": protocol, "target": target}))
    forks = [checkpoint.fork(seed=seed) for seed in (7, 123456789)]
    # neither the cold prefix, its capture nor a re-seeded fork built one
    assert calls == []
    # the first draw does
    forks[0].env.dists[0].dst_uniform(0, 1)
    assert calls == ["init"]


def test_a_lossy_link_and_a_dst_script_draw_alike_after_a_fork():
    config = {"protocol": "gmp", "target": "self_death",
              "direction": "send", "init_script": "",
              "script": "if {[dst_uniform 0 1] < 0.3} { xDrop cur_msg }"}

    def continue_lossy(env, state):
        link = env.network.link(1, 2)
        link.loss_rate, link.jitter = 0.2, 0.002
        return _continue_body(env, state, dict(config)), link

    cold_env = make_env(seed=7)
    cold, cold_link = continue_lossy(cold_env,
                                     _fuzz_prefix(cold_env, config))
    env = make_env(seed=0)
    forked = Checkpoint.capture(env, _fuzz_prefix(env, config)).fork(seed=7)
    result, link = continue_lossy(forked.env, forked.roots)
    assert link.rng_draws == cold_link.rng_draws > 0
    assert link.dropped_count == cold_link.dropped_count > 0
    assert [d.draws for d in forked.env.dists] \
        == [d.draws for d in cold_env.dists]
    assert sum(d.draws for d in forked.env.dists) > 0
    assert result == cold
    assert canon(forked.env.trace) == canon(cold_env.trace)


# ----------------------------------------------------------------------
# identity digests
# ----------------------------------------------------------------------

def test_identity_stable_across_identical_captures():
    def build():
        env, counter = warmed_env(5.0)
        return Checkpoint.capture(env, {"counter": counter}, label="x")
    assert build().identity == build().identity


def test_identity_distinguishes_depth_label_and_seed():
    def capture(depth=5.0, label="x", seed=0):
        env = make_env(seed=seed)
        Counter(env)
        env.run_until(depth)
        return Checkpoint.capture(env, label=label).identity

    base = capture()
    assert capture(depth=6.0) != base
    assert capture(label="y") != base
    assert capture(seed=1) != base


# ----------------------------------------------------------------------
# CheckpointPool
# ----------------------------------------------------------------------

def _pooled_checkpoint(depth=2.0):
    env, counter = warmed_env(depth)
    return Checkpoint.capture(env, {"counter": counter})


class TestCheckpointPool:
    def test_get_put_and_counters(self):
        pool = CheckpointPool()
        assert pool.get("a") is None and pool.misses == 1
        cp = _pooled_checkpoint()
        pool.put("a", cp)
        assert pool.get("a") is cp
        assert pool.stats() == {"hits": 1, "misses": 1, "items": 1,
                                "entries": cp.position}
        assert len(pool) == 1

    def test_clear_keeps_counters(self):
        pool = CheckpointPool()
        pool.put("a", _pooled_checkpoint())
        pool.get("a")
        pool.clear()
        assert len(pool) == 0
        assert pool.hits == 1


# ----------------------------------------------------------------------
# neighbours bound at wiring follow the fork
# ----------------------------------------------------------------------

def test_fork_of_a_gmp_world_delivers_into_its_own_layers():
    from repro.experiments.gmp_common import build_gmp_cluster

    env = make_env(seed=0)
    cluster = build_gmp_cluster([1, 2, 3], env=env)
    cluster.start()
    env.run_until(8.0)
    checkpoint = Checkpoint.capture(env, {"cluster": cluster})
    assert checkpoint.plan_stats["fallback"] == []
    length = len(env.trace)
    stats = {a: pfi.stats for a, pfi in cluster.pfis.items()}

    forked = checkpoint.fork()
    twin = forked["cluster"]
    for address, pfi in twin.pfis.items():
        original = cluster.pfis[address]
        # each bound exit points at the fork's neighbour, not the original's
        assert pfi.send_down.__self__ is pfi.below is not original.below
        assert pfi.send_up.__self__ is pfi.above is not original.above
        assert pfi.below.send_up.__self__ is pfi
    # a link delivers into the fork's stack, at its node's anchor
    links = forked.env.network._links
    assert all(link._deliver.__self__ is forked.env.network.node(dst).anchor
               for (_src, dst), link in links.items())
    forked.env.run_until(16.0)

    assert len(forked.env.trace) > length
    assert all(twin.pfis[a].stats["receive_seen"] > stats[a]["receive_seen"]
               for a in stats)
    assert len(env.trace) == length
    assert {a: pfi.stats for a, pfi in cluster.pfis.items()} == stats


# ----------------------------------------------------------------------
# one executor captures and forks
# ----------------------------------------------------------------------

def _checkpoint_calls(source: str):
    """``(line, name)`` of every ``Checkpoint.capture(...)`` and every
    ``.fork(...)`` call in ``source``."""
    import ast
    calls = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        name, owner = node.func.attr, node.func.value
        if name == "fork" or (name == "capture"
                              and isinstance(owner, ast.Name)
                              and owner.id == "Checkpoint"):
            calls.append((node.lineno, name))
    return calls


class TestOneForker:
    def test_only_the_orchestrator_captures_and_forks(self):
        """Every engine -- sweep, fuzz, shrink, explore -- reaches a
        checkpoint through ``execute_shard``: no other module of the
        package calls ``Checkpoint.capture`` or a ``.fork()``."""
        from pathlib import Path

        package = Path(__file__).resolve().parents[2] / "src" / "repro"
        allowed = {package / "core" / "orchestrator.py",
                   package / "core" / "checkpoint.py"}
        offenders = [f"{source.relative_to(package)}:{line}: .{name}()"
                     for source in sorted(package.rglob("*.py"))
                     if source not in allowed
                     for line, name in _checkpoint_calls(source.read_text())]
        assert offenders == []

    def test_the_scan_sees_a_private_runner(self):
        # what a runner of its own looks like: a capture and its forks
        source = ("root = Checkpoint.capture(env, roots, label='x')\n"
                  "forked = root.fork()\n"
                  "twin = root.fork(seed=3).env\n"
                  "capture(env, roots)\n")
        assert _checkpoint_calls(source) == [(1, "capture"), (2, "fork"),
                                             (3, "fork")]
