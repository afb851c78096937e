"""Pass 2 (SC1xx determinism linter): every code against seeded sources.

The mutation tests at the bottom are the acceptance-criteria ones: a
clean template plus one seeded violation must yield exactly the
expected diagnostic, nothing else.
"""

import textwrap

import pytest

from repro.staticcheck import check_source, precheck_body
from repro.staticcheck.determinism import audit_pending


def codes(report):
    return [d.code for d in report.sorted()]


def check(source):
    return check_source(textwrap.dedent(source), source_name="t.py")


class TestSC101Closures:
    def test_lambda_scheduled(self):
        report = check("""
            def body(env):
                env.scheduler.schedule(1.0, lambda: None)
        """)
        assert codes(report) == ["SC101"]

    def test_nested_closure_scheduled(self):
        report = check("""
            def body(env, config):
                state = {}
                def tick():
                    state["x"] = config["y"]
                env.scheduler.schedule(1.0, tick)
        """)
        d = report.sorted()[0]
        assert d.code == "SC101"
        assert "tick" in d.message and "captures" in d.message

    def test_schedule_at_and_timer_register_covered(self):
        report = check("""
            def body(env, timers):
                env.scheduler.schedule_at(2.0, lambda: None)
                timers.register("hb", 1, 0.5, lambda: None)
        """)
        assert codes(report) == ["SC101", "SC101"]

    def test_bound_method_is_clean(self):
        report = check("""
            def body(env, daemon):
                env.scheduler.schedule(1.0, daemon.start)
        """)
        assert report.ok(severity="info")

    def test_nested_function_without_free_names_is_clean(self):
        report = check("""
            def body(env):
                def noop():
                    return 1
                env.scheduler.schedule(1.0, noop)
        """)
        assert "SC101" not in codes(report)

    def test_callable_class_is_clean(self):
        report = check("""
            class Ticker:
                def __call__(self):
                    pass
            def body(env):
                env.scheduler.schedule(0.0, Ticker())
        """)
        assert report.ok(severity="info")


class TestSC102Defaults:
    def test_mutable_default_on_scheduled_function(self):
        report = check("""
            def cb(bucket=[]):
                bucket.append(1)
            def body(env):
                env.scheduler.schedule(1.0, cb)
        """)
        assert codes(report) == ["SC102"]

    def test_atomic_defaults_are_clean(self):
        report = check("""
            def cb(n=0, label="x", ratio=-1.5, flag=None):
                return n
            def body(env):
                env.scheduler.schedule(1.0, cb)
        """)
        assert report.ok(severity="info")


class TestSC103WallClock:
    def test_time_time(self):
        report = check("""
            import time
            def body(env):
                return time.time()
        """)
        assert codes(report) == ["SC103"]

    def test_from_import_perf_counter(self):
        report = check("""
            from time import perf_counter
            def body(env):
                return perf_counter()
        """)
        assert codes(report) == ["SC103"]

    def test_datetime_now(self):
        report = check("""
            import datetime
            def body(env):
                return datetime.datetime.now()
        """)
        assert codes(report) == ["SC103"]

    def test_virtual_clock_is_clean(self):
        report = check("""
            def body(env):
                return env.scheduler.now
        """)
        assert report.ok(severity="info")


class TestSC104Random:
    def test_module_level_random(self):
        report = check("""
            import random
            def body(env):
                return random.random()
        """)
        assert codes(report) == ["SC104"]

    def test_seeded_instance_is_clean(self):
        report = check("""
            import random
            def body(env, seed):
                rng = random.Random(seed)
                return rng.random()
        """)
        assert report.ok(severity="info")

    def test_from_import_choice(self):
        report = check("""
            from random import choice
            def body(env, items):
                return choice(items)
        """)
        assert codes(report) == ["SC104"]


class TestSC105SetIteration:
    def test_set_call_feeding_trace(self):
        report = check("""
            def body(trace, items):
                for item in set(items):
                    trace.record("x.y", item=item)
        """)
        assert codes(report) == ["SC105"]

    def test_set_typed_local(self):
        report = check("""
            def body(trace):
                peers = {1, 2, 3}
                for peer in peers:
                    trace.record("x.y", peer=peer)
        """)
        assert codes(report) == ["SC105"]

    def test_set_typed_self_attribute(self):
        report = check("""
            class Daemon:
                def __init__(self):
                    self.suspected = set()
                def sweep(self):
                    for peer in self.suspected:
                        self._record("gmp.x", peer=peer)
        """)
        assert codes(report) == ["SC105"]

    def test_sorted_iteration_is_clean(self):
        report = check("""
            def body(trace, items):
                for item in sorted(set(items)):
                    trace.record("x.y", item=item)
        """)
        assert report.ok(severity="info")

    def test_set_iteration_without_trace_is_clean(self):
        report = check("""
            def body(items):
                total = 0
                for item in set(items):
                    total += item
                return total
        """)
        assert report.ok(severity="info")


class TestSC106IdInHash:
    def test_id_in_hash(self):
        report = check("""
            def body(obj):
                return hash(id(obj))
        """)
        assert codes(report) == ["SC106"]

    def test_id_in_digest_update(self):
        report = check("""
            import hashlib
            def body(obj):
                digest = hashlib.sha256()
                digest.update(str(id(obj)).encode())
                return digest.hexdigest()
        """)
        assert codes(report) == ["SC106"]

    def test_id_in_fingerprint_function(self):
        report = check("""
            def fingerprint(world):
                return str(id(world))
        """)
        assert codes(report) == ["SC106"]

    def test_plain_id_elsewhere_is_clean(self):
        report = check("""
            def body(a, b):
                return id(a) == id(b)
        """)
        assert report.ok(severity="info")


class TestSC107ReadOnlyHeaders:
    """Headers from the non-copying Message accessors may be aliased."""

    @pytest.mark.parametrize("binding", [
        "header = msg.pop_header()",
        "header = msg.top_header",
        "header = msg.find_header(Segment)",
    ])
    def test_attribute_write_through_each_accessor(self, binding):
        report = check(f"""
            def pop(self, msg):
                {binding}
                header.seq = 0
        """)
        assert codes(report) == ["SC107"]

    def test_write_through_pop_header_of(self):
        report = check("""
            def pop(self, msg):
                h = msg.pop_header_of(UDPHeader)
                h.dst_port = 1
        """)
        assert codes(report) == ["SC107"]

    def test_iteration_subscript_and_augmented_writes(self):
        report = check("""
            def scrub(msg):
                for depth, header in enumerate(msg.iter_headers()):
                    header["ttl"] = 0
                    header.hops += 1
        """)
        assert codes(report) == ["SC107", "SC107"]

    def test_setattr_and_direct_accessor_write(self):
        report = check("""
            def corrupt(msg, name):
                seg = msg.top_header
                setattr(seg, name, 0)
                msg.top_header.window = 0
        """)
        assert codes(report) == ["SC107", "SC107"]

    def test_message_names_the_header_and_the_fix(self):
        report = check("""
            def pop(self, msg):
                seg = msg.pop_header()
                seg.ack = 1
        """)
        d = report.sorted()[0]
        assert d.line == 4
        assert "'seg'" in d.message
        assert "writable_header" in d.hint

    def test_reads_and_sanctioned_writes_are_clean(self):
        report = check("""
            def pop(self, msg, stubs):
                header = msg.top_header
                if header.dst != self.local_address:
                    return
                seg = msg.pop_header()
                self.seen = seg.seq
                for depth, each in enumerate(msg.iter_headers()):
                    if each.ttl == 0:
                        msg.writable_header(depth).ttl = 64
                msg.headers[0].ttl = 1
                stubs.set_field(msg, "seq", 0)
                reply = replace(seg, ack=seg.seq)
                reply.window = 0
        """)
        assert report.ok(severity="info")

    def test_rebinding_clears_the_mark(self):
        report = check("""
            def pop(self, msg):
                header = msg.top_header
                header = header.clone()
                header.seq = 0
        """)
        assert report.ok(severity="info")

    def test_payload_writes_through_the_attribute_path(self):
        report = check("""
            def corrupt(self, msg, name):
                msg.payload.sender = 7
                msg.payload["seq"] = 0
                self.held[0].payload.group_id += 1
                setattr(msg.payload, name, 0)
        """)
        assert codes(report) == ["SC107"] * 4
        d = report.sorted()[0]
        assert "payload" in d.message
        assert "writable_payload" in d.hint

    def test_payload_reads_locals_and_sanctioned_writes_are_clean(self):
        report = check("""
            def run_end(msg, stubs, result):
                payload = {"index": 0}
                payload["ok"] = result.ok()
                payload["n"] += 1
                kind = msg.payload.kind
                msg.writable_payload().sender = 7
                msg.payload = msg.payload.clone()
                stubs.set_field(msg, "group_id", 9)
                return payload, kind
        """)
        assert report.ok(severity="info")

    def test_package_is_clean(self):
        # the rule is held over all of src/repro, not only the pass-2 dirs
        import os
        import repro
        from repro.staticcheck.determinism import check_file
        package = os.path.dirname(os.path.abspath(repro.__file__))
        found = []
        for root, _dirs, files in os.walk(package):
            for name in files:
                if name.endswith(".py"):
                    path = os.path.join(root, name)
                    found += [(path, d.line) for d in
                              check_file(path, codes=("SC107",)).diagnostics]
        assert found == []


class TestSyntaxAndShape:
    def test_python_syntax_error_is_sl000(self):
        report = check("def broken(:\n    pass")
        assert codes(report) == ["SL000"]

    def test_positions_are_one_based(self):
        report = check("""
            import time
            def body(env):
                return time.time()
        """)
        d = report.sorted()[0]
        assert d.line == 4
        assert d.col >= 1


class TestPrecheckBody:
    def test_real_fuzz_body_is_clean(self):
        # run_fuzz uses perf_counter in the same module; the reachable
        # set of the fuzz body's prefix and continuation must not
        # include it
        from repro.oracle.fuzz import prefixed_fuzz_body
        for part in prefixed_fuzz_body.cache_parts():
            assert len(precheck_body(part)) == 0

    def test_reachability_excludes_unrelated_functions(self, tmp_path):
        module = tmp_path / "bodymod.py"
        module.write_text(textwrap.dedent("""
            import time
            def helper(env):
                return env.scheduler.now
            def clean_body(env, config):
                return helper(env)
            def dirty_driver():
                return time.time()
        """))
        import importlib.util
        spec = importlib.util.spec_from_file_location("bodymod", module)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        assert len(precheck_body(mod.clean_body)) == 0
        report = precheck_body(mod.dirty_driver)
        assert codes(report) == ["SC103"]

    def test_unresolvable_bodies_are_skipped(self):
        assert len(precheck_body(lambda env, config: None)) == 0


class TestCampaignPreflight:
    def test_campaign_refuses_hazardous_body(self, tmp_path):
        import importlib.util
        module = tmp_path / "hazmod.py"
        module.write_text(textwrap.dedent("""
            import random
            def hazardous_body(env, config):
                return random.random()
        """))
        spec = importlib.util.spec_from_file_location("hazmod", module)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        from repro.core.orchestrator import Campaign, CampaignScriptError
        campaign = Campaign(mod.hazardous_body, seed=1)
        with pytest.raises(CampaignScriptError) as excinfo:
            campaign.run([{}])
        assert "SC104" in str(excinfo.value)

    def test_lint_off_skips_precheck(self, tmp_path):
        import importlib.util
        module = tmp_path / "hazmod2.py"
        module.write_text(textwrap.dedent("""
            import random
            def hazardous_body(env, config):
                random.random()
                return 1
        """))
        spec = importlib.util.spec_from_file_location("hazmod2", module)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        from repro.core.orchestrator import Campaign
        results = Campaign(mod.hazardous_body, seed=1,
                           lint="off").run([{}])
        assert results[0].result == 1


class TestAuditPending:
    def make_scheduler(self):
        from repro.netsim.scheduler import Scheduler
        return Scheduler()

    def test_lambda_on_heap_is_pinned_to_source(self):
        scheduler = self.make_scheduler()
        scheduler.schedule(1.0, lambda: None)
        findings = audit_pending(scheduler)
        assert len(findings) == 1
        path, diag = findings[0]
        assert diag.code == "SC101"
        assert path.endswith("test_determinism.py")
        assert diag.line > 1

    def test_closure_on_heap(self):
        scheduler = self.make_scheduler()
        world = {"x": 1}

        def leaky():
            return world["x"]

        scheduler.schedule(1.0, leaky)
        findings = audit_pending(scheduler)
        assert [d.code for _p, d in findings] == ["SC101"]
        assert "world" in findings[0][1].message

    def test_mutable_default_on_heap(self):
        scheduler = self.make_scheduler()
        scheduler.schedule(1.0, _module_cb_with_default)
        findings = audit_pending(scheduler)
        assert [d.code for _p, d in findings] == ["SC102"]

    def test_not_callable_on_heap(self):
        scheduler = self.make_scheduler()
        scheduler.schedule(1.0, 42)
        findings = audit_pending(scheduler)
        assert [(p, d.code) for p, d in findings] == [("<unknown>", "SC101")]
        assert "42 is not callable" in findings[0][1].message

    def test_bound_methods_and_instances_are_clean(self):
        scheduler = self.make_scheduler()
        scheduler.schedule(1.0, scheduler.compact)
        findings = audit_pending(scheduler)
        assert findings == []

    def test_capture_reports_static_audit_first(self):
        from repro.core.checkpoint import Checkpoint, CheckpointError
        from repro.core.orchestrator import make_env
        env = make_env(seed=0)
        env.scheduler.schedule(5.0, lambda: None)
        with pytest.raises(CheckpointError) as excinfo:
            Checkpoint.capture(env)
        text = str(excinfo.value)
        assert "static audit" in text
        assert "SC101" in text


def _module_cb_with_default(bucket={}):
    bucket["hit"] = True
