"""Unit tests for the retransmission manager."""


from repro.netsim.scheduler import Scheduler
from repro.netsim.trace import TraceRecorder
from repro.tcp.retransmit import RetransmissionManager
from repro.tcp.rtt import make_estimator
from repro.tcp.segment import ACK, PSH, Segment
from repro.tcp.vendors import SOLARIS_23, SUNOS_413


def make_manager(profile=SUNOS_413):
    sched = Scheduler()
    trace = TraceRecorder(clock=lambda: sched.now)
    sent = []
    gave_up = []
    manager = RetransmissionManager(
        sched, make_estimator(profile), profile,
        retransmit=sent.append, give_up=gave_up.append,
        trace=trace, name="test")
    return sched, manager, sent, gave_up, trace


def seg(seq, length=512):
    return Segment(src_port=1, dst_port=2, seq=seq, ack=0,
                   flags=ACK | PSH, window=4096, payload=b"x" * length)


class TestTracking:
    def test_track_arms_timer(self):
        sched, mgr, sent, _, _ = make_manager()
        mgr.track(seg(100))
        assert mgr.outstanding == 1
        sched.run_until(mgr.current_rto() + 0.1)
        assert len(sent) == 1

    def test_ack_removes_and_stops_timer(self):
        sched, mgr, sent, _, _ = make_manager()
        mgr.track(seg(100))
        assert mgr.on_ack(100 + 512)
        sched.run_until(500.0)
        assert sent == []
        assert mgr.outstanding == 0

    def test_cumulative_ack_removes_multiple(self):
        sched, mgr, _, _, _ = make_manager()
        mgr.track(seg(100))
        mgr.track(seg(612))
        mgr.track(seg(1124))
        mgr.on_ack(1124)  # covers first two
        assert mgr.outstanding == 1

    def test_partial_ack_keeps_timer_running(self):
        sched, mgr, sent, _, _ = make_manager()
        mgr.track(seg(100))
        mgr.track(seg(612))
        mgr.on_ack(612)
        sched.run_until(200.0)
        assert any(s.seq == 612 for s in sent)

    def test_stale_ack_ignored(self):
        sched, mgr, _, _, _ = make_manager()
        mgr.track(seg(100))
        assert mgr.on_ack(100) is False
        assert mgr.outstanding == 1

    def test_ack_reads_segments_rewritten_after_tracking(self):
        # a send filter's msg_set_field writes the tracked segment in
        # place: each ACK judges every segment by its fields as they are
        # now, and an acknowledged segment leaves the queue even when an
        # older one stays
        sched, mgr, _, _, _ = make_manager()
        rewritten = seg(100)
        mgr.track(rewritten)
        mgr.track(seg(612))
        rewritten.seq = 5000
        assert mgr.on_ack(1124)
        assert mgr.outstanding == 1
        assert mgr.oldest.segment is rewritten
        rewritten.seq = 100
        assert mgr.on_ack(1124)
        assert mgr.outstanding == 0


class TestBackoff:
    def test_exponential_backoff_to_cap(self):
        sched, mgr, sent, _, trace = make_manager()
        mgr.track(seg(100))
        sched.run_until(700.0)
        times = trace.times("tcp.retransmit")
        intervals = [b - a for a, b in zip(times, times[1:])]
        for prev, cur in zip(intervals, intervals[1:]):
            assert cur >= prev * 0.99  # non-decreasing
        assert max(intervals) <= SUNOS_413.max_rto + 1e-6

    def test_backoff_reset_by_unambiguous_ack(self):
        sched, mgr, _, _, _ = make_manager()
        mgr.track(seg(100))
        sched.run_until(20.0)  # several timeouts: shift grows
        assert mgr.backoff_shift >= 2
        mgr.track(seg(612))
        mgr.on_ack(612)        # acked the retransmitted one... ambiguous
        assert mgr.backoff_shift >= 2
        mgr.track(seg(1124))
        sched.run_until(sched.now + 0.01)
        mgr.on_ack(1636)       # never-retransmitted segment: unambiguous
        assert mgr.backoff_shift == 0


class TestGiveUp:
    def test_bsd_gives_up_after_max_retransmits(self):
        sched, mgr, sent, gave_up, _ = make_manager(SUNOS_413)
        mgr.track(seg(100))
        sched.run_until(2000.0)
        assert len(sent) == SUNOS_413.max_retransmits
        assert len(gave_up) == 1
        # no further retransmissions after giving up
        sched.run_until(3000.0)
        assert len(sent) == SUNOS_413.max_retransmits

    def test_solaris_global_counter_gives_up(self):
        sched, mgr, sent, gave_up, _ = make_manager(SOLARIS_23)
        mgr.track(seg(100))
        sched.run_until(2000.0)
        assert len(sent) == SOLARIS_23.global_fault_threshold
        assert len(gave_up) == 1

    def test_global_counter_spans_segments(self):
        """The Experiment 2 discovery: the counter is per connection."""
        sched, mgr, sent, gave_up, _ = make_manager(SOLARIS_23)
        mgr.track(seg(100))
        # let it retransmit a few times
        sched.run_until(3.0)
        m1_retx = len(sent)
        assert m1_retx >= 3
        # an *ambiguous* ACK arrives for m1 (it was retransmitted)
        mgr.on_ack(612)
        assert mgr.global_faults == m1_retx  # not reset
        # m2 only gets the remaining budget
        mgr.track(seg(612))
        sched.run_until(2000.0)
        assert len(gave_up) == 1
        total = len(sent)
        assert total == SOLARIS_23.global_fault_threshold

    def test_global_counter_reset_by_unambiguous_ack(self):
        sched, mgr, sent, _, _ = make_manager(SOLARIS_23)
        mgr.track(seg(100))
        sched.run_until(3.0)
        assert mgr.global_faults > 0
        mgr.track(seg(612))
        mgr.on_ack(100 + 512)  # still ambiguous (covers retransmitted m1)
        assert mgr.global_faults > 0
        mgr.on_ack(612 + 512)  # m2 was never retransmitted: unambiguous
        assert mgr.global_faults == 0

    def test_stop_halts_everything(self):
        sched, mgr, sent, gave_up, _ = make_manager()
        mgr.track(seg(100))
        mgr.stop()
        sched.run_until(1000.0)
        assert sent == []
        assert gave_up == []


class TestKarnSampling:
    def test_valid_sample_taken(self):
        sched, mgr, _, _, _ = make_manager()
        mgr.track(seg(100))
        sched.run_until(0.05)
        mgr.on_ack(612)
        assert mgr.estimator.sample_count == 1

    def test_retransmitted_segment_not_sampled_under_karn(self):
        sched, mgr, sent, _, _ = make_manager(SUNOS_413)
        mgr.track(seg(100))
        sched.run_until(5.0)   # at least one retransmission
        assert len(sent) >= 1
        mgr.on_ack(612)
        assert mgr.estimator.sample_count == 0

    def test_pre_karn_estimator_samples_ambiguous(self):
        sched, mgr, sent, _, _ = make_manager(SOLARIS_23)
        mgr.track(seg(100))
        sched.run_until(2.0)
        assert len(sent) >= 1
        mgr.on_ack(612)
        assert mgr.estimator.sample_count == 1
