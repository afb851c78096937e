"""Unit tests for the failure-model severity lattice."""

from repro.core.genscripts import (COVERS, FailureModel, SEVERITY_ORDER,
                                   is_at_least_as_severe, tolerance_implied)


class TestSeverityLattice:
    def test_order_matches_paper(self):
        assert SEVERITY_ORDER[0] is FailureModel.PROCESS_CRASH
        assert SEVERITY_ORDER[-1] is FailureModel.BYZANTINE

    def test_byzantine_covers_everything(self):
        for model in FailureModel:
            assert is_at_least_as_severe(FailureModel.BYZANTINE, model)

    def test_crash_covers_only_itself(self):
        assert is_at_least_as_severe(FailureModel.PROCESS_CRASH,
                                     FailureModel.PROCESS_CRASH)
        assert not is_at_least_as_severe(FailureModel.PROCESS_CRASH,
                                         FailureModel.SEND_OMISSION)

    def test_general_omission_covers_send_and_receive(self):
        assert is_at_least_as_severe(FailureModel.GENERAL_OMISSION,
                                     FailureModel.SEND_OMISSION)
        assert is_at_least_as_severe(FailureModel.GENERAL_OMISSION,
                                     FailureModel.RECEIVE_OMISSION)

    def test_tolerance_implication(self):
        implied = tolerance_implied(FailureModel.GENERAL_OMISSION)
        assert FailureModel.PROCESS_CRASH in implied
        assert FailureModel.BYZANTINE not in implied

    def test_covers_transitive(self):
        """If A covers B and B covers C then A covers C."""
        for a in FailureModel:
            for b in COVERS[a]:
                for c in COVERS[b]:
                    assert is_at_least_as_severe(a, c), (a, b, c)
