"""Replay the committed regression corpus.

Every ``*.json`` file beside this test is a shrunk reproduction artifact
written by ``repro fuzz --save-repro tests/regressions``: a minimal
fault script, its placement, the campaign seed, and the frozen verdict
(violation codes, count, fingerprint prefix).  Replaying re-runs the
simulation from the artifact alone and diffs the verdict byte-for-byte,
so any behavioural drift in the simulator, the PFI layer, the GMP bug
models, or the oracle packs fails here with the exact scenario that
regressed.
"""

from pathlib import Path

import pytest

from repro.oracle.shrink import ReproArtifact, replay_artifact

CORPUS = sorted(Path(__file__).parent.glob("*.json"))


def test_corpus_is_not_empty():
    assert CORPUS, ("the committed corpus vanished; regenerate with "
                    "`repro fuzz --save-repro tests/regressions`")


@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_artifact_replays_byte_identically(path):
    artifact = ReproArtifact.load(path)
    result = replay_artifact(artifact)
    assert result.ok, (
        f"{path.name} no longer reproduces its recorded verdict:\n"
        + "\n".join(result.mismatches))
    assert artifact.code in result.observed_codes


@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_corpus_reshrinks_identically_through_checkpoints(path):
    """Checkpointed ddmin must regenerate the committed corpus.

    Each artifact's case is pushed back through :func:`shrink_case`
    with checkpointed probes (the default); the already-minimal cases
    must come out unchanged -- same clauses, same seed, same frozen
    verdict -- proving the checkpoint layer cannot alter what the
    shrinker commits.
    """
    from repro.oracle.shrink import artifact_name, make_artifact, shrink_case
    artifact = ReproArtifact.load(path)
    shrunk, stats = shrink_case(artifact.case, artifact.code,
                                campaign_seed=artifact.campaign_seed)
    assert [c.text for c in shrunk.script.clauses] \
        == [c.text for c in artifact.case.script.clauses]
    assert shrunk.case_seed == artifact.case.case_seed
    assert stats.clauses_after == stats.clauses_before
    refrozen = make_artifact(shrunk, artifact.code,
                             campaign_seed=artifact.campaign_seed)
    assert refrozen.codes == artifact.codes
    assert refrozen.violation_count == artifact.violation_count
    assert refrozen.fingerprints == artifact.fingerprints
    assert artifact_name(refrozen) == path.name
