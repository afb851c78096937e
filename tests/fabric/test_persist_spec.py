"""``persist_spec``: the one check that pins a campaign directory to a sweep.

A ``spec.pkl`` holding exactly ``seal(spec)`` is accepted without being
loaded; any other file is loaded and compared by digest, so a different
sweep is still ``spec_mismatch``, a spec pickled with another memo
layout is still the same sweep, and a damaged file is still refused.
"""

import pytest

from repro.core.envelope import seal
from repro.core.fabric import FabricError, SpecError, SweepSpec, persist_spec
from repro.core.orchestrator import Campaign, run_sweep
from tests.fabric.rig import campaign_ends, chaos_body, make_spec


def _tagged_spec(tags):
    return SweepSpec(body=chaos_body, seed=1995, lint="off",
                     configs=[{"item": index, "ticks": 3, "tag": tag}
                              for index, tag in enumerate(tags)])


@pytest.fixture
def loads(monkeypatch):
    calls = []
    load = SweepSpec.load.__func__

    def counting_load(cls, path):
        calls.append(path)
        return load(cls, path)

    monkeypatch.setattr(SweepSpec, "load", classmethod(counting_load))
    return calls


def test_identical_bytes_are_accepted_without_a_load(tmp_path, loads):
    spec = make_spec(3)
    persist_spec(spec, tmp_path)
    blob = (tmp_path / "spec.pkl").read_bytes()
    assert blob == seal(spec)
    persist_spec(spec, tmp_path)
    assert loads == []
    assert (tmp_path / "spec.pkl").read_bytes() == blob


def test_a_different_sweep_is_refused(tmp_path):
    persist_spec(make_spec(3), tmp_path)
    for other in (make_spec(4), make_spec(3, seed=2)):
        with pytest.raises(FabricError, match="different sweep") as caught:
            persist_spec(other, tmp_path)
        assert caught.value.status == "spec_mismatch"


def test_other_bytes_with_an_equal_digest_are_the_same_sweep(tmp_path,
                                                              loads):
    # one tag object shared by every config pickles once and is memo-
    # referenced after; equal but distinct tags pickle in full each time
    shared = "".join(["prefix", "-tag"])
    spec = _tagged_spec([shared] * 3)
    persist_spec(spec, tmp_path)
    twin = _tagged_spec(["".join(["prefix", "-tag"]) for _ in range(3)])
    assert seal(twin) != seal(spec) and twin.digest() == spec.digest()
    persist_spec(twin, tmp_path)
    assert len(loads) == 1
    assert (tmp_path / "spec.pkl").read_bytes() == seal(spec)


def test_every_single_byte_flip_is_refused(tmp_path):
    spec = make_spec(3)
    persist_spec(spec, tmp_path / "clean")
    blob = (tmp_path / "clean" / "spec.pkl").read_bytes()
    damaged = tmp_path / "damaged"
    damaged.mkdir()
    for offset in range(len(blob)):
        for mask in (0x01, 0xFF):
            flipped = bytearray(blob)
            flipped[offset] ^= mask
            (damaged / "spec.pkl").write_bytes(flipped)
            with pytest.raises(SpecError, match="undecodable sweep spec"):
                persist_spec(spec, damaged)


def test_an_unpicklable_spec_is_still_a_mismatch(tmp_path):
    persist_spec(make_spec(2), tmp_path)
    spec = SweepSpec(body=lambda env, config: None, seed=1995,
                     configs=[{"item": 0, "ticks": 3}], lint="off")
    with pytest.raises(FabricError) as caught:
        persist_spec(spec, tmp_path)
    assert caught.value.status == "spec_mismatch"


def test_a_double_resume_executes_nothing(tmp_path):
    fabric = tmp_path / "fabric"
    spec = make_spec(4)
    Campaign(chaos_body, seed=spec.seed, lint="off").run(
        spec.configs, fabric_dir=fabric)
    for _ in range(2):
        # what `repro sweep --resume` hands on: the spec it loaded
        run_sweep(SweepSpec.load(fabric / "spec.pkl"), fabric_dir=fabric)
    ends = campaign_ends(fabric)
    assert [end["executed"] for end in ends] == [4, 0, 0]
    assert [end["cached"] for end in ends] == [0, 4, 4]
