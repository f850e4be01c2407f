"""The quality ladder: full, anchors (B frames shed), intra."""

import pytest

from repro.media import FrameType, MPEGEncoder
from repro.media.adaptation import quality_ladder
from repro.sim import RandomStreams


@pytest.fixture
def ladder():
    file = MPEGEncoder(rng=RandomStreams(0)).encode("m", 48)
    return quality_ladder(file)


class TestLadder:
    def test_three_rungs_best_first(self, ladder):
        assert [r.name for r in ladder] == ["full", "anchors", "intra"]
        assert len(ladder[0]) > len(ladder[1]) > len(ladder[2])

    def test_byte_fractions_decrease(self, ladder):
        fractions = [r.byte_fraction for r in ladder]
        assert fractions[0] == pytest.approx(1.0)
        assert fractions == sorted(fractions, reverse=True)

    def test_rung_type_composition(self, ladder):
        assert {f.ftype for f in ladder[1].frames} == {FrameType.I, FrameType.P}
        assert {f.ftype for f in ladder[2].frames} == {FrameType.I}

