"""StreamSpec validation and StreamState mechanics."""

import pytest

from repro.core import StreamSpec, StreamState


class TestStreamSpec:
    def test_basic(self):
        spec = StreamSpec("s1", period_us=40_000.0, loss_x=1, loss_y=4)
        assert (spec.loss_x, spec.loss_y) == (1, 4)

    def test_zero_loss_tolerance_allowed(self):
        spec = StreamSpec("s1", period_us=1000.0, loss_x=0, loss_y=5)
        assert (spec.loss_x, spec.loss_y) == (0, 5)

    def test_full_loss_tolerance_allowed(self):
        StreamSpec("s1", period_us=1000.0, loss_x=3, loss_y=3)

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            StreamSpec("s1", period_us=0.0, loss_x=1, loss_y=2)

    def test_x_greater_than_y_rejected(self):
        with pytest.raises(ValueError):
            StreamSpec("s1", period_us=1.0, loss_x=3, loss_y=2)

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            StreamSpec("s1", period_us=1.0, loss_x=-1, loss_y=2)

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError):
            StreamSpec("s1", period_us=1.0, loss_x=0, loss_y=0)


class TestStreamState:
    def spec(self, x=1, y=4):
        return StreamSpec("s1", period_us=1000.0, loss_x=x, loss_y=y)

    def test_initial_window_matches_spec(self):
        st = StreamState(self.spec(2, 5))
        assert (st.x_cur, st.y_cur) == (2, 5)
        assert (st.constraint.num, st.constraint.den) == (2, 5)

    def test_reset_window(self):
        st = StreamState(self.spec(2, 5))
        st.x_cur, st.y_cur = 0, 1
        st.reset_window()
        assert (st.x_cur, st.y_cur) == (2, 5)
        assert st.window_resets == 1
