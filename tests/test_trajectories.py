import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from marsquad.trajectories import constant_ref, helix_ref, ref_window, square_ref


def at(g, t):
    """The (x, y, z, psi) row of generator g at the single time t."""
    return g(np.array([t]))[0]


class TestConstant:
    def test_returns_setpoint_at_zero(self):
        g = constant_ref(1.0, 2.0, 3.0, 0.5)
        assert at(g, 0.0).tolist() == [1.0, 2.0, 3.0, 0.5]

    def test_time_invariant(self):
        g = constant_ref(1.0, 2.0, 3.0, 0.5)
        assert at(g, 100.0).tolist() == at(g, 0.0).tolist()

    @given(t=st.floats(0.0, 1e4))
    def test_heading_never_changes(self, t):
        g = constant_ref(0.0, 0.0, 1.0, 0.3)
        assert at(g, t)[3] == 0.3

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            constant_ref(math.nan, 0.0, 0.0)


@pytest.mark.parametrize("factory, name, value", [
    (constant_ref, "y", math.inf),
    (helix_ref, "radius", math.nan),
    (helix_ref, "radius", math.inf),
    (helix_ref, "angular_rate", math.nan),
    (helix_ref, "climb_rate", math.inf),
    (square_ref, "side", math.nan),
    (square_ref, "side", math.inf),
    (square_ref, "edge_duration", math.inf),
    (square_ref, "altitude", math.nan),
])
def test_nonfinite_parameter_rejected_by_name(factory, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
        factory(**{name: value})


class TestHelix:
    def test_start_point(self):
        g = helix_ref()
        assert at(g, 0.0).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_half_turn(self):
        # default rate 0.02*pi: half a revolution takes 50 s, climbing 5 m
        x, y, z, psi = at(helix_ref(), 50.0)
        assert x == pytest.approx(-1.0)
        assert y == pytest.approx(0.0, abs=1e-12)
        assert z == pytest.approx(5.0)
        assert psi == 0.0

    @given(t=st.floats(0.0, 500.0))
    def test_stays_on_circle(self, t):
        x, y, _, _ = at(helix_ref(radius=1.0), t)
        assert x**2 + y**2 == pytest.approx(1.0, rel=1e-12)

    def test_horizontal_speed_matches_rate(self):
        r, w = 2.0, 0.1
        g = helix_ref(radius=r, angular_rate=w, climb_rate=0.0)
        dt = 1e-4
        for t in (0.0, 7.3, 40.0):
            a, b = g(np.array([t, t + dt]))
            speed = math.hypot(b[0] - a[0], b[1] - a[1]) / dt
            assert speed == pytest.approx(r * w, rel=1e-4)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            helix_ref(radius=0.0)


class TestSquare:
    def test_starts_at_origin_corner(self):
        g = square_ref(side=2.0, edge_duration=10.0, altitude=1.0)
        assert at(g, 0.0).tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_position_continuous_velocity_rotates_at_corner(self):
        g = square_ref(side=2.0, edge_duration=10.0, altitude=1.0)
        eps = 1e-6
        before2, before, after, after2 = g(10.0 + eps * np.array([-2.0, -1.0, 1.0, 2.0]))
        assert before[0] == pytest.approx(after[0], abs=1e-4)
        assert before[1] == pytest.approx(after[1], abs=1e-4)
        v_before = (before[0:2] - before2[0:2]) / eps
        v_after = (after2[0:2] - after[0:2]) / eps
        # along +x before the corner, along +y after
        assert v_before[0] > 0.1 and abs(v_before[1]) < 1e-6
        assert abs(v_after[0]) < 1e-6 and v_after[1] > 0.1

    @given(t=st.floats(0.0, 200.0))
    def test_periodic(self, t):
        g = square_ref(side=2.0, edge_duration=10.0, altitude=1.0)
        a, b = g(np.array([t, t + 40.0]))
        assert a[0] == pytest.approx(b[0], abs=1e-9)
        assert a[1] == pytest.approx(b[1], abs=1e-9)

    @given(t=st.floats(0.0, 100.0))
    def test_stays_on_boundary(self, t):
        g = square_ref(side=2.0, edge_duration=10.0, altitude=1.0)
        x, y, _, _ = at(g, t)
        on_edge = (abs(x) < 1e-9 or abs(x - 2.0) < 1e-9
                   or abs(y) < 1e-9 or abs(y - 2.0) < 1e-9)
        assert on_edge
        assert -1e-9 <= x <= 2.0 + 1e-9
        assert -1e-9 <= y <= 2.0 + 1e-9

    def test_matches_piecewise_formula(self):
        side, edge_duration, altitude = 2.2, 7.3, 0.8

        def piecewise(t):
            tau = t % (4.0 * edge_duration)
            edge = int(tau // edge_duration)
            s = (tau - edge * edge_duration) / edge_duration * side
            x, y = ((s, 0.0), (side, s), (side - s, side), (0.0, side - s))[edge]
            return [x, y, altitude, 0.0]

        t = np.concatenate([np.arange(3001) * 0.02, np.arange(1, 9) * edge_duration])
        want = np.array([piecewise(v) for v in t.tolist()])
        assert np.array_equal(square_ref(side, edge_duration, altitude)(t), want)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            square_ref(side=-1.0)
        with pytest.raises(ValueError):
            square_ref(edge_duration=0.0)


class TestWindow:
    def test_shape_and_sampling(self):
        g = helix_ref()
        win = ref_window(g, 2.0, 5, 0.1)
        assert win.shape == (5, 4)
        for i in range(5):
            assert np.allclose(win[i], at(g, 2.0 + 0.1 * i))

    @pytest.mark.parametrize("t0", [-0.02, -math.inf, math.nan, math.inf])
    def test_rejects_bad_start_time(self, t0):
        with pytest.raises(ValueError, match="reference times"):
            ref_window(constant_ref(), t0, 3, 0.02)

    def test_rejects_nonfinite_window(self):
        def blows_up(t):
            out = np.zeros((len(t), 4))
            out[-1, 2] = math.inf
            return out

        with pytest.raises(ValueError, match="not finite"):
            ref_window(blows_up, 0.0, 3, 0.02)

    def test_window_rows_match_single_samples(self):
        # the closed loop reads one row at a time through the same function
        for g in (helix_ref(), square_ref(side=2.0, edge_duration=3.0)):
            win = ref_window(g, 1.3, 60, 0.02)
            for i in (0, 17, 59):
                assert np.array_equal(win[i], ref_window(g, 1.3 + i * 0.02, 1, 0.02)[0])
