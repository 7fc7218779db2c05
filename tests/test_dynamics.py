"""Plant model tests: update semantics, Jacobian correctness, clamp safety."""

import math

import numpy as np
import pytest

from twinloop import InvalidInputError, build_linear_2d, build_mountain_car
from tests.helpers import (edgy_floats, reference_mountain_car_f,
                           reference_mountain_car_jacobian, reference_mountain_car_step,
                           same_bits)


def noiseless_car():
    return build_mountain_car(process_noise_std=(0.0, 0.0), episode_cap=999)


def reference_update(pos, vel, force):
    """Independent transcription of the reference environment's step."""
    force = min(max(force, -1.0), 1.0)
    vel = vel + 0.0015 * force - 0.0025 * math.cos(3 * pos)
    vel = min(max(vel, -0.07), 0.07)
    pos = pos + vel
    pos = min(max(pos, -1.2), 0.6)
    return pos, vel


class TestStep:
    def test_coasting_from_rest(self):
        car = noiseless_car()
        out = car.step(np.array([-0.5, 0.0]), 0.0, np.random.default_rng(0))
        expected_vel = -0.0025 * math.cos(-1.5)
        assert out[1] == pytest.approx(expected_vel, rel=1e-12)
        assert out[1] == pytest.approx(-1.768e-4, rel=1e-3)
        assert out[0] == pytest.approx(-0.5 + expected_vel, rel=1e-12)
        assert out[0] == pytest.approx(-0.50018, abs=5e-6)

    def test_equilibrium_where_gravity_vanishes(self):
        car = noiseless_car()
        state = np.array([math.pi / 6, 0.0])
        out = car.step(state, 0.0, np.random.default_rng(0))
        np.testing.assert_allclose(out, state, atol=1e-15)

    def test_velocity_clamp_then_goal(self):
        car = noiseless_car()
        out = car.step(np.array([0.4, 0.07]), 1.0, np.random.default_rng(0))
        assert out[1] == pytest.approx(0.07)
        assert out[0] == pytest.approx(0.47)
        assert car.is_goal(out)

    def test_rejects_non_finite_inputs(self):
        car = noiseless_car()
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidInputError):
            car.step(np.array([np.nan, 0.0]), 0.0, rng)
        with pytest.raises(InvalidInputError):
            car.step(np.array([0.0, 0.0]), float("inf"), rng)

    def test_matches_reference_semantics_for_200_steps(self):
        car = noiseless_car()
        rng = np.random.default_rng(3)
        controls = rng.uniform(-1, 1, 200)
        state = np.array([-0.47, 0.0])
        pos, vel = state
        for control in controls:
            state = car.step(state, control, rng)
            pos, vel = reference_update(pos, vel, control)
            assert state[0] == pytest.approx(pos, abs=1e-15)
            assert state[1] == pytest.approx(vel, abs=1e-15)

    def test_clamp_safety_under_noise(self):
        car = build_mountain_car(process_noise_std=(0.3, 0.05), episode_cap=999)
        rng = np.random.default_rng(7)
        state = car.initial_state(rng)
        for _ in range(500):
            state = car.step(state, rng.uniform(-1, 1), rng)
            assert -1.2 <= state[0] <= 0.6
            assert -0.07 <= state[1] <= 0.07

    def test_identical_seeds_reproduce_trajectories(self):
        car = build_mountain_car(process_noise_std=(1e-2, 1e-3), episode_cap=999)
        trajs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            state = car.initial_state(rng)
            traj = [state]
            for t in range(100):
                state = car.step(state, math.sin(t / 7.0), rng)
                traj.append(state)
            trajs.append(np.array(traj))
        np.testing.assert_array_equal(trajs[0], trajs[1])


class TestMatchesReference:
    """Scalar min/max clamps give the bits np.clip gave."""

    @pytest.mark.parametrize("noise", [(0.0, 0.0), (1e-4, 1e-5), (0.045, 0.001)])
    def test_random_states_and_controls(self, noise):
        car = build_mountain_car(process_noise_std=noise, episode_cap=999)
        pick = np.random.default_rng(31)
        positions = (-1.2, 0.6, 0.45, -0.5, 0.0, -0.0)
        velocities = (-0.07, 0.07, 0.0, -0.0)
        for seed in range(1500):
            state = np.array([
                pick.choice(positions) if pick.random() < 0.2 else pick.uniform(-1.3, 0.7),
                pick.choice(velocities) if pick.random() < 0.2 else pick.uniform(-0.08, 0.08)])
            control = float(edgy_floats(pick, 1, 1.5, (0.0, -0.0, 1.0, -1.0, 3.0))[0])
            got = car.step(state, control, np.random.default_rng(seed))
            want = reference_mountain_car_step(car, state, control,
                                               np.random.default_rng(seed))
            assert same_bits(got, want)

    def test_numpy_scalar_control(self):
        car = noiseless_car()
        state = np.array([-0.5, 0.01])
        for control in (np.float64(0.25), np.float64(-4.0), np.array(2.0), 1):
            assert same_bits(car.step(state, control, None),
                             reference_mountain_car_step(car, state, control, None))


class TestJacobian:
    def test_flat_point(self):
        car = noiseless_car()
        np.testing.assert_allclose(car.jacobian(np.array([0.0, 0.0])),
                                   [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)

    def test_maximum_slope_point(self):
        # at 3x = pi/2 the gravity slope is 3*gravity = 0.0075, and it enters
        # the position row as well because the new velocity moves the position
        car = noiseless_car()
        np.testing.assert_allclose(car.jacobian(np.array([math.pi / 6, 0.0])),
                                   [[1.0075, 1.0], [0.0075, 1.0]], rtol=1e-12)

    def test_matches_finite_differences_at_100_random_states(self):
        car = noiseless_car()
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(100):
            state = np.array([rng.uniform(-1.1, 0.55), rng.uniform(-0.06, 0.06)])
            jac = car.jacobian(state)
            fd = np.zeros((2, 2))
            for j in range(2):
                dx = np.zeros(2)
                dx[j] = h
                fd[:, j] = (np.array(car.f(state + dx)) - car.f(state - dx)) / (2 * h)
            np.testing.assert_allclose(jac, fd, rtol=1e-5, atol=1e-9)

    def test_rejects_non_finite_state(self):
        with pytest.raises(InvalidInputError):
            noiseless_car().jacobian(np.array([np.inf, 0.0]))


class TestGoal:
    @pytest.mark.parametrize("state,expected", [
        ((0.45, 0.0), True),
        ((0.449, 0.07), False),
        ((0.6, -0.07), True),
    ])
    def test_goal_boundary(self, state, expected):
        assert noiseless_car().is_goal(np.array(state)) is expected


class TestLinearPlant:
    def test_f_and_jacobian_consistent(self):
        plant = build_linear_2d(process_noise_std=(0.0, 0.0), episode_cap=999)
        state = np.array([0.3, -0.2])
        np.testing.assert_allclose(plant.f(state), plant.transition @ state)
        np.testing.assert_allclose(plant.jacobian(state), plant.transition)

    def test_step_applies_control(self):
        plant = build_linear_2d(process_noise_std=(0.0, 0.0), episode_cap=999)
        out = plant.step(np.array([1.0, 2.0]), 0.5, np.random.default_rng(0))
        np.testing.assert_allclose(out, [3.0, 2.5])


class TestFloatFormMatchesArrayForm:
    """f and the Jacobian take math.cos and math.sin on floats: the bits of
    np.cos and np.sin on numpy scalars, signed zeros and overflow included."""

    EDGES = (-1.2, 0.6, 0.45, -0.5, 0.0, -0.0, -0.07, 0.07, 1e300, -1e300,
             5e-324, -5e-324, 1e6)

    def states(self, seed, count):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            yield np.array([
                rng.choice(self.EDGES) if rng.random() < 0.3 else rng.uniform(-4.0, 4.0),
                rng.choice(self.EDGES) if rng.random() < 0.3 else rng.uniform(-0.1, 0.1)])

    def test_f(self):
        car = build_mountain_car(process_noise_std=(1e-4, 1e-5), episode_cap=999)
        for state in self.states(51, 4000):
            with np.errstate(invalid="ignore", over="ignore"):
                want = reference_mountain_car_f(car, state)
            assert same_bits(car.f(state), want)
            assert same_bits(car.f(state.tolist()), want)

    def test_jacobian(self):
        car = build_mountain_car(process_noise_std=(1e-4, 1e-5), episode_cap=999)
        for state in self.states(52, 4000):
            with np.errstate(invalid="ignore", over="ignore"):
                want = reference_mountain_car_jacobian(car, state)
            assert same_bits(car.jacobian(state), want)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_state_still_raises(self, bad):
        car = noiseless_car()
        for state in (np.array([bad, 0.0]), np.array([0.0, bad])):
            with pytest.raises(InvalidInputError, match="non-finite state"):
                car.jacobian(state)
            with pytest.raises(InvalidInputError, match="invalid state"):
                car.step(state, 0.0, None)
        with pytest.raises(InvalidInputError, match="invalid control"):
            car.step(np.array([-0.5, 0.0]), bad, None)

    def test_overflowing_argument_gives_nan_without_raising(self):
        # 3 * 1e308 is inf: np.cos gave NaN there, math.cos raises
        car = noiseless_car()
        assert np.isnan(car.f([1e308, 0.0])).all()
        assert np.isnan(car.jacobian([1e308, 0.0])[:, 0]).all()

    def test_step_at_clamp_bounds_and_signed_zeros(self):
        car = build_mountain_car(process_noise_std=(1e-4, 1e-5), episode_cap=999)
        for state in self.states(53, 1500):
            for control in (0.0, -0.0, 1.0, -1.0, 1.5, -1.5):
                got = car.step(state.tolist(), control, np.random.default_rng(7))
                want = reference_mountain_car_step(car, state, control,
                                                   np.random.default_rng(7))
                assert all(type(x) is float for x in got) and same_bits(got, want)


class TestGoalIsAPythonBool:
    # a numpy bool is written as True, not 1, by the episode CSV writer
    @pytest.mark.parametrize("state", [(0.5, 0.0), (0.45, 0.0), (-0.5, 0.01)])
    def test_both_plants(self, state):
        state = np.array(state)
        assert type(noiseless_car().is_goal(state)) is bool
        plant = build_linear_2d(process_noise_std=(0.0, 0.0), episode_cap=999)
        assert type(plant.is_goal(state)) is bool
