import dataclasses
import json

import numpy as np
import pytest

from dwpe import room
from dwpe.errors import ConfigurationError, InvalidInputError
from dwpe.room import (
    ImpulseResponse,
    RoomScenario,
    early_reference,
    estimate_t60,
    image_method_rir,
    reflection_coefficient,
    render_observation,
    scenario_from_file,
)

from oracles import convolve_direct, image_highpass_direct, schroeder_t60


def anechoicish_scenario(mic=(4.0, 2.5, 1.5)):
    # absorption exactly 1.0: only the direct path survives
    lx, ly, lz = 6.0, 5.0, 3.0
    volume, surface = lx * ly * lz, 2 * (lx * ly + lx * lz + ly * lz)
    t60 = 0.161 * volume / surface
    return RoomScenario(
        room_dims=(lx, ly, lz), source_pos=(2.0, 2.5, 1.5),
        mic_positions=[mic], t60=t60, sample_rate=16000, rir_length=4000,
    )


def test_scenario_validates_positions():
    with pytest.raises(ConfigurationError):
        RoomScenario(room_dims=(4, 4, 3), source_pos=(5, 1, 1),
                     mic_positions=[(1, 1, 1)], t60=0.5)
    with pytest.raises(ConfigurationError):
        RoomScenario(room_dims=(4, 4, 3), source_pos=(1, 1, 1),
                     mic_positions=[(4.0, 1, 1)], t60=0.5)


def test_scenario_validates_rir_length():
    with pytest.raises(ConfigurationError):
        RoomScenario(room_dims=(4, 4, 3), source_pos=(1, 1, 1),
                     mic_positions=[(2, 2, 1)], t60=0.8,
                     sample_rate=16000, rir_length=1000)


def test_unreachable_t60_is_config_error():
    scen = RoomScenario(room_dims=(2, 2, 2), source_pos=(1, 1, 1),
                        mic_positions=[(1.5, 1, 1)], t60=0.05,
                        sample_rate=16000, rir_length=2000)
    with pytest.raises(ConfigurationError):
        reflection_coefficient(scen)


def test_mic_index_out_of_range():
    scen = anechoicish_scenario()
    with pytest.raises(InvalidInputError):
        image_method_rir(scen, 1)


def test_anechoic_limit_single_dominant_tap():
    scen = anechoicish_scenario()
    rir = image_method_rir(scen, 0)
    dist = 2.0
    expected_tap = round(dist / 343.0 * scen.sample_rate)
    assert int(np.argmax(np.abs(rir.taps))) == expected_tap
    # everything else is only high-pass ringing around the one image
    others = np.abs(rir.taps).copy()
    others[expected_tap] = 0
    assert others.max() < 0.5 * np.abs(rir.taps[expected_tap])


def test_mirror_symmetric_mics_identical_magnitudes():
    # source on the room's symmetry plane, mics mirror-placed about it
    scen = RoomScenario(
        room_dims=(6.0, 4.0, 3.0), source_pos=(3.0, 2.0, 1.5),
        mic_positions=[(2.0, 1.2, 1.5), (4.0, 1.2, 1.5)],
        t60=0.3, sample_rate=16000, rir_length=3000,
    )
    rir_a = image_method_rir(scen, 0)
    rir_b = image_method_rir(scen, 1)
    np.testing.assert_allclose(np.abs(rir_a.taps), np.abs(rir_b.taps), atol=1e-12)


def test_rir_deterministic(shipped_scenario):
    scen = shipped_scenario
    a = image_method_rir(scen, 2)
    b = image_method_rir(scen, 2)
    assert np.array_equal(a.taps, b.taps)


def test_rir_highpass_matches_per_sample_loop(shipped_scenario, monkeypatch):
    scen = shipped_scenario
    for mic in (0, 7):
        with monkeypatch.context() as patch:
            # the raw image lattice: the high-pass passes its input through
            patch.setattr(room, "_image_highpass", lambda taps, sample_rate: taps)
            raw = image_method_rir(scen, mic).taps
        want = image_highpass_direct(raw, scen.sample_rate)
        got = image_method_rir(scen, mic).taps
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_rir_energy_decays(shipped_scenario):
    # the trailing 10% of taps carry less energy than the leading 10%
    taps = image_method_rir(shipped_scenario, 0).taps
    tenth = taps.size // 10
    assert np.sum(taps[-tenth:] ** 2) < np.sum(taps[:tenth] ** 2)


def test_default_scenario_t60_within_15_percent(shipped_scenario):
    scen = shipped_scenario
    for mic in (0, 3):
        rir = image_method_rir(scen, mic)
        est = schroeder_t60(rir.taps, scen.sample_rate)
        assert abs(est - scen.t60) / scen.t60 <= 0.15
        # library estimator agrees with the independent oracle
        np.testing.assert_allclose(estimate_t60(rir), est, rtol=1e-9)


def test_render_identity_impulse(rng):
    x = rng.standard_normal(300)
    rir = ImpulseResponse(taps=np.r_[1.0, np.zeros(15)], sample_rate=16000)
    np.testing.assert_allclose(render_observation(x, 16000, rir), x)


def test_render_delay_impulse(rng):
    x = rng.standard_normal(300)
    taps = np.zeros(16)
    taps[7] = 1.0
    out = render_observation(x, 16000, ImpulseResponse(taps=taps, sample_rate=16000))
    np.testing.assert_allclose(out[7:], x[:-7], atol=1e-12)
    np.testing.assert_allclose(out[:7], 0, atol=1e-12)


def test_render_matches_direct_convolution(rng):
    x = rng.standard_normal(64)
    h = rng.standard_normal(16)
    out = render_observation(x, 16000, ImpulseResponse(taps=h, sample_rate=16000))
    np.testing.assert_allclose(out, convolve_direct(x, h)[:64], atol=1e-10)


def test_render_rate_mismatch():
    rir = ImpulseResponse(taps=np.ones(4), sample_rate=8000)
    with pytest.raises(InvalidInputError):
        render_observation(np.ones(10), 16000, rir)


def test_render_empty_signal():
    rir = ImpulseResponse(taps=np.ones(4), sample_rate=16000)
    with pytest.raises(InvalidInputError):
        render_observation(np.array([]), 16000, rir)


def test_early_reference_zeroes_taps_from_boundary(rng):
    rir = ImpulseResponse(taps=rng.standard_normal(30), sample_rate=16000)
    x = rng.standard_normal(100)
    for boundary in (1, 29, 30, 35):
        taps = rir.taps.copy()
        taps[boundary:] = 0.0
        want = render_observation(x, 16000, ImpulseResponse(taps=taps, sample_rate=16000))
        np.testing.assert_array_equal(early_reference(x, rir, boundary), want)


def test_early_reference_boundary_out_of_range(rng):
    rir = ImpulseResponse(taps=rng.standard_normal(30), sample_rate=16000)
    for bad in (0, -3):
        with pytest.raises(InvalidInputError, match="out of range"):
            early_reference(np.ones(10), rir, bad)


def test_scenario_file_roundtrip(tmp_path, shipped_scenario):
    scen = shipped_scenario
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(dataclasses.asdict(scen)))
    assert scenario_from_file(path) == scen


def test_scenario_file_defaults(tmp_path):
    path = tmp_path / "bare-room.json"
    path.write_text('{"room_dims": [4,4,3], "source_pos": [1,1,1], '
                    '"mic_positions": [[2,2,1]], "t60": 0.5}')
    scen = scenario_from_file(path)
    assert (scen.sample_rate, scen.rir_length, scen.name) == (16000, 8192, "bare-room")


def test_scenario_file_unknown_key(tmp_path):
    path = tmp_path / "scen.json"
    path.write_text('{"room_dims": [4,4,3], "source_pos": [1,1,1], '
                    '"mic_positions": [[2,2,1]], "t60": 0.5, "wallpaper": "red"}')
    with pytest.raises(ConfigurationError, match="wallpaper"):
        scenario_from_file(path)


@pytest.mark.parametrize("t60", ["NaN", "Infinity"])
def test_scenario_file_non_finite_t60(tmp_path, t60):
    # json loads these literals as floats; NaN compares false, so `t60 <= 0` let it in
    path = tmp_path / "scen.json"
    path.write_text('{"room_dims": [4,4,3], "source_pos": [1,1,1], '
                    f'"mic_positions": [[2,2,1]], "t60": {t60}}}')
    with pytest.raises(ConfigurationError, match=r"t60 must be positive and finite, got"):
        scenario_from_file(path)


def test_scenario_file_missing_key(tmp_path):
    path = tmp_path / "scen.json"
    path.write_text('{"room_dims": [4,4,3]}')
    with pytest.raises(ConfigurationError):
        scenario_from_file(path)

