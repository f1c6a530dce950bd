"""Host calibration: measurement, threshold derivation, persistence,
the ``REPRO_CALIBRATION`` switch, and every failure path.

The failure-path contract is the point: a corrupt, older-schema or
foreign-host profile must recalibrate *loudly* (one
:class:`CalibrationWarning` naming the reason) -- never crash, never
silently reuse stale coefficients.  Synthetic profiles with exact model
coefficients pin the threshold math; real measurements use tiny sizes
to stay fast.
"""

from __future__ import annotations

import json
import os
import warnings

import pytest

from repro.core import GroundSet
from repro.engine import StreamSession, calibrate
from repro.engine.calibrate import (
    PROFILE_SCHEMA,
    VEC_BAR_RANGE,
    HostProfile,
    calibration_mode,
    effective_cpus,
    ensure_profile,
    load_profile,
    measure_profile,
    save_profile,
)
from repro.engine.plan import (
    _CALIBRATED_PLANNERS,
    _DEFAULT_PLANNER,
    Planner,
    Workload,
    default_planner,
)
from repro.errors import CalibrationWarning

#: Fast measurement settings: tiny tables, one repeat.
FAST = dict(sizes=(4, 6), repeats=1)


def profile_with(list_a=1e-6, vec_a=1e-7, vec_b=0.0, cpus=None) -> HostProfile:
    """A synthetic profile whose fitted model coefficients are exact:
    ``t_list(n) = list_a * n * 2^n`` and ``t_vec(n) = vec_a * n * 2^n
    + vec_b`` -- so threshold expectations can be computed by hand."""
    sizes = (8, 12)
    return HostProfile(
        cpus=cpus if cpus is not None else effective_cpus(),
        created="2026-01-01T00:00:00",
        python="3.11",
        machine="testhost",
        list_butterfly_s={n: list_a * n * (1 << n) for n in sizes},
        vec_butterfly_s={n: vec_a * n * (1 << n) + vec_b for n in sizes},
    )


@pytest.fixture(autouse=True)
def _fresh_planner_cache():
    _CALIBRATED_PLANNERS.clear()
    yield
    _CALIBRATED_PLANNERS.clear()


class TestMeasurement:
    def test_measure_profile_shape(self):
        profile = measure_profile(**FAST)
        assert profile.cpus == effective_cpus()
        assert set(profile.list_butterfly_s) == {4, 6}
        assert set(profile.vec_butterfly_s) == {4, 6}
        assert all(t > 0 for t in profile.list_butterfly_s.values())
        # the butterfly crossover is the one measured planner bar
        assert set(profile.thresholds()) == {"VEC_MIN_N"}

    def test_needs_two_distinct_sizes(self):
        with pytest.raises(ValueError, match="2 distinct sizes"):
            measure_profile(sizes=(6, 6), repeats=1)


class TestThresholdDerivation:
    def test_vec_always_faster_hits_the_floor(self):
        profile = profile_with(list_a=1e-6, vec_a=1e-8)
        assert profile.thresholds()["VEC_MIN_N"] == VEC_BAR_RANGE[0]

    def test_vec_never_faster_hits_the_cap(self):
        profile = profile_with(list_a=1e-7, vec_a=1e-6)
        assert profile.thresholds()["VEC_MIN_N"] == VEC_BAR_RANGE[1]

    def test_vec_crossover_lands_where_the_model_says(self):
        # vec wins once (list_a - vec_a) * n * 2^n >= vec_b:
        # 9e-7 * n * 2^n >= 3e-3 first holds at n = 9
        profile = profile_with(list_a=1e-6, vec_a=1e-7, vec_b=3e-3)
        assert profile.thresholds()["VEC_MIN_N"] == 9

class TestPersistence:
    def test_roundtrip_preserves_profile_and_thresholds(self, tmp_path):
        measured = measure_profile(**FAST)
        saved = save_profile(measured, str(tmp_path / "p.json"))
        loaded = load_profile(saved.path)
        assert loaded == measured  # path is excluded from equality
        assert loaded.path == saved.path
        assert loaded.thresholds() == measured.thresholds()

    def test_ensure_profile_reuses_a_valid_file_silently(self, tmp_path):
        path = str(tmp_path / "p.json")
        first = ensure_profile(path=path, **FAST)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = ensure_profile(path=path, **FAST)
        assert again.created == first.created  # loaded, not re-measured

    def test_recalibrate_forces_a_fresh_measurement(self, tmp_path):
        path = str(tmp_path / "p.json")
        first = ensure_profile(path=path, **FAST)
        forced = ensure_profile(path=path, recalibrate=True, **FAST)
        # a fresh measurement was taken (perf_counter timings never
        # collide at nanosecond resolution) and persisted over the old
        assert forced.list_butterfly_s != first.list_butterfly_s
        assert load_profile(path) == forced

    def test_older_release_profile_with_pool_and_transport_keys_loads(
        self, tmp_path
    ):
        # schema-1 profiles written by releases that also timed a
        # process pool and the shard transports carry six more
        # measurement keys; they are input from outside the program, so
        # they must load quietly and derive the same vectorization bar
        current = profile_with(list_a=1e-6, vec_a=1e-7, vec_b=3e-3)
        data = current.as_json()
        data["measurements"].update(
            spawn_s=0.05,
            roundtrip_s=0.0004,
            pickle_item_s=2.5e-8,
            delta_record_s=1.1e-6,
            pickle_byte_s=1.9e-10,
            shm_attach_s=3.2e-5,
        )
        path = str(tmp_path / "older.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        with warnings.catch_warnings():
            warnings.simplefilter("error", CalibrationWarning)
            loaded = load_profile(path, expect_cpus=effective_cpus())
            reused = ensure_profile(path=path, **FAST)
        assert loaded == current
        assert reused.created == current.created  # reused, not re-measured
        assert loaded.thresholds() == {"VEC_MIN_N": 9}
        assert loaded.thresholds() == current.thresholds()


class TestFailurePaths:
    def test_corrupt_json_recalibrates_loudly(self, tmp_path):
        path = str(tmp_path / "p.json")
        with open(path, "w") as fh:
            fh.write("{this is not json")
        with pytest.warns(CalibrationWarning, match="corrupt"):
            assert load_profile(path) is None
        with pytest.warns(CalibrationWarning, match="corrupt"):
            profile = ensure_profile(path=path, **FAST)
        assert profile.cpus == effective_cpus()
        # the fresh measurement healed the file in place
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_profile(path) == profile

    def test_older_schema_recalibrates_loudly(self, tmp_path):
        path = str(tmp_path / "p.json")
        ensure_profile(path=path, **FAST)
        with open(path) as fh:
            data = json.load(fh)
        data["schema"] = PROFILE_SCHEMA - 1
        with open(path, "w") as fh:
            json.dump(data, fh)
        with pytest.warns(CalibrationWarning, match="schema"):
            profile = ensure_profile(path=path, **FAST)
        with open(path) as fh:
            assert json.load(fh)["schema"] == PROFILE_SCHEMA
        assert profile.cpus == effective_cpus()

    def test_foreign_cpu_count_recalibrates_loudly(self, tmp_path):
        path = str(tmp_path / "p.json")
        ensure_profile(path=path, **FAST)
        with open(path) as fh:
            data = json.load(fh)
        data["cpus"] = effective_cpus() + 7
        with open(path, "w") as fh:
            json.dump(data, fh)
        with pytest.warns(CalibrationWarning, match="CPU"):
            profile = ensure_profile(path=path, **FAST)
        assert profile.cpus == effective_cpus()
        with open(path) as fh:
            assert json.load(fh)["cpus"] == effective_cpus()

    def test_malformed_measurements_recalibrate_loudly(self, tmp_path):
        path = str(tmp_path / "p.json")
        ensure_profile(path=path, **FAST)
        with open(path) as fh:
            data = json.load(fh)
        data["measurements"]["vec_butterfly_s"] = {"4": -1.0, "6": 0.001}
        with open(path, "w") as fh:
            json.dump(data, fh)
        with pytest.warns(CalibrationWarning, match="invalid"):
            assert load_profile(path) is None

    def test_unwritable_destination_warns_but_still_calibrates(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory must go")
        path = str(blocker / "sub" / "p.json")
        with pytest.warns(CalibrationWarning, match="persist"):
            profile = ensure_profile(path=path, **FAST)
        # the in-memory measurement still drives this process's planner
        assert profile.cpus == effective_cpus()
        assert "VEC_MIN_N" in profile.thresholds()


class TestCalibrationSwitch:
    def test_disabled_by_default_and_for_off_values(self, monkeypatch):
        monkeypatch.delenv("REPRO_CALIBRATION", raising=False)
        assert calibration_mode() is None
        assert default_planner() is _DEFAULT_PLANNER
        for value in ("off", "0", "false", "no", ""):
            monkeypatch.setenv("REPRO_CALIBRATION", value)
            assert calibration_mode() is None

    def test_explicit_path_and_directory_values(self, tmp_path, monkeypatch):
        path = str(tmp_path / "prof.json")
        monkeypatch.setenv("REPRO_CALIBRATION", path)
        assert calibration_mode() == path
        monkeypatch.setenv("REPRO_CALIBRATION", str(tmp_path))
        assert calibration_mode() == str(tmp_path / "host-profile.json")

    def test_on_resolves_the_default_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setenv("REPRO_CALIBRATION", "on")
        assert calibration_mode() == str(
            tmp_path / "repro" / "host-profile.json"
        )

    def test_default_planner_measures_persists_and_caches(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "prof.json")
        monkeypatch.setenv("REPRO_CALIBRATION", path)
        planner = default_planner()
        assert planner.profile is not None
        assert planner.profile.cpus == effective_cpus()
        assert os.path.exists(path)
        assert default_planner() is planner  # cached per resolved path
        monkeypatch.setenv("REPRO_CALIBRATION", "off")
        assert default_planner() is _DEFAULT_PLANNER


class TestCalibratedPlanner:
    def test_measured_thresholds_override_instance_not_class(self):
        profile = profile_with(list_a=1e-6, vec_a=1e-8)  # vec wins always
        planner = Planner.calibrated(profile)
        assert planner.VEC_MIN_N == VEC_BAR_RANGE[0]
        assert Planner.VEC_MIN_N == 8  # the assumed default is untouched
        plan = planner.plan(Workload(n=5, queries=1))
        assert plan.backend == "exact-vec"

    def test_explain_labels_measured_vs_assumed(self):
        profile = profile_with(vec_a=1e-7)
        planner = Planner.calibrated(profile)
        reasons = planner.plan(Workload(n=10, queries=1)).reasons
        cal = [r for r in reasons if r.startswith("calibration:")]
        assert len(cal) == 2
        assert "host profile" in cal[0]
        assert "vec_min_n=" in cal[1] and "measured (assumed 8)" in cal[1]
        assert "vec_stream_min_n=14 assumed" in cal[1]

    def test_uncalibrated_plans_carry_no_calibration_lines(self):
        # the byte-identical acceptance bar: calibration off means the
        # stock planner, whose output must not change at all
        reasons = _DEFAULT_PLANNER.plan(Workload(n=10, queries=1)).reasons
        assert not any("calibration" in r for r in reasons)

    def test_session_surfaces_its_calibration(self):
        ground = GroundSet("ABC")
        stock = StreamSession(ground)
        assert stock.calibration == {"enabled": False}
        calibrated = StreamSession(
            ground, planner=Planner.calibrated(profile_with())
        )
        digest = calibrated.calibration
        assert digest["enabled"] is True
        assert digest["cpus"] == effective_cpus()
        assert "vec_min_n" in digest["thresholds"]
