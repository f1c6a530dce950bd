"""Host calibration: measure the machine instead of guessing at it.

Every crossover the :class:`~repro.engine.plan.Planner` encodes -- the
list-vs-numpy butterfly bar, the CPU budget -- is a *host* property.
The paper's Proposition 5.5 bounds say which asymptotic tier wins; the
constant factors that place the crossover points depend on the
interpreter, the BLAS-free numpy build and the cgroup CPU quota of the
machine actually running the engine.  This module measures them once
per host and persists a small versioned profile so later processes
reuse the measurement instead of repeating it.

The pieces
----------

* :func:`effective_cpus` -- the CPU budget *this process* may use:
  ``len(os.sched_getaffinity(0))`` (which sees CPU pinning and, on
  Linux, the cpuset half of container quotas) with an
  ``os.cpu_count()`` fallback.  This is the count the fleet sizing
  consults; ``os.cpu_count()`` alone overstates parallelism on
  constrained hosts.
* :func:`measure_profile` -- the micro-benchmark: best-of-``repeats``
  timings of one full superset-zeta butterfly pass for the python-list
  and the vectorized exact backend at two table sizes.
* :class:`HostProfile` -- the measurement plus its provenance
  (schema version, CPU count, python version, machine).  Its
  :meth:`~HostProfile.thresholds` fits a ``t(n) = a * n * 2^n + b``
  model per backend and turns the fit into the planner's ``VEC_MIN_N``
  override (the butterfly crossover), clamped to a sane range so one
  noisy timing cannot produce an absurd plan.
* :func:`load_profile` / :func:`save_profile` / :func:`ensure_profile`
  -- JSON persistence with paranoid loading: corrupt files, older
  schema versions and profiles measured under a different CPU budget
  are *never* reused silently -- each warns with
  :class:`~repro.errors.CalibrationWarning` naming the reason and
  triggers a fresh measurement.
* ``REPRO_CALIBRATION`` -- the opt-in switch.  Unset (or ``off``/
  ``0``/``false``/``no``) keeps calibration disabled and the planner
  on its hard-coded constants, so plans stay deterministic in CI.
  ``on``/``1``/``auto``/``true``/``yes`` enables it with the default
  cache location (``$XDG_CACHE_HOME/repro/host-profile.json``, else
  ``~/.cache/repro/host-profile.json``); any other value is taken as
  an explicit profile path -- the hermetic-test override.

Layering: this module sits *below* :mod:`repro.engine.plan` (which
imports :func:`effective_cpus`) and imports only the backends, the
error types and the stdlib.
"""

from __future__ import annotations

import json
import os
import platform
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.errors import CalibrationWarning

__all__ = [
    "PROFILE_SCHEMA",
    "CALIBRATION_ENV",
    "HostProfile",
    "effective_cpus",
    "default_profile_path",
    "calibration_mode",
    "measure_profile",
    "load_profile",
    "save_profile",
    "ensure_profile",
    "active_profile",
]

#: Version stamp written into every profile; bump on layout changes.
#: Loaders reject any other value (older *and* newer) and re-measure.
PROFILE_SCHEMA = 1

#: The opt-in environment switch (see module docstring).
CALIBRATION_ENV = "REPRO_CALIBRATION"

_PROFILE_BASENAME = "host-profile.json"
_OFF_VALUES = frozenset(("", "0", "off", "false", "no"))
_ON_VALUES = frozenset(("1", "on", "auto", "true", "yes"))

#: Default butterfly timing sizes: big enough that the loops dominate
#: the clock resolution, small enough that first-use calibration stays
#: well under a second even on a slow host.
DEFAULT_SIZES: Tuple[int, ...] = (8, 12)

#: Clamp on the derived threshold -- one noisy timing must not produce
#: an absurd plan.  The vec bar may move within [4, 14] (14 is where
#: the float backend takes over anyway).
VEC_BAR_RANGE = (4, 14)


def effective_cpus() -> int:
    """The CPU budget available to *this process*, not the whole box.

    ``os.sched_getaffinity(0)`` reflects CPU pinning (taskset, cpuset
    cgroups, container ``--cpuset-cpus``), which ``os.cpu_count()``
    ignores; platforms without it (macOS, Windows) fall back to
    ``os.cpu_count()``.  Always at least 1.
    """
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = 0
    return affinity or os.cpu_count() or 1


def default_profile_path() -> str:
    """Where profiles live when no explicit path is given:
    ``$XDG_CACHE_HOME/repro/host-profile.json`` falling back to
    ``~/.cache/repro/host-profile.json``."""
    cache_root = os.environ.get("XDG_CACHE_HOME", "").strip()
    if not cache_root:
        cache_root = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(cache_root, "repro", _PROFILE_BASENAME)


def calibration_mode() -> Optional[str]:
    """The resolved profile path when calibration is enabled, ``None``
    when disabled (the default).  A directory-looking override (an
    existing directory, or a value ending in the path separator) gets
    the standard basename appended."""
    value = os.environ.get(CALIBRATION_ENV, "").strip()
    lowered = value.lower()
    if lowered in _OFF_VALUES:
        return None
    if lowered in _ON_VALUES:
        return default_profile_path()
    path = os.path.expanduser(value)
    if path.endswith(os.sep) or os.path.isdir(path):
        path = os.path.join(path, _PROFILE_BASENAME)
    return path


def _warn(message: str) -> None:
    warnings.warn(message, CalibrationWarning, stacklevel=3)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HostProfile:
    """One host's measured cost coefficients plus provenance.

    ``list_butterfly_s`` / ``vec_butterfly_s`` map table size ``n`` to
    the best observed seconds for one full superset-zeta pass on the
    python-list and vectorized exact backends.  Profiles written by
    older releases may carry further measurement keys (process-pool
    and transport timings); loading ignores them.

    ``path`` records where the profile is (or will be) persisted;
    ``None`` for purely in-memory profiles.
    """

    cpus: int
    created: str
    python: str
    machine: str
    list_butterfly_s: Dict[int, float]
    vec_butterfly_s: Dict[int, float]
    path: Optional[str] = field(default=None, compare=False)

    # -- persistence ---------------------------------------------------
    def as_json(self) -> dict:
        """The profile as the versioned JSON payload it persists as."""
        return {
            "schema": PROFILE_SCHEMA,
            "cpus": self.cpus,
            "created": self.created,
            "python": self.python,
            "machine": self.machine,
            "measurements": {
                "list_butterfly_s": {
                    str(n): t for n, t in sorted(self.list_butterfly_s.items())
                },
                "vec_butterfly_s": {
                    str(n): t for n, t in sorted(self.vec_butterfly_s.items())
                },
            },
        }

    @classmethod
    def from_json(cls, data, path: Optional[str] = None) -> "HostProfile":
        """Decode a profile dict, raising ``ValueError`` on anything
        off-spec (wrong schema, missing keys, non-positive timings).
        Callers that must not crash go through :func:`load_profile`."""
        if not isinstance(data, dict):
            raise ValueError("profile is not a JSON object")
        schema = data.get("schema")
        if schema != PROFILE_SCHEMA:
            raise ValueError(
                f"profile schema {schema!r} is not the supported "
                f"schema {PROFILE_SCHEMA}"
            )
        cpus = int(data["cpus"])
        if cpus < 1:
            raise ValueError(f"profile cpus must be >= 1, got {cpus}")
        measurements = data["measurements"]
        if not isinstance(measurements, dict):
            raise ValueError("profile measurements is not a JSON object")

        def timings(key: str) -> Dict[int, float]:
            raw = measurements[key]
            if not isinstance(raw, dict):
                raise ValueError(f"{key} is not a JSON object")
            out = {int(n): float(t) for n, t in raw.items()}
            if len(out) < 2:
                raise ValueError(f"{key} needs timings at >= 2 sizes")
            if any(t <= 0 for t in out.values()):
                raise ValueError(f"{key} has a non-positive timing")
            return out

        return cls(
            cpus=cpus,
            created=str(data.get("created", "")),
            python=str(data.get("python", "")),
            machine=str(data.get("machine", "")),
            list_butterfly_s=timings("list_butterfly_s"),
            vec_butterfly_s=timings("vec_butterfly_s"),
            path=path,
        )

    # -- the fitted cost model -----------------------------------------
    @staticmethod
    def _fit(timings: Dict[int, float]) -> Tuple[float, float]:
        """Fit ``t(n) = a * (n * 2^n) + b`` through the two extreme
        measured sizes (``a`` = per-element butterfly cost, ``b`` =
        fixed call overhead), clamped nonnegative."""
        n_lo, n_hi = min(timings), max(timings)
        w_lo, w_hi = n_lo * (1 << n_lo), n_hi * (1 << n_hi)
        a = (timings[n_hi] - timings[n_lo]) / max(w_hi - w_lo, 1)
        a = max(a, 1e-12)
        b = max(timings[n_lo] - a * w_lo, 0.0)
        return a, b

    def predict_list_s(self, n: int) -> float:
        """Fitted seconds for one list-exact butterfly pass at ``|S| = n``."""
        a, b = self._fit(self.list_butterfly_s)
        return a * (n * (1 << n)) + b

    def predict_vec_s(self, n: int) -> float:
        """Fitted seconds for one vectorized butterfly pass at ``|S| = n``."""
        a, b = self._fit(self.vec_butterfly_s)
        return a * (n * (1 << n)) + b

    def thresholds(self) -> Dict[str, int]:
        """Planner overrides derived from the measurements.

        ``VEC_MIN_N``: the smallest ``n`` where the fitted vectorized
        butterfly is no slower than the list one (within
        :data:`VEC_BAR_RANGE`; the cap if lists win everywhere).
        The streaming and float bars stay assumed: their crossovers
        are delta-pattern and tolerance properties, not raw butterfly
        speed.
        """
        out: Dict[str, int] = {}
        lo, hi = VEC_BAR_RANGE
        for n in range(lo, hi + 1):
            if self.predict_vec_s(n) <= self.predict_list_s(n):
                out["VEC_MIN_N"] = n
                break
        else:
            out["VEC_MIN_N"] = hi
        return out

    # -- presentation --------------------------------------------------
    def vec_speedup(self) -> float:
        """Measured list/vec butterfly ratio at the largest common
        size (>1 means the vectorized backend won there)."""
        common = set(self.list_butterfly_s) & set(self.vec_butterfly_s)
        n = max(common) if common else max(self.vec_butterfly_s)
        lists = self.list_butterfly_s.get(n)
        vec = self.vec_butterfly_s.get(n)
        if lists is None or vec is None or vec <= 0:
            return 1.0
        return lists / vec

    def describe(self) -> str:
        """The one-line provenance stamp used by ``plan --explain``."""
        n = max(self.vec_butterfly_s)
        return (
            f"host profile: {self.cpus} effective CPU(s), vec butterfly "
            f"{self.vec_speedup():.1f}x lists at |S|={n}"
        )

    def summary(self) -> dict:
        """JSON-friendly digest for the service's ``/stats`` block."""
        return {
            "schema": PROFILE_SCHEMA,
            "cpus": self.cpus,
            "created": self.created,
            "path": self.path,
            "vec_speedup": round(self.vec_speedup(), 3),
            "thresholds": {
                name.lower(): bar for name, bar in self.thresholds().items()
            },
        }


# ----------------------------------------------------------------------
def measure_profile(
    sizes: Tuple[int, ...] = DEFAULT_SIZES,
    repeats: int = 3,
    path: Optional[str] = None,
) -> HostProfile:
    """Micro-benchmark this host and return a fresh :class:`HostProfile`.

    Times one full superset-zeta butterfly pass per backend at each of
    ``sizes`` (best of ``repeats``, fresh table per run so promotion
    state cannot leak between timings).
    """
    from repro.engine.backends import EXACT, VEC_EXACT, calibration_values

    sizes = tuple(sorted(set(sizes)))
    if len(sizes) < 2:
        raise ValueError(f"calibration needs >= 2 distinct sizes, got {sizes}")
    repeats = max(1, repeats)
    list_t: Dict[int, float] = {}
    vec_t: Dict[int, float] = {}
    for n in sizes:
        values = calibration_values(n)
        for backend, dest in ((EXACT, list_t), (VEC_EXACT, vec_t)):
            best = None
            for _ in range(repeats):
                table = backend.copy(values)
                started = time.perf_counter()
                backend.superset_zeta_inplace(table)
                elapsed = time.perf_counter() - started
                best = elapsed if best is None else min(best, elapsed)
            dest[n] = max(best, 1e-9)

    return HostProfile(
        cpus=effective_cpus(),
        created=time.strftime("%Y-%m-%dT%H:%M:%S"),
        python=platform.python_version(),
        machine=platform.machine() or "unknown",
        list_butterfly_s=list_t,
        vec_butterfly_s=vec_t,
        path=path,
    )


def load_profile(
    path: str, expect_cpus: Optional[int] = None
) -> Optional[HostProfile]:
    """Load a persisted profile, or ``None`` when it must be remeasured.

    A missing file is the quiet first-use case.  Everything else that
    prevents reuse -- unreadable file, corrupt JSON, wrong schema
    version, malformed fields, or (when ``expect_cpus`` is given) a
    profile measured under a different CPU budget -- warns loudly with
    :class:`~repro.errors.CalibrationWarning` and returns ``None`` so
    the caller re-measures.  Never raises.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
    except FileNotFoundError:
        return None
    except OSError as err:
        _warn(f"calibration profile {path} is unreadable ({err}); remeasuring")
        return None
    try:
        data = json.loads(raw)
    except ValueError as err:
        _warn(f"calibration profile {path} is corrupt ({err}); remeasuring")
        return None
    try:
        profile = HostProfile.from_json(data, path=path)
    except (KeyError, TypeError, ValueError) as err:
        _warn(f"calibration profile {path} is invalid ({err}); remeasuring")
        return None
    if expect_cpus is not None and profile.cpus != expect_cpus:
        _warn(
            f"calibration profile {path} was measured with {profile.cpus} "
            f"CPU(s) but this process sees {expect_cpus}; remeasuring"
        )
        return None
    return profile


def save_profile(profile: HostProfile, path: str) -> HostProfile:
    """Persist ``profile`` at ``path`` atomically (write-temp + rename).
    Returns the profile with its ``path`` recorded.  Raises ``OSError``
    on unwritable destinations (callers decide how loud to be)."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(profile.as_json(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return replace(profile, path=path)


def ensure_profile(
    path: Optional[str] = None,
    recalibrate: bool = False,
    sizes: Tuple[int, ...] = DEFAULT_SIZES,
    repeats: int = 3,
) -> HostProfile:
    """The load-or-measure entry point.

    Reuses a valid persisted profile for this CPU budget; otherwise
    (missing, corrupt, stale, foreign, or ``recalibrate=True``)
    measures afresh and persists the result.  A failed persist warns
    and still returns the in-memory profile, so calibration can never
    take the engine down.  ``path=None`` resolves via
    :func:`calibration_mode` and falls back to the default cache
    location even when the env switch is off (explicit calls opt in).
    """
    if path is None:
        path = calibration_mode() or default_profile_path()
    if not recalibrate:
        profile = load_profile(path, expect_cpus=effective_cpus())
        if profile is not None:
            return profile
    profile = measure_profile(sizes=sizes, repeats=repeats, path=path)
    try:
        profile = save_profile(profile, path)
    except OSError as err:
        _warn(
            f"could not persist calibration profile at {path} ({err}); "
            "using the in-memory measurement for this process only"
        )
    return profile


def active_profile() -> Optional[HostProfile]:
    """The profile the process-wide planner should use: ``None`` when
    the ``REPRO_CALIBRATION`` switch is off, else the ensured profile
    for the resolved path.  Swallows measurement failures (warn + fall
    back to assumed constants) -- calibration is an optimization, not
    a dependency."""
    path = calibration_mode()
    if path is None:
        return None
    try:
        return ensure_profile(path=path)
    except Exception as err:  # pragma: no cover - depends on host state
        _warn(
            f"host calibration failed ({err}); falling back to the "
            "assumed cost model"
        )
        return None
