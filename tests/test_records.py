"""The record contract, checked on every ``Record`` subclass of the package.

The subclasses are found by importing every module of the package, so a
new record class fails ``test_every_record_has_a_sample`` until it gets a
sample below.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import casimir_mto
from casimir_mto.constants import PhysicalConstants
from casimir_mto.electrostatics import (
    CalibrationFit,
    ElectrostaticConfig,
    LeastSquaresResult,
    TruncationReport,
)
from casimir_mto.lifshitz import LifshitzResult, SpherePlaneGeometry
from casimir_mto.materials import DrudeParams, OpticalTable
from casimir_mto.oscillator import (
    OscillatorParams,
    SerpentineSpring,
    SweepConfig,
    SweepNoise,
    SweepPoint,
)
from casimir_mto.records import Record
from casimir_mto.roughness import HeightMap, RoughnessDistribution
from casimir_mto.yukawa import Layer, LayeredBody, YukawaParams


def _package_records() -> set[type]:
    found = set()
    for info in pkgutil.iter_modules(casimir_mto.__path__):
        if info.name.startswith("__"):
            continue  # __main__ runs the CLI when imported
        module = importlib.import_module(f"casimir_mto.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, Record) and obj is not Record
                    and obj.__module__ == module.__name__):
                found.add(obj)
    return found


GEOMETRY = SpherePlaneGeometry(294.3e-6, 1e-6, 3e-8)

# class -> (one valid value per field, in field order; (field, other valid value)).
# Arrays are float arrays, which the checks keep as the same object, so two
# records built from one sample share them and compare equal.
SAMPLES = {
    PhysicalConstants: (
        dict(hbar=1.054571817e-34, c=299792458.0, eps0=8.8541878128e-12,
             G=6.67430e-11, ev=1.602176634e-19),
        ("G", 6.7e-11)),
    SpherePlaneGeometry: (dict(radius=294.3e-6, separation=1e-6, delta0=3e-8),
                          ("delta0", 0.0)),
    LifshitzResult: (dict(value=-1.2e-3, est_rel_error=1e-9, evaluations=4000),
                     ("evaluations", 4001)),
    DrudeParams: (dict(plasma_ev=9.0, relaxation_ev=0.035), ("relaxation_ev", 0.03)),
    OpticalTable: (dict(energy_ev=np.array([1.0]), eps2=np.array([2.0])),
                   ("eps2", np.array([3.0]))),
    RoughnessDistribution: (dict(offsets=np.array([0.0]), weights=np.array([1.0])),
                            ("offsets", np.array([1e-9]))),
    HeightMap: (dict(grid=np.zeros((1, 1))), ("grid", np.ones((1, 1)))),
    SerpentineSpring: (dict(width=2e-6, thickness=2e-6, length=5e-4, youngs_modulus=1.8e11),
                       ("length", 1e-3)),
    OscillatorParams: (dict(kappa=8.6e-10, inertia=4.6e-17, coupling=6.489e8, omega0=4318.0),
                       ("coupling", 6.5e8)),
    SweepNoise: (dict(freq_noise_rms_hz=0.03, separation_noise_rms_m=3.2e-10),
                 ("freq_noise_rms_hz", 0.0)),
    SweepConfig: (dict(z_grid=np.array([3e-7, 5e-7]), integration_time_s=10.0,
                       noise=SweepNoise(0.03), tol=1e-6),
                  ("tol", 1e-7)),
    SweepPoint: (dict(z=3e-7, omega_r=4318.0, sigma_omega=0.06), ("z", 4e-7)),
    ElectrostaticConfig: (dict(v_applied=0.3, v_residual=0.01, geometry=GEOMETRY),
                          ("v_applied", 0.2)),
    TruncationReport: (dict(gap_ratio=2e-4, terms=((1.0, -1e-9), (np.inf, -2e-9)),
                            force=-2e-9, expansion_rel_error={1: 1e-3, 2: 1e-6},
                            orders_for_0p1pct=2),
                       ("orders_for_0p1pct", None)),
    CalibrationFit: (dict(k=5e4, v0=0.01, radius=3e-4, delta0=3e-8,
                          covariance=np.eye(4), residual_rms=1e-14),
                     ("k", 6e4)),
    LeastSquaresResult: (dict(x=np.ones(4), cost=0.5, fun=np.ones(2), jac=np.ones((2, 4)),
                              nfev=6, success=True),
                         ("nfev", 7)),
    YukawaParams: (dict(alpha=1e13, lam=1e-7), ("alpha", -1e13)),
    Layer: (dict(thickness=2e-7, density=19300.0), ("density", 8960.0)),
    LayeredBody: (dict(shape="half_space", core_density=2330.0,
                       layers=(Layer(2e-7, 8960.0),), radius=None),
                  ("core_density", 3980.0)),
}
RECORDS = sorted(SAMPLES, key=lambda cls: cls.__name__)


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def test_every_record_has_a_sample():
    assert _package_records() == set(SAMPLES)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestRecordContract:
    def test_fields_in_annotation_order(self, cls):
        kwargs, _ = SAMPLES[cls]
        assert cls._fields == tuple(vars(cls)["__annotations__"]) == tuple(kwargs)

    def test_positional_and_keyword_construction_agree(self, cls):
        kwargs, _ = SAMPLES[cls]
        by_keyword = cls(**kwargs)
        assert cls(*kwargs.values()) == by_keyword
        half = len(kwargs) // 2
        assert cls(*list(kwargs.values())[:half], **dict(list(kwargs.items())[half:])) \
            == by_keyword

    def test_defaults_are_applied(self, cls):
        kwargs, _ = SAMPLES[cls]
        required = {name: v for name, v in kwargs.items() if name not in vars(cls)}
        defaults = {name: vars(cls)[name] for name in kwargs if name in vars(cls)}
        assert cls._defaults == defaults
        assert cls(**required) == cls(**required, **defaults)

    def test_bad_arguments_are_type_errors(self, cls):
        kwargs, _ = SAMPLES[cls]
        values = list(kwargs.values())
        for name in kwargs:
            if name not in vars(cls):
                with pytest.raises(TypeError, match=f"missing field '{name}'"):
                    cls(**{k: v for k, v in kwargs.items() if k != name})
        with pytest.raises(TypeError, match="unknown field 'bogus'"):
            cls(**kwargs, bogus=1.0)
        with pytest.raises(TypeError, match="arguments"):
            cls(*values, 1.0)
        first = next(iter(kwargs))
        with pytest.raises(TypeError, match=f"multiple values for '{first}'"):
            cls(*values[:1], **kwargs)

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        kwargs, (name, other) = SAMPLES[cls]
        rec = cls(**kwargs)
        for field in (*kwargs, "extra"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(rec, field, other)
        for field in kwargs:
            with pytest.raises(AttributeError, match="immutable"):
                delattr(rec, field)
        assert cls(**kwargs) == rec

    def test_repr_names_every_field(self, cls):
        kwargs, _ = SAMPLES[cls]
        text = repr(cls(**kwargs))
        assert text.startswith(f"{cls.__qualname__}(")
        for name in kwargs:
            assert f"{name}=" in text

    def test_equality_and_hash_by_value(self, cls):
        kwargs, (name, other) = SAMPLES[cls]
        a, b = cls(**kwargs), cls(**kwargs)
        assert a is not b and a == b
        assert cls(**{**kwargs, name: other}) != a
        assert a != tuple(kwargs.values())
        if all(_hashable(getattr(a, field)) for field in kwargs):
            assert hash(a) == hash(b)
        else:
            with pytest.raises(TypeError):
                hash(a)


def test_sweep_noise_default_is_one_immutable_record():
    noise = SweepConfig([3e-7]).noise
    assert noise is SweepConfig([4e-7]).noise
    assert noise == SweepNoise()
    with pytest.raises(AttributeError):
        noise.freq_noise_rms_hz = 1.0


def test_a_required_field_cannot_follow_a_default():
    with pytest.raises(TypeError, match="'b' without a default"):
        class Bad(Record):
            a: float = 0.0
            b: float
