"""Records hold read-only copies of the arrays they are given: the caller's
arrays stay writable, and no later write to them, or to their base, reaches
a record that has already validated its fields.  No record holds a NaN or
+-inf entry in any array field."""

import dataclasses
import re

import numpy as np
import pytest

from taulattice import (CouplingVector, EvolutionResult, HydroChainField,
                        PfaffLax, QuadratureGrid, ReducedChainState,
                        SkewMomentMatrix, TensorPoint, TodaLax, VolterraState,
                        gue_lax_init)
from taulattice.lax import SkewOrthoBasis

_T0 = CouplingVector()
_FIELD = HydroChainField.initial(np.linspace(0.25, 2.25, 9))

# record -> (its array fields' values, its other fields)
RECORDS = {
    QuadratureGrid: ({"nodes": np.linspace(-1.0, 1.0, 4), "weights": np.full(4, 0.5),
                      "rho": np.exp(-0.5 * np.linspace(-1.0, 1.0, 4) ** 2)},
                     {"couplings": _T0, "radius": 1.0, "panels": 1}),
    SkewMomentMatrix: ({"m": np.array([[0.0, 1.0], [-1.0, 0.0]])}, {"couplings": _T0}),
    TodaLax: ({"a": np.zeros(4), "b": np.sqrt(np.arange(1.0, 4.0))}, {}),
    PfaffLax: ({"w": np.ones((5, 6))}, {"k_neg": 2, "k_pos": 2}),
    SkewOrthoBasis: ({"coeffs": np.eye(4), "h": np.ones(2)},
                     {"jacobi": gue_lax_init(4), "couplings": _T0}),
    VolterraState: ({"B": np.arange(1.0, 7.0)}, {}),
    ReducedChainState: ({"W": np.full(4, 2.0)}, {"Wm1": 0.5}),
    EvolutionResult: ({"times": np.array([0.1, 0.2])},
                      {"states": [VolterraState(np.ones(2))] * 2}),
    HydroChainField: ({"x": np.array(_FIELD.x), "u": np.array(_FIELD.u),
                       "v": np.array(_FIELD.v)}, {"k_neg": _FIELD.k_neg}),
    TensorPoint: ({"u": np.linspace(0.5, 1.5, 9)}, {"window": 4}),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_owns_its_arrays(cls):
    values, others = RECORDS[cls]
    # each array the caller passes is a view into a base the caller keeps
    bases = {name: np.stack([value, value]) for name, value in values.items()}
    given = {name: base[0] for name, base in bases.items()}
    record = cls(**given, **others)

    for name, arr in given.items():
        assert arr.flags.writeable and bases[name].flags.writeable, name
        arr[...] = 7.0
        bases[name][...] = -5.0          # breaks every record's own checks
    for name, value in values.items():
        held = getattr(record, name)
        assert held.dtype == float and held.tobytes() == value.tobytes(), name
        assert not held.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            held[...] = -5.0
    # the held copies still pass the record's own checks
    dataclasses.replace(record)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("cls,name", [pytest.param(cls, name, id=f"{cls.__name__}.{name}")
                                      for cls, (values, _) in RECORDS.items()
                                      for name in values])
def test_record_refuses_non_finite_array_entries(cls, name, value):
    # VolterraState took inf, EvolutionResult NaN times, QuadratureGrid,
    # SkewMomentMatrix and SkewOrthoBasis either
    values, others = RECORDS[cls]
    bad = values[name].copy()
    bad.flat[bad.size // 2] = value
    with pytest.raises(ValueError, match=re.escape(f"{cls.__name__}.{name} must be finite, "
                                                   f"got {value}")):
        cls(**(values | {name: bad}), **others)
