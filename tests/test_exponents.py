import tracemalloc

import numpy as np
import pytest

from doublephase.energy import eval_energy
from doublephase.errors import ExponentRangeError
from doublephase.exponents import (
    ExponentField,
    _dense_axes,
    _dense_ranges,
    build_exponent_set,
    conjugate_exponent,
    validate_hypotheses,
)
from doublephase.fieldexpr import as_field_function
from doublephase.grid import DomainGrid, GridFunction


def _summary(s):
    fields = {name: getattr(s, name) for name in ("p1", "p2", "pmax", "q")}
    return {name: {"lo": f.lo, "hi": f.hi} for name, f in fields.items()}


def test_constant_max():
    g = DomainGrid(3, (8, 8, 8))
    s = build_exponent_set("2", "3", "4", g)
    assert s.pmax.lo == s.pmax.hi == 3.0
    assert np.all(s.pmax.values == 3.0)


def test_sine_profile_summaries_from_dense_sampling():
    g = DomainGrid(3, (16, 16, 16))
    s = build_exponent_set("2", "2 + 0.5*sin(pi*x1)", "4", g)
    # closed lattice probing reaches x1 = 0 and x1 = 1/2 exactly
    assert s.pmax.lo == 2.0
    assert s.pmax.hi == 2.5
    assert s.p2.lo == 2.0 and s.p2.hi == 2.5
    # summaries bracket the cell samples
    assert s.pmax.values.min() >= s.pmax.lo
    assert s.pmax.values.max() <= s.pmax.hi


@pytest.mark.parametrize("res", [8, 32])
def test_summaries_pinned(res):
    # lo/hi as computed from the full dense lattice; the slab-by-slab
    # reduction must reproduce them bitwise
    g = DomainGrid(3, (res,) * 3)
    s = build_exponent_set("2", "2 + 0.5*sin(pi*x1)", "4", g)
    assert _summary(s) == {
        "p1": {"lo": 2.0, "hi": 2.0},
        "p2": {"lo": 2.0, "hi": 2.5},
        "pmax": {"lo": 2.0, "hi": 2.5},
        "q": {"lo": 4.0, "hi": 4.0},
    }
    s = build_exponent_set(
        "2 + 0.3*cos(3*x2)*x1", "2.1 + 0.4*sin(2.3*x1)*x3", "4 + exp(x1*x2) - x3", g
    )
    p2_hi = {8: 2.4999781443423363, 32: 2.4999932335068022}[res]
    assert _summary(s) == {
        "p1": {"lo": 1.7030022510198664, "hi": 2.3},
        "p2": {"lo": 2.1, "hi": p2_hi},
        "pmax": {"lo": 2.1, "hi": p2_hi},
        "q": {"lo": 4.0, "hi": 6.718281828459045},
    }


def _slanted(x1, x2, x3):
    # depends on x2 and x3 only, so on a sparse mesh it returns a (1, n2, n3) array
    return 2.0 + 0.25 * np.cos(3.0 * x2) * x3


@pytest.mark.parametrize(
    "spec", ["2", "2 + 0.5*sin(pi*x1)", "3.2 + 0.2*x1*x2*x3", _slanted],
    ids=["constant", "x1-only", "product", "callable"],
)
def test_dense_ranges_match_the_full_lattice(spec):
    # the slab-by-slab reduction of broadcast operands equals, bitwise, the
    # min and max over the full dense lattice; the non-cubic grid gives axes
    # of different lengths and several slabs
    g = DomainGrid(3, (8, 12, 20))
    fns = {
        "p1": as_field_function(spec, 3),
        "p2": as_field_function("2 + 0.5*sin(pi*x1)", 3),
        "q": as_field_function(spec, 3),
    }
    mesh = np.meshgrid(*_dense_axes(g), indexing="ij")
    full = {
        name: np.broadcast_to(np.asarray(fn(*mesh), dtype=float), mesh[0].shape)
        for name, fn in fns.items()
    }
    full["pmax"] = np.maximum(full["p1"], full["p2"])
    expected = {name: (float(v.min()), float(v.max())) for name, v in full.items()}
    assert _dense_ranges(fns, g) == expected


def test_dense_ranges_hold_no_lattice_array():
    # the default specs depend on x1 at most, so the reduction holds arrays
    # of the x1 extent of one slab, not of the 125^3 lattice at 32^3
    g = DomainGrid(3, (32, 32, 32))
    fns = {
        name: as_field_function(spec, 3)
        for name, spec in (("p1", "2"), ("p2", "2 + 0.5*sin(pi*x1)"), ("q", "4"))
    }
    tracemalloc.start()
    try:
        _dense_ranges(fns, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 2**20


@pytest.mark.parametrize(
    "spec",
    [lambda x1, x2, x3: np.full(7, 2.5), lambda x1, x2, x3: np.stack([x1 + 2.0, x2 + 2.0])],
    ids=["wrong-length", "extra-axis"],
)
def test_rejects_a_callable_that_does_not_fit_the_lattice(spec):
    with pytest.raises(ValueError):
        build_exponent_set(spec, "3", "4", DomainGrid(3, (8, 8, 8)))


@pytest.mark.parametrize(
    "numbers, texts",
    [
        ((2, 2.5, 4), ("2", "2.5", "4")),
        ((2, "2 + 0.5*sin(pi*x1)", 4.0), ("2", "2 + 0.5*sin(pi*x1)", "4")),
    ],
    ids=["constants", "mixed"],
)
def test_a_number_spec_is_its_expression(numbers, texts, rng):
    # a number keeps one value on the sparse mesh, as the expression of it
    # does, so the two sets store and sum the same arrays
    g = DomainGrid(3, (16, 16, 16))
    a = build_exponent_set(*numbers, g)
    b = build_exponent_set(*texts, g)
    for name in ("p1", "p2", "pmax", "q"):
        fa, fb = getattr(a, name), getattr(b, name)
        assert fa.compact.shape == fb.compact.shape
        assert (fa.lo, fa.hi) == (fb.lo, fb.hi)
    u = GridFunction(g, rng.standard_normal(g.node_shape) * ~g.boundary_mask())
    for form in ("mountain", "coercive"):
        ea, eb = eval_energy(u, 3.0, a, form), eval_energy(u, 3.0, b, form)
        assert repr(ea.to_dict()) == repr(eb.to_dict())  # bitwise, -0.0 apart from 0.0


def test_rejects_non_admissible():
    g = DomainGrid(3, (8, 8, 8))
    with pytest.raises(ExponentRangeError):
        build_exponent_set("1", "3", "4", g)
    with pytest.raises(ExponentRangeError):
        build_exponent_set("2", "1 + 0.5*x1", "4", g)  # hits 1 at the boundary


def test_pointwise_max_exact():
    g = DomainGrid(2, (10, 10))
    s = build_exponent_set("2 + 0.3*cos(pi*x2)", "2 + 0.5*sin(pi*x1)", "5", g)
    assert np.array_equal(s.pmax.values, np.maximum(s.p1.values, s.p2.values))


def test_each_spec_is_evaluated_once_on_the_cells():
    g = DomainGrid(3, (8, 8, 8))
    cell_x1 = g.cell_axes()[0]
    calls = {"p1": 0, "p2": 0, "q": 0}

    def counted(name, text):
        fn = as_field_function(text, g.dim)

        def spec(*x):
            calls[name] += np.array_equal(np.ravel(x[0]), cell_x1)
            return fn(*x)

        return spec

    # p1 exceeds p2 near x1 = 0, so pmax is a field of its own
    s = build_exponent_set(
        counted("p1", "2 + 0.3*x2"), counted("p2", "2 + 0.5*sin(pi*x1)"), counted("q", "4"), g
    )
    assert calls == {"p1": 1, "p2": 1, "q": 1}
    assert s.pmax is not s.p1 and s.pmax is not s.p2
    assert np.array_equal(s.pmax.values, np.maximum(s.p1.values, s.p2.values))


@pytest.mark.parametrize(
    "key, specs",
    [
        ("p1", ("2 + exp(exp(exp(3*x1)))", "3", "4")),
        ("q", ("2", "3", "4 + 0*exp(1000)")),
        # a nan on the boundary only, which the cells do not reach
        ("p2", ("2", lambda *x: np.where(x[0] == 0.0, np.nan, 3.0 + 0.0 * x[0]), "4")),
    ],
)
def test_rejects_a_non_finite_spec_by_key(key, specs):
    with pytest.raises(ExponentRangeError, match=f"exponent {key} must be finite") as info:
        build_exponent_set(*specs, DomainGrid(3, (8, 8, 8)))
    assert info.value.key == key


def test_hypotheses_default_pass_both():
    g = DomainGrid(3, (16, 16, 16))
    s = build_exponent_set("2", "2 + 0.5*sin(pi*x1)", "4", g)
    rep1 = validate_hypotheses(s, "mountain")
    rep2 = validate_hypotheses(s, "coercive")
    assert rep1.passed and rep2.passed
    # the subcritical bound is 3*2/(3-2) = 6, compared against q.hi = 4
    row = next(c for c in rep1.conditions if "dim*pmax.lo" in c.name)
    assert row.rhs == 6.0 and row.lhs == 4.0 and row.satisfied


def test_hypotheses_fail_supercritical():
    g = DomainGrid(3, (16, 16, 16))
    s = build_exponent_set("2", "2 + 0.5*sin(pi*x1)", "7", g)
    rep = validate_hypotheses(s, "mountain")
    assert not rep.passed
    row = next(c for c in rep.conditions if "dim*pmax.lo" in c.name)
    assert row.lhs == 7.0 and row.rhs == 6.0 and not row.satisfied


def test_coercive_form_has_no_lower_bound_two():
    g = DomainGrid(3, (16, 16, 16))
    s = build_exponent_set("1.5", "2 + 0.5*sin(pi*x1)", "4", g)
    assert validate_hypotheses(s, "coercive").passed
    rep = validate_hypotheses(s, "mountain")
    assert not rep.passed
    assert any(c.name == "p1.lo >= 2" and not c.satisfied for c in rep.conditions)


def test_dim_two_flagged_outside_hypotheses():
    g = DomainGrid(2, (12, 12))
    s = build_exponent_set("2", "2.2", "4", g)
    # desk-scale 2D runs are supported but flagged: the results assume dim >= 3
    for form in ("mountain", "coercive"):
        rep = validate_hypotheses(s, form)
        assert not rep.passed
        assert any(c.name == "dim >= 3" and not c.satisfied for c in rep.conditions)


def test_conjugate_values_and_involution():
    g = DomainGrid(2, (8, 8))
    for value, dual in ((2.0, 2.0), (3.0, 1.5), (4.0 / 3.0, 4.0)):
        p = ExponentField.from_values(g, value)
        assert np.allclose(conjugate_exponent(p).values, dual, rtol=0, atol=1e-13)
    s = build_exponent_set("2", "2 + 0.5*sin(pi*x1)", "4", g)
    twice = conjugate_exponent(conjugate_exponent(s.p2))
    assert np.max(np.abs(twice.values - s.p2.values)) <= 1e-13


def test_conjugate_is_cached_and_exact():
    g = DomainGrid(3, (8, 8, 8))
    s = build_exponent_set("2", "2 + 0.5*sin(pi*x1)", "4", g)
    for p in (s.p1, s.p2, s.pmax):
        dual = conjugate_exponent(p)
        assert conjugate_exponent(p) is dual
        assert np.array_equal(dual.values, p.values / (p.values - 1.0))
        assert (dual.lo, dual.hi) == (p.hi / (p.hi - 1.0), p.lo / (p.lo - 1.0))


def test_summary_dict():
    g = DomainGrid(3, (8, 8, 8))
    s = build_exponent_set("2", "3", "4", g)
    d = _summary(s)
    assert d["q"] == {"lo": 4.0, "hi": 4.0}


def test_fields_are_read_only_views_at_their_spec_shape():
    # the constants p1 = 2 and q = 4 hold one number and p2 one per x1 cell,
    # broadcast onto the cells with zero strides; no field can be written
    # through, and none aliases the array it was made from
    g = DomainGrid(3, (16, 16, 16))
    s = build_exponent_set("2", "2 + 0.5*sin(pi*x1)", "4", g)
    assert s.p1.values.strides == s.q.values.strides == (0, 0, 0)
    assert s.p2.values.strides[1:] == (0, 0) and s.p2.values.strides[0] != 0
    assert s.pmax is s.p2
    for p in (s.p1, s.p2, s.q):
        assert p.values.shape == g.cell_shape
        assert not p.values.flags.writeable
    for source in (np.full(g.cell_shape, 2.5), np.full((15, 1, 1), 2.5)):
        p = ExponentField.from_values(g, source)
        source[...] = 3.0
        assert np.all(p.values == 2.5) and (p.lo, p.hi) == (2.5, 2.5)
