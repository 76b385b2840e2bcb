import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthlab import (
    RATIO_THRESHOLD,
    Geometric,
    InputError,
    Power,
    Samples,
    Scaled,
    SequenceModel,
    Shifted,
    SuperGeometric,
    equivalent,
    is_lacunary,
    majorizes,
    parse_model,
    sample,
    strictly_majorizes,
    write_matrix,
)
from widthlab.seqlab import shift_search

GRID = [
    Geometric(0.5),
    Geometric(0.25),
    Power(1.0),
    Power(2.0),
    SuperGeometric(2.0),
    Shifted(1, SuperGeometric(2.0)),
    Scaled(3.0, Geometric(0.5)),
]


class TestSampling:
    def test_geometric(self):
        assert sample(Geometric(0.5), 4) == [1.0, 0.5, 0.25, 0.125]

    def test_supergeometric(self):
        assert sample(SuperGeometric(2.0), 3) == [1.0, 0.5, 0.0625]

    def test_shifted(self):
        assert sample(Shifted(1, Geometric(0.5)), 3) == [0.5, 0.25, 0.125]

    def test_samples_too_short(self):
        with pytest.raises(InputError, match="only 2 terms"):
            sample(Samples((1.0, 0.5)), 3)

    def test_underflow_refused_not_flushed(self):
        with pytest.raises(InputError, match="underflow"):
            sample(SuperGeometric(2.0), 40)

    def test_model_validation(self):
        with pytest.raises(InputError):
            Geometric(1.0)
        with pytest.raises(InputError):
            Power(0.0)
        with pytest.raises(InputError):
            SuperGeometric(1.0)
        with pytest.raises(InputError):
            Samples((1.0, 2.0))
        with pytest.raises(InputError):
            Samples(())
        with pytest.raises(InputError):
            Shifted(-1, Geometric(0.5))

    @pytest.mark.parametrize("k", [2.0, True])
    def test_shift_must_be_an_integer(self, k):
        with pytest.raises(InputError, match=r"shift must be a nonnegative integer, got .* \(not an"):
            Shifted(k, Geometric(0.5))

    @pytest.mark.parametrize("build", [Power, SuperGeometric, lambda k: Shifted(k, Geometric(0.5))],
                             ids=["pow", "supergeom", "shift"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_parameters_refused(self, build, value):
        # Shifted(inf) raised OverflowError and Shifted(nan) ValueError;
        # Power(inf) and SuperGeometric(inf) were accepted
        with pytest.raises(InputError):
            build(value)


class TestLacunarity:
    def test_geometric_exact(self):
        v = is_lacunary(Geometric(0.5))
        assert (v.lacunary, v.exact, v.witness_ratio) == (False, True, 0.5)

    def test_supergeometric_exact(self):
        v = is_lacunary(SuperGeometric(2.0))
        assert (v.lacunary, v.exact, v.witness_ratio) == (True, True, 0.0)

    def test_power_not_lacunary(self):
        v = is_lacunary(Power(3.0))
        assert not v.lacunary and v.exact

    @pytest.mark.parametrize("model, witness", [
        (Power(2000.0), math.ulp(0.0)),       # (1/2)^2000 underflows
        (Power(1e300), math.ulp(0.0)),
        (Shifted(5, Power(2000.0)), (6 / 7) ** 2000),
    ], ids=["pow(2000)", "pow(1e300)", "shift(5, pow(2000))"])
    def test_steep_power_witness_stays_positive(self, model, witness):
        # the smallest ratio ((o+1)/(o+2))^p is positive; an underflowed
        # power read as witness 0 beside lacunary=False
        v = is_lacunary(model)
        assert (v.lacunary, v.exact) == (False, True)
        assert v.witness_ratio == witness > 0.0

    def test_samples_window_surrogate(self):
        v = is_lacunary(Samples((1.0, 0.5, 1e-5, 5e-6)))
        assert v.lacunary and not v.exact
        assert v.witness_ratio == pytest.approx(2e-5)

    def test_wrappers_inherit(self):
        assert is_lacunary(Scaled(7.0, Shifted(2, SuperGeometric(2.0)))).lacunary
        assert not is_lacunary(Scaled(7.0, Shifted(2, Geometric(0.5)))).lacunary


class TestMajorization:
    def test_geometric_pair_minimal_constant(self):
        v = majorizes(Geometric(0.5), Geometric(0.25))
        assert v.holds and v.exact and v.constant == pytest.approx(1.0)

    def test_geometric_pair_unbounded(self):
        v = majorizes(Geometric(0.25), Geometric(0.5))
        assert not v.holds and v.exact

    def test_supergeometric_shift_minimal_constant(self):
        # ratio b_n/a_n = 2^{-(2n+1)}: bounded by 1 with supremum 1/2 at n=0
        a = SuperGeometric(2.0)
        v = majorizes(a, Shifted(1, a))
        assert v.holds and v.exact
        assert v.constant == pytest.approx(0.5)

    def test_cross_family(self):
        assert majorizes(Power(2.0), Geometric(0.5)).holds
        assert not majorizes(Geometric(0.5), Power(2.0)).holds
        assert majorizes(Geometric(0.5), SuperGeometric(2.0)).holds
        assert not majorizes(SuperGeometric(2.0), Geometric(0.5)).holds

    @pytest.mark.parametrize("a, b", [
        ((1.0, 2, 1.5), (1.0, 0, 4.0)),   # vertex at n = 0.83
        ((1.0, 5, 1.1), (1.0, 0, 1.3)),   # vertex at n = 2.85
        ((0.5, 0, 2.0), (1.0, 1, 3.0)),   # supremum at n = 0
    ])
    def test_supergeometric_bases_apart_brute_force(self, a, b):
        # (c, k, base) is c * base^-((n+k)^2); with a slower base for a,
        # log(b_n / a_n) is a downward parabola in n, so the maximum over
        # the first terms is the minimal constant
        def model(c, k, base):
            return Scaled(c, Shifted(k, SuperGeometric(base)))

        def log_term(c, k, base, n):
            return math.log(c) - (n + k) ** 2 * math.log(base)

        top = max(log_term(*b, n) - log_term(*a, n) for n in range(40))
        v = majorizes(model(*a), model(*b))
        assert (v.holds, v.exact) == (True, True)
        assert v.constant == pytest.approx(math.exp(top), rel=1e-12)
        assert strictly_majorizes(model(*a), model(*b)).holds

    def test_supergeometric_constant_at_the_vertex(self):
        # b_n / a_n = 1.5^((n+2)^2) / 4^(n^2) peaks at n = 1: 1.5^9 / 4
        v = majorizes(Shifted(2, SuperGeometric(1.5)), SuperGeometric(4.0))
        assert v.constant == 1.5 ** 9 / 4 == 9.61083984375

    def test_supergeometric_faster_base_is_unbounded(self):
        # b_n / a_n = (3/2)^(n^2) grows without bound, whatever the shifts
        for a, b in ((SuperGeometric(3.0), SuperGeometric(2.0)),
                     (SuperGeometric(3.0), Shifted(4, SuperGeometric(2.0)))):
            for compare in (majorizes, strictly_majorizes):
                v = compare(a, b)
                assert (v.holds, v.constant, v.exact) == (False, None, True)

    def test_unimodal_supremum_cross_family(self):
        # brute-force the ratio maximum and compare with the closed-form scan
        a, b = Power(2.0), Geometric(0.5)
        v = majorizes(a, b)
        ratios = np.array(sample(b, 60)) / np.array(sample(a, 60))
        assert v.constant == pytest.approx(float(ratios.max()), rel=1e-12)

    def test_samples_branch_reports_window(self):
        v = majorizes(Samples((1.0, 0.5, 0.25)), Geometric(0.5))
        assert v.holds and not v.exact and v.window == 3
        assert v.constant == pytest.approx(1.0)

    def test_supremum_may_be_an_unattained_limit(self):
        # ratio ((n+1)/(n+2))^p increases toward 1: every window maximum
        # stays below 1, yet any C < 1 eventually fails, so the minimal
        # constant is the limit
        v = majorizes(Power(0.5), Shifted(1, Power(0.5)))
        assert v.constant == pytest.approx(1.0)
        v2 = majorizes(Scaled(0.2, Power(2.0)), Shifted(3, Power(2.0)))
        assert v2.constant == pytest.approx(5.0)

    def test_scales_beyond_double_range(self):
        # 2^2000 and 1e400 overflow: the constant reads infinite, not a
        # math domain error from the log of an underflowed scale
        v = majorizes(Shifted(2000, Geometric(0.5)), Geometric(0.5))
        assert v.holds and v.exact and v.constant == math.inf
        v = majorizes(Scaled(1e-200, Scaled(1e-200, Power(1.0))), Power(1.0))
        assert v.holds and v.exact and v.constant == math.inf
        # the power-law limit scale_b / scale_a goes through the same clamp
        v = majorizes(Scaled(1e-200, Scaled(1e-200, Power(2.0))), Shifted(3, Power(2.0)))
        assert v.holds and v.constant == math.inf
        v = majorizes(Scaled(1e-20, Scaled(1e-20, Power(2.0))), Shifted(3, Power(2.0)))
        assert v.constant == pytest.approx(1e40, rel=1e-12)

    def test_constant_below_double_range_rounds_up(self):
        # the minimal constant is 1e-600: it is reported as the smallest
        # subnormal, never as 0, so b_n <= C a_n still holds
        a, b = Power(1.0), Scaled(1e-300, Scaled(1e-300, Shifted(2, Power(1.0))))
        v = majorizes(a, b)
        assert v.holds and v.exact and v.constant == math.ulp(0.0) == 5e-324
        v = strictly_majorizes(Power(1.0), Scaled(1e-300, Scaled(1e-300, Power(2.0))))
        assert v.holds and v.constant == math.ulp(0.0)

    def test_window_ratios_match_numpy(self):
        # the windowed branch divides Python floats; numpy gives the same bits
        a = Samples(tuple(0.9 ** n * (1 + 0.1 * math.sin(n)) ** -1 for n in range(40)))
        b = Scaled(0.3, Power(1.5))
        ratios = np.array(sample(b, 40)) / np.array(sample(a, 40))
        v = majorizes(a, b)
        assert type(v.constant) is float and v.constant == float(ratios.max())
        s = strictly_majorizes(a, b)
        assert s.holds == bool(ratios[-10:].max() <= RATIO_THRESHOLD * ratios.max()) and s.window == 40

    @pytest.mark.parametrize("model", [
        Scaled(1e-300, Scaled(1e-300, Geometric(0.5))),  # terms underflow to 0
        Scaled(1e-300, Scaled(1e-300, Power(1.0))),
        Scaled(1e300, Scaled(1e300, Geometric(0.5))),    # terms overflow to inf
    ])
    def test_window_term_out_of_double_range_refused(self, model):
        # a ratio over 0 or inf is no number, on either side: as b the model
        # gave holds=True with a constant of inf or 0
        samples = Samples((1.0, 0.5, 0.25))
        for a, b in ((model, samples), (samples, model)):
            for compare in (majorizes, strictly_majorizes):
                with pytest.raises(InputError, match="leaves the double range"):
                    compare(a, b)

    @pytest.mark.parametrize("model", [
        Scaled(1e-300, Samples((1e-300, 1e-300))),  # every term is 0
        Scaled(1e300, Samples((1e300, 1e10))),      # every term is inf
        Scaled(1e-300, Samples((1e-20, 1e-300))),   # the last term is 0
    ])
    def test_scaled_samples_out_of_double_range_refused(self, model):
        # 0/0 raised ZeroDivisionError, inf/inf read as a nan ratio and x/0
        # as a 0 ratio; one refusal now covers every predicate on both sides
        one = Samples((1.0, 1.0))
        for check in (lambda: is_lacunary(model), lambda: majorizes(one, model),
                      lambda: majorizes(model, one), lambda: equivalent(model, model),
                      lambda: shift_search(one, model, 2),
                      lambda: is_lacunary(Shifted(1, Scaled(1.0, model)))):
            with pytest.raises(InputError, match=r"leaves the double range \(0 or infinite"):
                check()

    def test_scaled_samples_inside_double_range_kept(self):
        # subnormal but positive terms stay valid, at subnormal precision
        v = is_lacunary(Scaled(1e-300, Samples((1e-10, 1e-20))))
        assert v.lacunary and not v.exact and v.witness_ratio == pytest.approx(1e-10, rel=1e-3)

    def test_constant_dominates_every_window_ratio(self):
        # validity sweep: the exact minimal C is an upper bound for the
        # observed ratio over a long window, and is approached within it
        # whenever the ratio is not still climbing toward its limit
        grid = [Geometric(0.3), Geometric(0.7), Power(1.5), Power(3.0),
                SuperGeometric(1.5), Shifted(2, Power(1.5)),
                Scaled(0.25, Geometric(0.7)), Scaled(4.0, SuperGeometric(1.5))]
        for a in grid:
            for b in grid:
                v = majorizes(a, b)
                if not (v.holds and np.isfinite(v.constant)):
                    continue
                try:
                    ratios = np.array(sample(b, 50)) / np.array(sample(a, 50))
                except InputError:
                    continue
                assert v.constant >= ratios.max() * (1 - 1e-12)

    def test_strictly(self):
        assert strictly_majorizes(Geometric(0.5), Geometric(0.25)).holds
        assert not strictly_majorizes(Geometric(0.5), Geometric(0.5)).holds
        assert strictly_majorizes(Power(1.0), Power(2.0)).holds
        assert not strictly_majorizes(Power(2.0), Power(2.0)).holds

    def test_strict_samples_trend(self):
        decaying = Samples(tuple(2.0 ** -(n * n) for n in range(8)))
        flat = Samples((1.0,) * 8)
        assert strictly_majorizes(flat, decaying).holds
        assert not strictly_majorizes(flat, flat).holds


class TestShiftClassification:
    def test_supergeometric_shift(self):
        a = SuperGeometric(2.0)
        found = shift_search(a, Shifted(1, a), 5)
        assert found.k == 1 and found.base.exact

    def test_geometric_exhausts(self):
        g = Geometric(0.5)
        found = shift_search(g, g, 5)
        assert found.k is None and found.exhausted_at == 5

    def test_supergeometric_self(self):
        a = SuperGeometric(2.0)
        assert shift_search(a, a, 5).k == 0

    def test_precondition(self):
        # not even shift 0 majorizes: the unshifted verdict says so, no k
        found = shift_search(Geometric(0.25), Geometric(0.5), 5)
        assert not found.base.holds and found.k is None

    def test_negative_budget(self):
        with pytest.raises(InputError, match="shift budget must be nonnegative, got -2"):
            shift_search(Geometric(0.5), Geometric(0.5), -2)

    def test_fractional_budget(self):
        with pytest.raises(InputError, match=r"shift budget must be nonnegative, got 2.5 \(not an integer\)"):
            shift_search(Geometric(0.5), Geometric(0.5), 2.5)

    def test_fractional_sample_length(self):
        with pytest.raises(InputError, match=r"sample length must be at least 1, got 2.5 \(not an integer\)"):
            sample(Geometric(0.5), 2.5)

    def test_shift_monotonicity(self):
        # if shift k+1 majorizes then shift k does: scan the grid
        for a in GRID:
            for b in GRID:
                held = [majorizes(Shifted(k, a), b).holds for k in range(4)]
                for k in range(3):
                    if held[k + 1]:
                        assert held[k]

    def test_geometric_shift_constant_closed_form(self):
        g = Geometric(0.5)
        for k in range(1, 5):
            v = majorizes(Shifted(k, g), g)
            assert v.holds and v.constant == pytest.approx(2.0 ** k)


class TestEquivalence:
    def test_scaling(self):
        assert equivalent(Geometric(0.5), Scaled(3.0, Geometric(0.5)))

    def test_different_rates(self):
        assert not equivalent(Geometric(0.5), Geometric(0.25))

    def test_perturbed_spectrum_samples(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = rng.normal(size=(6, 6))
            bump = 1e-3 * np.outer(rng.normal(size=6), rng.normal(size=6)) / 6
            sa = np.linalg.svd(a, compute_uv=False)
            sb = np.linalg.svd(a + bump, compute_uv=False)
            assert equivalent(Samples(tuple(sa)), Samples(tuple(sb)))

    def test_reflexive_symmetric_transitive_on_grid(self):
        for a in GRID:
            assert equivalent(a, a)
        for a in GRID:
            for b in GRID:
                assert equivalent(a, b) == equivalent(b, a)
        for a in GRID:
            for b in GRID:
                for c in GRID:
                    if equivalent(a, b) and equivalent(b, c):
                        assert equivalent(a, c)


@settings(max_examples=40, deadline=None)
@given(
    c=st.floats(min_value=1e-6, max_value=1e6),
    q=st.floats(min_value=0.05, max_value=0.95),
)
def test_scaling_invariance_of_verdicts(c, q):
    base: list[SequenceModel] = [Geometric(q), SuperGeometric(2.0), Power(2.0)]
    for a in base:
        for b in base:
            plain = majorizes(a, b)
            for scaled_pair in ((Scaled(c, a), b), (a, Scaled(c, b))):
                v = majorizes(*scaled_pair)
                assert v.holds == plain.holds
            s_plain = strictly_majorizes(a, b).holds
            assert strictly_majorizes(Scaled(c, a), b).holds == s_plain
            assert strictly_majorizes(a, Scaled(c, b)).holds == s_plain
    for m in base:
        assert is_lacunary(Scaled(c, m)).lacunary == is_lacunary(m).lacunary


@settings(max_examples=25, deadline=None)
@given(q=st.floats(min_value=0.05, max_value=0.95), k=st.integers(min_value=0, max_value=6))
def test_non_lacunary_geometric_shift_closure(q, k):
    # every left shift of a geometric sequence majorizes it with C = q^-k
    v = majorizes(Shifted(k, Geometric(q)), Geometric(q))
    assert v.holds
    assert v.constant == pytest.approx(q ** -k, rel=1e-9)


class TestParser:
    @pytest.mark.parametrize("text,expected", [
        ("geom(0.5)", Geometric(0.5)),
        (" pow( 2 ) ", Power(2.0)),
        ("supergeom(2)", SuperGeometric(2.0)),
        ("shift(1, geom(0.5))", Shifted(1, Geometric(0.5))),
        ("scale(3, shift(2, pow(1.5)))", Scaled(3.0, Shifted(2, Power(1.5)))),
        ("samples(1, 0.5, 0.25)", Samples((1.0, 0.5, 0.25))),
    ])
    def test_round_trips(self, text, expected):
        assert parse_model(text) == expected

    def test_spectrum_model(self, tmp_path):
        path = tmp_path / "a.mat"
        write_matrix(path, np.diag([3.0, 2.0, 1.0]))
        model = parse_model(f"spectrum({path})")
        assert model == Samples((3.0, 2.0, 1.0))

    def test_errors_report_position(self):
        with pytest.raises(InputError, match="position"):
            parse_model("geom(0.5")
        with pytest.raises(InputError, match="unknown model"):
            parse_model("exp(2)")
        with pytest.raises(InputError, match="trailing"):
            parse_model("geom(0.5) junk")
        with pytest.raises(InputError, match="integer"):
            parse_model("shift(1.5, geom(0.5))")
        with pytest.raises(InputError, match="integer"):
            parse_model("shift(1e400, geom(0.5))")
