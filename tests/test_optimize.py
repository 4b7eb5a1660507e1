"""Numeric optimizer: golden-section behavior and analytic cross-validation."""

import contextlib
import dataclasses
import math
import re
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fogsim import analytic, cli, optimize, sagnac
from fogsim.optimize import (
    ScalarProblem,
    minimize_scalar,
    optimize_length,
    optimize_m_continuous,
    optimize_m_integer,
)
from fogsim.sagnac import db_to_photons

import _exact
from _oracles import optimize_energy_split_numeric

CROSS_CHECK_B = (0.2, 0.5, 1.0)
CROSS_CHECK_SIGMA = (0.0, 5.0, 10.0, 15.0, 20.0)
CROSS_CHECK_M = (1, 2, 4, 8, 16)
CROSS_CHECK_L = (5.0, 15.0, 30.0)

#: Golden-section contraction factor.
PHI = (math.sqrt(5.0) - 1.0) / 2.0


def contraction_bound(bracket):
    """Most golden-section contractions a search on ``bracket`` can take.

    The pre-scan leaves at most two of its 64 steps, each contraction
    multiplies the width by PHI whatever the objective returns, and the loop
    stops at a width of 1e-12 relative to the bracket, so of 1e-12 lo or more.
    That stopping width is over 2 000 ulps of the bracket's ends, so rounding
    stretches the width by less than a part in 100 over a whole search.  The
    bound depends on the bracket's shape alone: scaling both ends leaves it.
    """
    lo, hi = bracket
    # Two of 64 steps; 2·(hi - lo) would overflow for a bracket wider than 9e307.
    width = (hi - lo) / 32
    if width == 0.0:
        # A bracket a few subnormal spacings wide: already below 1e-12 lo.
        return 0
    # In logarithms, as width / lo overflows for a bracket from 1e-300 to 1e150.
    log_ratio = math.log(1.01 * width) - math.log(1e-12) - math.log(lo)
    return math.ceil(max(log_ratio, 0.0) / math.log(1.0 / PHI))


class TestMinimizeScalar:
    def test_shifted_quadratic(self):
        result = minimize_scalar(ScalarProblem(lambda x: (x - 2.0) ** 2, (0.5, 5.0)))
        assert result.x == pytest.approx(2.0, abs=1e-10)
        assert result.value == pytest.approx(0.0, abs=1e-18)

    def test_classical_length(self):
        result = optimize_length("C", 0.5)
        assert result.x == pytest.approx(17.3717792761, rel=1e-6)

    def test_squeezed_length_matches_analytic(self):
        n_s = db_to_photons(10.0)
        result = optimize_length("S", 0.5, n_s)
        reference = analytic.optimal_length("S", 0.5, n_s)
        assert result.x == pytest.approx(reference.x, rel=1e-6)
        assert result.value == pytest.approx(reference.value, rel=1e-9)

    @pytest.mark.parametrize(
        "bracket",
        [(1.0, 1.0), (2.0, 1.0), (-2.0, -1.0), (-1.0, 1.0), (-1e-300, 1.0), (0.0, 1.0),
         (5e-324, 1.0), (math.nan, 1.0), (1.0, math.nan), (1.0, math.inf), (-math.inf, 1.0),
         (math.inf, math.inf)],
        ids=["empty", "reversed", "negative", "straddling", "tiny-negative-end", "zero-lo",
             "subnormal-lo", "nan-lo", "nan-hi", "infinite-hi", "infinite-lo", "both-infinite"],
    )
    def test_invalid_bracket(self, bracket):
        # A subnormal lo is rejected: 1e-12 of it rounds below the spacing of
        # floats there, and a search that closes in on it would never stop.
        evaluated = []
        with pytest.raises(ValueError, match=re.escape(f"invalid bracket {bracket}")):
            minimize_scalar(ScalarProblem(evaluated.append, bracket))
        assert evaluated == []

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(sys.float_info.min, 1e6, allow_nan=False),
        st.floats(1e-9, 1e6, allow_nan=False),
    )
    def test_prescan_points_are_linspace(self, lo, width):
        # The pre-scan grid must equal numpy.linspace bit for bit: every
        # optimum the CLI prints depends on it.
        hi = lo + width
        assume(lo < hi)
        seen = []

        def objective(x):
            seen.append(x)
            return (x - lo) ** 2

        minimize_scalar(ScalarProblem(objective, (lo, hi)))
        assert seen[:65] == np.linspace(lo, hi, 65).tolist()

    # Ends within 1e150; test_polish_works_at_every_scale reaches 1e300.
    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(sys.float_info.min, 1e150),
        st.floats(sys.float_info.min, 1e150),
        st.sampled_from([
            lambda x: x * x,
            lambda x: -x,
            lambda x: abs(x - 1.0),
            lambda x: math.nan,
            lambda x: float(hash(x) % 7),  # no two neighbours need agree
        ]),
    )
    def test_contractions_are_bounded_by_the_bracket(self, a, b, objective):
        assume(a != b)
        bracket = (min(a, b), max(a, b))
        assert minimize_scalar(ScalarProblem(objective, bracket)).iterations <= contraction_bound(
            bracket
        )

    def test_polish_keeps_a_step_that_overshoots_the_bracket_out(self):
        # The pre-scan lands on a dip narrower than the polish's stencil, and
        # golden section then runs to the edge of the dip's pre-scan cell.
        # Around that edge the objective falls toward x = 5, so the Newton
        # step points past the bracket's upper end.
        def objective(x):
            return (x - 5.0) ** 2 - (100.0 if x == 0.5 else 0.0)

        result = minimize_scalar(ScalarProblem(objective, (1 / 64, 65 / 64)))
        assert result.x == pytest.approx(33 / 64, abs=1e-12)
        assert result.value == objective(result.x)

    def test_polish_works_at_every_scale(self):
        # The stencil step is a fixed fraction of x, and no h**2 is formed, so
        # a bracket far from 1 gets the same Newton step as one around it.
        errors = {}
        for exponent in range(-300, 301, 10):
            center = 10.0**exponent
            problem = ScalarProblem(lambda x: (x / center - 1.0) ** 2, (center / 3, 10 * center / 3))
            errors[exponent] = abs(minimize_scalar(problem).x - center) / center
        assert {exponent: error for exponent, error in errors.items() if error > 1e-15} == {}

    def test_polish_rejects_a_step_that_makes_the_value_worse(self):
        # At an asymmetric kink the parabola through the stencil has its
        # vertex a quarter step to the shallow side, far worse than the
        # golden-section point at the kink.
        def objective(x):
            return max(x - 0.3, 3.0 * (0.3 - x))

        result = minimize_scalar(ScalarProblem(objective, (0.25, 1.0)))
        assert result.x == pytest.approx(0.3, abs=1e-12)
        assert result.value == objective(result.x) < 1e-12


class TestContractionBound:
    """Every search that ``optimize`` builds ends within the bound of its
    bracket, so no search needs an iteration budget."""

    @pytest.fixture
    def searches(self, monkeypatch):
        searches = []

        def recorded(problem, minimize=minimize_scalar):
            result = minimize(problem)
            searches.append((problem.bracket, result.iterations))
            return result
        monkeypatch.setattr(optimize, "minimize_scalar", recorded)
        return searches

    def test_length_searches_over_every_decade_of_loss(self, searches):
        # Every length bracket is (0.1, 40) times m/b, one shape at every scale,
        # and a valid one at every decade from 1e-306 to 1e306 dB/km.  Each
        # search runs to its end, also where its optimum is then rejected.
        n_s = db_to_photons(10.0)
        for exponent in range(-306, 307):
            for args in (("C", 10.0**exponent), ("E", 10.0**exponent, n_s, 4)):
                with contextlib.suppress(ValueError):
                    optimize_length(*args)
        assert len(searches) == 2 * 613
        assert {contraction_bound(bracket) for bracket, _ in searches} == {63}
        assert all(iterations <= 63 for _, iterations in searches)

    @pytest.mark.parametrize("m_hi, bound", [(1e4, 70), (1e5, 75)])
    def test_count_searches(self, searches, m_hi, bound):
        assert contraction_bound((1.0, m_hi)) == bound
        for b, length in ((0.5, 15.0), (1e-3, 1e3), (1e2, 0.1)):
            optimize_m_continuous("E", b, length, db_to_photons(10.0), m_hi)
            optimize_m_continuous("P", b, length, db_to_photons(10.0), m_hi)
        assert all(iterations <= bound for _, iterations in searches)


def test_each_search_evaluates_a_point_once(monkeypatch, capsys):
    """The polish reuses the value it holds at its centre, so no search of
    ``table1`` or ``figure --id 6`` evaluates its objective twice at one x."""
    searches = []

    def recorded(problem, minimize=minimize_scalar):
        xs = []
        searches.append(xs)

        def objective(x):
            xs.append(x)
            return problem.objective(x)
        return minimize(dataclasses.replace(problem, objective=objective))
    monkeypatch.setattr(optimize, "minimize_scalar", recorded)
    assert cli.main(["table1"]) == cli.main(["figure", "--id", "6"]) == 0
    capsys.readouterr()
    assert len(searches) == 12 + 77
    assert all(len(set(xs)) == len(xs) for xs in searches)


class TestLengthCrossValidation:
    @pytest.mark.parametrize("b", CROSS_CHECK_B)
    @pytest.mark.parametrize("sigma", CROSS_CHECK_SIGMA)
    def test_single_interferometer(self, b, sigma):
        n_s = db_to_photons(sigma)
        variant = "C" if n_s == 0 else "S"
        numeric = optimize_length(variant, b, n_s)
        reference = analytic.optimal_length(variant, b, n_s)
        assert numeric.x == pytest.approx(reference.x, rel=1e-6)
        assert numeric.value == pytest.approx(reference.value, rel=1e-6)

    @pytest.mark.parametrize("b", CROSS_CHECK_B)
    @pytest.mark.parametrize("m", CROSS_CHECK_M)
    @pytest.mark.parametrize("variant", ("D", "P", "E"))
    def test_distributed(self, b, m, variant):
        n_s = 0.0 if variant == "D" else db_to_photons(10.0)
        numeric = optimize_length(variant, b, n_s, m)
        reference = analytic.optimal_length(variant, b, n_s, m)
        assert numeric.x == pytest.approx(reference.x, rel=1e-6)
        assert numeric.value == pytest.approx(reference.value, rel=1e-6)

    @pytest.mark.parametrize(
        "variant, sigma, m", [("C", 0.0, 1), ("S", 10.0, 1), ("D", 0.0, 16), ("P", 10.0, 4),
                              ("E", 10.0, 4)],
    )
    def test_every_decade_of_loss(self, variant, sigma, m):
        # From b = 1e2 the length bracket lies below 1 km, and from b = 1e12 it
        # is narrower than 1e-12 km.  Above the top decade the optimum's
        # variance is not a float, and both routes reject the loss; at the
        # lowest decades it is subnormal, and there the search rejects the
        # loss too.  Below about 3e-153·m the search's upper length 40·m/b
        # squares past the float range, and D's optimum does at 1e-152
        # (1.39e154 km), where the kernel divides twice by the length.
        n_s = db_to_photons(sigma)
        top = max(exponent for exponent in range(150, 160)
                  if _exact.optimal_length(variant, 10.0**exponent, n_s, m)[1] <= sys.float_info.max)
        for route in (analytic.optimal_length, optimize_length):
            with pytest.raises(ValueError, match="out of floating-point range"):
                route(variant, 10.0 ** (top + 1), n_s, m)
        errors, exact_errors, rejected = {}, {}, []
        for exponent in range(-153, top + 1):
            b = 10.0**exponent
            try:
                closed = analytic.optimal_length(variant, b, n_s, m)
            except ValueError:
                rejected.append(exponent)
                with pytest.raises(ValueError, match="out of floating-point range"):
                    optimize_length(variant, b, n_s, m)
                continue
            exact = _exact.optimal_length(variant, b, n_s, m)
            exact_errors[exponent] = max(abs(got - want) / want for got, want in zip(closed, exact))
            errors[exponent] = abs(optimize_length(variant, b, n_s, m).x - closed.x) / closed.x
        assert {exponent: error for exponent, error in exact_errors.items() if error > 1e-15} == {}
        assert {exponent: error for exponent, error in errors.items() if error > 5e-12} == {}
        assert rejected == ([] if variant in ("C", "S") else [-153])


class TestCountOptimization:
    def test_short_fiber_prefers_single_interferometer(self):
        result = optimize_m_integer("D", 0.5, 1.0)
        reference = analytic.optimal_m("D", 0.5, 1.0)
        assert result.x == 1
        assert reference.x < 1.0
        assert reference.x == pytest.approx(0.1151, abs=1e-4)

    def test_integer_profile_matches_analytic_choice(self):
        for b, length in ((0.5, 15.0), (0.5, 20.0), (0.25, 40.0)):
            for sigma in (0.0, 10.0):
                n_s = db_to_photons(sigma)
                variant = "D" if n_s == 0 else "E"
                search = optimize_m_integer(variant, b, length, n_s)
                continuous = analytic.optimal_m(variant, b, length, n_s).x
                # The floor wins a tie, as min keeps the first of equal keys.
                candidates = {
                    m: analytic.variance_vs_length(variant, b, length, m, n_s)
                    for m in (max(1, math.floor(continuous)), max(1, math.ceil(continuous)))
                }
                chosen = min(candidates, key=candidates.get)
                assert search.x == chosen
                assert search.value == pytest.approx(candidates[chosen], rel=1e-12)

    def test_entangled_spot_profile(self):
        # b = 0.5, L = 15, 10 dB: exhaustive evaluation confirms the integer
        # optimum at 4 interferometers, in a near-tie with 5.
        n_s = db_to_photons(10.0)
        assert optimize_m_integer("E", 0.5, 15.0, n_s).x == 4
        profile = {m: analytic.variance_vs_length("E", 0.5, 15.0, m, n_s) for m in (3, 4, 5, 6)}
        assert profile[4] < profile[5] < profile[6]
        assert profile[4] < profile[3]
        assert (profile[5] - profile[4]) / profile[4] < 0.002

    @pytest.mark.parametrize("m_cap", [1, 2])
    def test_m_max_respected(self, m_cap):
        search = optimize_m_integer("E", 0.5, 15.0, 1.0, m_max=m_cap)
        assert search.x <= m_cap
        assert search.value == min(
            analytic.variance_vs_length("E", 0.5, 15.0, m, 1.0) for m in range(1, m_cap + 1)
        )

    def test_integer_search_returns_an_optimum(self):
        search = optimize_m_integer("P", 0.5, 15.0, db_to_photons(10.0))
        assert type(search) is analytic.Optimum
        assert (type(search.x), search.iterations) == (int, 0)

    def test_product_profile_sits_between(self):
        # A shared squeezed budget: the product design loses per-port
        # squeezing as the array grows, staying between the other two.
        n_s = db_to_photons(10.0)
        for m in range(2, 65):
            d, p, e = (
                analytic.variance_vs_length(variant, 0.5, 15.0, m, n_squeezed)
                for variant, n_squeezed in (("D", 0.0), ("P", n_s), ("E", n_s))
            )
            assert e < p < d

    @pytest.mark.parametrize("b,length", [(0.5, 15.0), (0.25, 40.0), (1.0, 8.0)])
    @pytest.mark.parametrize("sigma", (0.0, 10.0, 20.0))
    def test_continuous_count_matches_analytic(self, b, length, sigma):
        n_s = db_to_photons(sigma)
        variant = "D" if n_s == 0 else "E"
        numeric = optimize_m_continuous(variant, b, length, n_s, m_hi=1e3)
        reference = analytic.optimal_m(variant, b, length, n_s)
        if reference.x >= 1.0:
            assert numeric.x == pytest.approx(reference.x, rel=1e-6)
            assert numeric.value == pytest.approx(reference.value, rel=1e-6)

    @pytest.mark.parametrize("variant, sigma", [("D", 0.0), ("E", 10.0)])
    def test_continuous_count_where_the_smallest_counts_overflow(self, variant, sigma):
        # At L = 1e4 km, e^(cL/M) overflows for M below 1.6, the pre-scan's first point.
        n_s = db_to_photons(sigma)
        with pytest.raises(ValueError, match="out of floating-point range"):
            analytic.variance_vs_length(variant, 0.5, 1e4, 1, n_s)
        numeric = optimize_m_continuous(variant, 0.5, 1e4, n_s)
        reference = analytic.optimal_m(variant, 0.5, 1e4, n_s)
        assert numeric.x == pytest.approx(reference.x, rel=1e-10)
        assert numeric.value == pytest.approx(reference.value, rel=1e-10)

    def test_rejects_non_distributed(self):
        with pytest.raises(ValueError):
            optimize_m_integer("C", 0.5, 15.0)
        with pytest.raises(ValueError):
            optimize_m_continuous("C", 0.5, 15.0)
        with pytest.raises(ValueError):
            optimize_m_continuous("S", 0.5, 15.0, 1.0)

    def test_overflowing_count_is_skipped(self):
        # Overflow can lie at either end of a count profile.  Where L^2 is
        # subnormal, M = 1 to 3 stay finite and M >= 4 overflows through the
        # M / L^2 factor; at L = 1e4 km, M = 1 overflows through exp(cL/M).
        # The searches' profile returns inf there; only the point evaluation raises.
        for m in (2, 3):
            assert math.isfinite(analytic.variance_vs_length("D", 0.5, 1.4e-154, m))
        assert analytic.variance_profile("D", 0.5, 1.4e-154, 1, 0.0)(1.4e-154, 4) == math.inf
        assert analytic.variance_profile("D", 0.5, 1e4, 1, 0.0)(1e4, 1) == math.inf
        with pytest.raises(ValueError, match="out of floating-point range"):
            analytic.variance_vs_length("D", 0.5, 1.4e-154, 4)
        assert optimize_m_integer("D", 0.5, 1.4e-154) == (
            1, analytic.variance_vs_length("D", 0.5, 1.4e-154, 1), 0
        )
        with pytest.raises(ValueError, match="out of floating-point range"):
            analytic.variance_vs_length("D", 0.5, 1e4, 1)
        assert optimize_m_integer("D", 0.5, 1e4).x == 64

    @pytest.mark.xfail(
        strict=True,
        reason="the polish keeps min(candidate_value, best_value) with the candidate's x; "
        "the fix moves pinned bytes and waits for the re-pin of ROADMAP item 1",
    )
    def test_value_is_the_objective_at_x(self):
        n_s = db_to_photons(5.0)
        optimum = optimize_m_continuous("E", 0.5, 15.0, n_s)
        assert optimum.value == analytic.variance_vs_length("E", 0.5, 15.0, optimum.x, n_s)

    def test_integer_search_memory_does_not_grow_with_the_count(self):
        n_s = db_to_photons(10.0)
        tracemalloc.start()
        try:
            optimize_m_integer("P", 0.5, 15.0, n_s, 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(("D", "P", "E")),
        st.floats(1e-3, 10.0),
        st.floats(1e-2, 1e3),
        st.floats(0.0, 30.0),
        st.integers(1, 200),
        st.sampled_from((None, 1, 2)),
    )
    def test_integer_search_is_the_exhaustive_minimum(
        self, variant, b, length, sigma, m_max, digits
    ):
        # Rounding the profile to a few significant digits makes ties common;
        # b L up to 1e4 dB overflows the smallest counts.
        n_s = 0.0 if variant == "D" else db_to_photons(sigma)
        checked = analytic.variance_profile

        def variance_profile(*args):
            profile = checked(*args)
            if digits is None:
                return profile
            return lambda length_km, m: float(f"{profile(length_km, m):.{digits}g}")

        profile = variance_profile(variant, b, length, 1, n_s)
        # A count that overflows is one whose profile value is inf.
        optima = [analytic.Optimum(m, profile(length, m)) for m in range(1, m_max + 1)]
        finite = [optimum for optimum in optima if optimum.value < math.inf]
        with mock.patch.object(analytic, "variance_profile", variance_profile):
            if not finite:
                with pytest.raises(ValueError, match="put the variance out of floating-point range"):
                    optimize_m_integer(variant, b, length, n_s, m_max)
                return
            # min keeps the first, so the smallest count wins a tie.
            assert optimize_m_integer(variant, b, length, n_s, m_max) == min(
                finite, key=lambda optimum: optimum.value
            )

    def test_search_fails_only_when_every_count_overflows(self):
        with pytest.raises(ValueError, match="put the variance out of floating-point range"):
            optimize_m_integer("E", 1e308, 15.0, db_to_photons(10.0))


class TestInputsCheckedOnce:
    """A search checks its constant inputs once, through ``analytic.variance_profile``,
    and not again on each evaluation of its objective."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"checks": 0, "evaluations": 0}
        domain = type(sagnac.DOMAIN)
        for name in ("check", "check_design"):
            def counted_check(self, *args, method=getattr(domain, name)):
                counts["checks"] += 1
                return method(self, *args)
            monkeypatch.setattr(domain, name, counted_check)

        def counted_profile(*args, profile=analytic.variance_profile):
            evaluate = profile(*args)

            def counted_evaluate(length_km, m):
                counts["evaluations"] += 1
                return evaluate(length_km, m)
            return counted_evaluate
        monkeypatch.setattr(analytic, "variance_profile", counted_profile)
        return counts

    def test_integer_search_checks_do_not_grow_with_the_count(self, counts):
        checks = []
        for m_max in (8, 64):
            counts.update(checks=0, evaluations=0)
            optimize_m_integer("P", 0.5, 15.0, db_to_photons(10.0), m_max)
            assert counts["evaluations"] == m_max
            checks.append(counts["checks"])
        assert checks[0] == checks[1]

    @pytest.mark.parametrize(
        "search, args",
        [
            (optimize_length, ("S", 0.5, db_to_photons(10.0))),
            (optimize_length, ("P", 0.5, db_to_photons(10.0), 4)),
            (optimize_m_continuous, ("D", 0.5, 15.0)),
            (optimize_m_continuous, ("E", 0.5, 15.0, db_to_photons(10.0))),
        ],
    )
    def test_continuous_search_checks_a_bounded_number_of_times(self, counts, search, args):
        search(*args)
        assert counts["evaluations"] > 100
        assert counts["checks"] <= 20

    @pytest.mark.parametrize("variant, n_s", [("C", 0.0), ("S", 1.0)])
    def test_single_interferometer_count_search_raises_before_evaluating(
        self, counts, variant, n_s
    ):
        with pytest.raises(ValueError, match=f"design {variant} uses a single interferometer"):
            optimize_m_continuous(variant, 0.5, 15.0, n_s)
        assert counts["evaluations"] == 0


class TestEnergySplitNumeric:
    def test_lossless_heisenberg(self):
        result = optimize_energy_split_numeric(10.0, 1.0)
        assert result.value == pytest.approx(1.0 / 110.0, rel=1e-9)

    @pytest.mark.parametrize("eta", (0.5, 0.9, 0.99))
    @pytest.mark.parametrize("n", (10.0, 1000.0))
    def test_matches_analytic(self, eta, n):
        numeric = optimize_energy_split_numeric(n, eta)
        reference = analytic.optimal_energy_split(n, eta)
        assert numeric.x == pytest.approx(reference.x, rel=1e-8)
        assert numeric.value == pytest.approx(reference.value, rel=1e-8)

    def test_squeezing_never_exceeds_half_budget(self):
        for eta in (0.1, 0.5, 0.9, 0.999, 1.0):
            for n in (1.0, 10.0, 100.0, 1e4):
                result = optimize_energy_split_numeric(n, eta)
                assert result.x <= n / 2.0 + 1e-9 * n

    def test_rejects_empty_budget(self):
        with pytest.raises(ValueError):
            optimize_energy_split_numeric(0.0, 0.5)


class TestExponentArbitration:
    """The fixed-length count optimization is governed by a different
    Lambert-W exponent than the length optimization.  The numeric optimizer
    is the arbiter: its ratios must land on e^(array exponent) and must be
    far from the length-exponent family."""

    @pytest.mark.parametrize("sigma", (5.0, 10.0, 15.0, 20.0))
    def test_numeric_ratio_selects_array_exponent(self, sigma):
        n_s = db_to_photons(sigma)
        numeric = (
            optimize_m_continuous("E", 0.5, 15.0, n_s).value
            / optimize_m_continuous("D", 0.5, 15.0).value
        )
        array_based = analytic.ratio_optimal_m(n_s)
        length_lam = analytic._exponent(2, n_s)
        length_based = math.exp(length_lam)
        length_family = 2.0 * math.exp(length_lam) / (2.0 + length_lam)
        assert numeric == pytest.approx(array_based, rel=1e-6)
        assert abs(numeric - length_based) > 0.05
        assert abs(numeric - length_family) > 0.05

    def test_integer_route_agrees_coarsely(self):
        # Integer rounding breaks exact equality; the profile minimum must
        # still land within a few percent of the continuous ratio.
        n_s = db_to_photons(10.0)
        quantum = optimize_m_integer("E", 0.5, 15.0, n_s).value
        classical = optimize_m_integer("D", 0.5, 15.0).value
        assert quantum / classical == pytest.approx(
            analytic.ratio_optimal_m(n_s), rel=0.05
        )


class TestNumericRatios:
    @pytest.mark.parametrize("sigma", (5.0, 10.0, 20.0))
    def test_length_ratio_matches_analytic(self, sigma):
        n_s = db_to_photons(sigma)
        numeric = optimize_length("S", 0.5, n_s).value / optimize_length("C", 0.5).value
        assert numeric == pytest.approx(analytic.ratio_optimal_length(n_s), rel=1e-8)

    def test_ratio_independent_of_loss_coefficient(self):
        n_s = db_to_photons(10.0)
        values = [
            optimize_length("S", b, n_s).value / optimize_length("C", b).value
            for b in CROSS_CHECK_B
        ]
        assert values[0] == pytest.approx(values[1], rel=1e-8)
        assert values[1] == pytest.approx(values[2], rel=1e-8)


N_S_10DB = db_to_photons(10.0)

#: Each closed-form optimum, its numeric counterpart, their shared
#: arguments, and the relative tolerance the cross-validation tests above
#: hold ``x`` and ``value`` to.
ROUTE_PAIRS = [
    *(
        pytest.param(analytic.optimal_length, optimize_length, (variant, 0.5, n_s, m), 1e-6,
                     id=f"length {variant}")
        for variant, n_s, m in (
            ("C", 0.0, 1), ("S", N_S_10DB, 1), ("D", 0.0, 4), ("P", N_S_10DB, 4), ("E", N_S_10DB, 4),
        )
    ),
    pytest.param(analytic.optimal_m, optimize_m_continuous, ("D", 0.5, 15.0), 1e-6, id="count D"),
    pytest.param(analytic.optimal_m, optimize_m_continuous, ("E", 0.5, 15.0, N_S_10DB), 1e-6,
                 id="count E"),
    pytest.param(analytic.optimal_energy_split, optimize_energy_split_numeric, (100.0, 0.9), 1e-8,
                 id="energy split"),
]


@pytest.mark.parametrize("closed, numeric, args, rel", ROUTE_PAIRS)
def test_both_routes_return_one_agreeing_optimum(closed, numeric, args, rel):
    a, n = closed(*args), numeric(*args)
    assert type(a) is type(n) is analytic.Optimum
    assert a.iterations == 0 < n.iterations
    assert n.x == pytest.approx(a.x, rel=rel)
    assert n.value == pytest.approx(a.value, rel=rel)
