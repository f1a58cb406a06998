"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the terminal.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from eulerchar.akashi import AkashiData, akashi_series, check_multiplicativity
from eulerchar.cli import main
from eulerchar.curves import Curve, count_points, euler_factor, weierstrass_invariants, x1_11
from eulerchar.cyclotomic_fields import split
from eulerchar.gamma_modules import (TorsionModule, finite_level_oracle,
                                     generalized_chi)
from eulerchar.lambda_algebra import leading_term, series_from_text, weierstrass_prepare
from eulerchar.padics import PowerOfP
from test_akashi import degreewise_product, random_data
from test_curves import quadratic_twist
from test_gamma_modules import random_normal_form_module
from test_lambda_algebra import agrees_with, random_preparable, reconstruct


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    print(f"[criterion {number}] PASS - {description}")


def test_criterion_1_worked_example_point_counts():
    with criterion(1, "point counts 10 and 105 give traces -2 and 9 in under 1 s"):
        start = time.perf_counter()
        curve = x1_11()
        n7 = count_points(curve, 7)
        n113 = count_points(curve, 113)
        elapsed = time.perf_counter() - start
        assert n7 == 10
        assert 7 + 1 - n7 == -2
        assert n113 == 105
        assert 113 + 1 - n113 == 9
        assert elapsed < 1.0


def test_criterion_2_euler_factor_valuations():
    with criterion(2, "Euler-factor valuations are exactly 2 at q=7 and 0 at q=113"):
        at7 = euler_factor(-2, 7, 7)
        assert at7.value == Fraction(49, 36)
        assert at7.valuation == 2
        at113 = euler_factor(9, 113, 7)
        assert at113.valuation == 0


def test_criterion_3_splitting():
    with criterion(3, "113 splits completely: f=1 and g=6"):
        data = split(113, 7)
        assert (data.f, data.g) == (1, 6)


def test_criterion_4_pipeline_echo(capsys):
    with criterion(4, "example command echoes 7^8 and prints the chi_gamma caveat"):
        code = main(["example-x1-11", "--chi-gamma", "7^8"])
        out = capsys.readouterr().out
        report = json.loads(out)
        assert code == 0
        assert report["results"]["chi_sigma"] == "7^8"
        assert report["results"]["all_checks_pass"] is True
        assert any("external input" in note for note in report["provenance_notes"])
        # and a wrong chi_gamma must trip the golden-value exit code
        code = main(["example-x1-11", "--chi-gamma", "7^7"])
        capsys.readouterr()
        assert code == 4


def test_criterion_5_weierstrass_property_suite():
    with criterion(5, "500 random preparations: reconstruction, idempotence, "
                      "mu/lambda additivity, zero failures, under 10 s"):
        rng = random.Random(20260811)
        start = time.perf_counter()
        prepared = 0
        for i in range(250):
            p = (3, 5, 7, 11)[i % 4]
            n = rng.randint(4, 10)
            d = rng.randint(12, 40)
            max_mu = min(2, (n - 2) // 2)
            g = random_preparable(rng, p, n, d, max_mu)
            h = random_preparable(rng, p, n, d, max_mu)
            forms = []
            for s in (g, h):
                form = weierstrass_prepare(s)
                assert agrees_with(reconstruct(form), s)
                again = weierstrass_prepare(reconstruct(form))
                assert (form.mu, form.lam) == (again.mu, again.lam)
                assert form.same_characteristic_element(again)
                forms.append(form)
                prepared += 1
            mu_sum = forms[0].mu + forms[1].mu
            lam_sum = forms[0].lam + forms[1].lam
            assert mu_sum <= n - 2 and lam_sum < d  # generator guarantees this
            product = weierstrass_prepare(g * h)
            assert (product.mu, product.lam) == (mu_sum, lam_sum)
        elapsed = time.perf_counter() - start
        assert prepared == 500
        assert elapsed < 10.0


def test_criterion_6_oracle_equivalence():
    with criterion(6, "100 random modules: closed-form chi equals the Smith-form "
                      "oracle exactly, including r, under 30 s"):
        rng = random.Random(1187)
        start = time.perf_counter()
        for _ in range(100):
            p = rng.choice([3, 5, 7])
            module = random_normal_form_module(rng, p, 8, 20)
            closed = generalized_chi(module)
            oracle = finite_level_oracle(module, 12)
            assert closed.finite and oracle.finite
            assert closed.value == oracle.value
            assert closed.r == oracle.r
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0


def test_criterion_7_counterexample_fidelity():
    with criterion(7, "Lambda/(T) is finite with chi=1 at both ends, "
                      "Lambda/(T^2) is not finite"):
        end_module = TorsionModule(7, (series_from_text(7, "T", 8, 12),))
        middle = TorsionModule(7, (series_from_text(7, "T^2", 8, 12),))
        for compute in (generalized_chi, lambda m: finite_level_oracle(m, 10)):
            ends = compute(end_module)
            assert ends.finite is True
            assert ends.value == PowerOfP(7, 0)
            assert compute(middle).finite is False


def test_criterion_8_akashi_laws():
    with criterion(8, "alternating-product laws: 50 product triples true, 20 broken "
                      "triples false, leading terms additive, single degree matches "
                      "the characteristic element"):
        rng = random.Random(4987)
        t_series = {}
        for trial in range(50):
            p = rng.choice([3, 5, 7])
            left = random_data(rng, p)
            right = random_data(rng, p)
            middle = degreewise_product(left, right)
            assert check_multiplicativity(left, middle, right) is True

            lead_l, lead_r = akashi_series(left), akashi_series(right)
            lead_m = akashi_series(middle)
            assert lead_m.k == lead_l.k + lead_r.k
            assert lead_m.alpha_valuation == (lead_l.alpha_valuation
                                              + lead_r.alpha_valuation)

            if trial < 20:
                if p not in t_series:
                    t_series[p] = series_from_text(p, "T", 10, 32)
                broken_index = rng.randrange(len(middle.char_elements))
                elements = list(middle.char_elements)
                elements[broken_index] = elements[broken_index] * t_series[p]
                broken = AkashiData(p, tuple(elements))
                assert check_multiplicativity(left, broken, right) is False

        for _ in range(10):
            p = rng.choice([3, 5, 7])
            single = random_data(rng, p)
            g = single.char_elements[0]
            lead = akashi_series(AkashiData(p, (g,)))
            lt = leading_term(g)
            assert (lead.alpha_valuation, lead.k) == (lt.alpha_valuation, lt.k)

        # single-degree data built from a torsion module's characteristic
        # element reproduces that module's chi
        for _ in range(10):
            p = rng.choice([3, 5, 7])
            module = random_normal_form_module(rng, p, 10, 32)
            chi = generalized_chi(module)
            product = module.generators[0]
            for g in module.generators[1:]:
                product = product * g
            lead = akashi_series(AkashiData(p, (product,)))
            assert chi.finite and lead.chi == chi.value
            assert lead.k == chi.r


def test_criterion_9_hasse_and_twist_invariants():
    with criterion(9, "Hasse bound and twist point-count sum over 50 random curves"):
        rng = random.Random(733)
        odd_primes = [q for q in range(3, 200) if all(q % d for d in range(2, q))]
        checked = 0
        while checked < 50:
            q = rng.choice(odd_primes)
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(5)]
            try:
                curve = Curve(*coeffs)
            except Exception:
                continue
            if weierstrass_invariants(*curve._integral[1])[4] % q == 0:
                continue
            n = count_points(curve, q)
            assert (q + 1 - n) ** 2 <= 4 * q
            non_residue = next(d for d in range(2, q)
                               if pow(d, (q - 1) // 2, q) == q - 1)
            twisted = quadratic_twist(curve, non_residue)
            assert count_points(twisted, q) + n == 2 * q + 2
            checked += 1
