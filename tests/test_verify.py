"""Tests for the randomized identity self-checks."""

import pytest
from oracles import (
    check_kron_identities_per_trial,
    check_regimes_per_trial,
    check_split_spectrum_per_trial,
)

from degnn.errors import DomainError
from degnn.verify import (
    SUITES,
    CheckReport,
    check_kron_identities,
    check_linearization,
    check_regimes,
    check_split_spectrum,
)


def test_all_suites_pass_at_default_settings():
    """Every registered suite passes all 100 seeded trials."""
    for token, fn in SUITES.items():
        rep = fn(trials=100, seed=0)
        assert rep.ok, rep.summary()
        assert rep.passed == rep.total == 100
        assert rep.name == token


def test_reports_are_deterministic():
    a = check_split_spectrum(trials=30, seed=7)
    b = check_split_spectrum(trials=30, seed=7)
    assert a == b
    c = check_split_spectrum(trials=30, seed=8)
    assert c.max_err != a.max_err


def test_errors_stay_tiny():
    """The identities are exact; float roundoff is orders below tolerance."""
    assert check_linearization(trials=50, seed=1).max_err < 1e-11
    assert check_split_spectrum(trials=50, seed=1).max_err < 1e-11
    assert check_kron_identities(trials=50, seed=1).max_err < 1e-11
    assert check_regimes(trials=50, seed=1).max_err < 1e-11


def test_zero_tolerance_reports_failures():
    """An unreachable tolerance flips the report rather than raising."""
    rep = check_linearization(trials=10, seed=0, tol=0.0)
    assert not rep.ok
    assert rep.passed < rep.total
    assert "10" in rep.summary()


def test_trial_count_validation():
    for fn in (check_linearization, check_split_spectrum,
               check_kron_identities, check_regimes):
        with pytest.raises(DomainError):
            fn(trials=0)


def test_report_summary_format():
    rep = CheckReport("demo", 3, 4, 0.5)
    assert not rep.ok
    assert rep.summary() == "demo: 3/4 pass (max err 5.000e-01)"


@pytest.mark.parametrize("check, reference", [
    (check_split_spectrum, check_split_spectrum_per_trial),
    (check_kron_identities, check_kron_identities_per_trial),
    (check_regimes, check_regimes_per_trial),
], ids=["lemma3", "kron", "regimes"])
def test_batched_suites_match_per_trial_reference(check, reference):
    """Stacking the SVDs across trials changes no field of a report."""
    for seed in range(5):
        got = check(trials=40, seed=seed)
        want = reference(trials=40, seed=seed)
        assert got == want, (seed, got, want)
