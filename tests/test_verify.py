"""Tests for the randomized identity self-checks."""

import numpy as np
import pytest
from oracles import (
    check_kron_identities_per_trial,
    check_regimes_per_trial,
    check_split_spectrum_per_trial,
)

from degnn.errors import DomainError
from degnn.verify import (
    SUITES,
    TRIAL_BLOCK,
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
    # the last run spans three trial blocks, the third one partial
    runs = [(seed, 40) for seed in range(5)] + [(11, 2 * TRIAL_BLOCK + 17)]
    for seed, trials in runs:
        got = check(trials=trials, seed=seed)
        want = reference(trials=trials, seed=seed)
        assert got == want, (seed, trials, got, want)


def test_regimes_trials_get_the_reference_inputs(monkeypatch):
    """check_regimes builds every trial from the per-trial loop's draws.

    A regimes report holds pass counts and the worst bound excess, which
    is 0.0 in most runs, so it cannot show a reordered draw. The realized
    end-to-end maps and the decomposed layers' operators can.
    """
    from degnn import propagate, spectral, verify

    seen = []

    def spy(fn):
        def recorded(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen.append(out if isinstance(out, tuple) else (out,))
            return out
        return recorded

    # the suite looks linearized_map up in degnn.verify, the reference loop
    # in degnn.propagate; both regime classifiers reach composite_operator
    # through degnn.spectral
    monkeypatch.setattr(verify, "linearized_map",
                        spy(propagate.linearized_map))
    monkeypatch.setattr(propagate, "linearized_map",
                        spy(propagate.linearized_map))
    monkeypatch.setattr(spectral, "composite_operator",
                        spy(spectral.composite_operator))
    for seed, trials in ((3, 40), (11, 2 * TRIAL_BLOCK + 17)):
        seen.clear()
        check_regimes(trials=trials, seed=seed)
        got = list(seen)
        seen.clear()
        check_regimes_per_trial(trials, seed)
        assert len(got) == len(seen) > trials
        for g, w in zip(got, seen):
            assert len(g) == len(w)
            assert all(np.array_equal(a, b) for a, b in zip(g, w))
