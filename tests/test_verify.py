import json
import math

import numpy as np
import pytest

import ilfo_lab.verify as verify_mod
from ilfo_lab import ConfigurationError, MixedPolicy
from ilfo_lab.loop import RunRecord
from ilfo_lab.verify import (
    CheckReport,
    check_concentration,
    check_elliptical_potential,
    check_gaussian_tv,
    check_info_gain_bounds,
    check_optimism,
    check_simulation_lemma,
    concentration_bound,
    elliptical_potential_sides,
    gaussian_l1_closed_form,
    gaussian_l1_numeric,
    info_gain_bound,
    run_all_checks,
    simulation_lemma_sides,
)
from ilfo_lab.worlds import make_chain, make_random_policy

# full L1 integral at |mu1 - mu2| / sigma = 1, from the erf closed form
L1_AT_UNIT_RATIO = 0.7658498450960525


def _one_hot_knr_record(lam=0.5, horizon=3, d=3, n_iters=4):
    """Synthetic record whose one-hot features make covariances diagonal."""
    rng = np.random.default_rng(0)
    cov = lam * np.eye(d)
    snapshots, feats_list = [], []
    for _ in range(n_iters):
        snapshots.append(cov.copy())
        rows = np.eye(d)[rng.integers(0, d, size=horizon)]
        feats_list.append(rows)
        cov = cov + rows.T @ rows
    n = n_iters
    return RunRecord(
        t=np.arange(1, n + 1), value=np.zeros(n), expert_value=0.0,
        regret=np.zeros(n), ipm=np.zeros(n), mean_bonus=np.zeros(n),
        info_gain_cum=np.linspace(1.0, float(n), n), objective=np.zeros(n),
        kind="knr", horizon=horizon, delta=0.05, n_expert=10,
        cov_snapshots=snapshots, executed_features=feats_list,
        knr_params={"lam_ridge": lam, "noise_std": 0.1, "w_max": 2.0,
                    "feature_dim": d, "state_dim": 1})


class TestCheckReport:
    def test_failures_bounded_by_trials(self):
        with pytest.raises(ConfigurationError):
            CheckReport(name="x", trials=2, failures=3,
                        worst_violation=0.0, passed=False)

    def test_json_round_trip(self):
        rep = CheckReport(name="x", trials=5, failures=0,
                          worst_violation=-0.25, passed=True)
        assert json.loads(json.dumps(rep.to_dict()))["trials"] == 5


class TestGaussianTv:
    def test_equal_means_give_zero(self):
        assert gaussian_l1_numeric(0.4, 0.4, 0.7) == pytest.approx(0.0, abs=1e-12)
        assert gaussian_l1_closed_form(0.4, 0.4, 0.7) == 0.0

    def test_unit_ratio_value(self):
        assert gaussian_l1_closed_form(0.0, 1.0, 1.0) == pytest.approx(
            L1_AT_UNIT_RATIO, rel=1e-12)
        assert gaussian_l1_numeric(0.0, 1.0, 1.0) == pytest.approx(
            L1_AT_UNIT_RATIO, abs=1e-6)

    def test_check_passes(self):
        rep = check_gaussian_tv()
        assert rep.passed and rep.failures == 0 and rep.trials == 50

    def test_disagreeing_oracles_break_the_harness(self, monkeypatch):
        monkeypatch.setattr(verify_mod, "gaussian_l1_numeric",
                            lambda *a: 0.123)
        with pytest.raises(RuntimeError):
            check_gaussian_tv(n_triples=2)


class TestSimulationLemma:
    def test_identical_models_give_zero(self):
        mdp = make_chain(num_states=4, num_actions=2, horizon=3)
        f = np.linspace(0.0, 1.0, 4)
        pol = make_random_policy(np.random.default_rng(0), 4, 2, 3)
        lhs, rhs, bound = simulation_lemma_sides(mdp, mdp.transitions, f, f,
                                                 pol)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)
        assert bound >= 0.0

    def test_mixture_is_rejected(self):
        # v_hat must be the policy's own values, which a mixture lacks
        mdp = make_chain(num_states=4, num_actions=2, horizon=3)
        f = np.linspace(0.0, 1.0, 4)
        rng = np.random.default_rng(0)
        pols = [make_random_policy(rng, 4, 2, 3) for _ in range(2)]
        for comps in ((pols[0],), tuple(pols)):
            mix = MixedPolicy(components=comps,
                              weights=np.full(len(comps), 1 / len(comps)))
            with pytest.raises(ConfigurationError, match="mixture"):
                simulation_lemma_sides(mdp, mdp.transitions, f, f, mix)

    def test_check_passes_at_tolerance(self):
        rep = check_simulation_lemma()
        assert rep.passed and rep.trials == 200
        assert rep.worst_violation <= 1e-9


class TestOptimism:
    def test_check_passes(self):
        rep = check_optimism()
        assert rep.passed and rep.failures == 0 and rep.trials == 100

    def test_true_model_gives_equality(self):
        # sigma = 0 -> bonus 0 -> both values coincide
        rep = check_optimism(n_instances=1, seed=4)
        assert rep.passed  # generic instance
        mdp = make_chain(num_states=3, num_actions=2, horizon=4)
        f = np.array([0.2, 0.9, 0.4])
        pol = make_random_policy(np.random.default_rng(1), 3, 2, 4)
        lhs, rhs, _ = simulation_lemma_sides(mdp, mdp.transitions, f, f, pol)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestConcentration:
    def test_constant_function_never_deviates(self):
        funcs = np.full((1, 6), 0.37)
        rep = check_concentration(functions=funcs, trials=50)
        assert rep.failures == 0
        assert rep.worst_violation == pytest.approx(
            -concentration_bound(1, 100, 0.1), abs=1e-12)

    def test_bound_is_the_round_one_union_bound(self):
        # the paper's per-round bound 2 sqrt(ln(2 t^2 |F| / delta) / N)
        # at t = 1, digit for digit
        t = 1
        assert concentration_bound(50, 100, 0.1) == 2.0 * math.sqrt(
            math.log(2.0 * t**2 * 50 / 0.1) / 100)

    def test_bound_halves_when_samples_quadruple(self):
        a = concentration_bound(50, 100, 0.1)
        b = concentration_bound(50, 400, 0.1)
        assert a / b == pytest.approx(2.0, rel=1e-12)

    def test_coverage_at_default_setup(self):
        rep = check_concentration()
        assert rep.passed
        assert rep.failures <= 0.1 * rep.trials


class TestEllipticalPotential:
    def test_diagonal_counts_identity(self):
        rec = _one_hot_knr_record(lam=0.5)
        potential, det_bound, closed = elliptical_potential_sides(rec)
        counts = np.zeros(3)
        for feats in rec.executed_features:
            counts += feats.sum(axis=0)
        expect = 2.0 * np.sum(np.log(1.0 + counts / 0.5))
        assert det_bound == pytest.approx(expect, rel=1e-12)
        assert potential <= det_bound + 1e-9
        assert det_bound <= closed + 1e-9

    def test_check_passes_on_synthetic_record(self):
        rep = check_elliptical_potential(_one_hot_knr_record())
        assert rep.passed

    def test_tabular_record_rejected(self):
        rec = _one_hot_knr_record()
        rec.kind = "tabular"
        with pytest.raises(ConfigurationError):
            check_elliptical_potential(rec)


class TestInfoGainBounds:
    def test_tabular_formula(self):
        n = 30
        rec = RunRecord(
            t=np.arange(1, n + 1), value=np.zeros(n), expert_value=0.0,
            regret=np.zeros(n), ipm=np.zeros(n), mean_bonus=np.zeros(n),
            info_gain_cum=np.linspace(0.5, 12.0, n), objective=np.zeros(n),
            kind="tabular", horizon=5, delta=0.05, n_expert=10,
            num_states=6, num_actions=3)
        expect = (2.0 * 5 * 36 * 3 * math.log(900 * 18 / 0.05)
                  * math.log(1 + 150))
        assert info_gain_bound(rec) == pytest.approx(expect, rel=1e-12)
        assert check_info_gain_bounds(rec).passed

    def test_sanity_ceiling_is_binding(self):
        rec = _one_hot_knr_record(horizon=3, n_iters=4)
        # cumulative gain above T*H must fail the ceiling
        rec.info_gain_cum = np.linspace(5.0, 13.0, 4)
        rep = check_info_gain_bounds(rec)
        assert not rep.passed

    def test_knr_record_passes(self):
        assert check_info_gain_bounds(_one_hot_knr_record()).passed


class TestSuiteRunner:
    def test_without_record(self):
        reports = run_all_checks(seed=0)
        assert [r.name for r in reports] == [
            "simulation_lemma", "gaussian_tv", "optimism", "concentration"]
        assert all(r.passed for r in reports)

    def test_with_record_and_determinism(self):
        a = run_all_checks(seed=1, knr_record=_one_hot_knr_record())
        b = run_all_checks(seed=1, knr_record=_one_hot_knr_record())
        assert len(a) == 6
        assert a == b
        assert json.dumps([r.to_dict() for r in a])
